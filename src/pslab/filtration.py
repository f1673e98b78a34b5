"""Vietoris-Rips and Cech filtered complexes over finite point clouds.

A filtered complex stores every simplex of dimension <= q_max whose entry time
is <= r_max, ordered by (time, dimension, lexicographic vertex tuple).  Entry
times: Rips uses the diameter of the simplex, Cech the radius of the smallest
enclosing ball of its vertices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
# the LAPACK gelsd gufunc behind numpy's lstsq, which solves a stack in one call
from numpy.linalg._umath_linalg import lstsq as _gelsd
from scipy.spatial import cKDTree

from .point_process import BallWindow, DomainError, PointCloud

# relative slack of the facet-ball containment test in `_enclosing_balls`
# (a simplex whose facet balls all miss their omitted vertex goes to
# `_circumballs`); with no absolute part, a cloud scaled by a power of two
# gets exactly scaled radii
MB_TOL = 1e-9


def mu(kind: str, r: float) -> float:
    """Upper bound on the diameter of a simplex alive at filtration time r."""
    if kind == "rips":
        return r
    if kind == "cech":
        return 2.0 * r
    raise DomainError(f"unknown filtration kind {kind!r}")


# ---------------------------------------------------------------------------
# Smallest enclosing ball
# ---------------------------------------------------------------------------


def _norms(U: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of U (shape (..., d)), rounded exactly as
    `np.linalg.norm` rounds each row: the stacked 1 x d by d x 1 products go
    through the same dot kernel as the norm of a single vector.

    A row whose sum of squares is below 2^-960, where a square can underflow
    and lose bits, is taken again scaled by 2^600, which is exact.  Its norm
    is then the one an unbounded exponent would give, and so scales exactly
    with a cloud scaled by a power of two, unless it is below 2^-1000: there
    it, its Cech half or a halved cloud's norm may be subnormal, with fewer
    than 53 bits, and it is taken as 0, which scales exactly."""
    sq = (U[..., None, :] @ U[..., :, None])[..., 0, 0]
    out = np.sqrt(sq)
    small = sq < 2.0**-960
    if small.any():
        V = U[small] * 2.0**600
        norm = np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0]) * 2.0**-600
        out[small] = np.where(norm < 2.0**-1000, 0.0, norm)
    return out


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _circumballs(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of the smallest balls with all points of each X[i]
    on their boundary (X of shape (m, k, d), k >= 2, each X[i] affinely
    small).  One stacked call of the gufunc behind numpy's `lstsq`, with its
    default rcond and its error rule, so every center is bit-identical to a
    per-matrix `lstsq` solve.

    As in `_norms`, a simplex whose edge vectors' squares could underflow (all
    entries below 2^-480) is solved scaled by 2^600, exactly, and scaled back,
    so its center scales exactly with a cloud scaled by a power of two."""
    p0 = X[:, 0]
    D = X[:, 1:] - p0[:, None, :]
    small = np.abs(D).max(axis=(1, 2)) < 2.0**-480
    D[small] *= 2.0**600
    A = 2.0 * D
    b = np.einsum("mij,mij->mi", D, D)
    rcond = np.finfo(float).eps * max(A.shape[1:])
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore", divide="ignore", under="ignore"):
        sol = _gelsd(A, b[..., None], rcond, signature="ddd->ddid")[0][..., 0]
    sol[small] *= 2.0**-600
    c = p0 + sol
    return c, _norms(X - c[:, None, :]).max(axis=1)


def _enclosing_balls(X: np.ndarray, fc: np.ndarray, fr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of the smallest enclosing balls of simplices X (shape
    (m, k + 1, d), k >= 2), from the balls of their facets: fc[:, c] and
    fr[:, c] are the center and radius of the facet without vertex c.  The
    facets are tried by omitted vertex c = k, ..., 0; one counts if its ball
    holds vertex c, and the first of the strictly smallest counted ones wins.
    Simplices with none have every vertex on their ball: the circumball."""
    m, k1, d = X.shape
    center = np.empty((m, d))
    radius = np.empty(m)
    found = np.zeros(m, dtype=bool)
    for c in range(k1 - 1, -1, -1):
        rad = fr[:, c]
        take = _norms(X[:, c] - fc[:, c]) <= (1.0 + MB_TOL) * rad
        take &= ~found | (rad < radius)
        center[take], radius[take] = fc[take, c], rad[take]
        found |= take
    rest = ~found
    if rest.any():
        center[rest], radius[rest] = _circumballs(X[rest])
    return center, radius


# ---------------------------------------------------------------------------
# Filtered complex
# ---------------------------------------------------------------------------


class Simplices(Sequence):
    """The cells of a filtered complex as arrays, per dimension k <= q_max,
    each in the complex's stored order: `rows[k]`, the k-simplices as
    ascending vertex-id rows; `facets[k]`, whose column c holds, for each
    row, the index in `rows[k - 1]` of its facet without vertex c, which is
    the facet's rank among the (k-1)-cells (no columns at k = 0); and
    `positions[k]`, the ascending positions of the k-cells in the whole
    complex.  As a sequence it reads the vertex tuples in the stored order."""

    def __init__(self, rows: list[np.ndarray], facets: list[np.ndarray], positions: list[np.ndarray]):
        self.rows, self.facets, self.positions = rows, facets, positions

    def __len__(self) -> int:
        return sum(len(at) for at in self.positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]
        for rows, at in zip(self.rows, self.positions):
            hit = np.flatnonzero(at == i)
            if len(hit):
                return tuple(rows[hit[0]].tolist())

    def __iter__(self):
        out = [None] * len(self)
        for rows, at in zip(self.rows, self.positions):
            # zipping the columns makes the tuples faster than tuple() on each row
            for i, v in zip(at.tolist(), zip(*rows.T.tolist())):
                out[i] = v
        return iter(out)


@dataclass
class FilteredComplex:
    """A filtered complex in its stored order.  `verts` holds the cells as
    `Simplices`, the arrays `build` makes, and reads as vertex tuples; a list
    of vertex tuples given in its place is converted to them once."""

    q_max: int
    r_max: float
    verts: Simplices
    times: np.ndarray  # float entry times, in the stored order
    dims: np.ndarray  # simplex dimensions, in the stored order

    def __post_init__(self):
        # ascending vertex tuples in the stored order, as `complex_from_text`
        # gives, become the arrays once, each dimension in the order given; a
        # facet is looked up by its tuple one dimension down, and stored as -1
        # if it is not a cell there, which `persistence.reduce` rejects
        if isinstance(self.verts, Simplices):
            return
        verts = list(self.verts)
        sizes = np.array([len(v) for v in verts], dtype=np.intp)
        rows, facets, positions, index = [], [], [], {}
        for k in range(max(self.q_max, int(sizes.max(initial=1)) - 1) + 1):
            positions.append(np.flatnonzero(sizes == k + 1))
            rows.append(np.array([verts[i] for i in positions[k].tolist()], dtype=np.intp).reshape(-1, k + 1))
            tuples = [tuple(v) for v in rows[k].tolist()]
            width = k + 1 if k else 0
            found = [[index.get(v[:c] + v[c + 1:], -1) for c in range(width)] for v in tuples]
            facets.append(np.array(found, dtype=np.intp).reshape(len(tuples), width))
            index = {v: i for i, v in enumerate(tuples)}
        self.verts = Simplices(rows, facets, positions)

    @property
    def n_cells(self) -> int:
        return len(self.times)

    def event_times(self) -> np.ndarray:
        return np.unique(self.times)

    def to_text(self) -> str:
        lines = []
        for v, t, q in zip(self.verts, self.times, self.dims):
            lines.append(" ".join([repr(float(t)), str(int(q))] + [str(i) for i in v]))
        return "\n".join(lines) + ("\n" if lines else "")


def complex_from_text(text: str, q_max: int, r_max: float) -> FilteredComplex:
    verts: list[tuple[int, ...]] = []
    times: list[float] = []
    dims: list[int] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split()
        times.append(float(parts[0]))
        dims.append(int(parts[1]))
        verts.append(tuple(int(x) for x in parts[2:]))
    return FilteredComplex(q_max, r_max, verts, np.asarray(times), np.asarray(dims, dtype=int))


def close_pairs(pts: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (i, j), i < j, in lexicographic order with ||p_i - p_j|| <= cutoff,
    and their lengths, rounded exactly as `np.linalg.norm(pts[i] - pts[j])`."""
    if pts.shape[0] < 2:
        return np.empty((0, 2), dtype=np.intp), np.empty(0)
    # query slightly wide: the tree compares squared distances, which can
    # disagree by 1 ulp with the norms used for filtration times
    cand = cKDTree(pts).query_pairs(cutoff * (1.0 + 1e-9) + 1e-12, output_type="ndarray")
    cand = np.sort(np.asarray(cand, dtype=np.intp).reshape(-1, 2), axis=1)
    # the keys i * n + j are distinct, so a plain argsort gives the
    # lexicographic order
    cand = cand[np.argsort(cand[:, 0] * len(pts) + cand[:, 1])]
    lengths = _norms(pts[cand[:, 0]] - pts[cand[:, 1]])
    keep = lengths <= cutoff
    return cand[keep], lengths[keep]


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """`np.argsort(keys, kind="stable")` for nonnegative integer keys: the
    distinct keys * m + index go through numpy's plain integer sort, which is
    several times faster than its stable argsort."""
    m = len(keys)
    return np.sort(keys * m + np.arange(m)) % m


def build(P: PointCloud, kind: str, r_max: float, q_max: int) -> FilteredComplex:
    """The filtered complex of `kind` ("rips" or "cech") on P: every simplex
    of dimension <= q_max that enters by r_max.  At r_max = 0 it holds the
    vertices alone, which time-zero queries use."""
    cutoff = mu(kind, r_max)  # rejects an unknown kind
    if not r_max >= 0:
        raise DomainError("r_max must be nonnegative")
    if q_max < 0:
        raise DomainError("q_max must be nonnegative")
    pts = P.points
    n = pts.shape[0]

    # Per dimension k: the k-simplices as vertex rows in lexicographic order,
    # their entry times and their facets' indices among those rows; for Cech
    # also the centers and radii of their smallest enclosing balls, from which
    # the next dimension's balls are built.  `codes` keys the rows of the last
    # dimension as (index of the prefix face) * n + last vertex, ascending.
    simplices = [np.arange(n, dtype=np.intp).reshape(n, 1)]
    times = [np.zeros(n)]
    facets = [np.empty((n, 0), dtype=np.intp)]
    if q_max >= 1:
        # every close pair is an edge: its length is at most mu(kind, r_max),
        # and halving it for Cech is exact; at r_max = 0 there is no edge, and
        # every higher dimension is empty too
        edges, lengths = close_pairs(pts, cutoff) if r_max > 0 else (np.empty((0, 2), dtype=np.intp), np.empty(0))
        simplices.append(edges)
        times.append(lengths if kind == "rips" else lengths / 2.0)
        facets.append(edges[:, ::-1])
        codes = edges[:, 0] * n + edges[:, 1]
        if kind == "cech":
            center = 0.5 * (pts[edges[:, 0]] + pts[edges[:, 1]])
            radius = _norms(pts[edges[:, 0]] - center)
        # Sibling join: a k-simplex joins a (k-1)-row `owner` with a later row
        # `sibling` of the same prefix face, the rest of owner's run of equal
        # codes // n.  Its facet without vertex k is owner, the one without
        # k - 1 is sibling, and the one without c < k - 1 has the code
        # facets[k-1][owner, c] * n + w; the candidate is kept only if every
        # facet is a cell, which for k >= 2 means a clique for Rips, and for
        # Cech also that no facet entered above r_max.
        for k in range(2, q_max + 1):
            prefix = codes // n
            m = len(codes)
            counts = np.searchsorted(prefix, prefix, side="right") - np.arange(1, m + 1)
            owner = np.repeat(np.arange(m), counts)
            sibling = owner + 1 + np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
            w = simplices[k - 1][sibling, -1]
            at = np.empty((len(owner), k + 1), dtype=np.intp)
            at[:, k], at[:, k - 1] = owner, sibling
            ok = np.ones(len(owner), dtype=bool)
            for c in range(k - 1):
                key = facets[k - 1][owner, c] * n + w
                at[:, c] = np.minimum(np.searchsorted(codes, key), m - 1)
                ok &= codes[at[:, c]] == key
            owner, w, at = owner[ok], w[ok], at[ok]
            cells = np.column_stack([simplices[k - 1][owner], w])
            codes = owner * n + w
            # the largest facet time, a Rips diameter (max is exact); taken
            # column by column, which is faster than a row max on narrow rows
            t = times[k - 1][at[:, 0]]
            for c in range(1, k + 1):
                t = np.maximum(t, times[k - 1][at[:, c]])
            if kind == "cech":
                # the time is the largest of the radius and the facet times,
                # so that no facet enters after its simplex
                center, radius = _enclosing_balls(pts[cells], center[at], radius[at])
                t = np.maximum(radius, t)
                keep = t <= r_max
                cells, t, at, codes, center, radius = (x[keep] for x in (cells, t, at, codes, center, radius))
            simplices.append(cells)
            times.append(t)
            facets.append(at)

    sizes = [len(s) for s in simplices]
    times_arr = np.concatenate(times)
    # the dimensions follow each other in lexicographic order, so a stable
    # sort by time (by its rank among the distinct times) gives the stored
    # (time, dimension, lexicographic) order
    order = _stable_argsort(np.unique(times_arr, return_inverse=True)[1])
    dims_arr = np.repeat(np.arange(len(sizes)), sizes)[order]
    # the vertices come first, at time 0, in their own order, so an edge's
    # facets are already ranks; each higher dimension's rows are put in the
    # stored order, and their facets renamed from lexicographic indices to
    # ranks by the inverse of the dimension below
    positions, start = [np.arange(n, dtype=np.intp)], n
    for k in range(1, len(sizes)):
        positions.append(np.flatnonzero(dims_arr == k))
        lex = order[positions[k]] - start
        simplices[k] = np.take(simplices[k], lex, axis=0)
        facets[k] = np.take(facets[k], lex, axis=0)
        if k > 1:
            facets[k] = rank[facets[k]]
        rank = np.empty(sizes[k], dtype=np.intp)
        rank[lex] = np.arange(sizes[k])
        start += sizes[k]
    return FilteredComplex(q_max, r_max, Simplices(simplices, facets, positions), times_arr[order], dims_arr)


def restrict(P: PointCloud, center, a: float) -> PointCloud:
    """Points of P within the closed ball B(center, a); window becomes that ball."""
    if a < 0:
        raise DomainError("restriction radius must be nonnegative")
    c = np.asarray(center, dtype=float)
    return PointCloud(P.points[np.linalg.norm(P.points - c, axis=1) <= a], BallWindow(tuple(c), a))


def _point_set(P: PointCloud) -> set[tuple[float, ...]]:
    return {tuple(row) for row in P.points}


def count_new_simplices(X: PointCloud, Y: PointCloud, s: float, q: int, kind: str) -> int:
    """Number of q-simplices of K_s(Y) with at least one vertex outside X."""
    sx, sy = _point_set(X), _point_set(Y)
    if not sx <= sy:
        raise DomainError("X must be a subset of Y")
    if s <= 0:
        # At s = 0 (or below) only vertices are present.
        return (Y.n - X.n) if q == 0 and s >= 0 else 0
    cy = build(Y, kind, s, q)
    cx = build(X, kind, s, q)
    return int(np.count_nonzero(cy.dims == q)) - int(np.count_nonzero(cx.dims == q))
