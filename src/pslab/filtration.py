"""Vietoris-Rips and Cech filtered complexes over finite point clouds.

A filtered complex stores every simplex of dimension <= q_max whose entry time
is <= r_max, ordered by (time, dimension, lexicographic vertex tuple).  Entry
times: Rips uses the diameter of the simplex, Cech the radius of the smallest
enclosing ball of its vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .point_process import BallWindow, DomainError, PointCloud

# relative slack of the miniball containment tests; with no absolute part, a
# cloud scaled by a power of two gets exactly scaled radii
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


def _circumball(R: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Smallest ball with all points of R on its boundary (R affinely small)."""
    p0 = R[0]
    if len(R) == 1:
        return p0, 0.0
    A = 2.0 * (np.asarray(R[1:]) - p0)
    b = np.einsum("ij,ij->i", np.asarray(R[1:]) - p0, np.asarray(R[1:]) - p0)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    c = p0 + sol
    r = max(float(np.linalg.norm(p - c)) for p in R)
    return c, r


def _welzl(pts: list[np.ndarray], n: int, boundary: list[np.ndarray], d: int):
    """Smallest ball enclosing pts[:n] with the boundary points on its sphere,
    or None when both are empty.  A point outside the current ball restarts
    the search over the points before it with that point added to the
    boundary, so the recursion is at most d + 2 deep."""
    ball = _circumball(boundary) if boundary else None
    if len(boundary) == d + 1:
        return ball
    for i in range(n):
        if ball is not None and np.linalg.norm(pts[i] - ball[0]) <= (1.0 + MB_TOL) * ball[1]:
            continue
        ball = _welzl(pts, i, boundary + [pts[i]], d)
    return ball


def miniball(points) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest enclosing ball of a nonempty point set."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise DomainError("miniball of an empty point set")
    n, d = pts.shape
    if n == 1:
        return pts[0].copy(), 0.0
    if n == 2:
        return _mb2(pts[0], pts[1])
    if n == 3:
        return _mb3(pts[0], pts[1], pts[2])
    order = np.random.default_rng(0).permutation(n)
    ball = _welzl([pts[i] for i in order], n, [], d)
    assert ball is not None
    return ball


def _mb2(p, q) -> tuple[np.ndarray, float]:
    c = 0.5 * (p + q)
    return c, float(np.linalg.norm(p - c))


def _mb3(p, q, r) -> tuple[np.ndarray, float]:
    best = None
    for a, b, other in ((p, q, r), (p, r, q), (q, r, p)):
        c, rad = _mb2(a, b)
        if np.linalg.norm(other - c) <= (1.0 + MB_TOL) * rad:
            if best is None or rad < best[1]:
                best = (c, rad)
    if best is not None:
        return best
    return _circumball([p, q, r])


# ---------------------------------------------------------------------------
# Filtered complex
# ---------------------------------------------------------------------------


@dataclass
class FilteredComplex:
    d: int
    kind: str  # cech | rips
    q_max: int
    r_max: float
    verts: list[tuple[int, ...]]  # sorted vertex tuples, one per cell
    times: np.ndarray  # float entry times, aligned with verts
    dims: np.ndarray  # simplex dimensions, aligned with verts
    vertex_coords: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.verts)

    def event_times(self) -> np.ndarray:
        return np.unique(self.times)

    def to_text(self) -> str:
        lines = []
        for v, t, q in zip(self.verts, self.times, self.dims):
            lines.append(" ".join([repr(float(t)), str(int(q))] + [str(i) for i in v]))
        return "\n".join(lines) + ("\n" if lines else "")


def complex_from_text(text: str, d: int, kind: str, q_max: int, r_max: float,
                      vertex_coords: np.ndarray | None = None) -> FilteredComplex:
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
    coords = vertex_coords if vertex_coords is not None else np.empty((0, d))
    return FilteredComplex(d, kind, q_max, r_max, verts, np.asarray(times), np.asarray(dims, dtype=int), coords)


def close_pairs(pts: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (i, j), i < j, in lexicographic order with ||p_i - p_j|| <= cutoff,
    and their lengths, rounded exactly as `np.linalg.norm(pts[i] - pts[j])`."""
    if pts.shape[0] < 2:
        return np.empty((0, 2), dtype=np.intp), np.empty(0)
    # query slightly wide: the tree compares squared distances, which can
    # disagree by 1 ulp with the norms used for filtration times
    cand = cKDTree(pts).query_pairs(cutoff * (1.0 + 1e-9) + 1e-12, output_type="ndarray")
    cand = np.sort(np.asarray(cand, dtype=np.intp).reshape(-1, 2), axis=1)
    cand = cand[np.lexsort((cand[:, 1], cand[:, 0]))]
    # the stacked 1 x d by d x 1 products go through the same dot kernel as
    # the norm of a single vector
    diff = pts[cand[:, 0]] - pts[cand[:, 1]]
    lengths = np.sqrt((diff[:, None, :] @ diff[:, :, None]).reshape(-1))
    keep = lengths <= cutoff
    return cand[keep], lengths[keep]


def _lookup(codes: list[np.ndarray], n: int, rows: np.ndarray) -> np.ndarray:
    """Positions of sorted vertex rows among the simplices of their dimension:
    codes[k] keys each k-simplex as (position of its prefix face) * n + last
    vertex, ascending in the lexicographic order of the k-simplices."""
    idx = rows[:, 0]
    for c in range(1, rows.shape[1]):
        idx = np.searchsorted(codes[c], idx * n + rows[:, c])
    return idx


def build(P: PointCloud, kind: str, r_max: float, q_max: int) -> FilteredComplex:
    """Generic builder; unlike the named wrappers it accepts r_max = 0 (a
    vertices-only complex), which internal callers use for time-zero queries."""
    cutoff = mu(kind, r_max)  # rejects an unknown kind
    if r_max < 0:
        raise DomainError("r_max must be nonnegative")
    if q_max < 0:
        raise DomainError("q_max must be nonnegative")
    pts = P.points
    n = pts.shape[0]

    # Per dimension k: the k-simplices as vertex rows in lexicographic order,
    # their entry times, and their lookup codes (see `_lookup`).
    simplices = [np.arange(n, dtype=np.intp).reshape(n, 1)]
    times = [np.zeros(n)]
    codes = [np.arange(n, dtype=np.intp)]
    if q_max >= 1 and r_max > 0:
        edges, lengths = close_pairs(pts, cutoff)
        t = lengths if kind == "rips" else lengths / 2.0
        keep = t <= r_max
        # forward adjacency of the cutoff graph: the rows of `edges` grouped by
        # their first vertex, each group ascending in the second
        edge_codes = edges[:, 0] * n + edges[:, 1]
        row_end = np.searchsorted(edges[:, 0], np.arange(1, n + 1))
        simplices.append(edges[keep])
        times.append(t[keep])
        codes.append(edge_codes[keep])
        diam = lengths[keep]
        # Clique expansion: a k-simplex extends its prefix face by a common
        # forward neighbor of all its vertices; the diameter is tracked along
        # the way from the close-pair lengths of the new edges, at the edge
        # positions the adjacency check finds.
        for k in range(2, q_max + 1):
            prev = simplices[-1]
            if not len(prev):
                break
            first = prev[:, 0]
            start = np.searchsorted(edge_codes, first * n + prev[:, -1]) + 1
            counts = row_end[first] - start
            owner = np.repeat(np.arange(len(prev)), counts)
            offset = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
            pos = np.repeat(start, counts) + offset
            w = edges[pos, 1]
            new_diam = np.maximum(diam[owner], lengths[pos])
            ok = np.ones(len(w), dtype=bool)
            for c in range(1, k):
                key = prev[owner, c] * n + w
                pos = np.minimum(np.searchsorted(edge_codes, key), len(edge_codes) - 1)
                ok &= edge_codes[pos] == key
                new_diam = np.maximum(new_diam, lengths[pos])
            owner, w, new_diam = owner[ok], w[ok], new_diam[ok]
            cells = np.column_stack([prev[owner], w])
            if kind == "rips":
                t = new_diam
            else:
                t = np.array([miniball(pts[v])[1] for v in cells.tolist()])
            keep = t <= r_max
            simplices.append(cells[keep])
            times.append(t[keep])
            codes.append(owner[keep] * n + w[keep])
            diam = new_diam[keep]

    # enforce exact face monotonicity: a Cech radius from `miniball` and the
    # half close-pair lengths of its edges can disagree by 1 ulp, which would
    # break the filtration property; a Rips time is the largest close-pair
    # length of its edges, so no facet can enter after it
    if kind == "cech":
        for k in range(2, len(simplices)):
            for c in range(k + 1):
                facets = np.delete(simplices[k], c, axis=1)
                times[k] = np.maximum(times[k], times[k - 1][_lookup(codes, n, facets)])

    times_arr = np.concatenate(times)
    dims_arr = np.concatenate([np.full(len(s), k, dtype=int) for k, s in enumerate(simplices)])
    within = np.concatenate([np.arange(len(s)) for s in simplices])
    order = np.lexsort((within, dims_arr, times_arr))
    verts = [tuple(v) for s in simplices for v in s.tolist()]
    verts = [verts[k] for k in order.tolist()]
    return FilteredComplex(P.d, kind, q_max, r_max, verts, times_arr[order], dims_arr[order], pts)


def build_rips(P: PointCloud, r_max: float, q_max: int) -> FilteredComplex:
    if r_max <= 0:
        raise DomainError("r_max must be positive")
    return build(P, "rips", r_max, q_max)


def build_cech(P: PointCloud, r_max: float, q_max: int) -> FilteredComplex:
    if r_max <= 0:
        raise DomainError("r_max must be positive")
    return build(P, "cech", r_max, q_max)


def restrict(P: PointCloud, center, a: float) -> PointCloud:
    """Points of P within the closed ball B(center, a); window becomes that ball."""
    if a < 0:
        raise DomainError("restriction radius must be nonnegative")
    c = np.asarray(center, dtype=float)
    if P.n:
        keep = np.linalg.norm(P.points - c, axis=1) <= a
        pts = P.points[keep]
    else:
        pts = P.points
    return PointCloud(pts, BallWindow(tuple(c), a))


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
