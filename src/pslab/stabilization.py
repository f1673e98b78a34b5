"""Add-one costs, swap differences, and stabilization radii on finite windows.

The weak radius is computed event-by-event: the restricted complexes can only
change when the ball B(z, a) gains a point, so probing the point distances is
exact.  One walk over the cells in ball order reduces each boundary column
once: the columns without the added points Q form one echelon, and those
through Q a residue modulo its span, whose size and lows are the rank and
pivot differences the trace counts (`_Residue`).  The boundary matrix is
block-diagonal over the components of the edge graph, so the layer cuts
P u Q to the components that hold a point of Q before it builds
(`_joined`), and nothing else is built.  The strong radius is bounded
from above by a cluster-locality horizon: the first probe radius at which
every cluster of the mu(r)-graph that holds a new simplex lies well inside the
probe ball.  It is finite only below percolation; the exact stopping-time
condition is not computable from a finite window.  `cloud_radii` gives both
radii from one cut and one complex per cloud.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass

import numpy as np

from .filtration import build, close_pairs, mu, restrict
# boundary_masks is unused here; perfbench/tracer.py patches this attribute
from .persistence import Echelon, RankQuery, boundary_masks, reduce  # noqa: F401
from .point_process import (
    BallWindow,
    Box,
    DomainError,
    PointCloud,
    RngSeed,
    csv_text,
    in_lattice_cube,
    lattice_cube,
    sample_poisson_homogeneous,
    swap_window,
)


@dataclass(frozen=True)
class AddOneQuery:
    P: PointCloud
    Q: np.ndarray  # (m, d) added points, disjoint from P
    q: int
    r: float
    s: float
    kind: str = "rips"

    def __post_init__(self):
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, dtype=float)))
        if self.r > self.s:
            raise DomainError("add-one query needs r <= s")
        if self.Q.size and self.P.n:
            d2 = ((self.P.points[:, None, :] - self.Q[None, :, :]) ** 2).sum(axis=2)
            if d2.min() == 0.0:
                raise DomainError("added set must be disjoint from the base cloud")


@dataclass
class StabilizationTrace:
    """Step functions D1, D2 per homology degree, evaluated at event radii."""

    radii: np.ndarray  # (m,) increasing
    d1: np.ndarray  # (m, d) rows per radius, columns per q
    d2: np.ndarray

    def settled_radius(self, q: int | None = None) -> float:
        """The probe radius right after the last one at which D1 or D2 (of
        degree q, or of any degree when q is None) differs from its final
        value; 0 when neither ever does.  Rejects a q with no column."""
        if q is not None and not 0 <= q < self.d1.shape[1]:
            raise DomainError(f"the trace has no column for degree {q}")
        cols = slice(None) if q is None else [q]
        d1, d2 = self.d1[:, cols], self.d2[:, cols]
        changed = ((d1 != d1[-1]) | (d2 != d2[-1])).any(axis=1)
        idx = np.flatnonzero(changed)
        return 0.0 if len(idx) == 0 else float(self.radii[idx[-1] + 1])

    def to_csv(self) -> str:
        return csv_text(
            ["a", "q", "D1", "D2"],
            ((a, q, self.d1[i, q], self.d2[i, q]) for i, a in enumerate(self.radii) for q in range(self.d1.shape[1])),
        )


@dataclass(frozen=True)
class RadiusEstimate:
    value: float
    censored: bool
    margin: float


@dataclass(frozen=True)
class SwapDifferenceRecord:
    value: int
    geometric_bound: int


def _betti(P: PointCloud, q: int, r: float, s: float, kind: str) -> int:
    C = build(P, kind, r_max=s, q_max=q + 1)
    return reduce(C).persistent_betti(RankQuery(q, r, s))


def add_one_cost(query: AddOneQuery) -> int:
    """beta^{r,s}_q(K(P u Q)) - beta^{r,s}_q(K(P)), by two persistence runs:
    the reference for the weak trace's last row, which pslab reads instead."""
    P = query.P
    if query.Q.size == 0:
        return 0
    merged = PointCloud(np.vstack([P.points, query.Q]) if P.n else query.Q, P.window)
    return _betti(merged, query.q, query.r, query.s, query.kind) - (
        _betti(P, query.q, query.r, query.s, query.kind) if P.n else 0
    )


# ---------------------------------------------------------------------------
# Weak radius
# ---------------------------------------------------------------------------


def window_radius_around(window, z: np.ndarray) -> float:
    """Largest a with B(z, a) inside the window."""
    z = np.asarray(z, dtype=float)
    if isinstance(window, Box):
        lo = np.asarray(window.lo)
        hi = np.asarray(window.hi)
        return float(min((z - lo).min(), (hi - z).min()))
    if isinstance(window, BallWindow):
        return float(window.radius - np.linalg.norm(z - np.asarray(window.center)))
    raise DomainError(f"unsupported window type {type(window).__name__}")


def _reach(Q: np.ndarray, z: np.ndarray) -> float:
    """max |Q - z|, 0 for no added point."""
    return float(np.linalg.norm(Q - z, axis=1).max()) if len(Q) else 0.0


def _radius_setup(P: PointCloud, Q, z, t: float, kind: str, window_radius: float | None, q_list=()):
    """P cut by `restrict` to the window ball B(z, w), in its order and with
    that ball as its window; z and the added points Q as float arrays; w (by
    default the largest ball around z inside P's window); and
    a*(t) = max |Q - z| + mu(t), which w must reach.  Both radii
    live on B(z, w), and a simplex on the kept points keeps its entry time
    and stored order, so the cut is exact.  Rejects a homology degree in
    `q_list` outside 0..d-1, and a z or Q without d coordinates."""
    check_degrees(q_list, P.d)
    if t < 0:
        raise DomainError(f"filtration time {t} must be nonnegative")
    z = np.asarray(z, dtype=float)
    Q = np.atleast_2d(np.asarray(Q, dtype=float)) if np.asarray(Q).size else np.empty((0, P.d))
    if z.shape != (P.d,) or Q.ndim != 2 or Q.shape[1] != P.d:
        raise DomainError(f"z and the added points need {P.d} coordinates each, not shapes {z.shape} and {Q.shape}")
    if window_radius is None:
        window_radius = window_radius_around(P.window, z)
    a_star = _reach(Q, z) + mu(kind, t)
    if window_radius < a_star:
        raise DomainError(f"window radius {window_radius} below a*({t}) = {a_star}")
    return restrict(P, z, window_radius), z, Q, window_radius, a_star


def check_degrees(q_list, d: int) -> None:
    """Rejects a homology degree outside 0..d-1: a radius in R^d has no
    degree-q column for q >= d."""
    if any(not 0 <= q < d for q in q_list):
        raise DomainError(f"homology degrees {list(q_list)} must lie in 0..{d - 1}")


def _joined(n: int, edges: np.ndarray, seeds) -> np.ndarray:
    """Flags over the vertices 0..n-1: those joined to a seed by a path of
    `edges` (rows of two vertex ids).  Each sweep over the edge rows flags
    the other end of every edge with one flagged end, until none is left."""
    hit = np.zeros(n, dtype=bool)
    hit[seeds] = True
    a, b = edges[:, 0], edges[:, 1]
    while True:
        cross = hit[a] != hit[b]
        if not cross.any():
            return hit
        hit[a[cross]] = hit[b[cross]] = True


class _Residue:
    """The echelon of span(A u B) for a set A of cells without Q and a set B
    of cells through Q, as A's own `Echelon` and a residue R: vectors of the
    span reduced modulo span A, keyed by their lows, which are disjoint from
    A's.  An echelon's lows are its span's, so the lows of A and R together
    are those of span(A u B), and |R| = rank(A u B) - rank A.  A cell through
    Q is reduced against both and stored in R.  A cell without Q enters A
    alone; when its new low l is R's, the difference A[l] + R[l] leaves l and
    is reduced again, landing in R at a lower low or vanishing."""

    def __init__(self):
        self.base = Echelon()
        self.residue: dict[int, int] = {}
        self.star = Echelon(pivots=ChainMap(self.residue, self.base.pivots))

    def insert(self, v: int, star: bool, below: int) -> int:
        """Insert the column v of a cell, through Q when `star`; returns the
        change in the number of R's lows below `below`."""
        if star:
            return 0 <= self.star.insert(v) < below
        low = self.base.insert(v)
        if low < 0 or low not in self.residue:
            return 0
        return (0 <= self.star.insert(self.base.pivots[low] ^ self.residue.pop(low)) < below) - (low < below)


class _GlobalComplex:
    """The complex on Q's clusters in P u Q, with per-cell ball radii;
    restrictions are prefixes in the (ball radius) filter while keeping the
    stored (time, dim) order.  A block of the boundary matrix (a component
    of the edge graph) with no cell through Q adds nothing to a `_Residue`
    or a horizon, so `build` runs on the points that edges of length up to
    mu(r_max) join to Q (`_joined`), in their order, P's n_P first; a simplex
    on them keeps its time and place.  `dist` holds their distances from z,
    `point_dist` every point's."""

    def __init__(self, P: PointCloud, Q: np.ndarray, z: np.ndarray, kind: str, r_max: float, q_max: int):
        pts = np.vstack([P.points, Q]) if P.n else Q
        self.point_dist = np.linalg.norm(pts - z, axis=1)
        kept = _joined(len(pts), close_pairs(pts, mu(kind, r_max))[0], np.arange(P.n, len(pts)))
        self.n_P = int(kept[: P.n].sum())
        self.dist = self.point_dist[kept]
        C = self.C = build(PointCloud(pts[kept], P.window), kind, r_max=r_max, q_max=q_max)
        # vertex rows are ascending, so a cell through Q ends in Q's ids
        self.cell_ball = np.zeros(C.n_cells)
        self.cell_uses_q = np.zeros(C.n_cells, dtype=bool)
        for rows, at in zip(C.verts.rows, C.verts.positions):
            self.cell_ball[at] = self.dist[rows].max(axis=1)
            self.cell_uses_q[at] = rows[:, -1] >= self.n_P

    def differences(self, radii: np.ndarray, r: float, d: int):
        """D1 and D2 for q < d: dim Z_q(K_r) and dim(Z_q(K_r) ^ B_q(K_s)) on
        the subcomplex of cells within B(z, a), with the added points minus
        without, for each a in the ascending `radii`; one row per radius.

        By the pairing lemma both are ranks of boundary columns in the stored
        order: dim Z_q = #q-cells born by r - rank d_q(q-cells born by r), and
        dim(Z ^ B) = rank d_{q+1} - rank d_{q+1} restricted to the rows of
        q-cells born after r (every cell of the complex enters by s).  Those
        rows are the ranks from early[q] up, and an echelon's lows are its
        span's, so the difference counts the d_{q+1} pivots with low below
        early[q].  With Q minus without, the ranks differ by rank(A u B) -
        rank A, A the columns without Q and B those through Q, which is the
        size of a `_Residue`, and the pivot lows differ by its lows.  So D1
        is the q-cells through Q born by r minus the residue of d_q, and D2
        the residue lows of d_{q+1} below early[q].  The column sets only
        grow with a, and all of these depend on the sets alone, so one walk
        in ball order over the cells reduces each of them once.
        """
        C, S = self.C, self.C.verts
        # a k-cell's boundary is an int over its stored facets, their ranks
        # among the (k-1)-cells, as in `reduce`
        masks = [0] * C.n_cells
        for cells, facets_k in zip(S.positions[1:], S.facets[1:]):
            for i, row in zip(cells.tolist(), facets_k.tolist()):
                m = 0
                for f in row:
                    m |= 1 << f
                masks[i] = m
        early = [int((C.times[cells] <= r).sum()) for cells in S.positions]
        order = np.argsort(self.cell_ball, kind="stable")
        stops = np.searchsorted(self.cell_ball[order], radii, side="right")
        # residues of d_q on the cells born by r for q >= 1, and of d_{q+1};
        # with every cell born by r (r = s), the first is d_q's, whose lows
        # all lie below early[q - 1], so D1 reads it off D2
        shared = bool((C.times <= r).all())
        born = None if shared else [_Residue() for _ in range(d)]
        alive = [_Residue() for _ in range(d)]
        any_low = C.n_cells
        # D1's counts, then D2's, after each cell: one flat list
        # holding a row before the first cell and one after each
        tally = [0] * (2 * d)
        counts = tally[:]
        dims, uses_q = C.dims[order].tolist(), self.cell_uses_q[order].tolist()
        born_by_r = (C.times[order] <= r).tolist()
        for i, q, by_r, star in zip(order.tolist(), dims, born_by_r, uses_q):
            if q < d and by_r:
                tally[q] += star
                if q and born:
                    tally[q] -= born[q].insert(masks[i], star, any_low)
            if 1 <= q <= d:
                tally[d + q - 1] += alive[q - 1].insert(masks[i], star, early[q - 1])
            counts += tally
        counts = np.array(counts).reshape(-1, 2 * d)[stops]
        d1, d2 = counts[:, :d], counts[:, d:]
        if shared:
            d1[:, 1:] -= d2[:, :-1]
        return d1, d2


def cloud_radii(
    P: PointCloud,
    Q: np.ndarray,
    z: np.ndarray,
    r: float,
    s: float,
    q_list,
    kind: str = "rips",
    window_radius: float | None = None,
) -> tuple[RadiusEstimate, StabilizationTrace, dict[int, RadiusEstimate]]:
    """The weak estimate at (r, s), its trace, and the strong estimate at r
    for each q in `q_list`, from one cut and one complex on P u Q at (s, d):
    the strong horizon reads that complex's cells born by r.

    The trace holds D1 and D2 at every point distance, a*(s) and w.  The
    weak estimate is the smallest of those radii beyond which D1 and D2 are
    constant for every q, censored when less than a margin of 2 mu(s) of
    constant trailing radius was observed inside the window.
    """
    if not 0 <= r <= s:
        raise DomainError("weak radius needs 0 <= r <= s")
    P, z, Q, window_radius, a_star = _radius_setup(P, Q, z, s, kind, window_radius, q_list)
    G = _GlobalComplex(P, Q, z, kind, r_max=s, q_max=P.d)
    probes = np.unique(np.concatenate([G.point_dist, [a_star, window_radius]]))
    trace = StabilizationTrace(probes, *G.differences(probes, r, P.d))
    margin = 2.0 * mu(kind, s)
    value = trace.settled_radius()
    censored = (trace.radii[-1] - value) < margin  # the last probe is the window radius
    a_star_r = _reach(Q, z) + mu(kind, r)
    strong = {q: _horizon(G, r, q, kind, a_star_r, window_radius) for q in q_list}
    return RadiusEstimate(value, bool(censored), float(margin)), trace, strong


def weak_radius(
    P: PointCloud,
    Q: np.ndarray,
    z: np.ndarray,
    r: float,
    s: float,
    kind: str = "rips",
    window_radius: float | None = None,
    return_trace: bool = False,
):
    """Smallest event radius beyond which D1 and D2 are constant for every q
    (see `cloud_radii`)."""
    est, trace, _ = cloud_radii(P, Q, z, r, s, (), kind, window_radius)
    return (est, trace) if return_trace else est


# ---------------------------------------------------------------------------
# Strong radius: cluster-locality horizon
# ---------------------------------------------------------------------------


def _horizon(G: _GlobalComplex | None, r: float, q: int, kind: str, a_star: float, window_radius: float) -> RadiusEstimate:
    """The cluster-locality horizon of `strong_radius_estimate` at (r, q), on
    a `_GlobalComplex` G holding every simplex up to dimension q that enters
    by r, and maybe more: the mu(r)-graph is its edges born by r and the new
    q-simplices its q-cells through Q born by r.  The reach reads the kept
    points' distances, the horizons every point's.  G is not read at q = 0."""
    if q == 0:
        return RadiusEstimate(float(a_star), False, 0.0)
    C, S, dist = G.C, G.C.verts, G.dist
    rows, edges = S.rows[q], S.rows[1][C.times[S.positions[1]] <= r]
    # vertex rows are ascending, so a new simplex has its last vertex in Q
    new = rows[(rows[:, -1] >= G.n_P) & (C.times[S.positions[q]] <= r)]
    if not len(new):
        return RadiusEstimate(float(a_star), False, 0.0)
    # every simplex through Q at parameter r sits inside B(z, a*(r))
    assert dist[new].max() <= a_star + 1e-9

    # a simplex's vertices share a cluster, so its Q vertex finds it
    reach = float(dist[_joined(len(dist), edges, new[:, -1])].max())
    horizons = np.unique(np.concatenate([G.point_dist[G.point_dist > a_star], [a_star, window_radius]]))
    settled = np.flatnonzero(reach <= horizons - 2.0 * mu(kind, r))
    if len(settled):
        return RadiusEstimate(float(horizons[settled[0]]), False, 0.0)
    return RadiusEstimate(float(window_radius), True, 0.0)


def strong_radius_estimate(
    P: PointCloud,
    Q: np.ndarray,
    z: np.ndarray,
    r: float,
    q: int,
    kind: str = "rips",
    window_radius: float | None = None,
) -> RadiusEstimate:
    """Cluster-locality horizon: an upper bound on the strong radius.

    The clusters are the components of the mu(r)-graph on the points in
    B(z, w), w the window radius, whose edges are the complex's edges, so the
    vertices of a simplex share one cluster.  The estimate is the first probe
    radius R >= a*(r) at which every cluster holding a new q-simplex (one
    through Q) lies inside B(z, R - 2 mu(r)): no point outside B(z, R) can
    then join such a cluster.  That is the test on the cluster cut to B(z, R),
    since a cut cluster inside B(z, R - 2 mu(r)) has all its neighbours within
    R - mu(r), so it is the whole cluster.  Past percolation the clusters are
    unbounded and the estimate is censored at w.  One `_joined` sweep from
    the Q vertices of the new simplices finds their clusters, on the complex
    of Q's clusters at (r, q).  At q = 0 every new vertex has zero boundary,
    so it is positive at once and the estimate is a*(r), with no complex
    built.
    """
    P, z, Q, window_radius, a_star = _radius_setup(P, Q, z, r, kind, window_radius, [q])
    G = _GlobalComplex(P, Q, z, kind, r_max=r, q_max=q) if q else None
    return _horizon(G, r, q, kind, a_star, window_radius)


# ---------------------------------------------------------------------------
# Swap differences
# ---------------------------------------------------------------------------


def swap_difference(
    P: PointCloud,
    P_prime: PointCloud,
    z: np.ndarray,
    n: float,
    q: int,
    r: float,
    s: float,
    kind: str = "rips",
) -> SwapDifferenceRecord:
    """Delta^{r,s}_z(B_n): persistent Betti change when the unit lattice cube at
    z is resampled from the coupled copy, both clouds cut to B_n.

    The geometric bound counts the q- and (q+1)-simplices at parameter s in
    one complex but not the other, the points swapped in all counting as new.
    The points kept outside Q(z) keep their relative order in both clouds, so
    each simplex on them has the same vertex order and entry time in both,
    and the two complexes share exactly K(kept): the bound is the cells of
    either complex with a vertex in Q(z)."""
    z = np.asarray(z, dtype=float)
    d = P.d
    half = n ** (1.0 / d) / 2.0
    box = Box(tuple([-half] * d), tuple([half] * d))
    cube_lo, cube_hi = lattice_cube(z)
    if any(cube_lo[j] < box.lo[j] or cube_hi[j] > box.hi[j] for j in range(d)):
        raise DomainError("the swap cube Q(z) must lie inside B_n")

    base = PointCloud(P.points[box.contains(P.points)], box)
    swapped = swap_window(P, P_prime, z).points
    swapped = PointCloud(swapped[box.contains(swapped)], box)
    Cb, Cs = (build(X, kind, r_max=s, q_max=q + 1) for X in (base, swapped))
    query = RankQuery(q, r, s)
    value = reduce(Cb).persistent_betti(query) - reduce(Cs).persistent_betti(query)
    bound = sum(int(in_lattice_cube(X.points, z)[rows].any(axis=1).sum())
                for X, C in ((base, Cb), (swapped, Cs)) for rows in C.verts.rows[q:])
    return SwapDifferenceRecord(int(value), bound)


# ---------------------------------------------------------------------------
# Serialization and batch driver
# ---------------------------------------------------------------------------


def radius_rows_to_csv(rows: list[tuple[np.ndarray, float, float, RadiusEstimate]]) -> str:
    return csv_text(
        ["z", "r", "s", "value", "censored"],
        (
            (";".join(repr(float(c)) for c in np.atleast_1d(z)), float(r), float(s), est.value, est.censored)
            for z, r, s, est in rows
        ),
    )


def run_radius_jobs(jobs: list[dict]) -> list[tuple[np.ndarray, float, float, RadiusEstimate]]:
    """Batch driver.  Each job: mode (weak, the default, or strong), seed,
    stream, lambda, window_radius w, d, z, Q, r, s (weak) or q (strong),
    kind.  The cloud is sampled on the box of half-side w around z."""
    out = []
    for job in jobs:
        mode = job.get("mode", "weak")
        if mode not in ("weak", "strong"):
            raise DomainError(f"unknown radius mode {mode!r}: expected weak or strong")
        d = int(job.get("d", 2))
        w = float(job["window_radius"])
        kind = job.get("kind", "rips")
        lam = float(job.get("lambda", 1.0))
        seed = RngSeed(int(job["seed"]), int(job.get("stream", 0)))
        z = np.asarray(job.get("z", [0.0] * d), dtype=float)
        if z.shape != (d,):
            raise DomainError(f"z needs {d} coordinates, not shape {z.shape}")
        P = sample_poisson_homogeneous(lam, Box(tuple((z - w).tolist()), tuple((z + w).tolist())), seed)
        Q = np.asarray(job.get("Q", [[0.0] * d]), dtype=float)
        r = float(job["r"])
        if mode == "strong":
            est = strong_radius_estimate(P, Q, z, r, int(job["q"]), kind, window_radius=w)
            out.append((z, r, r, est))
        else:
            s = float(job["s"])
            est = weak_radius(P, Q, z, r, s, kind=kind, window_radius=w)
            out.append((z, r, s, est))
    return out
