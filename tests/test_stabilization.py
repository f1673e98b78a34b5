import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from pslab.filtration import build, mu
from pslab import stabilization
from pslab.persistence import Echelon, RankQuery, UnionFind, boundary_masks, reduce
from pslab.point_process import Box, DomainError, PointCloud, RngSeed, sample_poisson_homogeneous, swap_window
from pslab.stabilization import (
    AddOneQuery,
    RadiusEstimate,
    StabilizationTrace,
    _GlobalComplex,
    add_one_cost,
    radius_rows_to_csv,
    run_radius_jobs,
    strong_radius_estimate,
    swap_difference,
    weak_radius,
    window_radius_around,
)

BOX5 = Box((-5.0, -5.0), (5.0, 5.0))


def _cloud(pts, window=BOX5):
    return PointCloud(np.asarray(pts, dtype=float).reshape(-1, 2), window)


def _empty(window=BOX5):
    return PointCloud(np.empty((0, 2)), window)


def _betti_of(P, q, r, s, kind="rips"):
    if P.n == 0:
        return 0
    C = build(P, kind, r_max=s, q_max=q + 1)
    return reduce(C).persistent_betti(RankQuery(q, r, s))


# -- add-one cost -----------------------------------------------------------


def test_add_one_empty_plus_origin():
    q = AddOneQuery(_empty(), np.array([[0.0, 0.0]]), q=0, r=0.0, s=0.0)
    assert add_one_cost(q) == 1


def test_add_one_square_center_kills_loop():
    corners = _cloud([(0, 0), (1, 0), (1, 1), (0, 1)])
    q = AddOneQuery(corners, np.array([[0.5, 0.5]]), q=1, r=1.0, s=1.0)
    assert add_one_cost(q) == -1


def test_add_one_far_point():
    P = _cloud([(4.0, 4.0)])
    far = np.array([[0.0, 0.0]])
    assert add_one_cost(AddOneQuery(P, far, q=1, r=0.5, s=0.5)) == 0
    assert add_one_cost(AddOneQuery(P, far, q=0, r=0.5, s=0.5)) == 1


def test_add_one_query_validation():
    P = _cloud([(1.0, 0.0)])
    with pytest.raises(DomainError):
        AddOneQuery(P, np.array([[0.0, 0.0]]), q=0, r=1.0, s=0.5)
    with pytest.raises(DomainError):
        AddOneQuery(P, np.array([[1.0, 0.0]]), q=0, r=0.5, s=0.5)


def test_add_one_matches_direct_recomputation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pts = rng.random((8, 2)) * 2.0
        P = _cloud(pts)
        Q = rng.random((2, 2)) * 2.0 + 3.0
        query = AddOneQuery(P, Q, q=1, r=0.6, s=0.9)
        merged = _cloud(np.vstack([pts, Q]))
        assert add_one_cost(query) == _betti_of(merged, 1, 0.6, 0.9) - _betti_of(P, 1, 0.6, 0.9)


# -- weak radius ------------------------------------------------------------


def test_weak_radius_single_event():
    est = weak_radius(_cloud([(0.5, 0.0)]), np.array([[0.0, 0.0]]), np.zeros(2), 1.0, 1.0)
    assert est.value == pytest.approx(0.5)
    assert not est.censored


def test_weak_radius_far_point_is_zero():
    est = weak_radius(_cloud([(3.0, 0.0)]), np.array([[0.0, 0.0]]), np.zeros(2), 1.0, 1.0)
    assert est.value == 0.0
    assert not est.censored


def test_weak_radius_empty_base():
    est = weak_radius(_empty(), np.array([[0.0, 0.0]]), np.zeros(2), 1.0, 1.0)
    assert est.value == 0.0
    assert not est.censored


def test_weak_radius_small_window_error():
    with pytest.raises(DomainError):
        weak_radius(_empty(), np.array([[0.0, 0.0]]), np.zeros(2), 1.0, 1.0, window_radius=0.5)


def test_weak_radius_censoring_flag():
    # value 0.5, window 2, margin 2*mu(1) = 2 > 2 - 0.5
    est = weak_radius(_cloud([(0.5, 0.0)]), np.array([[0.0, 0.0]]), np.zeros(2), 1.0, 1.0, window_radius=2.0)
    assert est.censored


def test_trace_step_values_and_monotone_d1():
    rng = np.random.default_rng(11)
    for _ in range(8):
        pts = rng.random((12, 2)) * 8.0 - 4.0
        trace = weak_radius(_cloud(pts), np.array([[0.0, 0.0]]), np.zeros(2), 0.5, 0.7, return_trace=True)[1]
        assert np.all(np.diff(trace.radii) > 0)
        assert np.all(np.diff(trace.d1, axis=0) >= 0)


def test_weak_radius_constancy_semantics():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(6):
        box = Box((-4.0, -4.0), (4.0, 4.0))
        pts = rng.random((14, 2)) * 8.0 - 4.0
        P = PointCloud(pts, box)
        Q = np.array([[0.0, 0.0]])
        z = np.zeros(2)
        est, trace = weak_radius(P, Q, z, 0.5, 0.7, return_trace=True)
        if est.censored:
            continue
        dist = np.linalg.norm(pts - z, axis=1)
        diffs = []
        for a in trace.radii:
            if a < est.value:
                continue
            base = PointCloud(pts[dist <= a], box) if (dist <= a).any() else _empty(box)
            merged = PointCloud(np.vstack([pts[dist <= a], Q]), box)
            diffs.append(tuple(_betti_of(merged, q, 0.5, 0.7) - _betti_of(base, q, 0.5, 0.7) for q in range(2)))
        assert len(set(diffs)) == 1
        checked += 1
    assert checked >= 3


# -- strong radius ----------------------------------------------------------


def test_strong_radius_empty_base():
    est = strong_radius_estimate(_empty(), np.array([[0.0, 0.0]]), np.zeros(2), 1.0, q=1)
    assert est.value == pytest.approx(1.0)  # a*(r) = L + mu(r) = 1
    assert not est.censored


def test_strong_radius_edge_example_dominates_weak():
    P = _cloud([(0.5, 0.0)])
    Q = np.array([[0.0, 0.0]])
    weak = weak_radius(P, Q, np.zeros(2), 1.0, 1.0)
    strong = strong_radius_estimate(P, Q, np.zeros(2), 1.0, q=0)
    assert np.isfinite(strong.value)
    assert strong.value >= weak.value


def test_strong_radius_small_window_error():
    with pytest.raises(DomainError):
        strong_radius_estimate(_empty(), np.array([[0.0, 0.0]]), np.zeros(2), 1.0, q=0, window_radius=0.5)


def test_weak_dominated_by_strong_random_windows():
    r, s = 0.5, 0.7
    box = Box((-8.0, -8.0), (8.0, 8.0))
    z = np.zeros(2)
    Q = np.array([[0.0, 0.0]])
    checked = 0
    for rep in range(20):
        P = sample_poisson_homogeneous(1.0, box, RngSeed(42, rep))
        weak = weak_radius(P, Q, z, r, s)
        strongs = [strong_radius_estimate(P, Q, z, t, q=q) for t in (r, s) for q in range(2)]
        if weak.censored or any(e.censored for e in strongs):
            continue
        assert weak.value <= max(e.value for e in strongs) + 1e-12
        checked += 1
    assert checked >= 15


def test_global_complex_cell_radii_match_per_cell_loop():
    """The complex is the whole complex's cells on the points joined to Q
    (by csgraph components of the close pairs), relabelled in their order,
    with the same times and stored order; the cell radii and the flags of
    the cells through Q read the kept points' distances."""
    P = sample_poisson_homogeneous(4.0, Box((-2.0, -2.0), (2.0, 2.0)), RngSeed(8, 0))
    Q = np.array([[0.1, -0.1], [0.4, 0.2]])
    G = _GlobalComplex(P, Q, np.zeros(2), "cech", r_max=0.3, q_max=3)
    assert set(G.C.dims.tolist()) == {0, 1, 2, 3}
    pts = np.vstack([P.points, Q])
    close = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) <= mu("cech", 0.3)
    labels = connected_components(coo_matrix(close), directed=False)[1]
    kept = np.isin(labels, labels[P.n:])
    assert 0 < kept[: P.n].sum() < P.n
    assert G.n_P == kept[: P.n].sum()
    assert np.array_equal(G.point_dist, np.linalg.norm(pts, axis=1))
    assert np.array_equal(G.dist, G.point_dist[kept])
    whole = build(PointCloud(pts, P.window), "cech", r_max=0.3, q_max=3)
    label = np.cumsum(kept) - 1
    want = [
        (t, k, tuple(label[list(v)].tolist()))
        for t, k, v in zip(whole.times, whole.dims, whole.verts)
        if kept[list(v)].all()
    ]
    assert list(zip(G.C.times, G.C.dims, G.C.verts)) == want
    assert np.array_equal(G.cell_ball, [G.dist[list(v)].max() for v in G.C.verts])
    assert np.array_equal(G.cell_uses_q, [any(i >= G.n_P for i in v) for v in G.C.verts])


def test_joined_matches_connected_components():
    """The reach sweep flags exactly the vertices whose csgraph component
    holds a seed: on graphs with no edge, with repeated edges and self-loops,
    with no seed, and with seeds in several components."""
    rng = np.random.default_rng(79)
    cases = [
        (5, np.empty((0, 2), dtype=np.intp), np.array([1, 3])),
        (6, np.array([[0, 1], [1, 2], [1, 2]]), np.array([], dtype=np.intp)),
    ]
    for _ in range(300):
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
        edges = np.vstack([edges, edges[: len(edges) // 3, ::-1]])
        cases.append((n, edges, rng.choice(n, int(rng.integers(0, min(n, 4) + 1)), replace=False)))
    split = 0
    for n, edges, seeds in cases:
        graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
        labels = connected_components(graph, directed=False)[1]
        assert np.array_equal(stabilization._joined(n, edges, seeds), np.isin(labels, labels[seeds]))
        split += len(np.unique(labels[seeds])) > 1
    assert split > 50


class _WholeComplexMasks:
    """Reference radius layer on the whole complex of P u Q, with no cut to
    Q's clusters, and whole-complex facet bits: boundary columns are
    `boundary_masks` (bit j = cell j in the stored order), and `pair_counts`
    masks rows with one int as wide as the complex."""

    def __init__(self, P, Q, z, kind, r_max, q_max):
        pts = np.vstack([P.points, Q]) if P.n else Q
        self.C = build(PointCloud(pts, P.window), kind, r_max=r_max, q_max=q_max)
        self.point_dist = np.linalg.norm(pts - z, axis=1)
        self.cell_ball = np.array([self.point_dist[list(v)].max() for v in self.C.verts])
        self.cell_uses_q = np.array([max(v) >= P.n for v in self.C.verts], dtype=bool)
        self.masks = boundary_masks(self.C)

    def pair_counts(self, radii, with_q, r, d):
        C, masks = self.C, self.masks
        keep = self.cell_ball <= radii[-1] if len(radii) else np.zeros(C.n_cells, dtype=bool)
        if not with_q:
            keep = keep & ~self.cell_uses_q
        cells = np.flatnonzero(keep)
        cells = cells[np.argsort(self.cell_ball[cells], kind="stable")]
        late = int.from_bytes(np.packbits(C.times > r, bitorder="little").tobytes(), "little")
        born = [Echelon() for _ in range(d)]
        alive = [Echelon() for _ in range(d)]
        late_rows = [Echelon() for _ in range(d)]
        n_born = np.zeros(d, dtype=int)
        rank_born = np.zeros(d, dtype=int)
        rank_alive = np.zeros(d, dtype=int)
        rank_late = np.zeros(d, dtype=int)
        dim_z = np.zeros((len(radii), d), dtype=int)
        dim_zb = np.zeros((len(radii), d), dtype=int)
        ptr = 0
        for row, a in enumerate(radii):
            while ptr < len(cells) and self.cell_ball[cells[ptr]] <= a:
                i = int(cells[ptr])
                ptr += 1
                q = int(C.dims[i])
                if q < d and C.times[i] <= r:
                    n_born[q] += 1
                    if q:
                        rank_born[q] += born[q].insert(masks[i]) >= 0
                if 1 <= q <= d:
                    rank_alive[q - 1] += alive[q - 1].insert(masks[i]) >= 0
                    rank_late[q - 1] += late_rows[q - 1].insert(masks[i] & late) >= 0
            dim_z[row] = n_born - rank_born
            dim_zb[row] = rank_alive - rank_late
        return dim_z, dim_zb


def _reference_weak(P, Q, r, s, kind, w):
    """The weak estimate and trace from `_WholeComplexMasks`: its probes are
    the distinct point distances within w together with a*(s) and w, and
    D1, D2 are its pass with Q minus its pass without Q."""
    z = np.zeros(P.d)
    G = _WholeComplexMasks(P, Q, z, kind, r_max=s, q_max=P.d)
    a_star = np.linalg.norm(Q - z, axis=1).max() + mu(kind, s)
    events = G.point_dist[G.point_dist <= w]
    radii = np.unique(np.concatenate([events, [a_star, w]]))
    z_with, zb_with = G.pair_counts(radii, True, r, P.d)
    z_wo, zb_wo = G.pair_counts(radii, False, r, P.d)
    trace = StabilizationTrace(radii, z_with - z_wo, zb_with - zb_wo)
    value = trace.settled_radius()
    margin = 2.0 * mu(kind, s)
    return RadiusEstimate(value, bool(w - value < margin), margin), trace


def test_radius_layer_matches_whole_complex_masks(monkeypatch):
    """Per-dimension ranks relabel the bits of each boundary column
    injectively, the pivot lows of d_{q+1} below the first q-cell born after
    r count the same rank difference as the rows masked to those born after
    r, and the residue of the cells through Q counts the rank and the lows
    that they add, so the probes, D1, D2 and the weak estimates must be
    exactly the two whole-complex-mask passes'.  Rips (0.5, 0.75) puts r at a
    lattice distance, so cells born exactly at r sit on that boundary, and
    at r = s every cell is born by r, so D1 is read off D2's residue.  The
    clouds at density 4 make a cell without Q take a residue low, which is
    then reduced again; the test requires that it happens.  The radius layer
    builds only the components of the edge graph that hold a point of Q,
    while the reference builds and walks every cell; the test requires
    clouds where that cut drops points and clouds where it keeps all of
    them."""
    insert = stabilization._Residue.insert
    differences = stabilization._GlobalComplex.differences
    displaced = cut = whole = 0

    def spy(self, v, star, below):
        nonlocal displaced
        before = set(self.residue)
        out = insert(self, v, star, below)
        displaced += not star and not before <= self.residue.keys()
        return out

    def spy_differences(self, *args):
        nonlocal cut, whole
        cut += len(self.dist) < len(self.point_dist)
        whole += len(self.dist) == len(self.point_dist)
        return differences(self, *args)

    monkeypatch.setattr(stabilization._Residue, "insert", spy)
    monkeypatch.setattr(stabilization._GlobalComplex, "differences", spy_differences)
    rng = np.random.default_rng(61)
    for density in (1.0, 4.0):
        for d, w, caps in ((2, 2.5, [("rips", 0.4, 0.6), ("rips", 0.5, 0.75), ("cech", 0.25, 0.4), ("rips", 0.5, 0.5)]),
                           (3, 1.8, [("rips", 0.5, 0.7), ("rips", 0.5, 0.75), ("cech", 0.3, 0.4), ("cech", 0.3, 0.3)])):
            box = Box((-w,) * d, (w,) * d)
            for kind, r, s in caps:
                for _ in range(3):
                    # half the points on a lattice of spacing 0.25 (ties), a few
                    # of them repeated (duplicate points), and a dozen more lattice
                    # points within 1 of z, where lattice distances meet Q
                    uniform = rng.uniform(-w, w, (rng.poisson(density * (2.0 * w) ** d), d))
                    lattice = rng.integers(-4 * w, 4 * w + 1, (len(uniform), d)) / 4.0
                    patch = rng.integers(-4, 5, (12, d)) / 4.0
                    pts = np.vstack([uniform, lattice, lattice[: len(lattice) // 8], patch])
                    P = PointCloud(pts, box)
                    Q = np.array([[0.0] * d, [0.25] + [0.0] * (d - 1)])
                    new = weak_radius(P, Q, np.zeros(d), r, s, kind=kind, window_radius=w, return_trace=True)
                    old = _reference_weak(P, Q, r, s, kind, w)
                    assert new[0] == old[0]  # value, censoring flag and margin
                    assert np.array_equal(new[1].radii, old[1].radii)
                    assert np.array_equal(new[1].d1, old[1].d1)
                    assert np.array_equal(new[1].d2, old[1].d2)
    assert displaced > 0
    assert cut > 0 and whole > 0


def _strong_reference(P, Q, z, r, q, kind, w):
    """The strong positivity loop with one echelon copy per horizon: at each
    horizon R the base q-cells inside B(z, R) are copied into a fresh echelon
    and every new simplex is inserted again; a new simplex is resolved when
    its boundary is already in the span (positive) or when the components of
    its vertices in B(z, R) lie inside B(z, R - 2 mu(r)) (locality)."""
    _, z, Q, w, a_star = stabilization._radius_setup(P, Q, z, r, kind, w)
    interaction = mu(kind, r)
    # whole-complex masks, so the base holds every q-cell, not only Q's components
    G = _WholeComplexMasks(P, Q, z, kind, r_max=r, q_max=q + 1)
    C = G.C
    new_ids = np.flatnonzero((C.dims == q) & G.cell_uses_q).tolist()
    if not new_ids:
        return RadiusEstimate(float(a_star), False, 0.0)
    dist = G.point_dist
    horizons = np.unique(np.concatenate([dist[(dist > a_star) & (dist <= w)], [a_star, w]]))
    base_q = np.flatnonzero((C.dims == q) & ~G.cell_uses_q)
    base_q = base_q[np.argsort(G.cell_ball[base_q], kind="stable")].tolist()
    edges = np.flatnonzero(C.dims == 1)
    edges = edges[np.argsort(G.cell_ball[edges], kind="stable")].tolist()
    unresolved = set(new_ids)
    base = Echelon()
    next_base = 0
    for R in horizons:
        while next_base < len(base_q) and G.cell_ball[base_q[next_base]] <= R:
            base.insert(G.masks[base_q[next_base]])
            next_base += 1
        ech = Echelon()
        ech.pivots = dict(base.pivots)
        # components of the points within B(z, R), by brute force
        sets = UnionFind(len(dist))
        for e in edges:
            if G.cell_ball[e] <= R:
                sets.union(*C.verts[e])
        comp_max = {}
        for p in np.flatnonzero(dist <= R).tolist():
            root = sets.find(p)
            comp_max[root] = max(comp_max.get(root, 0.0), float(dist[p]))
        for i in new_ids:
            positive = ech.insert(G.masks[i]) < 0
            if i not in unresolved:
                continue
            if positive or all(comp_max[sets.find(v)] <= R - 2.0 * interaction for v in C.verts[i]):
                unresolved.discard(i)
        if not unresolved:
            return RadiusEstimate(float(R), False, 0.0)
    return RadiusEstimate(float(w), True, 0.0)


def test_strong_estimate_matches_per_horizon_echelon_copies():
    """The cluster-locality horizon has no positivity test, so this checks
    that positivity never changes the result: the first new simplex on a
    facet through Q cannot be positive, and the new simplices of one cluster
    share their locality test.  The estimate must equal the reference loop
    with its per-horizon positivity test, at every q < d."""
    rng = np.random.default_rng(67)
    checked = censored = 0
    for d, w, caps in ((2, 2.0, [("rips", 0.5), ("rips", 0.6), ("cech", 0.3)]),
                       (3, 1.5, [("rips", 0.5), ("cech", 0.35)])):
        box = Box((-w,) * d, (w,) * d)
        for kind, r in caps:
            for m in range(1, 7):
                uniform = rng.uniform(-w, w, (rng.poisson(0.75 * (2.0 * w) ** d), d))
                lattice = rng.integers(-4 * w, 4 * w + 1, (len(uniform) // 2, d)) / 4.0
                P = PointCloud(np.vstack([uniform, lattice]), box)
                # half the added points on the lattice too, all near z
                Q = rng.uniform(-0.5, 0.5, (m, d))
                Q[: m // 2] = np.round(Q[: m // 2] * 4.0) / 4.0
                Q = np.unique(Q, axis=0)
                z = np.zeros(d)
                for q in range(d):
                    want = _strong_reference(P, Q, z, r, q, kind, w)
                    assert strong_radius_estimate(P, Q, z, r, q, kind, window_radius=w) == want
                    checked += 1
                    censored += want.censored
    assert checked == 6 * 3 * 2 + 6 * 2 * 3
    assert 0 < censored < checked


def test_horizon_reads_only_the_clusters_holding_a_new_simplex():
    """Two added points in d = 3, Rips at r = 0.5: one on a triangle near z,
    the other on a chain that runs to 3.7 from z, with no triangle.  At q = 2
    only the first holds a new simplex, so its cluster, reaching 0.3, gives
    the horizon a*(r); reading the chain's cluster too would censor it at
    w = 4.  At q = 1 the chain's edge is a new simplex, and it is censored."""
    box = Box((-4.0,) * 3, (4.0,) * 3)
    chain = [(0.0, 0.0, 1.3 + 0.4 * k) for k in range(7)]
    P = PointCloud(np.array([(0.3, 0.0, 0.0), (0.0, 0.3, 0.0), *chain]), box)
    Q, z, r, w = np.array([(0.0, 0.0, 0.0), (0.0, 0.0, 0.9)]), np.zeros(3), 0.5, 4.0
    a_star = stabilization._radius_setup(P, Q, z, r, "rips", w)[4]
    strong = stabilization.cloud_radii(P, Q, z, r, r, [1, 2], "rips", w)[2]
    for q, want in ((1, RadiusEstimate(w, True, 0.0)), (2, RadiusEstimate(a_star, False, 0.0))):
        assert strong_radius_estimate(P, Q, z, r, q, "rips", w) == strong[q] == want
        assert _strong_reference(P, Q, z, r, q, "rips", w) == want


def test_points_beyond_the_window_change_nothing():
    """Both radii live on B(z, w): points added in the corners of the sampling
    box, past w, and interleaved with the base points leave the weak trace CSV
    and the strong estimates unchanged.  Each corner set is also tried as the
    whole cloud, with no base point inside the window."""
    rng = np.random.default_rng(73)
    for d, w, Q in ((2, 2.5, [[0.1, -0.2], [0.3, 0.1]]), (3, 1.6, [[0.1, -0.2, 0.0], [0.3, 0.1, 0.1]])):
        box, Q, z = Box((-w,) * d, (w,) * d), np.array(Q), np.zeros(d)
        for kind, r, s in (("rips", 0.5, 0.7), ("cech", 0.25, 0.35)):
            for _ in range(3):
                base = rng.uniform(-w, w, (rng.poisson(1.5 * (2.0 * w) ** d), d))
                corners = rng.uniform(-w, w, (40, d))
                corners = corners[np.linalg.norm(corners, axis=1) > w]
                mixed = np.insert(base, np.sort(rng.integers(0, len(base) + 1, len(corners))), corners, axis=0)
                for inner, outer in ((base, mixed), (np.empty((0, d)), corners)):
                    P, P_out = PointCloud(inner, box), PointCloud(outer, box)
                    trace = weak_radius(P, Q, z, r, s, kind, window_radius=w, return_trace=True)[1].to_csv()
                    assert weak_radius(P_out, Q, z, r, s, kind, window_radius=w, return_trace=True)[1].to_csv() == trace
                    for q in (0, 1):
                        want = strong_radius_estimate(P, Q, z, r, q, kind, window_radius=w)
                        assert strong_radius_estimate(P_out, Q, z, r, q, kind, window_radius=w) == want
    # w = a*(r), and a base point within mu(r) of Q, on the ray from z, lies
    # one rounding past w: it is cut, so both radii read as with no base point
    Q, r = np.array([[-0.48546371963618673, 0.43322390022543367]]), 0.268660632869464
    a_star = float(np.linalg.norm(Q, axis=1).max()) + r
    P = _cloud([(-0.6859141265264288, 0.6121042234344365)])
    assert np.linalg.norm(P.points - Q, axis=1)[0] <= r < np.linalg.norm(P.points, axis=1)[0] - a_star + r
    for q in (0, 1):
        est = strong_radius_estimate(P, Q, np.zeros(2), r, q, window_radius=a_star)
        assert est == RadiusEstimate(a_star, False, 0.0)
    trace = weak_radius(P, Q, np.zeros(2), r, r, window_radius=a_star, return_trace=True)[1].to_csv()
    assert trace == weak_radius(_empty(), Q, np.zeros(2), r, r, window_radius=a_star, return_trace=True)[1].to_csv()


def test_radii_reject_negative_time_and_unknown_kind():
    P = sample_poisson_homogeneous(1.0, Box((-3.0, -3.0), (3.0, 3.0)), RngSeed(11, 0))
    Q, z = np.zeros((1, 2)), np.zeros(2)
    for q in (0, 1):
        with pytest.raises(DomainError, match="nonnegative"):
            strong_radius_estimate(P, Q, z, -0.1, q, window_radius=3.0)
        with pytest.raises(DomainError, match="unknown filtration kind"):
            strong_radius_estimate(P, Q, z, 0.5, q, kind="alpha", window_radius=3.0)
    with pytest.raises(DomainError, match="nonnegative"):
        stabilization._radius_setup(P, Q, z, -0.1, "rips", 3.0)
    for r, s in ((-0.1, -0.1), (-0.1, 0.5), (0.7, 0.5)):
        with pytest.raises(DomainError, match="0 <= r <= s"):
            weak_radius(P, Q, z, r, s, window_radius=3.0)
    with pytest.raises(DomainError, match="unknown filtration kind"):
        weak_radius(P, Q, z, 0.5, 0.7, kind="alpha", window_radius=3.0)


def test_cloud_radii_is_the_separate_radii_and_rejects_a_degree_without_a_column():
    """One complex at (s, d) answers the strong estimate at r < s through its
    cells born by r, as a complex built at (r, q) does."""
    Q, z = np.array([[0.0, 0.0], [0.2, 0.1]]), np.zeros(2)
    for rep, (kind, r, s) in enumerate((("rips", 0.5, 0.5), ("rips", 0.4, 0.7), ("cech", 0.25, 0.35))):
        P = sample_poisson_homogeneous(3.0, Box((-3.0, -3.0), (3.0, 3.0)), RngSeed(11, rep))
        est, trace, strong = stabilization.cloud_radii(P, Q, z, r, s, [0, 1], kind, 3.0)
        assert est == weak_radius(P, Q, z, r, s, kind, 3.0)
        assert trace.to_csv() == weak_radius(P, Q, z, r, s, kind, 3.0, return_trace=True)[1].to_csv()
        assert strong == {q: strong_radius_estimate(P, Q, z, r, q, kind, 3.0) for q in (0, 1)}
    for q in (-1, 2):
        with pytest.raises(DomainError, match="no column"):
            trace.settled_radius(q)
        with pytest.raises(DomainError, match="homology degrees"):
            stabilization.cloud_radii(P, Q, z, 0.5, 0.5, [0, q], window_radius=3.0)
        with pytest.raises(DomainError, match="homology degrees"):
            strong_radius_estimate(P, Q, z, 0.5, q, window_radius=3.0)
    for bad_z, bad_Q in ((np.zeros(3), Q), (z, np.zeros((1, 3))), (np.zeros((1, 2)), Q)):
        with pytest.raises(DomainError, match="2 coordinates"):
            weak_radius(P, bad_Q, bad_z, 0.5, 0.5, window_radius=3.0)
        with pytest.raises(DomainError, match="2 coordinates"):
            strong_radius_estimate(P, bad_Q, bad_z, 0.5, 1, window_radius=3.0)


def test_strong_estimate_at_q0_is_a_star_without_a_build(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build called at q = 0")

    monkeypatch.setattr(stabilization, "build", no_build)
    rng = np.random.default_rng(71)
    for rep in range(12):
        d = 2 + rep % 2
        box = Box((-3.0,) * d, (3.0,) * d)
        P = sample_poisson_homogeneous(2.0, box, RngSeed(71, rep))
        Q = rng.uniform(-0.5, 0.5, (1 + rep % 3, d))
        z = rng.uniform(-0.2, 0.2, d)
        for kind, r in (("rips", 0.5), ("cech", 0.3)):
            a_star = stabilization._radius_setup(P, Q, z, r, kind, None)[4]
            assert strong_radius_estimate(P, Q, z, r, 0, kind) == RadiusEstimate(a_star, False, 0.0)


def test_strong_estimate_is_censored_past_percolation():
    """Rips at r = 0.5: mean degree pi r^2 lambda is 0.8 at lambda = 1 and 6.3
    at lambda = 8, on either side of the Gilbert threshold (about 4.51).  The
    cluster of the added point is bounded below it and spans the window past
    it, so the horizon is finite in every cloud below and censored in every
    cloud past."""
    box = Box((-5.0, -5.0), (5.0, 5.0))
    for lam, want in ((1.0, 0), (8.0, 20)):
        censored = sum(
            strong_radius_estimate(
                sample_poisson_homogeneous(lam, box, RngSeed(12, rep)), np.zeros((1, 2)), np.zeros(2), 0.5, 1,
                window_radius=5.0,
            ).censored
            for rep in range(20)
        )
        assert censored == want


# -- swap differences -------------------------------------------------------


def test_swap_identical_is_zero():
    P = sample_poisson_homogeneous(1.0, Box((-2.0, -2.0), (2.0, 2.0)), RngSeed(5, 0))
    rec = swap_difference(P, P, np.zeros(2), n=9.0, q=0, r=0.3, s=0.3)
    assert rec.value == 0


def test_swap_removes_isolated_point():
    win = Box((-2.0, -2.0), (2.0, 2.0))
    P = PointCloud(np.array([[0.1, 0.1], [1.2, 1.2]]), win)
    P_prime = PointCloud(np.array([[1.3, -1.3]]), win)
    rec = swap_difference(P, P_prime, np.zeros(2), n=9.0, q=0, r=0.0, s=0.0)
    assert rec.value == 1


def test_swap_cube_outside_window_error():
    P = sample_poisson_homogeneous(1.0, Box((-2.0, -2.0), (2.0, 2.0)), RngSeed(5, 1))
    with pytest.raises(DomainError):
        swap_difference(P, P, np.zeros(2), n=0.25, q=0, r=0.3, s=0.3)


def test_swap_geometric_bound():
    box = Box((-3.0, -3.0), (3.0, 3.0))
    for rep in range(20):
        P = sample_poisson_homogeneous(1.0, box, RngSeed(9, 2 * rep))
        P_prime = sample_poisson_homogeneous(1.0, box, RngSeed(9, 2 * rep + 1))
        for q in (0, 1):
            rec = swap_difference(P, P_prime, np.zeros(2), n=25.0, q=q, r=0.3, s=0.4)
            assert abs(rec.value) <= rec.geometric_bound


def _swap_bound_brute_force(P, P_prime, z, n, q, s, kind):
    """Size of the symmetric difference of the q- and (q+1)-simplices of the
    base and swapped complexes, each simplex keyed by its vertices' exact
    coordinates."""
    half = n ** (1.0 / P.d) / 2.0
    box = Box((-half,) * P.d, (half,) * P.d)
    keyed = []
    for pts in (P.points, swap_window(P, P_prime, z).points):
        pts = pts[box.contains(pts)]
        C = build(PointCloud(pts, box), kind, r_max=s, q_max=q + 1)
        keyed.append({tuple(sorted(map(tuple, pts[list(v)].tolist())))
                      for v, k in zip(C.verts, C.dims.tolist()) if k in (q, q + 1)})
    return len(keyed[0] ^ keyed[1])


def test_swap_bound_is_the_exact_simplex_count():
    """A kept point 2e-13 outside Q(0) next to the point swapped in: the new
    vertex and its two edges differ, so the bound is 3 (rounding coordinates
    to 12 decimals merged the two points and undercounted it as 2)."""
    win = Box((-2.0, -2.0), (2.0, 2.0))
    P = PointCloud(np.array([[0.5 + 2e-13, 0.0], [1.0, 0.0]]), win)
    P_prime = PointCloud(np.array([[0.5, 0.0]]), win)
    rec = swap_difference(P, P_prime, np.zeros(2), n=9.0, q=0, r=0.6, s=0.6)
    assert rec.geometric_bound == 3 == _swap_bound_brute_force(P, P_prime, np.zeros(2), 9.0, 0, 0.6, "rips")
    for d, n in ((2, 9.0), (3, 8.0)):
        box = Box((-2.0,) * d, (2.0,) * d)
        for rep in range(3):
            P = sample_poisson_homogeneous(1.0, box, RngSeed(17, 2 * rep + 10 * d))
            P_prime = sample_poisson_homogeneous(1.0, box, RngSeed(17, 2 * rep + 10 * d + 1))
            for kind in ("rips", "cech"):
                for q in (0, 1):
                    rec = swap_difference(P, P_prime, np.zeros(d), n, q, 0.3, 0.5, kind)
                    assert rec.geometric_bound == _swap_bound_brute_force(P, P_prime, np.zeros(d), n, q, 0.5, kind)
                    assert abs(rec.value) <= rec.geometric_bound


def test_swap_constant_in_large_n():
    box = Box((-3.0, -3.0), (3.0, 3.0))
    hits = 0
    for rep in range(20):
        P = sample_poisson_homogeneous(1.0, box, RngSeed(13, 2 * rep))
        P_prime = sample_poisson_homogeneous(1.0, box, RngSeed(13, 2 * rep + 1))
        vals = [swap_difference(P, P_prime, np.zeros(2), n, 0, 0.3, 0.4).value for n in (25.0, 36.0)]
        hits += vals[0] == vals[1]
    assert hits >= 16


# -- serialization and batch driver -----------------------------------------


def test_trace_csv_header():
    trace = weak_radius(_cloud([(0.5, 0.0)]), np.array([[0.0, 0.0]]), np.zeros(2), 1.0, 1.0, return_trace=True)[1]
    lines = trace.to_csv().splitlines()
    assert lines[0] == "a,q,D1,D2"
    assert len(lines) == 1 + len(trace.radii) * trace.d1.shape[1]


def test_radius_csv_header():
    rows = [(np.zeros(2), 0.5, 0.7, RadiusEstimate(0.5, False, 1.4))]
    lines = radius_rows_to_csv(rows).splitlines()
    assert lines[0] == "z,r,s,value,censored"
    assert lines[1] == "0.0;0.0,0.5,0.7,0.5,false"


def test_run_radius_jobs_json():
    jobs = [
        {"mode": "weak", "seed": 21, "stream": 0, "lambda": 1.0, "window_radius": 5.0, "r": 0.5, "s": 0.7},
        {"mode": "strong", "seed": 21, "stream": 1, "lambda": 1.0, "window_radius": 5.0, "r": 0.5, "q": 0},
    ]
    out = radius_rows_to_csv(run_radius_jobs(jobs))
    lines = out.splitlines()
    assert lines[0] == "z,r,s,value,censored"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) >= 0.0
        assert cells[4] in ("true", "false")


def test_radius_job_at_z_samples_the_box_around_z():
    """A job at z != 0 measures B(z, w), so its cloud is sampled on the box
    of half-side w around z, which holds that ball: each mode's estimate is
    the one on a cloud sampled there with the job's seed."""
    z, w, Q = np.array([0.7, -1.3]), 2.0, [[0.8, -1.2]]
    P = sample_poisson_homogeneous(2.0, Box(tuple(z - w), tuple(z + w)), RngSeed(5, 2))
    base = {"seed": 5, "stream": 2, "lambda": 2.0, "window_radius": w, "z": z.tolist(), "Q": Q, "kind": "cech"}
    jobs = [{**base, "r": 0.2, "s": 0.3}, {**base, "mode": "strong", "r": 0.3, "q": 1}]
    (z_weak, _, _, weak), (z_strong, _, _, strong) = run_radius_jobs(jobs)
    assert np.array_equal(z_weak, z) and np.array_equal(z_strong, z)
    assert weak == weak_radius(P, np.array(Q), z, 0.2, 0.3, "cech", window_radius=w)
    assert strong == strong_radius_estimate(P, np.array(Q), z, 0.3, 1, "cech", window_radius=w)


def test_window_radius_around():
    assert window_radius_around(Box((-5.0, -5.0), (5.0, 5.0)), np.array([1.0, 0.0])) == 4.0
