import dataclasses
import math

import numpy as np
import pytest

from pslab.filtration import build, close_pairs, count_new_simplices, mu
from pslab.persistence import (
    CapError,
    Echelon,
    RankQuery,
    boundary_masks,
    connected_component_count,
    connected_component_counts,
    diagram_from_csv,
    persistent_betti_direct,
    reduce,
)
from pslab.point_process import Box, DomainError, PointCloud, RngSeed, sample_poisson_homogeneous, unit_box

SQUARE = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), unit_box(2))
RT2 = math.sqrt(2.0)


def _pairs(D, q):
    return sorted(
        (float(b), float(d)) for qq, b, d in zip(D.qs, D.births, D.deaths) if qq == q
    )


def test_single_vertex_diagram():
    P = PointCloud(np.array([[0.0, 0.0]]), unit_box(2))
    D = reduce(build(P, "rips", r_max=1.0, q_max=1))
    assert _pairs(D, 0) == [(0.0, math.inf)]


def test_square_rips_diagram():
    D = reduce(build(SQUARE, "rips", r_max=2.0, q_max=2))
    h0 = _pairs(D, 0)
    assert h0 == pytest.approx([(0.0, 1.0)] * 3 + [(0.0, math.inf)])
    h1 = [(b, d) for b, d in _pairs(D, 1) if d > b]
    assert h1 == pytest.approx([(1.0, RT2)])


def test_square_cech_diagram():
    D = reduce(build(SQUARE, "cech", r_max=1.0, q_max=2))
    h1 = [(b, d) for b, d in _pairs(D, 1) if d > b]
    assert h1 == pytest.approx([(0.5, RT2 / 2.0)])


def _homology_reduction(C):
    """The left-to-right reduction of the boundary matrix that `reduce`
    replaced, kept here as the reference: (qs, births, deaths)."""
    pivots, death_of = {}, {}
    for j, col in enumerate(boundary_masks(C)):
        while col:
            low = col.bit_length() - 1
            if low not in pivots:
                pivots[low], death_of[low] = col, j
                break
            col ^= pivots[low]
    killed = set(death_of.values())
    keep = [i for i in range(C.n_cells) if i not in killed and not (C.dims[i] == C.q_max > 0)]
    qs = np.asarray([int(C.dims[i]) for i in keep], dtype=int)
    births = np.asarray([float(C.times[i]) for i in keep])
    deaths = np.asarray([math.inf if i not in death_of else float(C.times[death_of[i]]) for i in keep])
    return qs, births, deaths


def _clouds(rng, d):
    """Uniform points, points on the half-lattice (many tied times), and
    duplicated points (edges at time 0)."""
    yield rng.random((9, d))
    yield rng.integers(0, 3, (9, d)) / 2.0
    yield rng.random((5, d))[rng.integers(0, 5, 9)]


def test_cohomology_matches_homology_reduction():
    rng = np.random.default_rng(31)
    clouds = [PointCloud(np.empty((0, 2)), unit_box(2)), PointCloud(np.array([[0.5, 0.5]]), unit_box(2))]
    for d in (1, 2, 3):
        clouds += [PointCloud(pts, unit_box(d)) for pts in _clouds(rng, d)]
    for P in clouds:
        for kind in ("rips", "cech"):
            for q_max in range(4):
                for r_max in (0.0, 0.4, 0.8, 1.5):
                    C = build(P, kind, r_max=r_max, q_max=q_max)
                    D = reduce(C)
                    for got, want in zip((D.qs, D.births, D.deaths), _homology_reduction(C)):
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want)


def test_cohomology_matches_homology_reduction_on_clustered_clouds():
    """200 points in four clusters ten apart, each 50 draws with repeats from
    35 points of the half-lattice on [0, 3]^2: several components, duplicate
    points (edges at time 0) and many tied times, in one complex."""
    rng = np.random.default_rng(43)
    blocks = []
    for corner in ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)):
        base = rng.integers(0, 7, (35, 2)) / 2.0 + corner
        blocks.append(base[rng.integers(0, 35, 50)])
    P = PointCloud(np.concatenate(blocks), Box((0.0, 0.0), (13.0, 13.0)))
    for kind, r_max in (("rips", 1.0), ("cech", 0.75)):
        C = build(P, kind, r_max=r_max, q_max=2)
        assert np.count_nonzero((C.dims == 1) & (C.times == 0.0)) > 0
        assert len(np.unique(C.times)) < C.n_cells / 100
        D = reduce(C)
        assert np.count_nonzero((D.qs == 0) & np.isinf(D.deaths)) >= 4
        for got, want in zip((D.qs, D.births, D.deaths), _homology_reduction(C)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_reduce_rejects_a_complex_not_closed_under_faces():
    """A tuple list missing a facet is accepted as a complex, but `reduce`
    raises rather than pair its cells against a neighbouring row."""
    P = sample_poisson_homogeneous(1.0, Box((0.0, 0.0), (12.0, 12.0)), RngSeed(29, 0))
    C = build(P, "rips", r_max=1.5, q_max=2)
    verts = list(C.verts)
    assert reduce(dataclasses.replace(C, verts=verts)).to_csv() == reduce(C).to_csv()
    # the edge (22, 60) is a facet of four triangles
    keep = np.arange(C.n_cells) != verts.index((22, 60))
    D = dataclasses.replace(C, verts=[v for v, k in zip(verts, keep) if k], times=C.times[keep], dims=C.dims[keep])
    assert np.count_nonzero(D.verts.facets[2] < 0) == 4
    with pytest.raises(DomainError, match="not closed under faces"):
        reduce(D)
    # up to dimension 1 every facet is a cell, so a cap there reduces
    assert reduce(dataclasses.replace(D, q_max=1)).q_max == 1


def test_reduce_takes_a_tuple_complex_whose_vertex_ids_have_a_gap():
    """Dropping a vertex and every cell through it leaves a complex closed
    under faces on the vertex ids left, gap included; it reduces to the
    diagram of the cloud without that point."""
    P = sample_poisson_homogeneous(1.0, Box((0.0, 0.0), (6.0, 6.0)), RngSeed(29, 1))
    C = build(P, "rips", r_max=1.5, q_max=2)
    keep = np.array([3 not in v for v in C.verts])
    D = dataclasses.replace(C, verts=[v for v, k in zip(C.verts, keep) if k], times=C.times[keep], dims=C.dims[keep])
    assert all(f.min(initial=0) >= 0 for f in D.verts.facets)
    rest = PointCloud(np.delete(P.points, 3, axis=0), P.window)
    assert reduce(D).to_csv() == reduce(build(rest, "rips", r_max=1.5, q_max=2)).to_csv()


def test_lazy_pivots_match_homology_reduction(monkeypatch):
    """Clouds large enough that lazy pivots (the seeded apparent pairs) are
    expanded in every reduction, and several within one insert for each kind
    and d: Rips and Cech in d = 2 and 3, uniform or on a half-lattice (tied
    times), with r_max past the percolation radius of unit intensity."""
    expanded, chains = [], []
    init, insert = Echelon.__init__, Echelon.insert

    def spy_init(self, column=None, pivots=None):
        init(self, column and (lambda key: expanded.append(key) or column(key)), pivots)

    def spy_insert(self, v):
        before = len(expanded)
        low = insert(self, v)
        chains.append(len(expanded) - before)
        return low

    monkeypatch.setattr(Echelon, "__init__", spy_init)
    monkeypatch.setattr(Echelon, "insert", spy_insert)
    rng = np.random.default_rng(41)
    for n, d, kind, r_max in [(120, 2, "rips", 2.0), (100, 2, "cech", 1.0), (80, 3, "rips", 1.2), (80, 3, "cech", 0.6)]:
        side = n ** (1 / d)
        longest = 0
        for pts in (rng.random((n, d)) * side, rng.integers(0, 2 * int(side) + 1, (n, d)) / 2.0):
            C = build(PointCloud(pts, Box((0.0,) * d, (side,) * d)), kind, r_max=r_max, q_max=d)
            del expanded[:], chains[:]
            D = reduce(C)
            for got, want in zip((D.qs, D.births, D.deaths), _homology_reduction(C)):
                assert np.array_equal(got, want)
            assert len(expanded) > 0
            longest = max(longest, *chains)
        assert longest >= 2


def test_reduce_never_inserts_a_top_dimension_column(monkeypatch):
    C = build(PointCloud(np.random.default_rng(39).random((12, 2)), unit_box(2)), "rips", r_max=1.0, q_max=2)
    verts = list(C.verts)
    triangles = [v for v in verts if len(v) == 3]
    assert len(triangles) > 0
    # every edge has a cofacet, so no live edge is skipped for an empty coboundary
    assert {v for v in verts if len(v) == 2} == {f for t in triangles for f in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
    # a column is formed when it seeds an echelon (apparent) or is inserted
    echelons, columns = [], []
    init, insert = Echelon.__init__, Echelon.insert

    def spy_init(self, column=None, pivots=None):
        echelons.append(self)
        columns.extend((pivots or {}).values())
        init(self, column, pivots)

    monkeypatch.setattr(Echelon, "__init__", spy_init)
    monkeypatch.setattr(Echelon, "insert", lambda self, v: columns.append(v) or insert(self, v))
    D = reduce(C)
    # dimension 0 forms no echelon, and the one for dimension 1 takes one
    # column per edge, less the edges that were deaths of vertex classes
    # (clearing); none for a triangle
    cleared = np.count_nonzero((D.qs == 0) & np.isfinite(D.deaths))
    assert cleared > 0
    assert len(echelons) == 1
    assert len(columns) == np.count_nonzero(C.dims == 1) - cleared


def test_boundary_of_boundary_vanishes():
    C = build(SQUARE, "rips", r_max=2.0, q_max=3)
    masks = boundary_masks(C)
    for j in range(C.n_cells):
        acc = 0
        col = masks[j]
        while col:
            low = col.bit_length() - 1
            acc ^= masks[low]
            col ^= 1 << low
        assert acc == 0


def test_rectangle_rule_examples():
    D = reduce(build(SQUARE, "rips", r_max=2.0, q_max=2))
    assert D.persistent_betti(RankQuery(1, 1.0, 1.2)) == 1
    assert D.persistent_betti(RankQuery(1, 0.9, 1.2)) == 0
    assert D.persistent_betti(RankQuery(1, 1.0, RT2)) == 0
    # r = s = r_max gives the ordinary Betti numbers of the full complex
    assert D.persistent_betti(RankQuery(0, 2.0, 2.0)) == 1
    assert D.persistent_betti(RankQuery(1, 2.0, 2.0)) == 0


def test_isolated_points_rank():
    P = PointCloud(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]), Box((0.0, 0.0), (6.0, 6.0)))
    D = reduce(build(P, "rips", r_max=1.0, q_max=1))
    assert D.persistent_betti(RankQuery(0, 0.0, 0.0)) == 3


def test_query_validation():
    D = reduce(build(SQUARE, "rips", r_max=2.0, q_max=2))
    with pytest.raises(DomainError):
        RankQuery(1, 1.5, 1.0)
    # a negative degree and NaN radii are rejected, not counted as 0
    for q, r, s, message in ((-1, 1.0, 1.2, "q >= 0"), (1, math.nan, 1.2, "r <= s"), (1, 1.0, math.nan, "r <= s")):
        with pytest.raises(DomainError, match=message):
            RankQuery(q, r, s)
    with pytest.raises(CapError):
        D.persistent_betti(RankQuery(1, 1.0, 2.5))


def test_direct_oracle_square():
    C = build(SQUARE, "rips", r_max=2.0, q_max=2)
    assert persistent_betti_direct(C, RankQuery(1, 1.0, 1.2)) == 1
    empty = build(PointCloud(np.array([[0.0, 0.0]]), unit_box(2)), "rips", r_max=1.0, q_max=1)
    with pytest.raises(CapError):
        persistent_betti_direct(empty, RankQuery(1, 0.5, 0.5))


def test_queries_at_the_q_max_cap_raise():
    # the 4-cycle is born at 1 and dies at sqrt 2, but at q_max = 1 the complex
    # holds no triangle to record that death
    query = RankQuery(1, 1.2, 1.2)
    capped = build(SQUARE, "rips", r_max=2.0, q_max=1)
    with pytest.raises(CapError):
        reduce(capped).persistent_betti(query)
    with pytest.raises(CapError):
        persistent_betti_direct(capped, query)
    full = build(SQUARE, "rips", r_max=2.0, q_max=2)
    assert reduce(full).persistent_betti(query) == persistent_betti_direct(full, query) == 1
    with pytest.raises(CapError):
        reduce(full).persistent_betti(RankQuery(3, 1.2, 1.2))
    with pytest.raises(CapError):
        persistent_betti_direct(full, RankQuery(3, 1.2, 1.2))


def test_q0_queries_at_q_max_0_raise_past_time_0():
    # two points 0.5 apart merge at 0.5, but at q_max = 0 the complex holds no
    # edge to record that death, so beta_0^{1,1} (truly 1) cannot be read
    pair = PointCloud(np.array([[0.0, 0.0], [0.5, 0.0]]), unit_box(2))
    query = RankQuery(0, 1.0, 1.0)
    capped = build(pair, "rips", 1.0, 0)
    with pytest.raises(CapError):
        reduce(capped).persistent_betti(query)
    with pytest.raises(CapError):
        persistent_betti_direct(capped, query)
    at_zero = RankQuery(0, 0.0, 0.0)
    assert reduce(capped).persistent_betti(at_zero) == persistent_betti_direct(capped, at_zero) == 2
    full = build(pair, "rips", 1.0, 1)
    assert reduce(full).persistent_betti(query) == persistent_betti_direct(full, query) == 1


def test_oracle_cross_check_random_clouds():
    rng = np.random.default_rng(32)
    for _ in range(30):
        P = PointCloud(rng.random((8, 2)), unit_box(2))
        for kind in ("rips", "cech"):
            C = build(P, kind, r_max=0.9, q_max=2)
            D = reduce(C)
            times = sorted(set(np.round(C.event_times(), 12))) or [0.0]
            probe = times[:: max(1, len(times) // 4)]
            for q in (0, 1):
                for ir, r in enumerate(probe):
                    for s in probe[ir:]:
                        query = RankQuery(q, float(r), float(s))
                        assert D.persistent_betti(query) == persistent_betti_direct(C, query)


def test_monotonicity_in_r_and_s():
    rng = np.random.default_rng(33)
    P = PointCloud(rng.random((12, 2)), unit_box(2))
    D = reduce(build(P, "rips", r_max=1.0, q_max=2))
    grid = np.linspace(0.0, 1.0, 6)
    for q in (0, 1):
        for s in grid:
            vals = [D.persistent_betti(RankQuery(q, r, s)) for r in grid if r <= s]
            assert vals == sorted(vals)
        for r in grid:
            vals = [D.persistent_betti(RankQuery(q, r, s)) for s in grid if s >= r]
            assert vals == sorted(vals, reverse=True)


def test_euler_characteristic():
    rng = np.random.default_rng(34)
    P = PointCloud(rng.random((10, 2)), unit_box(2))
    C = build(P, "rips", r_max=1.5, q_max=2)
    D = reduce(C)
    for r in sorted(set(C.event_times())):
        chi_cells = sum(
            (-1) ** int(C.dims[i]) for i in range(C.n_cells) if C.times[i] <= r
        )
        # q_max = 2 retains 2-cells whose positive classes are unobservable;
        # count them directly as cycles minus boundaries at top dimension
        betti = [D.persistent_betti(RankQuery(q, float(r), float(r))) for q in (0, 1)]
        chi_homology = betti[0] - betti[1] + _top_betti(C, 2, float(r))
        assert chi_cells == chi_homology


def _top_betti(C, q, r):
    masks = boundary_masks(C)
    cols = [masks[i] for i in range(C.n_cells) if C.dims[i] == q and C.times[i] <= r]
    pivots = {}
    rank = 0
    for col in cols:
        while col:
            low = col.bit_length() - 1
            if low in pivots:
                col ^= pivots[low]
            else:
                pivots[low] = col
                rank += 1
                break
    return len(cols) - rank


def test_connected_components():
    P = PointCloud(np.array([[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]]), Box((0.0, 0.0), (2.0, 2.0)))
    assert connected_component_count(P, 0.0) == 3
    assert connected_component_count(P, 0.9) == 1
    empty = PointCloud(np.empty((0, 2)), unit_box(2))
    assert connected_component_count(empty, 1.0) == 0
    # coincident points are joined at threshold 0, as in the filtration
    twins = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), unit_box(2))
    assert connected_component_count(twins, 0.0) == 2 == reduce(build(twins, "rips", r_max=2.0, q_max=1)).persistent_betti(RankQuery(0, 0.0, 0.0))
    rng = np.random.default_rng(35)
    for _ in range(10):
        Q = PointCloud(rng.random((15, 2)), unit_box(2))
        D = reduce(build(Q, "rips", r_max=1.5, q_max=1))
        for t in (0.1, 0.25, 0.4):
            assert connected_component_count(Q, t) == D.persistent_betti(RankQuery(0, t, t))


def test_component_counts_are_the_single_counts():
    rng = np.random.default_rng(37)
    for trial in range(40):
        m = int(rng.integers(0, 25))
        P = PointCloud(rng.random((m, 2)) * 2.0, Box((0.0, 0.0), (2.0, 2.0)))
        if m > 3 and trial % 3 == 0:
            P = PointCloud(np.vstack([P.points, P.points[:2]]), P.window)  # coincident points
        kind = ("rips", "cech")[trial % 2]
        # unsorted, with repeats, zero, and thresholds whose edge cutoff
        # mu(kind, t) is exactly an edge's length
        lengths = close_pairs(P.points, 3.0)[1][:5].tolist()
        ts = rng.uniform(0.0, 1.2, 12).tolist() + [0.0, 0.3, 0.3] + [x / mu(kind, 1.0) for x in lengths]
        rng.shuffle(ts)
        assert connected_component_counts(P, ts, kind) == [connected_component_count(P, t, kind) for t in ts]
    assert connected_component_counts(P, [], "rips") == []
    with pytest.raises(DomainError):
        connected_component_counts(P, [0.5, -0.1])


def test_geometric_bound_on_rank_difference():
    rng = np.random.default_rng(36)
    for _ in range(50):
        pts = rng.random((12, 2))
        k = rng.integers(4, 11)
        X = PointCloud(pts[:k], unit_box(2))
        Y = PointCloud(pts, unit_box(2))
        r, s = sorted(rng.uniform(0.1, 0.8, 2))
        for q in (0, 1):
            bx = reduce(build(X, "rips", r_max=s, q_max=q + 1)).persistent_betti(RankQuery(q, r, s))
            by = reduce(build(Y, "rips", r_max=s, q_max=q + 1)).persistent_betti(RankQuery(q, r, s))
            bound = count_new_simplices(X, Y, s, q, "rips") + count_new_simplices(X, Y, s, q + 1, "rips")
            assert abs(by - bx) <= bound


def test_translation_scaling_invariance_of_ranks():
    rng = np.random.default_rng(37)
    P = PointCloud(rng.random((10, 2)), unit_box(2))
    D = reduce(build(P, "rips", r_max=1.0, q_max=2))
    Dt = reduce(build(P.translate([3.0, 4.0]), "rips", r_max=1.0, q_max=2))
    Ds = reduce(build(P.scale(2.0), "rips", r_max=2.0, q_max=2))
    for q in (0, 1):
        for r, s in [(0.2, 0.5), (0.4, 0.4), (0.3, 0.9)]:
            v = D.persistent_betti(RankQuery(q, r, s))
            assert Dt.persistent_betti(RankQuery(q, r, s)) == v
            assert Ds.persistent_betti(RankQuery(q, 2 * r, 2 * s)) == v


def test_diagram_csv_roundtrip():
    D = reduce(build(SQUARE, "rips", r_max=2.0, q_max=2))
    text = D.to_csv()
    assert text.splitlines()[0] == "q,birth,death"
    back = diagram_from_csv(text, q_max=2, r_max=2.0)
    assert np.array_equal(back.qs, D.qs)
    assert np.array_equal(back.births, D.births)
    assert np.array_equal(back.deaths, D.deaths)


def test_infinite_pairs_count_betti_at_cap():
    rng = np.random.default_rng(38)
    P = PointCloud(rng.random((12, 2)), unit_box(2))
    C = build(P, "rips", r_max=1.5, q_max=2)
    D = reduce(C)
    n_inf = int(np.count_nonzero((D.qs == 0) & np.isinf(D.deaths)))
    assert n_inf == D.persistent_betti(RankQuery(0, 1.5, 1.5))
