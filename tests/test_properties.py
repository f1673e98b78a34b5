"""Property tests on small random clouds (hypothesis)."""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pslab.filtration import build
from pslab.persistence import RankQuery, boundary_masks, persistent_betti_direct_all, reduce
from pslab.point_process import Box, PointCloud, RngSeed, sample_poisson_homogeneous, unit_box
from pslab.stabilization import AddOneQuery, add_one_cost, weak_radius

# a coordinate is uniform or on a coarse grid, so that ties and repeated
# points are drawn often
coordinate = st.one_of(st.floats(0.0, 1.0), st.integers(0, 4).map(lambda i: i / 4.0))
clouds = st.lists(st.tuples(coordinate, coordinate), max_size=12).map(
    lambda rows: PointCloud(np.array(rows, dtype=float).reshape(-1, 2), unit_box(2))
)
small_clouds = st.lists(st.tuples(coordinate, coordinate), max_size=7).map(
    lambda rows: PointCloud(np.array(rows, dtype=float).reshape(-1, 2), unit_box(2))
)
small_clouds_3d = st.lists(st.tuples(coordinate, coordinate, coordinate), max_size=6).map(
    lambda rows: PointCloud(np.array(rows, dtype=float).reshape(-1, 3), unit_box(3))
)
clouds_3d = st.lists(st.tuples(coordinate, coordinate, coordinate), max_size=9).map(
    lambda rows: PointCloud(np.array(rows, dtype=float).reshape(-1, 3), unit_box(3))
)


def _triples(D):
    return sorted(zip(D.qs.tolist(), D.births.tolist(), D.deaths.tolist()))


@settings(max_examples=100, deadline=None)
@given(clouds, st.sampled_from([0.3, 0.6, 1.5]), st.integers(1, 3), st.randoms(use_true_random=False))
def test_point_permutation_leaves_rips_diagram_unchanged(P, r_max, q_max, random):
    order = list(range(P.n))
    random.shuffle(order)
    shuffled = PointCloud(P.points[order], P.window)
    D = reduce(build(P, "rips", r_max, q_max))
    assert _triples(reduce(build(shuffled, "rips", r_max, q_max))) == _triples(D)


# a cloud on which a clique time that took an edge's length from another
# distance kernel than `close_pairs` moved a death by one ulp with the order
TIE_CLOUD = PointCloud(np.array([[0.0, 0.0]] * 8 + [[0.0, 1.0], [0.75, 0.8105087641586393]]), unit_box(2))


def test_point_permutation_leaves_rips_diagram_unchanged_on_a_tie_cloud():
    P = TIE_CLOUD
    D = reduce(build(P, "rips", 1.5, 2))
    for seed in range(8):
        shuffled = PointCloud(P.points[np.random.default_rng(seed).permutation(P.n)], P.window)
        assert _triples(reduce(build(shuffled, "rips", 1.5, 2))) == _triples(D)


# the unit square's diameter is below 1.5, and its Cech radii below 1, so every
# simplex up to q_max is in both complexes
@settings(max_examples=100, deadline=None)
@given(clouds, st.integers(1, 3))
@example(PointCloud(np.array([[0.0, 0.5], [0.0, 0.5], [0.25, 0.933076476434967]]), unit_box(2)), 2)
def test_rips_and_cech_interleave_by_jung(P, q_max):
    rips = build(P, "rips", 1.5, q_max)
    cech = build(P, "cech", 1.0, q_max)
    assert sorted(rips.verts) == sorted(cech.verts)
    t_rips = dict(zip(rips.verts, rips.times.tolist()))
    jung = math.sqrt(P.d / (2.0 * (P.d + 1)))
    for v, t_cech in zip(cech.verts, cech.times.tolist()):
        assert t_rips[v] / 2.0 <= t_cech
        assert t_cech <= jung * t_rips[v] * (1.0 + 1e-12)


# in R^d at most d + 1 points support a smallest enclosing ball, so a simplex
# of k + 1 >= d + 2 vertices has the ball of a facet, and its Cech time is
# exactly its largest facet time; the unit square's and cube's Cech radii are
# below 1, so every simplex up to q_max is present
@settings(max_examples=100, deadline=None)
@given(st.one_of(clouds.map(lambda P: (P, 3)), clouds_3d.map(lambda P: (P, 4))))
def test_cech_time_of_a_simplex_past_d_plus_one_vertices_is_its_largest_facet_time(case):
    P, q_max = case
    C = build(P, "cech", 1.0, q_max)
    t = dict(zip(C.verts, C.times.tolist()))
    assert len(t) == sum(math.comb(P.n, k + 1) for k in range(q_max + 1))
    for v, time in t.items():
        if len(v) - 1 >= max(3, P.d + 1):
            assert time == max(t[v[:c] + v[c + 1:]] for c in range(len(v)))


# no quarter-grid simplex has its Rips or Cech time at one of these caps, so
# moving a time by a few ulps cannot move a cell across the cap
CAPS = [("rips", 0.3), ("rips", 0.6), ("rips", 1.5), ("cech", 0.15), ("cech", 0.3), ("cech", 1.0)]


# a power of two scales every coordinate, distance and radius without rounding;
# the first example is a triangle whose two long sides differ by about 1e-9,
# where a miniball tolerance with an absolute part chose another ball after
# scaling; in the second the squared length underflowed and lost bits, so the
# halved cloud's death was not half the death; in the third the length, 5e-324,
# has no exact Cech half; in the fourth, a triangle of sides about 4e-159,
# the squared edge vectors of its circumball solve underflowed, and the
# halved triangle did not enter at half the time
@settings(max_examples=100, deadline=None)
@given(clouds, st.sampled_from(CAPS), st.integers(1, 3), st.sampled_from([-1, 1, 3]))
@example(
    PointCloud(np.array([[0.0, 0.0], [0.125, 0.5], [0.0, 1.1853451761172743e-09], [0.0, 0.0]]), unit_box(2)),
    ("cech", 0.3), 3, 1,
)
@example(PointCloud(np.array([[0.0, 0.0], [0.0, 7.644556442455896e-156]]), unit_box(2)), ("rips", 0.3), 1, -1)
@example(PointCloud(np.array([[0.0, 0.0], [0.0, 5e-324]]), unit_box(2)), ("cech", 0.15), 1, 1)
@example(
    PointCloud(
        np.array([
            [1.8774763981087022e-159, 5.796738432291163e-159],
            [5.272655138983638e-159, 5.349396720566526e-159],
            [3.6263689107269426e-159, 1.7348156799167418e-159],
        ]),
        unit_box(2),
    ),
    ("cech", 0.3), 2, -1,
)
def test_scaling_the_cloud_scales_the_diagram_exactly(P, cap, q_max, k):
    kind, r_max = cap
    a = 2.0**k
    D = reduce(build(P, kind, r_max, q_max))
    scaled = reduce(build(P.scale(a), kind, a * r_max, q_max))
    assert _triples(scaled) == [(q, a * b, a * d) for q, b, d in _triples(D)]


# what run_clt rests on: beta_q^{r,s} read off a complex built at any caps
# R >= s and Q >= q + 1 is the one read off the complex built at (s, q + 1),
# for every (q, r, s) on the grid of the larger complex's entry times.  The
# one exception is s = 0 on a cloud with an edge of length 0 (coincident
# points): `build` at r_max = 0 holds the vertices alone, and so leaves out
# an edge that enters at time 0 in the larger complex
@settings(max_examples=100, deadline=None)
@given(st.one_of(small_clouds, small_clouds_3d), st.sampled_from(CAPS), st.integers(1, 3))
def test_betti_at_larger_caps_is_betti_at_s_and_q_plus_one(P, cap, q_max):
    kind, r_max = cap
    C = build(P, kind, r_max, q_max)
    D = reduce(C)
    grid = sorted({0.0, r_max, *C.times.tolist()})
    zero_edge = bool(np.any((C.dims == 1) & (C.times == 0.0)))
    for q in range(q_max):
        for j, s in enumerate(grid):
            if s == 0.0 and zero_edge:
                continue
            own = reduce(build(P, kind, s, q + 1))
            for r in grid[: j + 1]:
                query = RankQuery(q, r, s)
                assert D.persistent_betti(query) == own.persistent_betti(query)


def _cut_below(D, t):
    """The pairs born below t, with every death at or above t read as inf."""
    keep = D.births < t
    return D.qs[keep], D.births[keep], np.where(D.deaths[keep] >= t, math.inf, D.deaths[keep])


# an integer shift rounds uniform coordinates, so times may move by ulps; on
# quarter-grid clouds Cech radii also move, since `_circumballs` solves in
# absolute coordinates for the simplices whose facet balls all miss their
# omitted vertex (the facet rule of `_enclosing_balls`), and only the Rips
# times there stay exact.  A time at r_max can so cross the cap, so the
# diagrams are compared below r_max - 1e-9; the examples are a pair at exactly
# the cap distance, whose 0.6 becomes 0.6000000000000001 after the shift
@settings(max_examples=100, deadline=None)
@given(clouds, st.sampled_from(CAPS), st.integers(1, 3), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@example(PointCloud(np.array([[0.0, 1.0], [0.0, 0.4]]), unit_box(2)), ("rips", 0.6), 1, (0, 1))
@example(PointCloud(np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.4]]), unit_box(2)), ("rips", 0.6), 2, (0, 1))
def test_integer_translation_leaves_the_diagram_unchanged(P, cap, q_max, v):
    kind, r_max = cap
    cut = r_max - 1e-9
    qs, births, deaths = _cut_below(reduce(build(P, kind, r_max, q_max)), cut)
    moved_qs, moved_births, moved_deaths = _cut_below(reduce(build(P.translate(v), kind, r_max, q_max)), cut)
    assert sorted(moved_qs.tolist()) == sorted(qs.tolist())
    for q in set(qs.tolist()):
        for got, want in ((moved_births, births), (moved_deaths, deaths)):
            np.testing.assert_allclose(np.sort(got[moved_qs == q]), np.sort(want[qs == q]), rtol=0.0, atol=1e-12)


# Cech caps at half the Rips ones give the same edges; the oracle's cost grows
# with the square of the number of distinct times, and 12 points at Cech 0.3
# already have about 80
@settings(max_examples=30, deadline=None)
@given(clouds, st.sampled_from([("rips", 0.3), ("rips", 0.6), ("cech", 0.15), ("cech", 0.3)]), st.integers(1, 2))
def test_reduce_agrees_with_oracle_on_event_grid(P, cap, q_max):
    kind, r_max = cap
    C = build(P, kind, r_max, q_max)
    D = reduce(C)
    grid = [0.0, *C.event_times().tolist()]
    queries = [RankQuery(q, r, s) for q in range(q_max) for i, r in enumerate(grid) for s in grid[i:]]
    assert [D.persistent_betti(query) for query in queries] == persistent_betti_direct_all(C, queries)


def _reference_facet_ranks(C, top):
    """The tuple-based derivation that the stored arrays replaced, kept here as
    the reference: flatten the vertex tuples into rows per dimension in the
    stored order, and look every facet up again by its tuple among the rows
    one dimension down.  Returns (cells, rows, facets)."""
    sizes = C.dims + 1
    flat = np.fromiter(itertools.chain.from_iterable(C.verts), dtype=np.intp, count=int(sizes.sum()))
    start = np.cumsum(sizes) - sizes
    cells = [np.flatnonzero(C.dims == k) for k in range(top + 1)]
    rows = [flat[start[idx][:, None] + np.arange(k + 1)] for k, idx in enumerate(cells)]
    facets = [None]
    for k in range(1, top + 1):
        rank = {tuple(v): i for i, v in enumerate(rows[k - 1].tolist())}
        ranks = [[rank[tuple(v[:c] + v[c + 1:])] for c in range(k + 1)] for v in rows[k].tolist()]
        facets.append(np.array(ranks, dtype=np.intp).reshape(-1, k + 1))
    return cells, rows, facets


def _assert_facet_ranks_match_reference(C):
    """The stored arrays are the reference's: each dimension's positions,
    rows and facet ranks, in the stored order."""
    S = C.verts
    top = int(C.dims.max(initial=0))
    ref_cells, ref_rows, ref_facets = _reference_facet_ranks(C, top)
    assert all(len(at) == 0 for at in S.positions[top + 1:])
    got = [*S.positions[:top + 1], *S.rows[:top + 1], *S.facets[1:top + 1]]
    want = [*ref_cells, *ref_rows, *ref_facets[1:]]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return S.positions, S.facets


# besides `CAPS`, Rips 1.5 and Cech 1.0 hold every simplex of a planar cloud
@settings(max_examples=100, deadline=None)
@given(st.one_of(clouds, clouds_3d), st.sampled_from([*CAPS, ("rips", 1.5), ("cech", 1.0)]), st.integers(1, 3))
@example(TIE_CLOUD, ("rips", 1.5), 2)
@example(TIE_CLOUD, ("cech", 1.0), 3)
def test_facet_ranks_match_the_tuple_derivation_and_the_oracle_facets(P, cap, q_max):
    C = build(P, cap[0], cap[1], q_max)
    cells, facets = _assert_facet_ranks_match_reference(C)
    # `boundary_masks` is the oracle's own facet code, over stored positions
    masks = boundary_masks(C)
    for k in range(1, len(cells)):
        for i, row in zip(cells[k].tolist(), facets[k].tolist()):
            assert masks[i] == sum(1 << int(cells[k - 1][f]) for f in row)


def test_facet_ranks_match_the_tuple_derivation_on_large_clouds():
    # Rips past the percolation radius of unit intensity, and Cech to q_max 3
    for kind, r_max, q_max, seed in (("rips", 2.0, 2, 0), ("rips", 1.2, 3, 1), ("cech", 0.7, 3, 2)):
        P = sample_poisson_homogeneous(1.0, Box((0.0, 0.0), (20.0, 20.0)), RngSeed(35, seed))
        C = build(P, kind, r_max, q_max)
        assert int(C.dims.max()) == q_max and C.n_cells > 2000
        _assert_facet_ranks_match_reference(C)


# what alpha and de-Poissonization rest on: D1 - D2 in the last row of the
# weak trace, on a window ball that holds every point, is the add-one cost
# beta(K(P u Q)) - beta(K(P)) of two whole reductions, for every q < d.
# Rips at s = 1 (Cech at s = 1/2 has the same edges) has mean degree 1.57
# (d = 2) or 1.05 (d = 3) at the lower intensity, below the continuum
# percolation thresholds of about 4.5 and 2.7, and 9.4 or 6.3, past them,
# at the higher one
PERCOLATION_CASES = {2: (Box((-2.5,) * 2, (2.5,) * 2), (0.5, 3.0)), 3: (Box((-1.5,) * 3, (1.5,) * 3), (0.25, 1.5))}


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.sampled_from([("rips", 1.0), ("cech", 0.5)]),
    st.booleans(),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(0, 2**16),
)
def test_weak_trace_ends_at_the_add_one_cost(d, cap, past, m, r_share, seed):
    kind, s = cap
    r = r_share * s
    box, intensities = PERCOLATION_CASES[d]
    P = sample_poisson_homogeneous(intensities[past], box, RngSeed(seed, 0))
    Q = RngSeed(seed, 1).generator().uniform(-0.5, 0.5, (m, d))
    _, trace = weak_radius(P, Q, np.zeros(d), r, s, kind=kind, window_radius=math.inf, return_trace=True)
    costs = [add_one_cost(AddOneQuery(P, Q, q, r, s, kind)) for q in range(d)]
    assert (trace.d1[-1] - trace.d2[-1]).tolist() == costs
