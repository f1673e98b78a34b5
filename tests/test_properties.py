"""Property tests on small random clouds (hypothesis)."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pslab.filtration import build
from pslab.persistence import RankQuery, persistent_betti_direct, reduce
from pslab.point_process import PointCloud, unit_box

# a coordinate is uniform or on a coarse grid, so that ties and repeated
# points are drawn often
coordinate = st.one_of(st.floats(0.0, 1.0), st.integers(0, 4).map(lambda i: i / 4.0))
clouds = st.lists(st.tuples(coordinate, coordinate), max_size=12).map(
    lambda rows: PointCloud(np.array(rows, dtype=float).reshape(-1, 2), unit_box(2))
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


def test_point_permutation_leaves_rips_diagram_unchanged_on_a_tie_cloud():
    # a cloud on which a clique time that took an edge's length from another
    # distance kernel than `close_pairs` moved a death by one ulp with the order
    P = PointCloud(np.array([[0.0, 0.0]] * 8 + [[0.0, 1.0], [0.75, 0.8105087641586393]]), unit_box(2))
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
# the example is a triangle whose two long sides differ by about 1e-9, where a
# miniball tolerance with an absolute part chose another ball after scaling
@settings(max_examples=100, deadline=None)
@given(clouds, st.sampled_from(CAPS), st.integers(1, 3), st.sampled_from([-1, 1, 3]))
@example(
    PointCloud(np.array([[0.0, 0.0], [0.125, 0.5], [0.0, 1.1853451761172743e-09], [0.0, 0.0]]), unit_box(2)),
    ("cech", 0.3), 3, 1,
)
def test_scaling_the_cloud_scales_the_diagram_exactly(P, cap, q_max, k):
    kind, r_max = cap
    a = 2.0**k
    D = reduce(build(P, kind, r_max, q_max))
    scaled = reduce(build(P.scale(a), kind, a * r_max, q_max))
    assert _triples(scaled) == [(q, a * b, a * d) for q, b, d in _triples(D)]


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
    for q in range(q_max):
        for i, r in enumerate(grid):
            for s in grid[i:]:
                query = RankQuery(q, r, s)
                assert D.persistent_betti(query) == persistent_betti_direct(C, query)
