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
