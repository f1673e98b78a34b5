"""Property tests on small random clouds (hypothesis)."""

import numpy as np
from hypothesis import given, settings
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
    # times in single precision: a Rips clique time takes the longest of its
    # edges' lengths partly from `np.linalg.norm(..., axis=1)`, which can
    # exceed the close-pair length of the same edge by one double ulp, and
    # which edges take that path depends on the order of the points
    return sorted(zip(D.qs.tolist(), D.births.astype(np.float32).tolist(), D.deaths.astype(np.float32).tolist()))


@settings(max_examples=100, deadline=None)
@given(clouds, st.sampled_from([0.3, 0.6, 1.5]), st.integers(1, 3), st.randoms(use_true_random=False))
def test_point_permutation_leaves_rips_diagram_unchanged(P, r_max, q_max, random):
    order = list(range(P.n))
    random.shuffle(order)
    shuffled = PointCloud(P.points[order], P.window)
    D = reduce(build(P, "rips", r_max, q_max))
    assert _triples(reduce(build(shuffled, "rips", r_max, q_max))) == _triples(D)


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
