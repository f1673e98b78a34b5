import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab.experiments import sample_scaled_process
from pslab.filtration import (
    MB_TOL,
    _circumballs,
    _triangle_balls,
    build,
    build_cech,
    build_rips,
    close_pairs,
    complex_from_text,
    count_new_simplices,
    miniball,
    mu,
    restrict,
)
from pslab.point_process import (
    Box,
    DomainError,
    PointCloud,
    RngSeed,
    constant_density,
    sample_poisson_homogeneous,
    unit_box,
)

SQUARE = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), unit_box(2))


def _cells_by_dim(C, q):
    return [(C.verts[i], C.times[i]) for i in range(C.n_cells) if C.dims[i] == q]


def test_rips_single_point():
    P = PointCloud(np.array([[0.3, 0.4]]), unit_box(2))
    C = build_rips(P, r_max=1.0, q_max=1)
    assert C.n_cells == 1 and C.times[0] == 0.0


def test_rips_edge_time_is_distance():
    P = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]]), Box((0.0, 0.0), (3.0, 3.0)))
    C = build_rips(P, r_max=3.0, q_max=1)
    edges = _cells_by_dim(C, 1)
    assert len(edges) == 1 and edges[0][1] == 2.0
    assert all(t == 0.0 for _, t in _cells_by_dim(C, 0))


def test_rips_square_census():
    C = build_rips(SQUARE, r_max=2.0, q_max=3)
    rt2 = math.sqrt(2.0)
    edges = _cells_by_dim(C, 1)
    assert sorted(t for _, t in edges) == pytest.approx([1.0] * 4 + [rt2] * 2)
    triangles = _cells_by_dim(C, 2)
    assert len(triangles) == 4 and all(t == pytest.approx(rt2) for _, t in triangles)
    tets = _cells_by_dim(C, 3)
    assert len(tets) == 1 and tets[0][1] == pytest.approx(rt2)


def test_rips_square_matches_brute_force():
    # every vertex subset of size <= q_max+1 with diameter <= r_max, exactly once
    C = build_rips(SQUARE, r_max=2.0, q_max=3)
    got = {C.verts[i]: C.times[i] for i in range(C.n_cells)}
    expected = {}
    pts = SQUARE.points
    for k in range(1, 5):
        for sub in itertools.combinations(range(4), k):
            diam = max(
                (np.linalg.norm(pts[a] - pts[b]) for a, b in itertools.combinations(sub, 2)),
                default=0.0,
            )
            if diam <= 2.0:
                expected[tuple(sub)] = diam
    assert set(got) == set(expected)
    for key in expected:
        assert got[key] == pytest.approx(expected[key], abs=1e-12)


def test_cech_equilateral_triangle():
    P = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]), Box((-1.0, -1.0), (2.0, 2.0)))
    C = build_cech(P, r_max=1.0, q_max=2)
    tri = _cells_by_dim(C, 2)
    assert len(tri) == 1
    assert abs(tri[0][1] - 1.0 / math.sqrt(3.0)) <= 1e-9


def test_cech_obtuse_triangle():
    P = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1]]), Box((-1.0, -1.0), (3.0, 3.0)))
    C = build_cech(P, r_max=1.5, q_max=2)
    tri = _cells_by_dim(C, 2)
    assert len(tri) == 1
    assert abs(tri[0][1] - 1.0) <= 1e-9


def test_cech_square_times():
    C = build_cech(SQUARE, r_max=1.0, q_max=2)
    half_diag = math.sqrt(2.0) / 2.0
    edge_times = sorted(t for _, t in _cells_by_dim(C, 1))
    assert edge_times == pytest.approx([0.5] * 4 + [half_diag] * 2)
    assert all(abs(t - half_diag) <= 1e-9 for _, t in _cells_by_dim(C, 2))


def test_build_rejects_bad_r_max():
    with pytest.raises(DomainError):
        build_rips(SQUARE, r_max=0.0, q_max=1)
    with pytest.raises(DomainError):
        build_cech(SQUARE, r_max=-1.0, q_max=1)


def test_miniball_trivial_cases():
    c, r = miniball(np.array([[2.0, 3.0]]))
    assert r == 0.0 and np.allclose(c, [2.0, 3.0])
    c, r = miniball(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(c, [1.0, 0.0]) and abs(r - 1.0) <= 1e-12


def _brute_miniball_radius(pts):
    """O(n^4) oracle: try every 1/2/3-point support set, keep the smallest
    ball covering everything."""
    n = len(pts)
    best = math.inf
    candidates = []
    for i in range(n):
        candidates.append((pts[i], 0.0))
    for i, j in itertools.combinations(range(n), 2):
        c = (pts[i] + pts[j]) / 2.0
        candidates.append((c, np.linalg.norm(pts[i] - c)))
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, cc = pts[i], pts[j], pts[k]
        m = 2.0 * np.array([b - a, cc - a])
        rhs = np.array([b @ b - a @ a, cc @ cc - a @ a])
        det = np.linalg.det(m)
        if abs(det) < 1e-14:
            continue
        center = np.linalg.solve(m, rhs)
        candidates.append((center, np.linalg.norm(a - center)))
    for center, r in candidates:
        if all(np.linalg.norm(p - center) <= r + 1e-9 for p in pts):
            best = min(best, r)
    return best


# right, obtuse, collinear (middle point first and last) and coincident-pair
# triangles, whose radii are 0.5 * sqrt(2), 1, 1, 1 and 1
FIXED_TRIANGLES = [
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    [[0.0, 0.0], [2.0, 0.0], [1.0, 0.1]],
    [[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
    [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
]


def test_miniball_against_brute_force():
    # 30-point sets go through Welzl, triangles through `_triangle_balls`
    rng = np.random.default_rng(23)
    for pts in [*rng.random((10, 30, 2)), *rng.random((200, 3, 2)), *np.array(FIXED_TRIANGLES)]:
        _, r = miniball(pts)
        assert abs(r - _brute_miniball_radius(pts)) <= 1e-9


def _reference_circumball(R):
    p0 = R[0]
    A = 2.0 * (np.asarray(R[1:]) - p0)
    b = np.einsum("ij,ij->i", np.asarray(R[1:]) - p0, np.asarray(R[1:]) - p0)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    c = p0 + sol
    return c, max(float(np.linalg.norm(p - c)) for p in R)


def _reference_triangle_ball(p, q, r):
    """The per-triangle miniball that `_triangle_balls` replaced, kept here as
    the reference: the first of the strictly smallest edge-midpoint balls that
    hold the third vertex, else the circumball."""
    best = None
    for a, b, other in ((p, q, r), (p, r, q), (q, r, p)):
        c = 0.5 * (a + b)
        rad = float(np.linalg.norm(a - c))
        if np.linalg.norm(other - c) <= (1.0 + MB_TOL) * rad:
            if best is None or rad < best[1]:
                best = (c, rad)
    return best if best is not None else _reference_circumball([p, q, r])


def _assert_triangle_balls_exact(X):
    centers, radii = _triangle_balls(X)
    for x, c, r in zip(X, centers, radii):
        c_ref, r_ref = _reference_triangle_ball(*x)
        assert r == r_ref and np.array_equal(c, c_ref)


def _candidate_triangles(pts, r_max):
    """Every triangle of the Cech cutoff graph, as `build` enumerates them."""
    edges, _ = close_pairs(pts, mu("cech", r_max))
    nbrs = [set() for _ in range(len(pts))]
    for i, j in edges.tolist():
        nbrs[i].add(j)
    rows = [(i, j, k) for i in range(len(pts)) for j in nbrs[i] for k in nbrs[i] & nbrs[j]]
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


# triangles where the rules of the midpoint step decide: two midpoint balls of
# equal radius but different centers hold their third vertex (so the edge
# order and the tie rule pick the center), and a third vertex just inside and
# just outside the tolerance of the midpoint ball of (0, 1)
_angle = np.array([np.cos(2.0), np.sin(2.0)])
EDGE_CASE_TRIANGLES = [
    [[0.0, 0.0], [1.0, 1e-6], [1.0, -1e-6]],
    [[1.0, 1e-6], [1.0, -1e-6], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0] + 0.5 * (1.0 + 0.5 * MB_TOL) * _angle],
    [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0] + 0.5 * (1.0 + 2.0 * MB_TOL) * _angle],
]


def test_triangle_balls_match_the_per_triangle_miniball_exactly():
    _assert_triangle_balls_exact(np.array(EDGE_CASE_TRIANGLES))
    for d, n, r_max, seeds in ((2, 1000, 0.7, range(3)), (3, 150, 0.9, range(3))):
        for seed in seeds:
            pts = sample_scaled_process("binomial", constant_density(d), n, RngSeed(40 + seed, 0)).points
            X = pts[_candidate_triangles(pts, r_max)]
            assert len(X) > 1000
            _assert_triangle_balls_exact(X)


def test_circumballs_raise_when_the_svd_does_not_converge():
    # as numpy's lstsq does, instead of returning a NaN center
    with pytest.raises(np.linalg.LinAlgError):
        _circumballs(np.array([[[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0]]]))


# uniform or quarter-grid coordinates, so that right angles, ties and
# coincident points are drawn often
_coordinate = st.one_of(st.floats(0.0, 1.0), st.integers(0, 4).map(lambda i: i / 4.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=9))
def test_triangle_balls_match_the_per_triangle_miniball_on_small_clouds(rows):
    pts = np.array(rows, dtype=float)
    _assert_triangle_balls_exact(pts[list(itertools.combinations(range(len(pts)), 3))])


def test_miniball_keeps_recursion_limit():
    rng = np.random.default_rng(29)
    angles = rng.random(1000) * 2.0 * np.pi
    rim = np.column_stack([1.0 + 2.0 * np.cos(angles), -1.0 + 2.0 * np.sin(angles)])
    inner = np.array([1.0, -1.0]) + rng.uniform(-1.4, 1.4, (2000, 2))
    pts = np.vstack([rim, inner])
    limit = sys.getrecursionlimit()
    c, r = miniball(pts)
    assert sys.getrecursionlimit() == limit
    assert abs(r - 2.0) <= 1e-9 and np.allclose(c, [1.0, -1.0], atol=1e-9)


def test_miniball_rejects_empty():
    with pytest.raises(DomainError):
        miniball(np.empty((0, 2)))


def test_restrict():
    box = Box((-2.0, -2.0), (2.0, 2.0))
    P = sample_poisson_homogeneous(2.0, box, RngSeed(24, 0))
    whole = restrict(P, (0.0, 0.0), 10.0)
    assert np.array_equal(whole.points, P.points)
    assert restrict(P, (100.0, 100.0), 0.0).n == 0
    rng = np.random.default_rng(25)
    for _ in range(10):
        z = rng.uniform(-2, 2, 2)
        a = rng.uniform(0, 3)
        R = restrict(P, z, a)
        member = np.linalg.norm(P.points - z, axis=1) <= a
        assert {tuple(p) for p in R.points} == {tuple(p) for p in P.points[member]}


def test_count_new_simplices():
    empty = PointCloud(np.empty((0, 2)), unit_box(2))
    assert count_new_simplices(SQUARE, SQUARE, 1.0, 1, "rips") == 0
    assert count_new_simplices(empty, SQUARE, 1.0, 1, "rips") == 4
    three = PointCloud(SQUARE.points[:3], unit_box(2))
    assert count_new_simplices(three, SQUARE, math.sqrt(2.0), 2, "rips") == 3
    with pytest.raises(DomainError):
        count_new_simplices(SQUARE, three, 1.0, 1, "rips")


def test_filtration_monotone_and_sandwich():
    rng = np.random.default_rng(26)
    for _ in range(10):
        P = PointCloud(rng.random((12, 2)), unit_box(2))
        for kind in ("rips", "cech"):
            C = build(P, kind, r_max=0.8, q_max=2)
            idx = {v: i for i, v in enumerate(C.verts)}
            jung = math.sqrt(2.0 / (2.0 * 3.0))
            for i in range(C.n_cells):
                v = C.verts[i]
                for k in range(len(v)):
                    if len(v) > 1:
                        assert C.times[idx[v[:k] + v[k + 1:]]] <= C.times[i]
                diam = max(
                    (np.linalg.norm(P.points[a] - P.points[b]) for a, b in itertools.combinations(v, 2)),
                    default=0.0,
                )
                if kind == "rips":
                    assert C.times[i] == pytest.approx(diam, abs=1e-12)
                else:
                    assert diam / 2.0 - 1e-9 <= C.times[i] <= diam * jung + 1e-9


def test_restriction_compatibility():
    rng = np.random.default_rng(27)
    P = PointCloud(rng.random((20, 2)) * 2.0, Box((0.0, 0.0), (2.0, 2.0)))
    z, a = np.array([1.0, 1.0]), 0.7
    for kind in ("rips", "cech"):
        sub = build(restrict(P, z, a), kind, r_max=0.6, q_max=2)
        full = build(P, kind, r_max=0.6, q_max=2)
        inside = np.flatnonzero(np.linalg.norm(P.points - z, axis=1) <= a)
        remap = {int(g): l for l, g in enumerate(inside)}
        expected = sorted(
            (round(float(full.times[i]), 12), tuple(remap[v] for v in full.verts[i]))
            for i in range(full.n_cells)
            if all(v in remap for v in full.verts[i])
        )
        got = sorted((round(float(sub.times[i]), 12), sub.verts[i]) for i in range(sub.n_cells))
        assert got == expected


def test_translation_and_scaling():
    rng = np.random.default_rng(28)
    P = PointCloud(rng.random((10, 2)), unit_box(2))
    for kind in ("rips", "cech"):
        C = build(P, kind, r_max=0.9, q_max=2)
        base = {C.verts[i]: float(C.times[i]) for i in range(C.n_cells)}
        Ct = build(P.translate([5.0, -2.0]), kind, r_max=0.9, q_max=2)
        got = {Ct.verts[i]: float(Ct.times[i]) for i in range(Ct.n_cells)}
        assert set(got) == set(base)
        assert all(abs(got[k] - base[k]) <= 1e-9 for k in base)
        Cs = build(P.scale(3.0), kind, r_max=2.7, q_max=2)
        scaled = {Cs.verts[i]: float(Cs.times[i]) for i in range(Cs.n_cells)}
        assert set(scaled) == set(base)
        assert all(abs(scaled[k] - 3.0 * base[k]) <= 1e-9 for k in base)


def test_mu():
    assert mu("rips", 0.7) == 0.7
    assert mu("cech", 0.7) == 1.4


def test_complex_text_roundtrip():
    C = build_rips(SQUARE, r_max=2.0, q_max=2)
    text = C.to_text()
    D = complex_from_text(text, d=2, kind="rips", q_max=2, r_max=2.0)
    assert D.verts == C.verts
    assert np.array_equal(D.times, C.times)


def test_q_max_zero_has_no_edges():
    C = build_rips(SQUARE, r_max=2.0, q_max=0)
    assert C.n_cells == 4 and int(C.dims.max()) == 0
