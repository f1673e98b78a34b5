import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pslab.experiments import sample_scaled_process
from pslab.filtration import (
    MB_TOL,
    _circumballs,
    _enclosing_balls,
    _norms,
    _stable_argsort,
    build,
    close_pairs,
    complex_from_text,
    count_new_simplices,
    mu,
    restrict,
)
from pslab.persistence import reduce
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
    C = build(P, "rips", r_max=1.0, q_max=1)
    assert C.n_cells == 1 and C.times[0] == 0.0


def test_rips_edge_time_is_distance():
    P = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]]), Box((0.0, 0.0), (3.0, 3.0)))
    C = build(P, "rips", r_max=3.0, q_max=1)
    edges = _cells_by_dim(C, 1)
    assert len(edges) == 1 and edges[0][1] == 2.0
    assert all(t == 0.0 for _, t in _cells_by_dim(C, 0))


def test_rips_square_census():
    C = build(SQUARE, "rips", r_max=2.0, q_max=3)
    rt2 = math.sqrt(2.0)
    edges = _cells_by_dim(C, 1)
    assert sorted(t for _, t in edges) == pytest.approx([1.0] * 4 + [rt2] * 2)
    triangles = _cells_by_dim(C, 2)
    assert len(triangles) == 4 and all(t == pytest.approx(rt2) for _, t in triangles)
    tets = _cells_by_dim(C, 3)
    assert len(tets) == 1 and tets[0][1] == pytest.approx(rt2)


def test_rips_square_matches_brute_force():
    # every vertex subset of size <= q_max+1 with diameter <= r_max, exactly once
    C = build(SQUARE, "rips", r_max=2.0, q_max=3)
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
    C = build(P, "cech", r_max=1.0, q_max=2)
    tri = _cells_by_dim(C, 2)
    assert len(tri) == 1
    assert abs(tri[0][1] - 1.0 / math.sqrt(3.0)) <= 1e-9


def test_cech_obtuse_triangle():
    P = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1]]), Box((-1.0, -1.0), (3.0, 3.0)))
    C = build(P, "cech", r_max=1.5, q_max=2)
    tri = _cells_by_dim(C, 2)
    assert len(tri) == 1
    assert abs(tri[0][1] - 1.0) <= 1e-9


def test_cech_square_times():
    C = build(SQUARE, "cech", r_max=1.0, q_max=2)
    half_diag = math.sqrt(2.0) / 2.0
    edge_times = sorted(t for _, t in _cells_by_dim(C, 1))
    assert edge_times == pytest.approx([0.5] * 4 + [half_diag] * 2)
    assert all(abs(t - half_diag) <= 1e-9 for _, t in _cells_by_dim(C, 2))


def test_build_rejects_bad_r_max():
    # a NaN cap fails `r_max >= 0` as a negative one does
    for kind in ("rips", "cech"):
        for r_max in (-1.0, math.nan):
            with pytest.raises(DomainError, match="r_max must be nonnegative"):
                build(SQUARE, kind, r_max=r_max, q_max=1)
        # r_max = 0 is allowed: the vertices alone
        assert build(SQUARE, kind, r_max=0.0, q_max=1).dims.tolist() == [0, 0, 0, 0]


def _cech_radius(pts):
    """Radius of the smallest enclosing ball of pts, as `build` computes it:
    the Cech time of the simplex on all of them."""
    n, d = pts.shape
    C = build(PointCloud(pts, Box((-1.0,) * d, (4.0,) * d)), "cech", 3.0, n - 1)
    return dict(zip(C.verts, C.times.tolist()))[tuple(range(n))]


def test_miniball_trivial_cases():
    assert _cech_radius(np.array([[2.0, 3.0]])) == 0.0
    assert abs(_cech_radius(np.array([[0.0, 0.0], [2.0, 0.0]])) - 1.0) <= 1e-12


def _brute_miniball_radius(pts):
    """Exhaustive oracle: for every support set of 1 to d + 1 affinely
    independent points, the ball with them on its sphere and its center in
    their affine hull; the smallest that covers every point."""
    n, d = pts.shape
    best = math.inf
    for size in range(1, min(n, d + 1) + 1):
        for S in itertools.combinations(range(n), size):
            p0, D = pts[S[0]], pts[list(S[1:])] - pts[S[0]]
            G = D @ D.T
            if size > 1 and abs(np.linalg.det(G)) < 1e-14:
                continue
            center = p0 + np.linalg.solve(2.0 * G, np.diag(G)) @ D if size > 1 else p0
            r = np.linalg.norm(p0 - center)
            if np.all(np.linalg.norm(pts - center, axis=1) <= r + 1e-9):
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
    # 12-point sets, past d + 1 points, enter at their largest facet time
    rng = np.random.default_rng(23)
    for pts in [*rng.random((10, 12, 2)), *rng.random((200, 3, 2)), *np.array(FIXED_TRIANGLES)]:
        assert abs(_cech_radius(pts) - _brute_miniball_radius(pts)) <= 1e-9


def _assert_cech_times_match_brute_force(pts, r_max, q_max):
    C = build(PointCloud(pts, Box((-1.0,) * pts.shape[1], (3.0,) * pts.shape[1])), "cech", r_max, q_max)
    got = dict(zip(C.verts, C.times.tolist()))
    for size in range(1, q_max + 2):
        for v in itertools.combinations(range(len(pts)), size):
            r = _brute_miniball_radius(pts[list(v)])
            if v in got:
                assert abs(got[v] - r) <= 1e-9
            else:
                assert r >= r_max - 1e-9


def test_cech_times_match_brute_force_enclosing_balls():
    # every support size: 1 and 2 points (vertices and edges), 3, and in d = 3
    # also 4; uniform clouds, and quarter-grid clouds with cospherical and
    # coincident points
    rng = np.random.default_rng(23)
    for d, r_max, q_maxes in ((2, 0.45, (3,)), (3, 0.6, (3, 4))):
        clouds = [*rng.random((6, 7, d)), *(rng.integers(0, 5, (6, 7, d)) / 4.0)]
        for pts in clouds:
            for q_max in q_maxes:
                _assert_cech_times_match_brute_force(pts, r_max, q_max)
    for pts in np.array(FIXED_TRIANGLES):
        _assert_cech_times_match_brute_force(pts, 1.5, 3)


def test_cech_drops_a_candidate_whose_facet_entered_above_r_max():
    # four points on a circle: the ball of triangle (0, 1, 2) holds vertex 3,
    # and another facet's radius rounds a few ulps higher; at r_max equal to
    # the time of (0, 1, 2), the tetrahedron's ball fits but that facet is out
    pts = np.array([
        [0.4159201833419432, 0.9928798884421514],
        [0.01668131918820215, 0.3719255967090088],
        [0.4211310399895771, 0.006259494119761011],
        [0.9855600402635765, 0.38070437015869385],
    ])
    P = PointCloud(pts, Box((-1.0, -1.0), (2.0, 2.0)))
    full = build(P, "cech", 1.0, 3)
    t = dict(zip(full.verts, full.times.tolist()))
    r_max = t[0, 1, 2]
    assert max(t[v] for v in t if len(v) == 3) > r_max
    present = set(build(P, "cech", r_max, 3).verts)
    assert (0, 1, 2) in present and (0, 1, 2, 3) not in present
    assert all(v[:c] + v[c + 1:] in present for v in present if len(v) > 1 for c in range(len(v)))


def _reference_norm(v):
    """`np.linalg.norm(v)`, but a vector whose squares can underflow (a sum
    of squares below 2^-960) is measured after an exact 2^600 rescale, and
    read as 0 when that norm is below 2^-1000: the rule of `_norms`."""
    if np.dot(v, v) >= 2.0**-960:
        return float(np.linalg.norm(v))
    norm = float(np.linalg.norm(v * 2.0**600)) * 2.0**-600
    return 0.0 if norm < 2.0**-1000 else norm


def _reference_circumball(R):
    """`np.linalg.lstsq`'s circumcenter, but edge vectors all below 2^-480 are
    solved after an exact 2^600 rescale: the rule of `_circumballs`."""
    p0 = R[0]
    D = np.asarray(R[1:]) - p0
    scale = 2.0**600 if np.abs(D).max() < 2.0**-480 else 1.0
    sol, *_ = np.linalg.lstsq(2.0 * (D * scale), np.einsum("ij,ij->i", D * scale, D * scale), rcond=None)
    c = p0 + sol / scale
    return c, max(_reference_norm(p - c) for p in R)


def _reference_triangle_ball(p, q, r):
    """The per-triangle ball that the stacked kernel replaced, kept here as the
    reference: the first of the strictly smallest edge-midpoint balls that
    hold the third vertex, else the circumball."""
    best = None
    for a, b, other in ((p, q, r), (p, r, q), (q, r, p)):
        c = 0.5 * (a + b)
        rad = _reference_norm(a - c)
        if _reference_norm(other - c) <= (1.0 + MB_TOL) * rad:
            if best is None or rad < best[1]:
                best = (c, rad)
    return best if best is not None else _reference_circumball([p, q, r])


def _triangle_balls(X):
    """Balls of triangles X (shape (m, 3, d)) as `build` computes them: the
    facet without vertex c is the edge of the other two, whose ball has its
    center at the midpoint and its radius from the first vertex."""
    first, second = X[:, [1, 0, 0]], X[:, [2, 2, 1]]
    centers = 0.5 * (first + second)
    return _enclosing_balls(X, centers, _norms(first - centers))


def _assert_triangle_balls_exact(X):
    """Checks the kernel against the reference and returns the radii."""
    centers, radii = _triangle_balls(X)
    for x, c, r in zip(X, centers, radii):
        c_ref, r_ref = _reference_triangle_ball(*x)
        assert r == r_ref and np.array_equal(c, c_ref)
    return radii.tolist()


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
            P = sample_scaled_process("binomial", constant_density(d), n, RngSeed(40 + seed, 0))
            rows = _candidate_triangles(P.points, r_max)
            assert len(rows) > 1000
            radii = _assert_triangle_balls_exact(P.points[rows])
            # `build` enters a triangle at the largest of its radius and its
            # edges' half close-pair lengths, which may be an ulp larger
            edges, lengths = close_pairs(P.points, mu("cech", r_max))
            half = dict(zip(map(tuple, edges.tolist()), (lengths / 2.0).tolist()))
            want = {}
            for (i, j, k), r in zip(rows.tolist(), radii):
                t = max(r, half[i, j], half[i, k], half[j, k])
                if t <= r_max:
                    want[i, j, k] = t
            C = build(P, "cech", r_max, 2)
            assert {v: t for v, t, q in zip(C.verts, C.times.tolist(), C.dims.tolist()) if q == 2} == want


def test_circumballs_raise_when_the_svd_does_not_converge(capfd):
    # as numpy's lstsq does, instead of returning a NaN center
    with pytest.raises(np.linalg.LinAlgError):
        _circumballs(np.array([[[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0]]]))
    # LAPACK reports the NaN input on file descriptor 1, not through sys
    out, err = capfd.readouterr()
    assert "DLASCL" in out + err


# uniform or quarter-grid coordinates, so that right angles, ties and
# coincident points are drawn often
_coordinate = st.one_of(st.floats(0.0, 1.0), st.integers(0, 4).map(lambda i: i / 4.0))


# the first example is an edge whose half length, 4.5e-268, has a square that
# underflows to 0; the second an acute triangle of sides about 4e-159, whose
# circumball is solved rescaled
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=9))
@example([(0.0, 0.0), (0.0, 0.0), (0.0, 8.963507348641878e-268)])
@example([
    (1.8774763981087022e-159, 5.796738432291163e-159),
    (5.272655138983638e-159, 5.349396720566526e-159),
    (3.6263689107269426e-159, 1.7348156799167418e-159),
])
def test_triangle_balls_match_the_per_triangle_miniball_on_small_clouds(rows):
    pts = np.array(rows, dtype=float)
    _assert_triangle_balls_exact(pts[list(itertools.combinations(range(len(pts)), 3))])


def test_stable_argsort_matches_numpy_stable_argsort():
    rng = np.random.default_rng(30)
    for m, high in ((0, 1), (1, 1), (1000, 3), (1000, 1000), (5000, 200)):
        keys = rng.integers(0, high, m)
        assert np.array_equal(_stable_argsort(keys), np.argsort(keys, kind="stable"))


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
    C = build(SQUARE, "rips", r_max=2.0, q_max=2)
    text = C.to_text()
    D = complex_from_text(text, q_max=2, r_max=2.0)
    assert list(D.verts) == list(C.verts)
    assert np.array_equal(D.times, C.times)


def test_verts_reads_and_takes_vertex_tuples_in_the_stored_order():
    """What readers of `verts` rely on: it yields tuples of Python ints in the
    stored order and indexes alike; each dimension's rows are its cells in
    that order, at the positions where `dims` holds that dimension; each
    stored facet is its row without one vertex; a list of tuples given in its
    place, even one that is not closed under faces, is stored and read back
    as given; and the same tuples, or a complex read back from its text, have
    the same arrays and diagram."""
    P = sample_poisson_homogeneous(1.0, Box((0.0, 0.0), (12.0, 12.0)), RngSeed(29, 0))
    for kind, r_max in (("rips", 1.5), ("cech", 0.75)):
        C = build(P, kind, r_max, 2)
        verts = list(C.verts)
        assert len(verts) == len(C.verts) == C.n_cells > 500
        assert all(type(v) is tuple and all(type(i) is int for i in v) for v in verts)
        assert [len(v) - 1 for v in verts] == C.dims.tolist()
        keys = list(zip(C.times.tolist(), C.dims.tolist(), verts))
        assert keys == sorted(keys)
        assert [C.verts[i] for i in range(0, C.n_cells, 7)] == verts[::7]
        assert C.verts[-1] == verts[-1] and C.verts[3:9] == verts[3:9]
        assert dataclasses.replace(C, times=C.times.copy()).verts is C.verts
        rows, facets = C.verts.rows, C.verts.facets
        assert all(np.array_equal(rows[k - 1][facets[k][:, c]], np.delete(rows[k], c, axis=1))
                   for k in range(1, len(rows)) for c in range(k + 1))
        for k, at in enumerate(C.verts.positions):
            assert np.array_equal(at, np.flatnonzero(C.dims == k))
            assert [tuple(v) for v in rows[k].tolist()] == [verts[i] for i in at.tolist()]

        i = int(np.flatnonzero(C.dims == 1)[0])
        keep = np.arange(C.n_cells) != i
        dropped = [v for v, k in zip(verts, keep) if k]
        D = dataclasses.replace(C, verts=dropped, times=C.times[keep], dims=C.dims[keep])
        assert list(D.verts) == dropped and D.n_cells == C.n_cells - 1

        for D in (dataclasses.replace(C, verts=verts), complex_from_text(C.to_text(), 2, r_max)):
            assert list(D.verts) == verts
            for arrays in ("rows", "facets", "positions"):
                for got, want in zip(getattr(D.verts, arrays), getattr(C.verts, arrays), strict=True):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
            assert reduce(D).to_csv() == reduce(C).to_csv()


def test_q_max_zero_has_no_edges():
    C = build(SQUARE, "rips", r_max=2.0, q_max=0)
    assert C.n_cells == 4 and int(C.dims.max()) == 0
