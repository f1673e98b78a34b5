import tracemalloc

import numpy as np
import pytest

from pslab import point_process
from pslab.point_process import (
    BlockedDensity,
    Box,
    Density,
    DomainError,
    PointCloud,
    RngSeed,
    cloud_from_csv,
    constant_density,
    in_lattice_cube,
    sample_binomial,
    sample_poisson_homogeneous,
    sample_poisson_inhomogeneous,
    swap_window,
    unit_box,
)


def test_poisson_zero_intensity_is_empty():
    P = sample_poisson_homogeneous(0.0, unit_box(2), RngSeed(1, 0))
    assert P.n == 0


def test_poisson_negative_intensity_rejected():
    with pytest.raises(DomainError):
        sample_poisson_homogeneous(-1.0, unit_box(2), RngSeed(1, 0))


def test_poisson_mean_count():
    box = Box((0.0, 0.0), (10.0, 10.0))
    counts = [sample_poisson_homogeneous(1.0, box, RngSeed(7, i)).n for i in range(1000)]
    mean = np.mean(counts)
    # Poisson(100): 3 standard errors of the MC mean around 100
    assert 97.0 <= mean <= 103.0


def test_poisson_equidispersion():
    box = Box((0.0, 0.0), (5.0, 5.0))
    counts = np.array([sample_poisson_homogeneous(2.0, box, RngSeed(8, i)).n for i in range(1000)])
    ratio = counts.var(ddof=1) / counts.mean()
    assert 0.85 <= ratio <= 1.15


def test_poisson_disjoint_boxes_uncorrelated():
    box = Box((0.0, 0.0), (2.0, 1.0))
    left, right = [], []
    for i in range(2000):
        P = sample_poisson_homogeneous(1.0, box, RngSeed(9, i))
        inside_left = P.points[:, 0] < 1.0
        left.append(int(inside_left.sum()))
        right.append(int((~inside_left).sum()))
    corr = np.corrcoef(left, right)[0, 1]
    assert abs(corr) <= 0.07


def test_inhomogeneous_constant_matches_homogeneous_mean():
    counts = [sample_poisson_inhomogeneous(constant_density(2), 100.0, RngSeed(10, i)).n for i in range(500)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(500)
    assert abs(mean - 100.0) <= 3 * se + 1e-9


def test_blocked_cell_mean_count():
    blocked = BlockedDensity(2, 2, (2.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0))
    dens = blocked.as_density()
    counts = []
    for i in range(500):
        P = sample_poisson_inhomogeneous(dens, 300.0, RngSeed(11, i))
        counts.append(int((blocked.cell_index(P.points) == 0).sum()) if P.n else 0)
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(500)
    assert abs(mean - 150.0) <= 3 * se


def test_coupling_determinism():
    dens = constant_density(2)
    A = sample_poisson_inhomogeneous(dens, 50.0, RngSeed(12, 3))
    B = sample_poisson_inhomogeneous(dens, 50.0, RngSeed(12, 3))
    assert np.array_equal(A.points, B.points)


def test_coupling_monotonicity():
    # kappa <= kappa' pointwise with shared sup_bound: the smaller-intensity
    # cloud must be a subset of the larger one (thinning construction)
    lo = Density(2, 1.0, 0.5, lambda x: np.full(x.shape[0], 0.5))
    hi = Density(2, 1.0, 1.0, lambda x: np.ones(x.shape[0]))
    for i in range(20):
        A = sample_poisson_inhomogeneous(lo, 80.0, RngSeed(13, i))
        B = sample_poisson_inhomogeneous(hi, 80.0, RngSeed(13, i))
        sa = {tuple(p) for p in A.points}
        sb = {tuple(p) for p in B.points}
        assert sa <= sb


def test_binomial_cardinality():
    assert sample_binomial(0, constant_density(2), RngSeed(14, 0)).n == 0
    assert sample_binomial(7, constant_density(2), RngSeed(14, 1)).n == 7


def test_binomial_uniformity():
    from scipy.stats import chi2

    crit = chi2.ppf(0.999, 15)
    dens = constant_density(2)
    ok = 0
    for i in range(200):
        P = sample_binomial(500, dens, RngSeed(15, i))
        idx = np.clip((P.points * 4).astype(int), 0, 3)
        obs = np.bincount(idx[:, 0] * 4 + idx[:, 1], minlength=16)
        stat = ((obs - 500 / 16.0) ** 2 / (500 / 16.0)).sum()
        ok += stat < crit
    assert ok >= 190


def _binomial_reference(n, density, seed):
    """The per-attempt rejection loop that sample_binomial replaced: one
    rng.random(d) and one rng.random() per attempt, REJECTION_CAP attempts
    per point."""
    rng = seed.generator()
    pts = np.empty((n, density.d))
    for i in range(n):
        for attempt in range(point_process.REJECTION_CAP):
            x = rng.random(density.d)
            if rng.random() * density.sup_bound <= float(density(x[None, :])[0]):
                pts[i] = x
                break
        else:
            raise DomainError("rejection sampling exceeded retry cap; density is inconsistent with sup_bound")
    return pts


def _outcome(draw):
    """The points that draw() returns, or None where it raises DomainError."""
    try:
        return draw()
    except DomainError:
        return None


@pytest.mark.parametrize("d", [2, 3])
def test_binomial_matches_per_attempt_loop(d):
    # blocks draw the same doubles in the same order as the loop, so every
    # cloud is the loop's cloud, byte for byte
    peak = 3.0
    blocked = BlockedDensity(d, 2, (peak,) + ((2**d - peak) / (2**d - 1),) * (2**d - 1)).as_density()
    for density in (constant_density(d), blocked):
        for seed in range(6):
            for n in (0, 1, 7, 250, 1000):
                sd = RngSeed(200 + seed, d)
                got = sample_binomial(n, density, sd).points
                assert got.shape == (n, d)
                assert got.tobytes() == _binomial_reference(n, density, sd).tobytes()


def test_binomial_cap_raises_for_density_far_below_sup_bound(monkeypatch):
    # the evaluator accepts a mark only if it is exactly 0.0
    zero = Density(2, 1.0, 1.0, lambda x: np.zeros(x.shape[0]))
    tiny = Density(2, 1e6, 1.0, lambda x: np.ones(x.shape[0]))
    # at the real cap: blocks are bounded, so the sampler never holds
    # REJECTION_CAP attempts at once
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            sample_binomial(5, zero, RngSeed(30, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < point_process.REJECTION_CAP * 3 * 8 / 4
    monkeypatch.setattr(point_process, "REJECTION_CAP", 25)
    for seed in range(5):
        for density in (zero, tiny):
            with pytest.raises(DomainError):
                sample_binomial(3, density, RngSeed(31, seed))


def test_binomial_cap_is_per_point_across_blocks(monkeypatch):
    # sup_bound 1 with density 1/20 everywhere: blocks of 64 rows hold about
    # three acceptances each, so runs of rejections straddle block boundaries
    thin = Density(2, 1.0, 0.05, lambda x: np.full(x.shape[0], 0.05))
    raised = returned = 0
    for cap in (30, 80):
        monkeypatch.setattr(point_process, "REJECTION_CAP", cap)
        for seed in range(40):
            sd = RngSeed(32, seed)
            want = _outcome(lambda: _binomial_reference(50, thin, sd))
            got = _outcome(lambda: sample_binomial(50, thin, sd).points)
            assert (got is None) == (want is None)
            if want is None:
                raised += 1
            else:
                returned += 1
                assert got.tobytes() == want.tobytes()
    assert raised and returned
    # at the smallest cap the loop survives, the sampler returns the same
    # points; one below it, both raise
    for seed in range(3):
        sd = RngSeed(33, seed)
        lo, hi = 1, 400  # the loop raises at lo and survives at hi
        monkeypatch.setattr(point_process, "REJECTION_CAP", hi)
        assert _outcome(lambda: _binomial_reference(50, thin, sd)) is not None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            monkeypatch.setattr(point_process, "REJECTION_CAP", mid)
            if _outcome(lambda: _binomial_reference(50, thin, sd)) is None:
                lo = mid
            else:
                hi = mid
        monkeypatch.setattr(point_process, "REJECTION_CAP", hi)
        assert sample_binomial(50, thin, sd).points.tobytes() == _binomial_reference(50, thin, sd).tobytes()
        monkeypatch.setattr(point_process, "REJECTION_CAP", hi - 1)
        with pytest.raises(DomainError):
            sample_binomial(50, thin, sd)


def test_density_evaluator_must_be_row_wise():
    rows = np.full((5, 2), 0.5)
    scalar = Density(2, 1.0, 1.0, lambda x: 1.0)
    column = Density(2, 1.0, 1.0, lambda x: np.ones((x.shape[0], 1)))
    short = Density(2, 1.0, 1.0, lambda x: np.ones(1))
    for density in (scalar, column, short):
        with pytest.raises(DomainError):
            density(rows)
        with pytest.raises(DomainError):
            sample_binomial(10, density, RngSeed(34, 0))
    assert np.array_equal(constant_density(2)(rows), np.ones(5))
    assert constant_density(2)(np.empty((0, 2))).shape == (0,)


def test_blocked_normalization_enforced():
    with pytest.raises(DomainError):
        BlockedDensity(2, 2, (1.0, 1.0, 1.0, 2.0))


def test_swap_self_identity():
    P = sample_poisson_homogeneous(1.0, Box((-3.0, -3.0), (3.0, 3.0)), RngSeed(16, 0))
    S = swap_window(P, P, (0.0, 0.0))
    assert {tuple(p) for p in S.points} == {tuple(p) for p in P.points}


def test_swap_cardinality():
    box = Box((-3.0, -3.0), (3.0, 3.0))
    P = PointCloud(np.array([[0.0, 0.0], [0.1, 0.2], [-0.3, 0.4], [2.0, 2.0]]), box)
    P_prime = PointCloud(np.array([[2.5, 2.5]]), box)
    S = swap_window(P, P_prime, (0.0, 0.0))
    assert S.n == P.n - 3


def test_swap_membership_oracle():
    box = Box((-3.0, -3.0), (3.0, 3.0))
    rng = np.random.default_rng(17)
    for _ in range(25):
        P = PointCloud(rng.uniform(-3, 3, (30, 2)), box)
        Pp = PointCloud(rng.uniform(-3, 3, (30, 2)), box)
        z = rng.integers(-2, 3, 2).astype(float)
        S = swap_window(P, Pp, z)
        outside = {tuple(p) for p in P.points[~in_lattice_cube(P.points, z)]}
        swapped = {tuple(p) for p in Pp.points[in_lattice_cube(Pp.points, z)]}
        assert {tuple(p) for p in S.points} == outside | swapped


def test_lattice_cube_half_open():
    pts = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]])
    inside = in_lattice_cube(pts, (0.0, 0.0))
    # Q(0) = (-1/2, 1/2]^2: upper faces in, lower faces out
    assert list(inside) == [True, False, True, False]


def test_sampling_determinism():
    box = Box((0.0, 0.0), (4.0, 4.0))
    A = sample_poisson_homogeneous(1.5, box, RngSeed(18, 2))
    B = sample_poisson_homogeneous(1.5, box, RngSeed(18, 2))
    assert np.array_equal(A.points, B.points)
    assert not np.array_equal(
        A.points, sample_poisson_homogeneous(1.5, box, RngSeed(18, 3)).points
    )


def test_cloud_csv_roundtrip():
    P = sample_poisson_homogeneous(1.0, Box((0.0, 0.0), (3.0, 3.0)), RngSeed(19, 0))
    text = P.to_csv()
    assert text.splitlines()[0] == "x0,x1"
    Q = cloud_from_csv(text, P.window)
    assert np.array_equal(P.points, Q.points)


def test_cloud_rejects_nonfinite():
    with pytest.raises(DomainError):
        PointCloud(np.array([[0.0, np.inf]]), unit_box(2))
