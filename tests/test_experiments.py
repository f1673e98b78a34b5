import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtri

from pslab import experiments
from pslab.experiments import (
    AlphaEstimate,
    CltConfig,
    NumericalError,
    covariance_csv,
    depoissonization_check,
    estimate_alpha,
    normality_score,
    radius_tail_experiment,
    replicates_csv,
    run_clt,
    sample_scaled_process,
    scores_csv,
    variance_relation_check,
    wilson_interval,
)
from pslab.filtration import build
from pslab.persistence import RankQuery, reduce
from pslab.point_process import (
    Box,
    DomainError,
    PointCloud,
    RngSeed,
    constant_density,
    sample_binomial,
    sample_poisson_homogeneous,
)
from pslab.stabilization import strong_radius_estimate, weak_radius

KAPPA = constant_density(2)


# -- normality scores --------------------------------------------------------


def _ad_oracle(x):
    """A^2 in the equivalent single-pass form, with the small-sample factor."""
    n = len(x)
    z = np.sort((x - x.mean()) / x.std(ddof=1))
    F = sps.norm.cdf(z)
    i = np.arange(1, n + 1)
    a2 = -n - np.sum((2 * i - 1) * np.log(F) + (2 * (n - i) + 1) * np.log1p(-F)) / n
    return a2 * (1.0 + 0.75 / n + 2.25 / n**2)


def test_normality_score_matches_oracle():
    x = np.random.default_rng(0).normal(size=200)
    sc = normality_score(x)
    assert sc.ad == pytest.approx(_ad_oracle(x), abs=1e-9)
    assert sc.ks == pytest.approx(sps.kstest((x - x.mean()) / x.std(ddof=1), "norm").statistic)


def _scipy_stats_score(x):
    """normality_score's four fields as scipy.stats computes them: the
    reference that the closed forms in scipy.special and numpy must equal."""
    n = len(x)
    z = np.sort((x - x.mean()) / x.std(ddof=1))
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (sps.norm.logcdf(z) + sps.norm.logsf(z[::-1])))
    ks = sps.kstest(z, "norm").statistic
    return (float(a2 * (1.0 + 0.75 / n + 2.25 / n**2)), float(ks), float(sps.skew(z)), float(sps.kurtosis(z)))


def _score_samples():
    """Seeded samples of 20 to 400 values: Gaussian, Poisson counts, counts
    with a continuity correction, and a large offset with a skewed spread."""
    rng = np.random.default_rng(41)
    for k in range(240):
        n = int(rng.integers(20, 401))
        kind = k % 4
        if kind == 0:
            yield rng.normal(size=n)
        elif kind == 1:
            yield rng.poisson(float(rng.uniform(0.5, 30.0)), size=n).astype(float)
        elif kind == 2:
            yield rng.poisson(float(rng.uniform(0.5, 30.0)), size=n) + rng.uniform(-0.5, 0.5, size=n)
        else:
            yield 5e5 + rng.exponential(size=n) * 1e3


def test_normality_score_equals_scipy_stats_bitwise():
    checked = 0
    for x in _score_samples():
        if x.std(ddof=1) == 0.0:
            continue
        assert tuple(normality_score(x)) == _scipy_stats_score(x), len(x)
        checked += 1
    assert checked >= 200
    # the Q-Q plot's normal quantiles
    for n in (1, 2, 20, 57, 400):
        p = (np.arange(1, n + 1) - 0.5) / n
        assert np.array_equal(ndtri(p), sps.norm.ppf(p))


def test_normality_score_symmetric_sample_has_zero_skew():
    x = np.concatenate([np.arange(1, 13), -np.arange(1, 13)]).astype(float)
    sc = normality_score(x)
    assert abs(sc.skewness) <= 1e-12


def test_normality_score_affine_invariance():
    x = np.random.default_rng(1).normal(size=80)
    a = normality_score(x)
    b = normality_score(3.5 * x - 11.0)
    for u, v in zip(a, b):
        assert u == pytest.approx(v, abs=1e-9)


def test_normality_score_gaussian_passes():
    x = np.random.default_rng(2).normal(size=500)
    assert normality_score(x).ad < 1.035


def test_normality_score_errors():
    with pytest.raises(DomainError):
        normality_score(np.zeros(10))
    with pytest.raises(NumericalError):
        normality_score(np.ones(30))


# -- alpha --------------------------------------------------------------------


def test_alpha_degenerate_is_exactly_one():
    est = estimate_alpha(0.0, 0.0, 0, KAPPA, window_radius=3.0, reps=60, seed=RngSeed(8, 0))
    assert est.value == 1.0
    assert est.standard_error == 0.0
    assert est.censored_fraction == 0.0


def test_alpha_degenerate_q1_is_zero():
    est = estimate_alpha(0.0, 0.0, 1, KAPPA, window_radius=3.0, reps=60, seed=RngSeed(8, 1))
    assert est.value == 0.0


def test_alpha_matches_paired_seed_oracle():
    r = s = 0.3
    w, reps, seed = 2.0, 50, RngSeed(17, 0)
    box = Box((-w, -w), (w, w))
    vals = []
    for i in range(reps):
        sd = seed.derive(i)
        x = sample_binomial(1, KAPPA, sd).points[:1]
        P = sample_poisson_homogeneous(float(KAPPA(x)[0]), box, sd.derive(1))
        merged = PointCloud(np.vstack([P.points, np.zeros((1, 2))]), box)
        b1 = reduce(build(merged, "rips", r_max=s, q_max=1)).persistent_betti(RankQuery(0, r, s))
        b0 = reduce(build(P, "rips", r_max=s, q_max=1)).persistent_betti(RankQuery(0, r, s)) if P.n else 0
        vals.append(b1 - b0)
    est = estimate_alpha(r, s, 0, KAPPA, window_radius=w, reps=reps, seed=seed)
    assert est.value == pytest.approx(np.mean(vals), abs=1e-12)


def test_alpha_validation():
    with pytest.raises(DomainError):
        estimate_alpha(0.5, 0.4, 0, KAPPA, window_radius=3.0, reps=50, seed=RngSeed(0, 0))
    with pytest.raises(DomainError):
        estimate_alpha(0.3, 0.4, 0, KAPPA, window_radius=1.0, reps=50, seed=RngSeed(0, 0))


def test_alpha_needs_two_replicates():
    # one replicate would report standard error 0, as if alpha were exact
    for reps in (0, 1):
        with pytest.raises(DomainError):
            estimate_alpha(0.3, 0.4, 0, KAPPA, window_radius=2.0, reps=reps, seed=RngSeed(2, 0))


# -- CLT harness --------------------------------------------------------------


def _clt_config(process, pairs=((0.0, 0.0),), n_grid=(100,), reps=400, q=0, seed=31):
    return CltConfig(
        process=process,
        density=KAPPA,
        kind="rips",
        queries=[RankQuery(q, r, s) for r, s in pairs],
        n_grid=n_grid,
        replicates=reps,
        seed=RngSeed(seed, 0),
    )


def test_clt_degenerate_poisson_variance_near_one():
    result = run_clt(_clt_config("poisson"))
    var = result.per_n[100].covariance[0, 0]
    assert 0.85 <= var <= 1.15


def test_clt_degenerate_binomial_variance_zero():
    result = run_clt(_clt_config("binomial", reps=100))
    page = result.per_n[100]
    assert np.all(page.betas == 100.0)
    assert page.covariance[0, 0] == 0.0
    assert math.isnan(page.scores[0]["ad"])


def test_variance_relation_degenerate_chain():
    poi = run_clt(_clt_config("poisson"))
    binom = run_clt(_clt_config("binomial", reps=400))
    alpha = estimate_alpha(0.0, 0.0, 0, KAPPA, window_radius=3.0, reps=100, seed=RngSeed(31, 9))
    out = variance_relation_check(poi, binom, [alpha])
    assert out["pass"] is True
    assert out["n"] == 100
    with pytest.raises(DomainError):
        variance_relation_check(poi, binom, [alpha, alpha])


def test_judges_reject_runs_and_alphas_of_another_degree_kind_or_pair():
    """The variance relation compares two runs of one kind and degree, each
    against the alpha of its own (q, r, s); de-Poissonization likewise takes
    only the alpha of its (q, r, s).  Each mismatch raises before judging."""
    poi = run_clt(_clt_config("poisson", reps=50))
    binom = run_clt(_clt_config("binomial", reps=50))
    alpha = AlphaEstimate(0.0, 0.0, 0, 1.0, 0.0, 3.0, 0.0)
    assert variance_relation_check(poi, binom, [alpha])["n"] == 100
    binom_q1 = run_clt(_clt_config("binomial", reps=50, q=1))
    cech = run_clt(dataclasses.replace(binom.config, kind="cech"))
    for other, alphas, message in (
        (binom_q1, [alpha], "must match between the two runs"),
        (cech, [alpha], "must match between the two runs"),
        (binom, [AlphaEstimate(0.5, 0.7, 1, 0.1, 0.01, 4.0, 0.0)], "does not match"),
        (binom, [AlphaEstimate(0.0, 0.0, 1, 0.0, 0.0, 3.0, 0.0)], "does not match"),
        (binom, [AlphaEstimate(0.0, 0.5, 0, 1.0, 0.0, 3.0, 0.0)], "does not match"),
    ):
        with pytest.raises(DomainError, match=message):
            variance_relation_check(poi, other, alphas)
    for wrong in (AlphaEstimate(0.5, 0.7, 1, 0.1, 0.01, 4.0, 0.0), AlphaEstimate(0.0, 0.0, 1, 0.0, 0.0, 3.0, 0.0)):
        with pytest.raises(DomainError, match="does not match"):
            depoissonization_check(50, 0.0, 0.0, 0, KAPPA, reps=60, seed=RngSeed(6, 0), alpha=wrong)


def test_clt_mixed_degrees_match_one_complex_per_query():
    # run_clt builds each replicate once, at the largest s and one degree
    # above the largest q; each count must be the one of that query's own
    # complex at (s, q + 1), for replicates recomputed alone
    # (Cech radii are half the Rips diameters: the same edges, the same beta_0)
    for kind, scale in (("rips", 1.0), ("cech", 0.5)):
        queries = [RankQuery(q, scale * r, scale * s) for q, r, s in ((0, 0.8, 1.0), (1, 1.2, 1.5), (0, 1.0, 1.3))]
        cfg = CltConfig("poisson", KAPPA, kind, queries, (200,), 50, RngSeed(41, 0))
        betas = run_clt(cfg).per_n[200].betas
        assert np.all(betas.sum(axis=0) > 0)
        for rep in (49, 17, 0):
            P = sample_scaled_process(cfg.process, cfg.density, 200, cfg.seed.derive(0).derive(rep))
            assert betas[rep].tolist() == [reduce(build(P, kind, qr.s, qr.q + 1)).persistent_betti(qr) for qr in queries]


def test_clt_config_validation():
    with pytest.raises(DomainError):
        _clt_config("gamma")
    with pytest.raises(DomainError):
        _clt_config("poisson", pairs=((0.5, 0.4),))
    with pytest.raises(DomainError):
        _clt_config("poisson", pairs=())
    with pytest.raises(DomainError):
        _clt_config("poisson", reps=49)
    with pytest.raises(DomainError):
        _clt_config("poisson", n_grid=(100, 50))


def test_sample_scaled_process_binomial_cardinality():
    P = sample_scaled_process("binomial", KAPPA, 40, RngSeed(3, 0))
    assert P.n == 40
    side = 40 ** 0.5
    assert np.all((P.points >= 0.0) & (P.points <= side))
    with pytest.raises(DomainError):
        sample_scaled_process("gamma", KAPPA, 40, RngSeed(3, 0))


def test_depoissonization_degenerate():
    alpha = AlphaEstimate(0.0, 0.0, 0, 1.0, 0.0, 3.0, 0.0)
    out = depoissonization_check(50, 0.0, 0.0, 0, KAPPA, reps=60, seed=RngSeed(6, 0), alpha=alpha)
    assert out["mean_R"] == 1.0 and out["diff"] == 0.0 and out["pass"] is True
    alpha1 = AlphaEstimate(0.0, 0.0, 1, 0.0, 0.0, 3.0, 0.0)
    out1 = depoissonization_check(50, 0.0, 0.0, 1, KAPPA, reps=60, seed=RngSeed(6, 1), alpha=alpha1)
    assert out1["mean_R"] == 0.0 and out1["pass"] is True


# a standard error needs two replicates
def test_depoissonization_needs_two_replicates():
    alpha = AlphaEstimate(0.0, 0.0, 0, 1.0, 0.0, 3.0, 0.0)
    for reps in (0, 1):
        with pytest.raises(DomainError):
            depoissonization_check(50, 0.0, 0.0, 0, KAPPA, reps=reps, seed=RngSeed(6, 0), alpha=alpha)


# -- radius tails -------------------------------------------------------------


def test_tail_table_empty_process_survival_zero():
    table = radius_tail_experiment([0.0], [0.5], [0, 1], [0.5, 1.0, 2.0], reps=20, window=3.0, seed=RngSeed(9, 0))
    for row in table.rows:
        assert row["survival"] == 0.0
        assert row["wilson_low"] == 0.0


def test_tail_table_monotone_in_L():
    table = radius_tail_experiment([1.0], [0.4], [0], [0.5, 1.0, 1.5], reps=30, window=3.0, seed=RngSeed(9, 1))
    by_key = {}
    for row in table.rows:
        by_key.setdefault(row["statistic"], []).append((row["L"], row["survival"]))
    for rows in by_key.values():
        surv = [s for _, s in sorted(rows)]
        assert all(a >= b for a, b in zip(surv, surv[1:]))


def test_tail_table_window_validation():
    with pytest.raises(DomainError):
        radius_tail_experiment([1.0], [0.5], [0], [3.0], reps=10, window=3.0, seed=RngSeed(9, 2))


def test_tail_table_csv_header():
    table = radius_tail_experiment([0.0], [0.5], [0], [1.0], reps=20, window=3.0, seed=RngSeed(9, 3))
    lines = table.to_csv().splitlines()
    assert lines[0] == "lambda,r,q,statistic,L,survival,wilson_low,wilson_high"
    assert len(lines) == 1 + len(table.rows)


def test_tail_table_is_the_per_cloud_weak_and_strong_radii():
    """The tails table reads the weak and strong radii off one complex per
    cloud (`cloud_radii`); its survival must be that of `weak_radius` and
    `strong_radius_estimate` called on each cloud alone.  lambda = 8 is past
    percolation at r = 0.5, where the strong estimate is censored."""
    censored = 0
    for lambda_grid, r, d, kind, w in (([0.5, 8.0], 0.5, 2, "rips", 2.5), ([2.0], 0.25, 2, "cech", 2.5),
                                        ([2.0], 0.4, 3, "rips", 2.3)):
        q_list, L_grid, reps, seed = list(range(d)), [0.5, 1.0, 1.5], 8, RngSeed(9, 4)
        table = radius_tail_experiment(lambda_grid, [r], q_list, L_grid, reps, w, seed, d=d, kind=kind)
        rows = iter(table.rows)
        box, Q, z = Box((-w,) * d, (w,) * d), np.zeros((1, d)), np.zeros(d)
        for cell, lam in enumerate(lambda_grid):
            vals = {}
            for rep in range(reps):
                P = sample_poisson_homogeneous(lam, box, seed.derive(cell).derive(rep))
                weak, trace = weak_radius(P, Q, z, r, r, kind, w, return_trace=True)
                for q in q_list:
                    strong = strong_radius_estimate(P, Q, z, r, q, kind, w)
                    censored += strong.censored
                    vals.setdefault((q, "weak"), []).append(math.inf if weak.censored else trace.settled_radius(q))
                    vals.setdefault((q, "strong"), []).append(math.inf if strong.censored else strong.value)
            for q in q_list:
                for stat in ("weak", "strong"):
                    for L in L_grid:
                        row = next(rows)
                        assert (row["lambda"], row["q"], row["statistic"], row["L"]) == (lam, q, stat, L)
                        assert row["survival"] == sum(v > L for v in vals[q, stat]) / reps
        assert next(rows, None) is None
    assert censored > 0


def test_tail_table_rejects_a_degree_outside_0_to_d_minus_1(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a cloud was drawn")

    monkeypatch.setattr(experiments, "sample_poisson_homogeneous", no_draw)
    for q_list, d in (([0, 2], 2), ([-1], 2), ([3], 3)):
        with pytest.raises(DomainError, match="homology degrees"):
            radius_tail_experiment([1.0], [0.5], q_list, [0.5], reps=3, window=3.0, seed=RngSeed(9, 5), d=d)


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    # the end points are exact, so survival 0 or 1 lies inside its own interval
    for n in range(1, 2001):
        assert wilson_interval(0, n)[0] == 0.0, n
        assert wilson_interval(n, n)[1] == 1.0, n


# -- CSV serialization ---------------------------------------------------------


def test_clt_csv_headers():
    result = run_clt(_clt_config("poisson", n_grid=(30,), reps=50))
    assert replicates_csv(result).splitlines()[0] == "n,rep,pair_index,beta,standardized"
    assert covariance_csv(result).splitlines()[0] == "n,i,j,value"
    assert scores_csv(result).splitlines()[0] == "n,label,ad,ks,skewness,excess_kurtosis"
    assert len(replicates_csv(result).splitlines()) == 1 + 50
