"""Monte Carlo harness: alpha estimation, CLT replicate studies, the
binomial/Poisson variance relation, de-Poissonization, and radius-tail
tables.

Replicates run in one loop over the replicate index, and replicate i draws
only from the seed derived for index i, so no replicate depends on another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, ndtr

from .filtration import build, mu
from .persistence import RankQuery, reduce
from .point_process import (
    Box,
    Density,
    DomainError,
    PointCloud,
    RngSeed,
    csv_text,
    sample_binomial,
    sample_poisson_homogeneous,
)
# strong_radius_estimate is unused here; perfbench/tracer.py patches this attribute
from .stabilization import (  # noqa: F401
    AddOneQuery,
    add_one_cost,
    check_degrees,
    cloud_radii,
    strong_radius_estimate,
    weak_radius,
)

CENSORING_LIMIT = 0.10
# 1% critical value of the modified Anderson-Darling statistic for a
# continuous sample. Integer counts with a small spread (a few units) sit on a
# lattice whose ties alone push AD past it; add U(-1/2, 1/2) to such a sample
# (a continuity correction) before comparing.
AD_CRITICAL_1PCT = 1.035


class CensoringError(RuntimeError):
    """Censored fraction too high: the window is too small to trust truncation."""


class NumericalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Normality scores
# ---------------------------------------------------------------------------


class NormalityScore(NamedTuple):
    ad: float
    ks: float
    skewness: float
    excess_kurtosis: float


def normality_score(samples) -> NormalityScore:
    """Anderson-Darling (small-sample modified), KS distance, skewness and
    excess kurtosis of the studentized sample against the standard normal.

    The AD and KS reference distributions assume a continuous sample, and
    `AD_CRITICAL_1PCT` is the AD critical value for one. Integer counts with a
    small spread, such as persistent Betti numbers with a standard deviation
    of a few units, need a continuity correction (add U(-1/2, 1/2) to each
    count) before the AD statistic is compared with it.

    Each field equals, bit for bit, what scipy's statistics module gives
    (`norm.logcdf`/`logsf`, `kstest`, `skew`, `kurtosis`): the same
    `scipy.special` functions and the same numpy operations in the same
    order. Importing that module would cost about half of the CLI's start-up
    time.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 20:
        raise DomainError("normality score needs at least 20 samples")
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise NumericalError("degenerate sample variance")
    z = np.sort((x - x.mean()) / sd)
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (log_ndtr(z) + log_ndtr(-z[::-1])))
    a_star = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
    cdf = ndtr(z)
    ks = max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max())
    # central moments, multiplied in the same order as scipy's skew and kurtosis
    dev = z - z.mean()
    sq = dev**2
    m2 = np.mean(sq)
    skew = np.mean(sq * dev) / m2**1.5
    kurt = np.mean(sq**2) / m2**2.0 - 3
    return NormalityScore(float(a_star), float(ks), float(skew), float(kurt))


# ---------------------------------------------------------------------------
# Process sampling in the thermodynamic regime
# ---------------------------------------------------------------------------


def sample_scaled_process(process: str, density: Density, n: int, seed: RngSeed) -> PointCloud:
    """n^{1/d} S_n on [0, n^{1/d}]^d: binomial = exactly n iid kappa points,
    poisson = Poisson(n) many iid kappa points (intensity n kappa(x))."""
    d = density.d
    if process == "binomial":
        m = n
    elif process == "poisson":
        m = int(seed.generator().poisson(n))
    else:
        raise DomainError(f"unknown process {process!r}")
    unit = sample_binomial(m, density, seed.derive(1)) if m else PointCloud(
        np.empty((0, d)), Box((0.0,) * d, (1.0,) * d)
    )
    return unit.scale(n ** (1.0 / d)) if n > 0 else unit


# ---------------------------------------------------------------------------
# Alpha
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaEstimate:
    r: float
    s: float
    q: int
    value: float
    standard_error: float
    truncation_radius: float
    censored_fraction: float


def estimate_alpha(
    r: float,
    s: float,
    q: int,
    density: Density,
    window_radius: float,
    reps: int,
    seed: RngSeed,
    kind: str = "rips",
) -> AlphaEstimate:
    """alpha(r,s) = E over X ~ kappa of the add-one cost at the origin of a
    homogeneous Poisson window with intensity kappa(X)."""
    if r > s:
        raise DomainError("alpha needs r <= s")
    if reps < 2:
        raise DomainError("alpha needs at least two replicates")
    if window_radius < 3.0 * mu(kind, s):
        raise DomainError("window radius below a*(s) + 2 mu(s)")
    d = density.d
    box = Box((-window_radius,) * d, (window_radius,) * d)
    origin = np.zeros((1, d))

    def one(i: int):
        sd = seed.derive(i)
        x = sample_binomial(1, density, sd).points[:1]
        lam = float(density(x)[0])
        P = sample_poisson_homogeneous(lam, box, sd.derive(1))
        cost = add_one_cost(AddOneQuery(P, origin, q, r, s, kind))
        if s > 0:
            est = weak_radius(P, origin, np.zeros(d), r, s, kind=kind, window_radius=window_radius)
            censored = est.censored
        else:
            censored = False
        return cost, censored

    rows = [one(i) for i in range(reps)]
    costs = np.array([c for c, _ in rows], dtype=float)
    censored_frac = float(np.mean([c for _, c in rows]))
    if censored_frac > CENSORING_LIMIT:
        raise CensoringError(
            f"censored fraction {censored_frac:.3f} exceeds {CENSORING_LIMIT}; enlarge the window"
        )
    se = float(costs.std(ddof=1) / math.sqrt(reps))
    return AlphaEstimate(r, s, q, float(costs.mean()), se, window_radius, censored_frac)


# ---------------------------------------------------------------------------
# CLT harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CltConfig:
    process: str
    density: Density
    kind: str
    queries: tuple  # of RankQuery
    n_grid: tuple
    replicates: int
    seed: RngSeed

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.process not in ("poisson", "binomial"):
            raise DomainError(f"unknown process {self.process!r}")
        if not self.queries:
            raise DomainError("at least one rank query required")
        if self.replicates < 50:
            raise DomainError("at least 50 replicates required")
        if list(self.n_grid) != sorted(set(self.n_grid)) or min(self.n_grid, default=0) <= 0:
            raise DomainError("n grid must be ascending positive integers")


@dataclass
class CltPerN:
    betas: np.ndarray  # (R, l) raw persistent Betti numbers
    standardized: np.ndarray  # (R, l) = n^{-1/2} (beta - mean)
    covariance: np.ndarray  # (l, l)
    scores: list


@dataclass
class CltResult:
    config: CltConfig
    per_n: dict


def run_clt(config: CltConfig) -> CltResult:
    """beta_q^{r,s} of n^{1/d} S_n for each query (columns) and replicate i
    (rows), replicate i drawn from config.seed.derive(n_idx).derive(i).  Each
    replicate's complex is built once, at the largest s and one degree above
    the largest q, and answers every query."""
    l = len(config.queries)
    r_max = max(query.s for query in config.queries)
    q_max = max(query.q for query in config.queries) + 1
    per_n: dict[int, CltPerN] = {}
    for n_idx, n in enumerate(config.n_grid):
        base = config.seed.derive(n_idx)
        rows = []
        for rep in range(config.replicates):
            P = sample_scaled_process(config.process, config.density, n, base.derive(rep))
            D = reduce(build(P, config.kind, r_max=r_max, q_max=q_max))
            rows.append([D.persistent_betti(query) for query in config.queries])
        betas = np.array(rows, dtype=float)
        std = (betas - betas.mean(axis=0)) / math.sqrt(n)
        cov = (std.T @ std) / (config.replicates - 1)
        cov = (cov + cov.T) / 2.0
        if np.linalg.eigvalsh(cov).min() < -1e-8:
            raise NumericalError("covariance estimate is not positive semidefinite")
        # each coordinate, and for l > 1 three random unit projections
        samples = {f"coord_{i}": std[:, i] for i in range(l)}
        if l > 1:
            prng = np.random.default_rng(np.random.SeedSequence(config.seed.seed, spawn_key=(999,)))
            for k in range(3):
                v = prng.standard_normal(l)
                samples[f"proj_{k}"] = std @ (v / np.linalg.norm(v))
        scores = []
        for label, x in samples.items():
            try:
                sc = normality_score(x)
            except NumericalError:
                sc = NormalityScore(math.nan, math.nan, math.nan, math.nan)
            scores.append({"label": label, **sc._asdict()})
        per_n[n] = CltPerN(betas, std, cov, scores)
    return CltResult(config, per_n)


# ---------------------------------------------------------------------------
# Variance relation, de-Poissonization
# ---------------------------------------------------------------------------


def _jackknife_cov_se(std: np.ndarray) -> np.ndarray:
    """Leave-one-out standard errors of the entries of the covariance matrix."""
    r, l = std.shape
    thetas = np.empty((r, l, l))
    s1 = std.sum(axis=0)
    s2 = std.T @ std
    for i in range(r):
        xi = std[i]
        m = (s1 - xi) / (r - 1)
        raw = s2 - np.outer(xi, xi)
        thetas[i] = (raw - (r - 1) * np.outer(m, m)) / (r - 2)
    bar = thetas.mean(axis=0)
    return np.sqrt((r - 1) / r * ((thetas - bar) ** 2).sum(axis=0))


def _check_alpha(alpha: AlphaEstimate, query: RankQuery) -> None:
    """Rejects an alpha estimated at another (q, r, s) than the query judged."""
    got, want = (alpha.q, alpha.r, alpha.s), (query.q, query.r, query.s)
    if got != want:
        raise DomainError(f"alpha at (q, r, s) = {got} does not match {want}")


def variance_relation_check(poisson: CltResult, binomial: CltResult, alphas: list) -> dict:
    """Check Sigma_bin == Sigma_poi - alpha alpha^T entrywise at 3 SE.
    The runs must share their kind and queries, and alphas[i] must be the
    estimate at queries[i]."""
    cp, cb = poisson.config, binomial.config
    if (cp.kind, cp.queries) != (cb.kind, cb.queries):
        raise DomainError("kind and rank queries must match between the two runs")
    if len(alphas) != len(cp.queries):
        raise DomainError("one alpha estimate per rank query required")
    for al, query in zip(alphas, cp.queries):
        _check_alpha(al, query)
    n = max(set(poisson.per_n) & set(binomial.per_n))
    sp, sb = poisson.per_n[n], binomial.per_n[n]
    a = np.array([al.value for al in alphas])
    a_se = np.array([al.standard_error for al in alphas])
    rhs = sp.covariance - np.outer(a, a)
    lhs = sb.covariance
    se_p = _jackknife_cov_se(sp.standardized)
    se_b = _jackknife_cov_se(sb.standardized)
    se_alpha = np.abs(np.outer(a, a_se)) + np.abs(np.outer(a_se, a))
    pooled = np.sqrt(se_p**2 + se_b**2 + se_alpha**2)
    diff = np.abs(lhs - rhs)
    entries = []
    for i in range(len(a)):
        for j in range(len(a)):
            entries.append(
                {
                    "i": i,
                    "j": j,
                    "sigma_bin": float(lhs[i, j]),
                    "sigma_poi_minus_alpha": float(rhs[i, j]),
                    "diff": float(diff[i, j]),
                    "pooled_se": float(pooled[i, j]),
                    "pass": bool(diff[i, j] <= 3.0 * pooled[i, j] + 1e-12),
                }
            )
    return {"n": n, "entries": entries, "pass": all(e["pass"] for e in entries)}


def depoissonization_check(
    n: int,
    r: float,
    s: float,
    q: int,
    density: Density,
    reps: int,
    seed: RngSeed,
    kind: str = "rips",
    alpha: AlphaEstimate | None = None,
) -> dict:
    """E[R_{n,n}] vs alpha(r,s): paired add-one increments of the scaled
    binomial process against the local Poisson estimate, which must be the
    one at (q, r, s)."""
    if reps < 2:
        raise DomainError("de-Poissonization needs at least two replicates")
    if alpha is None:
        alpha = estimate_alpha(
            r, s, q, density, window_radius=max(3.0, 3.0 * mu(kind, s)),
            reps=min(reps, 2000), seed=seed.derive(10**6), kind=kind,
        )
    _check_alpha(alpha, RankQuery(q, r, s))
    scale = n ** (1.0 / density.d)

    def one(rep: int):
        sd = seed.derive(rep)
        base = sample_binomial(n + 1, density, sd).scale(scale)
        smaller = PointCloud(base.points[:-1], base.window)
        return add_one_cost(AddOneQuery(smaller, base.points[-1:], q, r, s, kind))

    vals = np.array([one(i) for i in range(reps)])
    mean_r = float(vals.mean())
    se_r = float(vals.std(ddof=1) / math.sqrt(reps))
    pooled = math.sqrt(se_r**2 + alpha.standard_error**2)
    return {
        "n": n,
        "mean_R": mean_r,
        "se_R": se_r,
        "alpha": alpha.value,
        "alpha_se": alpha.standard_error,
        "pooled_se": pooled,
        "diff": abs(mean_r - alpha.value),
        "pass": abs(mean_r - alpha.value) <= 3.0 * pooled + 1e-12,
    }


# ---------------------------------------------------------------------------
# Radius tails
# ---------------------------------------------------------------------------


TAIL_COLUMNS = ["lambda", "r", "q", "statistic", "L", "survival", "wilson_low", "wilson_high"]


@dataclass
class TailTable:
    rows: list  # dicts keyed by TAIL_COLUMNS

    def to_csv(self) -> str:
        return csv_text(TAIL_COLUMNS, ([row[c] for c in TAIL_COLUMNS] for row in self.rows))


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval; its end points are exactly 0 at no successes and
    exactly 1 at n, where the formula's round-off would miss them."""
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def radius_tail_experiment(
    lambda_grid,
    r_grid,
    q_list,
    L_grid,
    reps: int,
    window: float,
    seed: RngSeed,
    d: int = 2,
    kind: str = "rips",
) -> TailTable:
    """Empirical survival of the weak radius and of the strong radius's
    cluster-locality horizon, an upper bound that is finite only below
    percolation; censored replicates count as exceedances (conservative)."""
    if reps < 1:
        raise DomainError("radius tails need at least one replicate")
    check_degrees(q_list, d)
    L_grid = sorted(float(L) for L in L_grid)
    if not all(map(math.isfinite, L_grid)):
        raise DomainError("every L in the L grid must be finite")
    max_r = max(float(r) for r in r_grid)
    if not window >= max(L_grid) + 2.0 * mu(kind, max_r):
        raise DomainError("window below max L + 2 mu(max r)")
    box = Box((-window,) * d, (window,) * d)
    origin = np.zeros((1, d))
    z = np.zeros(d)
    rows = []
    cell = 0
    for lam in lambda_grid:
        for r in r_grid:
            base = seed.derive(cell)
            cell += 1

            def one(rep: int):
                P = sample_poisson_homogeneous(float(lam), box, base.derive(rep))
                est, trace, strong = cloud_radii(P, origin, z, float(r), float(r), q_list, kind, window)
                weak_vals = {
                    q: (math.inf if est.censored else trace.settled_radius(q)) for q in q_list
                }
                strong_vals = {q: (math.inf if st.censored else st.value) for q, st in strong.items()}
                return weak_vals, strong_vals

            results = [one(i) for i in range(reps)]
            for q in q_list:
                for stat, idx in (("weak", 0), ("strong", 1)):
                    vals = np.array([res[idx][q] for res in results])
                    for L in L_grid:
                        exceed = int(np.count_nonzero(vals > L))
                        lo, hi = wilson_interval(exceed, reps)
                        rows.append(
                            {
                                "lambda": float(lam),
                                "r": float(r),
                                "q": int(q),
                                "statistic": stat,
                                "L": L,
                                "survival": exceed / reps,
                                "wilson_low": lo,
                                "wilson_high": hi,
                            }
                        )
    return TailTable(rows)


# ---------------------------------------------------------------------------
# CSV serialization of CLT runs
# ---------------------------------------------------------------------------


def replicates_csv(result: CltResult) -> str:
    return csv_text(
        ["n", "rep", "pair_index", "beta", "standardized"],
        (
            (n, rep, i, beta, result.per_n[n].standardized[rep, i])
            for n in result.config.n_grid
            for (rep, i), beta in np.ndenumerate(result.per_n[n].betas)
        ),
    )


def covariance_csv(result: CltResult) -> str:
    return csv_text(
        ["n", "i", "j", "value"],
        ((n, i, j, v) for n in result.config.n_grid for (i, j), v in np.ndenumerate(result.per_n[n].covariance)),
    )


def scores_csv(result: CltResult) -> str:
    columns = ["label", *NormalityScore._fields]
    return csv_text(
        ["n", *columns],
        ([n, *(row[c] for c in columns)] for n in result.config.n_grid for row in result.per_n[n].scores),
    )
