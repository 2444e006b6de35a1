"""Empirical verification of the structural inequalities, plus trend sweeps.

Each ``verify_*`` routine fuzzes one inequality satisfied by expected maxima
of Gaussian vectors and reports the number of trials that violated it beyond
tolerance.  Asymptotic statements are tested as bounded-constant or
monotone-trend checks over finite grids, never as exact constants.  The two
sweep routines produce the data behind the concavity and concentration
trends (objective per set as the set size grows; allocation support as the
membership probability grows).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .instances import erdos_renyi_instance
from .oracle import (
    CovarianceSpec,
    EstimatorConfig,
    Z95,
    _pad_rows,
    _pmap,
    derive_seed,
    expected_max_batch,
    expected_max_correlated,
    psd_factor,
    row_max,
)
from .solvers import LIPSCHITZ_CONSTANT, log_approx_graph

__all__ = [
    "VerificationReport",
    "SweepRow",
    "SweepTable",
    "verify_eps_contribution",
    "verify_lipschitz",
    "verify_max_floor_bound",
    "verify_var2approx",
    "verify_correlation_gap",
    "verify_submodular_g",
    "verify_max_inequalities",
    "concavity_curve",
    "concentration_profile",
    "sweep_csv",
    "ALL_CHECKS",
]

# Correlated expected max is at most this multiple of the independent one
# with the same marginals: 2e/(e-1).
CORRELATION_GAP_CONSTANT = 2.0 * math.e / (math.e - 1.0)

_QUAD_SLACK = 1e-7  # tolerance granted to quadrature when asserting inequalities
_CONCAVITY_MAX_N = 10  # correlated curves: 2n candidates x (2^n - 1) subsets
_LARGE_VARIANCE_FRACTION = 0.25  # of p: the variance that counts as large in a profile


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one empirical check."""

    claim: str
    trials: int
    violations: int
    worst_margin: float
    details: tuple
    seed: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _verdict(claim: str, seed: int, violated, score, detail, *,
             higher_is_worse: bool) -> VerificationReport:
    """Report of a claim whose trial t scored ``score[t]``; the worst starts at
    0.0 for ratios (``higher_is_worse``) and at inf for slacks.  ``details`` is
    ``detail(t)`` for each trial strictly worse than the start and all earlier
    trials, in order; a NaN never is, as with scalar comparisons.
    ``verify_eps_contribution`` and ``verify_submodular_g`` list every trial.
    """
    start, sign = (0.0, 1.0) if higher_is_worse else (math.inf, -1.0)
    signed = sign * score  # higher is worse for both kinds
    prior = np.fmax.accumulate(np.concatenate([[sign * start], signed]))[:-1]
    records = np.flatnonzero(signed > prior).tolist()
    worst = float(score[records[-1]]) if records else start
    return VerificationReport(claim, len(score), int(np.count_nonzero(violated)), worst,
                              tuple(detail(t) for t in records), seed)


@dataclass(frozen=True)
class SweepRow:
    parameter: float
    statistic: str
    value: float
    ci_half_width: float


@dataclass(frozen=True)
class SweepTable:
    """Rows of (parameter, statistic, value, ci_half_width).

    Within each statistic the parameter points are strictly increasing.
    """

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        last: dict[str, float] = {}
        for row in self.rows:
            prev = last.get(row.statistic)
            if prev is not None and row.parameter <= prev:
                raise ValueError(
                    f"parameter points for {row.statistic!r} must be strictly increasing"
                )
            last[row.statistic] = row.parameter

    def values(self, statistic: str) -> list[tuple[float, float, float]]:
        return [
            (r.parameter, r.value, r.ci_half_width)
            for r in self.rows
            if r.statistic == statistic
        ]

    def statistics(self) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r.statistic not in seen:
                seen.append(r.statistic)
        return seen


def verify_eps_contribution(
    eps_grid,
    n_per_trial: int = 32,
    trials: int = 20,
    seed: int = 0,
) -> VerificationReport:
    """Scaling of E max(0, max_i Y_i) when every variance is below eps^2.

    For zero-mean coordinates with per-coordinate variance at most eps^2 and
    total variance at most 1, the positive part of the maximum is bounded by
    a constant times eps*sqrt(ln(1/eps)).  The fitted constant
    C(eps) = measured / (eps*sqrt(ln(1/eps))) must stay bounded across the
    grid: max/min <= 2.  Each eps includes the adversarial profile of
    floor(1/eps^2) coordinates at exactly eps^2 plus random profiles.
    """
    eps_grid = [float(e) for e in eps_grid]
    for e in eps_grid:
        if not (0.0 < e <= 0.5):
            raise ValueError("eps values must lie in (0, 1/2]")
    rng = np.random.default_rng(seed)
    # Per eps, the adversarial profile and then the random ones.  Each row's
    # deviations are followed by a zero column, the point mass at 0 that makes
    # it E max(0, Y_1..Y_n), and all rows are scored in one batch.
    m_adv = [int(1.0 / (eps * eps)) for eps in eps_grid]
    ns = np.full((len(eps_grid), trials + 1), n_per_trial)
    ns[:, 0] = m_adv
    sig = np.zeros((*ns.shape, ns.max(initial=0) + 1))
    for e, eps in enumerate(eps_grid):
        sig[e, 0, :m_adv[e]] = np.sqrt(np.full(m_adv[e], eps * eps))
        for t in range(1, trials + 1):
            v = rng.uniform(0.0, eps * eps, n_per_trial)
            total = v.sum()
            if total > 1.0:
                v *= 1.0 / total
            sig[e, t, :n_per_trial] = np.sqrt(v)
    measured = expected_max_batch(*_pad_rows(0.0, sig.reshape(ns.size, sig.shape[2]),
                                             ns.ravel() + 1))
    details = []
    fitted = []
    for eps, row_ns, values in zip(eps_grid, ns.tolist(), measured.reshape(ns.shape).tolist()):
        scale = eps * math.sqrt(math.log(1.0 / eps))
        best = 0.0
        for n, value in zip(row_ns, values):
            best = max(best, value / scale)
            details.append({"eps": eps, "n": n, "measured": value, "fitted_constant": value / scale})
        fitted.append(best)
    ratio = max(fitted) / min(fitted)
    return VerificationReport(
        claim="eps_contribution",
        trials=len(details),
        violations=int(ratio > 2.0),
        worst_margin=ratio,
        details=tuple(details),
        seed=seed,
    )


def verify_lipschitz(trials: int = 2000, n: int = 4, seed: int = 0) -> VerificationReport:
    """|E max X - E max Y| <= phi(0) * sum_i |sigma_i - sigma'_i| for equal means.

    The constant is ``solvers.LIPSCHITZ_CONSTANT``, phi(0) = 1/sqrt(2 pi),
    the bound ``ptas_independent`` prunes its grid with (its proof is in the
    constant's comment).  If a fuzzed pair exceeds it, the report carries the
    empirical ratio instead of hiding it.
    """
    rng = np.random.default_rng(seed)
    means, s1, s2 = (np.empty((trials, n)) for _ in range(3))
    for t in range(trials):
        means[t] = rng.normal(0.0, 1.0, n)
        s1[t] = rng.uniform(0.0, 1.0, n)
        s2[t] = rng.uniform(0.0, 1.0, n)
    both = expected_max_batch(np.vstack([means, means]), np.vstack([s1, s2]))
    diff = np.abs(both[:trials] - both[trials:])
    l1 = np.abs(s1 - s2).sum(axis=1)
    ratio = np.divide(diff, l1, out=np.zeros(trials), where=l1 > 0)
    return _verdict("lipschitz", seed, diff > LIPSCHITZ_CONSTANT * l1 + _QUAD_SLACK, ratio,
                    lambda t: {"means": means[t].tolist(), "s1": s1[t].tolist(),
                               "s2": s2[t].tolist(), "ratio": float(ratio[t])},
                    higher_is_worse=True)


def verify_max_floor_bound(
    trials: int = 1500,
    n_range: tuple[int, int] = (2, 6),
    seed: int = 0,
) -> VerificationReport:
    """E max(X_1..X_n) >= (1 - 2^(1-n)) * E max(0, X_1..X_n) for means >= 0."""
    lo, hi = n_range
    if lo < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    # Row t holds its n_t coordinates and then zeros; column n_t is the point
    # mass at 0 of the floored side.  Both sides are scored in one batch: the
    # rows cut to n_t columns, then to n_t + 1.
    ns = np.empty(trials, dtype=int)
    means, sig = np.zeros((trials, hi + 1)), np.zeros((trials, hi + 1))
    for t in range(trials):
        n = ns[t] = int(rng.integers(lo, hi + 1))
        means[t, :n] = rng.uniform(0.0, 1.0, n)
        sig[t, :n] = rng.uniform(0.0, 1.0, n)
    both = expected_max_batch(*_pad_rows(np.vstack([means, means]), np.vstack([sig, sig]),
                                         np.concatenate([ns, ns + 1])))
    lhs_all, floor_all = both[:trials], both[trials:]
    rhs = (1.0 - 2.0 ** (1 - ns)) * floor_all
    margin = lhs_all - rhs
    return _verdict("max_floor_bound", seed, margin < -_QUAD_SLACK, margin,
                    lambda t: {"n": int(ns[t]), "lhs": float(lhs_all[t]),
                               "rhs": float(rhs[t]), "margin": float(margin[t])},
                    higher_is_worse=False)


def verify_var2approx(trials: int = 1500, n: int = 4, seed: int = 0) -> VerificationReport:
    """Zero-mean monotonicity: sigma <= sigma' <= 2 sigma (coordinate-wise)
    implies E max X <= E max X' <= 2 E max X, for n >= 2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    # Row t draws its n deviations from U(0, 1), then its n multipliers from
    # U(1, 2): the stream order of one uniform(0, 1, n), uniform(1, 2, n) pair per trial.
    sig, mult = np.hsplit(rng.uniform(np.repeat([0.0, 1.0], n), np.repeat([1.0, 2.0], n),
                                      (trials, 2 * n)), 2)
    both = expected_max_batch(0.0, np.vstack([sig, sig * mult]))
    base, scaled = both[:trials], both[trials:]
    slack = np.minimum(scaled - base, 2.0 * base - scaled)
    return _verdict("var2approx", seed, slack < -_QUAD_SLACK, slack,
                    lambda t: {"sig": sig[t].tolist(), "mult": mult[t].tolist(),
                               "base": float(base[t]), "scaled": float(scaled[t]),
                               "slack": float(slack[t])},
                    higher_is_worse=False)


def verify_correlation_gap(
    trials: int = 400,
    n: int = 4,
    mc_samples: int = 50_000,
    seed: int = 0,
) -> VerificationReport:
    """E max of a joint Gaussian vector is at most 2e/(e-1) times the
    expected max of independent coordinates with the same marginals."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    means, sds = np.empty((trials, n)), np.empty((trials, n))
    jobs = []
    for t in range(trials):
        a = rng.normal(0.0, 1.0, (n, n))
        cov = a @ a.T
        cov *= 1.0 / np.trace(cov)
        means[t] = rng.uniform(0.0, 1.0, n)
        sds[t] = np.sqrt(np.diag(cov))
        jobs.append((CovarianceSpec(means[t], cov),
                     EstimatorConfig(mc_samples=mc_samples, seed=derive_seed(seed, f"gap:{t}"))))
    # Each trial draws from its own stream, so the threads change no bits.
    estimates = _pmap(lambda job: expected_max_correlated(*job), jobs)
    lhs = np.array([e.value for e in estimates])
    half_width = np.array([e.half_width for e in estimates])
    rhs = expected_max_batch(means, sds)
    ratio = lhs / (CORRELATION_GAP_CONSTANT * rhs)
    violated = lhs > CORRELATION_GAP_CONSTANT * rhs + half_width + 1e-9
    return _verdict("correlation_gap", seed, violated, ratio,
                    lambda t: {"trial": t, "lhs": float(lhs[t]), "rhs": float(rhs[t]),
                               "ratio": float(ratio[t])},
                    higher_is_worse=True)


def verify_submodular_g(k_max: int = 12) -> VerificationReport:
    """Diminishing returns of g(k) = E max(0, X_1..X_k) for iid standard
    normals: the increments g(k+1) - g(k) are positive and decreasing."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    # Row k - 1 holds k unit deviations and the point mass at 0.
    g = [0.0, *expected_max_batch(*_pad_rows(0.0, np.tri(k_max, k_max + 1),
                                             np.arange(2, k_max + 2))).tolist()]
    diffs = [g[k] - g[k - 1] for k in range(1, k_max + 1)]
    violations = 0
    worst = -math.inf
    details = []
    for k in range(1, k_max):
        margin = diffs[k] - diffs[k - 1]  # must be <= 0
        if margin > 1e-9 or diffs[k] <= 0:
            violations += 1
        worst = max(worst, margin)
        details.append({"k": k, "g": g[k], "increment": diffs[k - 1], "margin": margin})
    return VerificationReport("submodular_g", k_max - 1, violations, worst,
                              tuple(details), seed=0)


# The laws of the max_inequalities pool, by kind: each draws a given number of values.
_MAX_INEQUALITY_LAWS = (
    lambda rng, k: rng.normal(size=k),
    lambda rng, k: rng.uniform(-5.0, 5.0, k),
    lambda rng, k: rng.integers(-3, 4, k).astype(float),  # frequent exact ties
    lambda rng, k: rng.normal(size=k) * 1e6,
    lambda rng, k: rng.normal(size=k) * 1e-6,
)
_SLACK_CHUNK = 1024  # trials scored at once, their maxima as Python floats


def _max_inequality_draws(rng: np.random.Generator, trials: int) -> np.ndarray:
    """(trials, 4) tuples from the pool: one kind per cell, then each kind's
    cells filled in row-major order by one draw of its law, in kind order."""
    kinds = rng.integers(0, len(_MAX_INEQUALITY_LAWS), (trials, 4))
    draws = np.empty((trials, 4))
    for kind, law in enumerate(_MAX_INEQUALITY_LAWS):
        cells = kinds == kind
        draws[cells] = law(rng, np.count_nonzero(cells))
    return draws


def _max_inequality_slacks(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (a, b, c, d) row of ``draws``, the slacks (slack3, slack4) of the two
    orderings that ``verify_max_inequalities`` checks, summed as it states."""
    slack3, slack4 = np.empty(len(draws)), np.empty(len(draws))
    for lo in range(0, len(draws), _SLACK_CHUNK):
        a, b, c, d = draws[lo:lo + _SLACK_CHUNK].T
        ab, ad = np.maximum(a, b), np.maximum(a, d)
        abc = np.maximum(ab, c)
        slack3[lo:lo + _SLACK_CHUNK] = (ab + np.maximum(a, c)) - (abc + a)
        # The maxima of slack4: the right side's three, then the left side's four.
        maxima = (np.maximum(ad, b), np.maximum(ad, c), np.maximum(np.maximum(b, c), d),
                  np.maximum(abc, d), ad, np.maximum(b, d), np.maximum(c, d))
        slack4[lo:lo + _SLACK_CHUNK] = [
            math.fsum((abd, abd, acd, acd, bcd, bcd)) - math.fsum((abcd, abcd, abcd, a_d, b_d, c_d))
            for abd, acd, bcd, abcd, a_d, b_d, c_d in zip(*(m.tolist() for m in maxima))]
    return slack3, slack4


def verify_max_inequalities(trials: int = 10_000, seed: int = 0) -> VerificationReport:
    """Deterministic orderings of maxima, checked exactly on fuzzed tuples.

    For all reals: max(a,b) + max(a,c) >= max(a,b,c) + a, and
    3 max(a,b,c,d) + max(a,d) + max(b,d) + max(c,d)
      <= 2 max(a,b,d) + 2 max(a,c,d) + 2 max(b,c,d).
    Every maximum is exact.  Each side of the first ordering (slack3) is one
    IEEE addition, which rounds a two-term sum correctly (no draw can
    overflow); each side of the second (slack4) is summed exactly with
    ``math.fsum``.  So ties cannot produce spurious rounding violations.
    """
    draws = _max_inequality_draws(np.random.default_rng(seed), trials)
    slack3, slack4 = _max_inequality_slacks(draws)
    slack = np.minimum(slack3, slack4)
    return _verdict("max_inequalities", seed, slack < 0.0, slack,
                    lambda t: {"trial": t, "tuple": tuple(draws[t].tolist()),
                               "slack3": float(slack3[t]), "slack4": float(slack4[t])},
                    higher_is_worse=False)


def _half_width(x: np.ndarray) -> np.ndarray:
    """95% confidence half-width of the mean along the last axis; 0 for one value."""
    count = x.shape[-1]
    if count == 1:
        return np.zeros(x.shape[:-1])
    return Z95 * x.std(axis=-1, ddof=1) / math.sqrt(count)


def _per_set_values_independent(n, k, sigma) -> float:
    """Average over all k-subsets of E max of the member coordinates (zero means)."""
    subsets = list(itertools.combinations(range(n), k))
    return float(expected_max_batch(0.0, sigma[np.array(subsets)]).mean())


def _block_covariance(sigma: np.ndarray, sign: float) -> np.ndarray:
    """Block-diagonal 2x2 covariance with fully (anti)correlated pairs."""
    n = sigma.shape[0]
    cov = np.diag(sigma**2)
    for b in range(n // 2):
        i, j = 2 * b, 2 * b + 1
        cov[i, j] = cov[j, i] = sign * sigma[i] * sigma[j]
    return cov


def _per_set_values_correlated(n, cov, samples, seed):
    """Per-set average and its half-width for k = 1..n, as two length-n arrays,
    on one matrix of zero-mean joint draws."""
    L = psd_factor(cov)
    x = L @ np.random.default_rng(seed).standard_normal((samples, L.shape[1])).T
    stats = np.zeros((n, samples))
    for k, stat in enumerate(stats, 1):
        subsets = list(itertools.combinations(range(n), k))
        for s in subsets:
            stat += row_max(x, s)
        stat /= len(subsets)
    return stats.mean(axis=1), _half_width(stats)


def concavity_curve(n: int, cfg: EstimatorConfig) -> SweepTable:
    """Per-set objective of the complete k-subset instance, for k = 1..n.

    Candidate s = 1..n spreads the unit budget evenly over the first s
    variables.  For each candidate deviation vector sigma the curve
    f_sigma(k) = average over k-subsets of E max of the members
    is discretely concave; the table reports the per-k maximum over the
    candidates (statistic ``independent``), the analogous curves for the
    block-correlated variants (``positive_correlated`` and
    ``negative_correlated``, each at the first candidate attaining the
    maximum), and the worst concavity margin f(k) + f(k-2) - 2 f(k-1) over
    the candidates (``concavity_margin``, non-positive up to quadrature
    tolerance).

    n runs from 2 to 10: the correlated curves scan all 2^n - 1 subsets for
    each of 2n candidates, so on a 2-core VM n = 9 takes 6 s and n = 10
    8 s.  A larger n is refused before any sample is drawn.
    """
    if not 2 <= n <= _CONCAVITY_MAX_N:
        raise ValueError(f"n must be between 2 and {_CONCAVITY_MAX_N}")
    cands = [np.where(np.arange(n) < s, 1.0 / math.sqrt(s), 0.0) for s in range(1, n + 1)]
    curves = np.array([[_per_set_values_independent(n, k, sigma) for k in range(1, n + 1)]
                       for sigma in cands])  # (candidate, k)
    params = [k / n for k in range(1, n + 1)]

    rows = [SweepRow(p, "independent", v, 0.0)
            for p, v in zip(params, curves.max(axis=0).tolist())]
    samples = min(cfg.mc_samples, 100_000)
    for sign, name in ((1.0, "positive_correlated"), (-1.0, "negative_correlated")):
        values, hws = np.array([
            _per_set_values_correlated(n, _block_covariance(sigma, sign), samples,
                                       derive_seed(cfg.seed, f"concavity:{name}:{ci}"))
            for ci, sigma in enumerate(cands)
        ]).transpose(1, 0, 2)  # each (candidate, k)
        best = values.argmax(axis=0), np.arange(n)
        rows += [SweepRow(p, name, v, hw)
                 for p, v, hw in zip(params, values[best].tolist(), hws[best].tolist())]
    margins = (curves[:, 2:] + curves[:, :-2] - 2.0 * curves[:, 1:-1]).max(axis=0)
    rows += [SweepRow(p, "concavity_margin", v, 0.0) for p, v in zip(params[2:], margins.tolist())]
    return SweepTable(tuple(rows))


def concentration_profile(
    n: int,
    m: int,
    p_grid,
    seeds,
    cfg: EstimatorConfig,
) -> SweepTable:
    """Allocation support of the greedy solver on random instances.

    For each membership probability p, runs the multi-set solver over
    Erdos-Renyi instances and reports the count of variables with variance
    at least ``_LARGE_VARIANCE_FRACTION * p`` plus the sorted variance
    profile, averaged over the instance seeds.  Denser instances should
    concentrate the budget on fewer variables.
    """
    p_grid = [float(p) for p in p_grid]
    if any(not (0.0 < p <= 1.0) for p in p_grid):
        raise ValueError("p values must lie in (0, 1]")
    if sorted(p_grid) != p_grid or len(set(p_grid)) != len(p_grid):
        raise ValueError("p_grid must be strictly increasing")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one instance seed")

    counts = np.empty((len(p_grid), len(seeds)))
    profiles = np.empty((n, len(p_grid), len(seeds)))  # (rank, p, seed)
    for i, p in enumerate(p_grid):
        for j, s in enumerate(seeds):
            inst = erdos_renyi_instance(n, m, p, seed=s)
            rep = log_approx_graph(inst, replace(cfg, seed=derive_seed(cfg.seed, f"conc:{p}:{s}")))
            var = np.square(rep.allocation.stddevs_array())
            counts[i, j] = np.count_nonzero(var >= _LARGE_VARIANCE_FRACTION * p - 1e-12)
            profiles[:, i, j] = np.sort(var)

    stats = [("large_variance_count", counts)]
    stats += [(f"sigma_sq_rank_{r}", profiles[r]) for r in range(n)]
    return SweepTable(tuple(
        SweepRow(p, name, v, hw)
        for name, x in stats
        for p, v, hw in zip(p_grid, x.mean(axis=1).tolist(), _half_width(x).tolist())
    ))


def sweep_csv(table: SweepTable) -> str:
    """The table as CSV text, one LF-terminated line per row, shortest round-trip floats."""
    return "parameter,statistic,value,ci_half_width\n" + "".join(
        f"{r.parameter!r},{r.statistic},{r.value!r},{r.ci_half_width!r}\n" for r in table.rows
    )


# Registry used by the command-line verify runner.
ALL_CHECKS = {  # in sorted order: the order of --claim's choices in help and errors
    "correlation_gap": lambda seed, mc_samples: verify_correlation_gap(
        mc_samples=mc_samples, seed=seed
    ),
    "eps_contribution": lambda seed, mc_samples: verify_eps_contribution(
        (0.5, 0.25, 0.125, 0.0625), seed=seed
    ),
    "lipschitz": lambda seed, mc_samples: verify_lipschitz(seed=seed),
    "max_floor_bound": lambda seed, mc_samples: verify_max_floor_bound(seed=seed),
    "max_inequalities": lambda seed, mc_samples: verify_max_inequalities(seed=seed),
    "submodular_g": lambda seed, mc_samples: verify_submodular_g(),
    "var2approx": lambda seed, mc_samples: verify_var2approx(seed=seed),
}
