"""Verification harness and sweep tests."""

import itertools
import math
import time

import numpy as np
import pytest

from varalloc.analysis import (
    ALL_CHECKS,
    CORRELATION_GAP_CONSTANT,
    LIPSCHITZ_CONSTANT,
    VerificationReport,
    SweepRow,
    SweepTable,
    concavity_curve,
    concentration_profile,
    sweep_csv,
    verify_correlation_gap,
    verify_eps_contribution,
    verify_lipschitz,
    verify_max_floor_bound,
    verify_max_inequalities,
    verify_submodular_g,
    verify_var2approx,
)
from varalloc.analysis import (
    _QUAD_SLACK,
    _max_inequality_draws,
    _max_inequality_slacks,
    _per_set_values_independent,
)
from varalloc.oracle import (
    CovarianceSpec,
    EstimatorConfig,
    derive_seed,
    expected_max_batch,
    expected_max_correlated,
)

PHI0 = 0.3989422804014327
EMAX4 = 1.029375373003964  # E max of 4 iid standard normals


def _emax(means, stddevs) -> float:
    """One-row reference: E max of one independent vector by quadrature (~1e-12)."""
    return float(expected_max_batch(np.asarray(means, float), np.asarray(stddevs, float)[None, :])[0])


def _emax_floor0(stddevs) -> float:
    """One-row reference: E max(0, X_1..X_n) for zero-mean coordinates, with a point mass at 0."""
    s = np.concatenate([np.asarray(stddevs, float), [0.0]])
    return _emax(np.zeros(s.shape[0]), s)


class TestEpsContribution:
    def test_single_variable_profile_value(self):
        # eps = 0.5, one variable at variance 0.25: E max(0, Y) = 0.5 * phi(0).
        assert _emax_floor0([0.5]) == pytest.approx(0.5 * PHI0, abs=1e-9)

    def test_all_zero_profile(self):
        assert _emax_floor0([0.0, 0.0]) == 0.0

    def test_grid_ratio_bounded(self):
        rep = verify_eps_contribution((0.5, 0.25, 0.125, 0.0625), trials=5, seed=0)
        assert rep.violations == 0
        assert rep.worst_margin <= 2.0

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            verify_eps_contribution((0.9,))


class TestLipschitz:
    def test_zero_distance(self):
        assert abs(_emax([0.0, 1.0], [0.5, 0.5]) - _emax([0.0, 1.0], [0.5, 0.5])) == 0.0

    def test_swap_symmetric_pair(self):
        a = _emax([0.0, 0.0], [1.0, 0.0])
        b = _emax([0.0, 0.0], [0.0, 1.0])
        assert abs(a - b) <= 1e-12

    def test_fuzz_zero_violations(self):
        rep = verify_lipschitz(trials=400, n=4, seed=0)
        assert rep.violations == 0
        assert rep.worst_margin <= 2.0


class TestMaxFloorBound:
    def test_pair_example(self):
        lhs = _emax([0.0, 0.0], [1.0, 1.0])
        rhs = _emax_floor0([1.0, 1.0])
        assert lhs == pytest.approx(0.5641895835477563, abs=1e-9)
        assert lhs >= 0.5 * rhs

    def test_degenerate_equality(self):
        lhs = _emax([1.0, 2.0], [0.0, 0.0])
        rhs = _emax([1.0, 2.0, 0.0], [0.0, 0.0, 0.0])
        assert lhs == rhs == 2.0

    def test_factor_arithmetic(self):
        assert 1 - 2 ** (1 - 6) == pytest.approx(0.96875)

    def test_fuzz_zero_violations(self):
        rep = verify_max_floor_bound(trials=300, seed=0)
        assert rep.violations == 0


class TestVar2Approx:
    def test_doubling_scales_exactly(self):
        base = _emax([0.0, 0.0], [0.3, 0.7])
        doubled = _emax([0.0, 0.0], [0.6, 1.4])
        assert doubled == pytest.approx(2 * base, abs=1e-9)

    def test_fuzz_zero_violations(self):
        rep = verify_var2approx(trials=300, seed=0)
        assert rep.violations == 0
        assert rep.worst_margin >= -1e-7


class TestCorrelationGap:
    def test_constant_value(self):
        assert CORRELATION_GAP_CONSTANT == pytest.approx(3.1639534, abs=1e-7)

    def test_anti_correlated_example(self):
        lhs = 0.5641895835477563
        rhs = CORRELATION_GAP_CONSTANT * PHI0
        assert lhs <= rhs

    def test_fuzz_zero_violations(self):
        rep = verify_correlation_gap(trials=60, n=3, mc_samples=20_000, seed=0)
        assert rep.violations == 0
        assert rep.worst_margin <= 1.0

    def test_report_independent_of_workers(self, monkeypatch):
        import varalloc.oracle as oracle

        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(oracle, "_workers", lambda: workers)
            reports.append(verify_correlation_gap(trials=40, mc_samples=5_000, seed=2))
        assert reports[0] == reports[1]


class TestSubmodularG:
    def test_g1_value(self):
        rep = verify_submodular_g(12)
        assert rep.details[0]["g"] == pytest.approx(PHI0, abs=1e-9)

    def test_increments_positive_and_decreasing(self):
        rep = verify_submodular_g(12)
        assert rep.violations == 0
        increments = [row["increment"] for row in rep.details]
        assert all(d > 0 for d in increments)
        assert all(b < a for a, b in zip(increments, increments[1:]))

    def test_k_max_validated(self):
        with pytest.raises(ValueError):
            verify_submodular_g(1)


class TestMaxInequalities:
    def test_spec_tuples(self):
        assert max(1, 2) + max(1, 3) >= max(1, 2, 3) + 1
        lhs = 3 * max(1, 2, 3, 0) + max(1, 0) + max(2, 0) + max(3, 0)
        rhs = 2 * max(1, 2, 0) + 2 * max(1, 3, 0) + 2 * max(2, 3, 0)
        assert lhs <= rhs

    def test_fuzz_zero_violations(self):
        rep = verify_max_inequalities(trials=10_000, seed=0)
        assert rep.violations == 0
        assert rep.worst_margin >= 0.0

    def test_draw_pool_laws(self):
        trials, seed = 20_000, 4
        draws = _max_inequality_draws(np.random.default_rng(seed), trials)
        kinds = np.random.default_rng(seed).integers(0, 5, (trials, 4))  # the pool's first draw
        cells = kinds.size
        by_kind = [draws[kinds == kind] for kind in range(5)]
        for values in by_kind:  # each kind's share is 1/5, within 5 binomial sds
            assert abs(values.size - cells / 5) <= 5 * math.sqrt(cells * 0.2 * 0.8)
        normal, uniform, integer, large, small = by_kind
        assert set(integer.tolist()) == {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}
        assert uniform.min() >= -5.0 and uniform.max() < 5.0
        assert uniform.min() < -4.99 and uniform.max() > 4.99
        assert abs(uniform.mean()) < 5 * 10 / math.sqrt(12 * uniform.size)
        # Sample deviations of the three normal laws: relative error about 1/sqrt(2k).
        for values, scale in ((normal, 1.0), (large, 1e6), (small, 1e-6)):
            assert values.std() / scale == pytest.approx(1.0, abs=5 / math.sqrt(2 * values.size))
            assert abs(values.mean() / scale) < 5 / math.sqrt(values.size)

    def test_slack3_is_the_two_term_fsum(self):
        # Ties, 1e6 against 1e-6 scales, and zeros: the array form rounds each
        # side once, as a two-term fsum does.  The pool draws no negative zero.
        tuples = [(1.0, 1.0, 1.0, 1.0), (2.0, 2.0, -3.0, 2.0), (0.0, 0.0, 0.0, 0.0),
                  (0.0, -3.0, 0.0, 3.0), (-1.0, 0.0, 0.0, -1.0),
                  (1.3e-6, 2.7e6, -1.9e6, 4.1e-6), (-1.3e-6, -2.7e6, 1.9e6, -4.1e-6),
                  (-2.2e6, 7.7e-7, 3.1e6, 0.0), (3.3e6, 3.3e6, 9.1e-7, -9.1e-7),
                  (0.1, 0.2, 0.30000000000000004, 1e-6), (-4.99, 1e6 / 3, 1e-6 / 3, 2.0)]
        slack3, slack4 = _max_inequality_slacks(np.array(tuples))
        for (a, b, c, d), got3, got4 in zip(tuples, slack3.tolist(), slack4.tolist()):
            want3 = math.fsum([max(a, b), max(a, c)]) - math.fsum([max(a, b, c), a])
            want4 = (math.fsum([max(a, b, d)] * 2 + [max(a, c, d)] * 2 + [max(b, c, d)] * 2)
                     - math.fsum([max(a, b, c, d)] * 3 + [max(a, d), max(b, d), max(c, d)]))
            assert got3.hex() == want3.hex()
            assert got4.hex() == want4.hex()
        # Ties give an exact zero slack, so the fuzzer's worst margin reads 0.0.
        assert slack3[:4].tolist() == [0.0] * 4


@pytest.fixture(scope="module")
def table4():
    return concavity_curve(4, EstimatorConfig(mc_samples=50_000))


@pytest.fixture(scope="module")
def conc_table():
    return concentration_profile(
        4, 12, (0.25, 0.5, 1.0), seeds=(0, 1), cfg=EstimatorConfig()
    )


class TestConcavityCurve:
    def test_singletons_have_zero_value(self, table4):
        k1 = [v for p, v, _ in table4.values("independent") if p == 0.25]
        assert k1[0] == pytest.approx(0.0, abs=1e-9)

    def test_full_set_value(self, table4):
        k4 = [v for p, v, _ in table4.values("independent") if p == 1.0]
        assert k4[0] == pytest.approx(0.5 * EMAX4, abs=1e-8)

    def test_margins_nonpositive(self, table4):
        margins = [v for _, v, _ in table4.values("concavity_margin")]
        assert margins and max(margins) <= 1e-6

    def test_has_correlated_curves(self, table4):
        stats = table4.statistics()
        assert "positive_correlated" in stats and "negative_correlated" in stats

    def test_guard(self):
        with pytest.raises(ValueError):
            concavity_curve(1, EstimatorConfig())

    def test_size_cap_refuses_before_sampling(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="between 2 and 10"):
            concavity_curve(23, EstimatorConfig())
        assert time.perf_counter() - start < 0.05


class TestConcentrationProfile:
    def test_counts_present_and_bounded(self, conc_table):
        counts = conc_table.values("large_variance_count")
        assert len(counts) == 3
        assert all(0 <= v <= 4 for _, v, _ in counts)

    def test_profiles_respect_budget(self, conc_table):
        for p in (0.25, 0.5, 1.0):
            total = sum(
                v for r in range(4) for pp, v, _ in conc_table.values(f"sigma_sq_rank_{r}")
                if pp == p
            )
            assert total <= 1.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            concentration_profile(4, 4, (0.5, 0.5), seeds=(0,), cfg=EstimatorConfig())
        with pytest.raises(ValueError):
            concentration_profile(4, 4, (0.5,), seeds=(), cfg=EstimatorConfig())


class TestSweepTable:
    def test_strictly_increasing_enforced(self):
        rows = (
            SweepRow(0.5, "a", 1.0, 0.0),
            SweepRow(0.25, "a", 2.0, 0.0),
        )
        with pytest.raises(ValueError):
            SweepTable(rows)

    def test_csv_round_trip(self):
        rows = (
            SweepRow(0.125, "stat", 0.1, 0.01),
            SweepRow(0.25, "stat", 1.0 / 3.0, 0.0),
        )
        text = sweep_csv(SweepTable(rows))
        lines = text.split("\n")
        assert lines[0] == "parameter,statistic,value,ci_half_width"
        parsed = lines[1].split(",")
        assert float(parsed[0]) == 0.125
        assert float(parsed[2]) == 0.1
        assert float(lines[2].split(",")[2]) == 1.0 / 3.0  # shortest round trip
        assert sweep_csv(SweepTable(rows)) == text

    def test_empty_table_header_only(self):
        assert sweep_csv(SweepTable(())) == "parameter,statistic,value,ci_half_width\n"


def _list_per_set_values_independent(n, k, means, sigma, batch):
    # Reference: subsets gathered by nested list comprehensions, with explicit means.
    subsets = list(itertools.combinations(range(n), k))
    sub_means = np.array([[means[i] for i in s] for s in subsets])
    sub_sigma = np.array([[sigma[i] for i in s] for s in subsets])
    return float(batch(sub_means, sub_sigma).mean())


def _position_weighted(means, stddevs):
    # Stand-in batch that weights each coordinate by its position, so rows
    # whose columns come in another order give other values.
    stddevs = np.asarray(stddevs, dtype=float)
    weights = np.arange(1.0, stddevs.shape[1] + 1)
    return (np.broadcast_to(means, stddevs.shape) + stddevs * weights).sum(axis=1)


@pytest.mark.parametrize("k", [2, 8, 9])
def test_per_set_values_independent_matches_reference(monkeypatch, k):
    # n = 10 is the largest n concavity_curve accepts.
    n = 10
    sigma = np.sqrt(np.arange(1.0, n + 1) / (n * (n + 1) / 2))  # distinct, unit budget
    assert (_per_set_values_independent(n, k, sigma)
            == _list_per_set_values_independent(n, k, np.zeros(n), sigma, expected_max_batch))
    monkeypatch.setattr("varalloc.analysis.expected_max_batch", _position_weighted)
    assert (_per_set_values_independent(n, k, sigma)
            == _list_per_set_values_independent(n, k, np.zeros(n), sigma, _position_weighted))


# Eager references: one _emax call per trial, in the order the fuzzers drew
# and scored before their quadrature was batched, and a per-trial tally of
# max_inequalities.  The verifiers must return equal reports, details included.

def _eager_eps_contribution(eps_grid, n_per_trial, trials, seed):
    rng = np.random.default_rng(seed)
    details = []
    fitted = []
    for eps in eps_grid:
        scale = eps * math.sqrt(math.log(1.0 / eps))
        profiles = [np.full(int(1.0 / (eps * eps)), eps * eps)]
        for _ in range(trials):
            v = rng.uniform(0.0, eps * eps, n_per_trial)
            total = v.sum()
            if total > 1.0:
                v *= 1.0 / total
            profiles.append(v)
        best = 0.0
        for prof in profiles:
            measured = _emax_floor0(np.sqrt(prof))
            best = max(best, measured / scale)
            details.append({"eps": eps, "n": len(prof), "measured": measured,
                            "fitted_constant": measured / scale})
        fitted.append(best)
    ratio = max(fitted) / min(fitted)
    return VerificationReport("eps_contribution", len(details), int(ratio > 2.0), ratio,
                              tuple(details), seed)


def _eager_lipschitz(trials, n, seed):
    rng = np.random.default_rng(seed)
    violations, worst, details = 0, 0.0, []
    for _ in range(trials):
        means = rng.normal(0.0, 1.0, n)
        s1 = rng.uniform(0.0, 1.0, n)
        s2 = rng.uniform(0.0, 1.0, n)
        diff = abs(_emax(means, s1) - _emax(means, s2))
        l1 = float(np.abs(s1 - s2).sum())
        if diff > LIPSCHITZ_CONSTANT * l1 + _QUAD_SLACK:
            violations += 1
        ratio = diff / l1 if l1 > 0 else 0.0
        if ratio > worst:
            worst = ratio
            details.append({"means": means.tolist(), "s1": s1.tolist(),
                            "s2": s2.tolist(), "ratio": ratio})
    return VerificationReport("lipschitz", trials, violations, worst, tuple(details), seed)


def _eager_max_floor_bound(trials, n_range, seed):
    rng = np.random.default_rng(seed)
    violations, worst, details = 0, math.inf, []
    for _ in range(trials):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        means = rng.uniform(0.0, 1.0, n)
        sig = rng.uniform(0.0, 1.0, n)
        lhs = _emax(means, sig)
        with_floor = _emax(np.concatenate([means, [0.0]]), np.concatenate([sig, [0.0]]))
        factor = 1.0 - 2.0 ** (1 - n)
        margin = lhs - factor * with_floor
        if margin < -_QUAD_SLACK:
            violations += 1
        if margin < worst:
            worst = margin
            details.append({"n": n, "lhs": lhs, "rhs": factor * with_floor, "margin": margin})
    return VerificationReport("max_floor_bound", trials, violations, worst, tuple(details), seed)


def _eager_var2approx(trials, n, seed):
    rng = np.random.default_rng(seed)
    zeros = np.zeros(n)
    violations, worst, details = 0, math.inf, []
    for _ in range(trials):
        sig = rng.uniform(0.0, 1.0, n)
        mult = rng.uniform(1.0, 2.0, n)
        base = _emax(zeros, sig)
        scaled = _emax(zeros, sig * mult)
        slack = min(scaled - base, 2.0 * base - scaled)
        if slack < -_QUAD_SLACK:
            violations += 1
        if slack < worst:
            worst = slack
            details.append({"sig": sig.tolist(), "mult": mult.tolist(),
                            "base": base, "scaled": scaled, "slack": slack})
    return VerificationReport("var2approx", trials, violations, worst, tuple(details), seed)


def _eager_correlation_gap(trials, n, mc_samples, seed):
    rng = np.random.default_rng(seed)
    violations, worst, details = 0, 0.0, []
    for t in range(trials):
        a = rng.normal(0.0, 1.0, (n, n))
        cov = a @ a.T
        cov *= 1.0 / np.trace(cov)
        means = rng.uniform(0.0, 1.0, n)
        lhs = expected_max_correlated(
            CovarianceSpec(means, cov),
            EstimatorConfig(mc_samples=mc_samples, seed=derive_seed(seed, f"gap:{t}")),
        )
        rhs = _emax(means, np.sqrt(np.diag(cov)))
        bound = CORRELATION_GAP_CONSTANT * rhs + lhs.half_width + 1e-9
        ratio = lhs.value / (CORRELATION_GAP_CONSTANT * rhs)
        if lhs.value > bound:
            violations += 1
        if ratio > worst:
            worst = ratio
            details.append({"trial": t, "lhs": lhs.value, "rhs": rhs, "ratio": ratio})
    return VerificationReport("correlation_gap", trials, violations, worst, tuple(details), seed)


def _eager_max_inequalities(trials, seed):
    draws = _max_inequality_draws(np.random.default_rng(seed), trials)
    violations, worst, details = 0, math.inf, []
    for t in range(trials):
        a, b, c, d = draws[t].tolist()
        slack3 = math.fsum([max(a, b), max(a, c)]) - math.fsum([max(a, b, c), a])
        slack4 = (math.fsum([max(a, b, d)] * 2 + [max(a, c, d)] * 2 + [max(b, c, d)] * 2)
                  - math.fsum([max(a, b, c, d)] * 3 + [max(a, d), max(b, d), max(c, d)]))
        slack = min(slack3, slack4)
        if slack < 0.0:
            violations += 1
        if slack < worst:
            worst = slack
            details.append({"trial": t, "tuple": (a, b, c, d), "slack3": slack3, "slack4": slack4})
    return VerificationReport("max_inequalities", trials, violations, worst, tuple(details), seed)


@pytest.mark.parametrize("seed", [3, 17])
class TestBatchedMatchesEager:
    def test_eps_contribution(self, seed):
        grid = (0.5, 0.3, 0.125)
        assert verify_eps_contribution(grid, n_per_trial=9, trials=12, seed=seed) == \
            _eager_eps_contribution(grid, 9, 12, seed)

    # Zero trials pin the starting worst values: 0.0 for ratios, inf for slacks.
    def test_lipschitz(self, seed):
        for trials in (50, 0):
            assert verify_lipschitz(trials=trials, n=5, seed=seed) == \
                _eager_lipschitz(trials, 5, seed)

    def test_max_floor_bound(self, seed):
        for trials in (50, 0):
            assert verify_max_floor_bound(trials=trials, n_range=(2, 7), seed=seed) == \
                _eager_max_floor_bound(trials, (2, 7), seed)

    def test_var2approx(self, seed):
        for trials in (50, 0):
            assert verify_var2approx(trials=trials, n=3, seed=seed) == \
                _eager_var2approx(trials, 3, seed)

    def test_correlation_gap(self, seed):
        for trials in (20, 0):
            assert verify_correlation_gap(trials=trials, n=3, mc_samples=5_000, seed=seed) == \
                _eager_correlation_gap(trials, 3, 5_000, seed)

    def test_max_inequalities(self, seed):
        for trials in (3_000, 0):
            assert verify_max_inequalities(trials=trials, seed=seed) == \
                _eager_max_inequalities(trials, seed)


# Rows each claim scores with quadrature at its registry defaults, all in one call.
CLAIM_ROWS = {"correlation_gap": 400, "eps_contribution": 84, "lipschitz": 4000,
              "max_floor_bound": 3000, "submodular_g": 12, "var2approx": 3000}


@pytest.mark.parametrize("claim", sorted(CLAIM_ROWS))
def test_each_claim_scores_its_rows_in_one_batch(monkeypatch, claim):
    calls = []

    def counting(means, stddevs, **kwargs):
        calls.append(np.shape(stddevs)[0])
        return expected_max_batch(means, stddevs, **kwargs)

    monkeypatch.setattr("varalloc.analysis.expected_max_batch", counting)
    ALL_CHECKS[claim](1, 2_000)
    assert calls == [CLAIM_ROWS[claim]]


def test_lipschitz_memory_bounded():
    # 2 x 2000 rows at n=4: the draws take 192 KiB and the quadrature runs in
    # cache-sized slabs, so the batch never holds per-trial node arrays at once.
    import tracemalloc

    tracemalloc.start()
    try:
        verify_lipschitz(trials=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
