"""Acceptance suite.

One test per acceptance criterion, each asserting its stated numeric
tolerance and runtime budget and printing a single pass/fail line (emitted
outside pytest capture so the lines always reach the terminal).
"""

import itertools
import math
import time

import numpy as np
import pytest

from varalloc.analysis import (
    concavity_curve,
    concentration_profile,
    verify_correlation_gap,
    verify_eps_contribution,
    verify_lipschitz,
    verify_max_floor_bound,
    verify_max_inequalities,
    verify_submodular_g,
    verify_var2approx,
)
from varalloc.cli import run
from varalloc.instances import Instance, cycle_instance
from varalloc.oracle import (
    EstimatorConfig,
    GaussianVector,
    expected_max_batch,
    expected_max_independent,
    expected_max_pair,
    expected_max_with_floor,
    graph_objective,
)
from varalloc.solvers import (
    brute_force_grid,
    greedy_fixed_variance,
    log_approx_graph,
    ptas_correlated,
    ptas_independent,
    uniform_allocation,
)

UNIFORM_CYCLE_4 = 1.1283791670955126  # sqrt(4/pi)
ANTI_CORR_PAIR = 0.5641895835477563   # 1/sqrt(pi)
GREEDY_FACTOR = 1.0 - 1.0 / math.e


class _Criterion:
    def __init__(self, number, description, budget_seconds, capsys):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.capsys = capsys
        self.t0 = time.perf_counter()

    def finish(self, ok):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        with self.capsys.disabled():
            print(
                f"ACCEPTANCE {self.number:>2} {status}: {self.description} "
                f"({elapsed:.1f}s / budget {self.budget:.0f}s)",
                flush=True,
            )
        assert ok, f"criterion {self.number} failed: {self.description}"
        assert elapsed < self.budget, f"criterion {self.number} over budget"


@pytest.fixture
def criterion(capsys):
    def make(number, description, budget_seconds):
        return _Criterion(number, description, budget_seconds, capsys)

    return make


def _mc_moments(samples):
    # mean and 95% half-width via one BLAS pass for the second moment
    n = samples.shape[0]
    mean = float(samples.sum()) / n
    sq = float(np.dot(samples, samples))
    var = max((sq - n * mean * mean) / (n - 1), 0.0)
    return mean, 1.959963984540054 * math.sqrt(var / n)


def test_criterion_01_oracle_exactness(criterion):
    crit = criterion(1, "closed forms match 1e7-sample Monte Carlo and quadrature", 60)
    rng = np.random.default_rng(0)
    n_mc = 10_000_000
    z1 = rng.standard_normal(n_mc)
    z2 = rng.standard_normal(n_mc)
    buf = np.empty(n_mc)
    buf2 = np.empty(n_mc)
    quad_cfg = EstimatorConfig(method="quadrature")
    ok = True
    for _ in range(50):  # floored single Gaussians
        mu = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0, 2)) if rng.random() > 0.1 else 0.0
        floor = float(rng.uniform(-2, 2))
        closed = expected_max_with_floor(mu, sigma, floor)
        np.multiply(z1, sigma, out=buf)
        buf += mu
        np.maximum(buf, floor, out=buf)
        mean, hw = _mc_moments(buf)
        ok &= abs(closed - mean) <= 3 * hw + 1e-12
        quad = expected_max_independent(GaussianVector((mu, floor), (sigma, 0.0)), quad_cfg)
        ok &= abs(quad.value - closed) <= 1e-7
    for _ in range(50):  # independent pairs
        mu1, mu2 = rng.uniform(-2, 2, 2)
        s1, s2 = rng.uniform(0, 2, 2)
        closed = expected_max_pair(mu1, s1, mu2, s2)
        np.multiply(z1, s1, out=buf)
        buf += mu1
        np.multiply(z2, s2, out=buf2)
        buf2 += mu2
        np.maximum(buf, buf2, out=buf)
        mean, hw = _mc_moments(buf)
        ok &= abs(closed - mean) <= 3 * hw
        quad = expected_max_independent(GaussianVector((mu1, mu2), (s1, s2)), quad_cfg)
        ok &= abs(quad.value - closed) <= 1e-7
    crit.finish(ok)


def test_criterion_02_cycle_optimum(criterion):
    crit = criterion(2, "cycle closed form and grid optimality at uniform", 120)
    cfg = EstimatorConfig(method="quadrature")
    ok = True
    for n in (3, 4, 6):
        inst = cycle_instance(n, 0.0)
        uni = graph_objective(inst, uniform_allocation(inst), cfg)
        target = n * math.sqrt(1 / (2 * math.pi)) * math.sqrt(2 / n)
        ok &= abs(uni.value - target) <= 1e-6
        if n == 4:
            ok &= abs(uni.value - UNIFORM_CYCLE_4) <= 1e-6
        brute = brute_force_grid(inst, 0.25, cfg)
        ok &= brute.objective.value <= uni.value + 1e-6
    crit.finish(ok)


def test_criterion_03_ptas_containment(criterion):
    crit = criterion(3, "grid-search solver dominates the unrestricted grid oracle", 600)
    rng = np.random.default_rng(0)
    cfg = EstimatorConfig()
    instances = [Instance(1, (float(rng.uniform(0, 1)),), [(0,)])]
    for n in (2, 3):
        means = rng.uniform(0, 1, n)
        instances.append(Instance(n, means, [tuple(range(n))]))
    for _ in range(2):
        means = rng.uniform(0, 1, 4)
        instances.append(Instance(4, means, [tuple(range(4))]))
    ok = True
    for inst in instances:
        for eps in (0.35, 0.5):
            rep = ptas_independent(inst, eps, cfg)
            brute = brute_force_grid(inst, eps**3, cfg)
            ok &= rep.objective.value >= brute.objective.value - 1e-6
    crit.finish(ok)


def test_criterion_04_correlated_dominance(criterion):
    crit = criterion(4, "correlated grid search finds the anti-correlated pair", 120)
    cfg = EstimatorConfig(seed=0, mc_samples=4_000_000)
    inst = Instance(2, (0.0, 0.0), [(0, 1)])
    rep = ptas_correlated(inst, 0.7, 0.25, cfg)
    m = rep.allocation.matrix
    ok = (
        m[0, 1] == pytest.approx(-0.5, abs=1e-12)
        and rep.objective.value >= ANTI_CORR_PAIR - rep.objective.half_width
    )
    crit.finish(ok)


def test_criterion_05_greedy_guarantee(criterion):
    crit = criterion(5, "greedy achieves (1 - 1/e) of the exhaustive best subset", 600)
    rng = np.random.default_rng(0)
    cfg = EstimatorConfig()
    violations = 0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(2, 13))
        sets = []
        for _ in range(m):
            size = int(rng.integers(1, n + 1))
            sets.append(tuple(sorted(rng.choice(n, size=size, replace=False))))
        inst = Instance(n, rng.uniform(0, 0.5, n), sets)
        card = int(rng.integers(1, 4))
        level = float(rng.uniform(0.1, 1.0 / card))
        _, est = greedy_fixed_variance(inst, level, card, cfg)

        subsets = list(itertools.combinations(range(n), card))
        sigma = np.zeros((len(subsets), n))
        for r, subset in enumerate(subsets):
            sigma[r, list(subset)] = math.sqrt(level)
        means = inst.means_array()
        totals = np.zeros(len(subsets))
        for members in inst.sets:
            idx = np.asarray(members)
            totals += expected_max_batch(means[idx], sigma[:, idx])
        best = float(totals.max())
        if est.value < GREEDY_FACTOR * best - est.half_width - 1e-6:
            violations += 1
    crit.finish(violations == 0)


def test_criterion_06_log_approx_sanity(criterion):
    crit = criterion(6, "multi-set greedy recovers the cycle optimum and mean sums", 120)
    cfg = EstimatorConfig()
    rep = log_approx_graph(cycle_instance(4, 0.0), cfg)
    ok = abs(rep.objective.value - UNIFORM_CYCLE_4) <= max(rep.objective.half_width, 1e-6)
    singles = Instance(4, (0.3, 1.1, 0.0, 2.5), [(0,), (1,), (2,), (3,), (1,)])
    rep2 = log_approx_graph(singles, cfg)
    expected = math.fsum([0.3, 1.1, 0.0, 2.5, 1.1])
    ok &= abs(rep2.objective.value - expected) <= 1e-12
    ok &= rep2.allocation.stddevs == (0.0,) * 4
    crit.finish(ok)


def test_criterion_07_lemma_suite(criterion):
    crit = criterion(7, "inequality suite reports zero violations at seed 0", 600)
    reports = [
        verify_lipschitz(trials=2000, n=4, seed=0),
        verify_max_floor_bound(trials=1500, n_range=(2, 6), seed=0),
        verify_var2approx(trials=1500, n=4, seed=0),
        verify_correlation_gap(trials=1000, n=4, mc_samples=50_000, seed=0),
        verify_submodular_g(12),
        verify_max_inequalities(trials=10_000, seed=0),
    ]
    ok = all(r.violations == 0 for r in reports)
    ok &= reports[0].worst_margin <= 2.0  # empirical smoothness constant
    crit.finish(ok)


def test_criterion_08_concavity(criterion):
    crit = criterion(8, "per-set objective is discretely concave at n=8", 300)
    table = concavity_curve(8, EstimatorConfig())
    margins = [v for _, v, _ in table.values("concavity_margin")]
    crit.finish(bool(margins) and max(margins) <= 1e-6)


def test_criterion_09_concentration(criterion):
    crit = criterion(9, "large-variance count is non-increasing in density", 600)
    table = concentration_profile(
        8, 24, tuple(i / 8 for i in range(1, 9)), seeds=(0, 1, 2, 3, 4),
        cfg=EstimatorConfig(),
    )
    counts = table.values("large_variance_count")
    inversions = 0
    for (p0, v0, h0), (p1, v1, h1) in zip(counts, counts[1:]):
        if v1 > v0 + h0 + h1 + 1e-9:
            inversions += 1
    crit.finish(inversions <= 1)


def test_criterion_10_chaining_scaling(criterion):
    crit = criterion(10, "fitted chaining constant varies by at most 2x", 120)
    rep = verify_eps_contribution((0.5, 0.25, 0.125, 0.0625), trials=10, seed=0)
    crit.finish(rep.violations == 0 and rep.worst_margin <= 2.0)


def test_criterion_11_reproducibility(tmp_path, criterion):
    crit = criterion(11, "identical invocations produce byte-identical outputs", 600)
    ok = True

    def twice(argv, outputs):
        nonlocal ok
        blobs = []
        for tag in ("x", "y"):
            paths = {name: tmp_path / f"{name}_{tag}" for name in outputs}
            code = run([a.format(**{k: str(v) for k, v in paths.items()}) for a in argv])
            ok &= code == 0
            blobs.append(tuple(paths[name].read_bytes() for name in outputs))
        ok &= blobs[0] == blobs[1]
        return blobs[0]

    twice(["generate", "cycle", "--n", "4", "--mu", "0.5", "--out", "{o}"], ["o"])
    twice(
        ["generate", "erdos-renyi", "--n", "6", "--m", "9", "--p", "0.5",
         "--seed", "2", "--out", "{o}"],
        ["o"],
    )
    twice(["generate", "complete-k", "--n", "5", "--k", "2", "--out", "{o}"], ["o"])

    inst = tmp_path / "inst.json"
    run(["generate", "erdos-renyi", "--n", "5", "--m", "8", "--p", "0.6",
         "--seed", "4", "--out", str(inst)])
    pair = tmp_path / "pair.json"
    pair.write_text('{"n": 2, "means": [0.0, 0.0], "sets": [[0, 1]]}\n')

    twice(["solve", "uniform", "--in", str(inst), "--out", "{o}"], ["o"])
    twice(
        ["solve", "log-approx", "--in", str(inst), "--seed", "7",
         "--mc-samples", "50000", "--out", "{o}"],
        ["o"],
    )
    twice(
        ["solve", "ptas-ind", "--in", str(pair), "--eps", "0.5", "--out", "{o}"],
        ["o"],
    )
    report = twice(
        ["solve", "ptas-corr", "--in", str(pair), "--eps", "0.7",
         "--grid-step", "0.25", "--seed", "1", "--mc-samples", "100000",
         "--out", "{o}"],
        ["o"],
    )
    rep_path = tmp_path / "corr_report.json"
    rep_path.write_bytes(report[0])
    twice(["evaluate", "--in", str(rep_path), "--out", "{o}"], ["o"])
    twice(
        ["sweep", "concentration", "--n", "4", "--m", "8", "--seed", "3", "--out", "{o}"],
        ["o"],
    )
    twice(
        ["sweep", "concavity", "--n", "4", "--mc-samples", "20000",
         "--seed", "3", "--out", "{o}"],
        ["o"],
    )
    twice(["verify", "--claim", "submodular_g", "--out", "{o}"], ["o"])
    crit.finish(ok)
