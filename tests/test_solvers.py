"""Solver behavior: grid searches, the multi-set greedy, and baselines."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from varalloc import oracle, solvers
from varalloc.instances import (
    AllocationVector,
    Instance,
    complete_k_subsets_instance,
    cycle_instance,
    erdos_renyi_instance,
)
from varalloc.oracle import (
    CovarianceSpec,
    EstimatorConfig,
    QuadratureError,
    derive_seed,
    expected_max_batch,
    expected_max_pair,
    graph_objective,
)
from varalloc.solvers import (
    BudgetError,
    _count_grid,
    _count_tables,
    _crn_greedy,
    _crn_matrix,
    _enumerate_grid,
    _enumerate_maximal,
    _greedy_runs,
    _grid_limit,
    _psd_candidates,
    _table_greedy,
    brute_force_grid,
    greedy_fixed_variance,
    log_approx_graph,
    ptas_correlated,
    ptas_independent,
    uniform,
    uniform_allocation,
)

PHI0 = 0.3989422804014327
INV_SQRT_PI = 0.5641895835477563

CFG = EstimatorConfig()


def single_set_instance(means):
    return Instance(len(means), means, [tuple(range(len(means)))])


def report_fields(report):
    return dataclasses.replace(report, elapsed=0.0)


class TestUniform:
    def test_values(self):
        assert uniform_allocation(cycle_instance(4, 0)).stddevs == (0.5,) * 4
        assert uniform_allocation(single_set_instance([1.0])).stddevs == (1.0,)

    def test_budget_exact(self):
        for n in (1, 2, 3, 5, 7):
            alloc = uniform_allocation(single_set_instance([0.0] * n))
            assert sum(s * s for s in alloc.stddevs) == pytest.approx(1.0, abs=1e-12)

    def test_solver_reports_like_the_others(self):
        inst = cycle_instance(4, 0)
        rep = uniform(inst, CFG)
        assert rep.algorithm == "uniform"
        assert rep.allocation == uniform_allocation(inst)
        assert rep.objective == graph_objective(inst, rep.allocation, CFG)
        assert rep.support_size == 4
        assert rep.elapsed > 0.0


class TestPtasIndependent:
    def test_two_variables_full_budget(self):
        rep = ptas_independent(single_set_instance([0.0, 0.0]), 0.5, CFG)
        assert rep.objective.value == pytest.approx(PHI0, abs=1e-3)
        assert sum(s * s for s in rep.allocation.stddevs) == pytest.approx(1.0, abs=1e-9)

    def test_single_variable(self):
        rep = ptas_independent(single_set_instance([5.0]), 0.5, CFG)
        assert rep.objective.value == pytest.approx(5.0, abs=1e-12)

    def test_three_variables_within_eps_of_best(self):
        eps = 0.5
        rep = ptas_independent(single_set_instance([0.0] * 3), eps, CFG)
        brute = brute_force_grid(single_set_instance([0.0] * 3), eps**3, CFG)
        assert rep.objective.value >= brute.objective.value - 1e-6
        uniform_value = 3 / (2 * math.sqrt(math.pi)) * math.sqrt(1 / 3)
        assert rep.objective.value >= uniform_value - eps

    def test_containment_random_means(self):
        rng = np.random.default_rng(42)
        for n in (2, 3):
            means = rng.uniform(0, 1, n)
            for eps in (0.35, 0.5):
                rep = ptas_independent(single_set_instance(means), eps, CFG)
                brute = brute_force_grid(single_set_instance(means), eps**3, CFG)
                assert rep.objective.value >= brute.objective.value - 1e-6

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ptas_independent(cycle_instance(4, 0), 0.5, CFG)  # m != 1
        with pytest.raises(ValueError):
            ptas_independent(single_set_instance([0.0]), 1.5, CFG)
        with pytest.raises(ValueError):
            ptas_independent(single_set_instance([0.0] * 12), 0.2, CFG)  # desk cap

    def test_node_budget(self):
        with pytest.raises(BudgetError) as exc:
            ptas_independent(single_set_instance([0.0] * 4), 0.35, CFG, node_budget=100)
        assert exc.value.required > 100

    def test_determinism(self):
        a = ptas_independent(single_set_instance([0.3, 0.8]), 0.5, CFG)
        b = ptas_independent(single_set_instance([0.3, 0.8]), 0.5, CFG)
        assert report_fields(a) == report_fields(b)


class TestMaximalGrid:
    @pytest.mark.parametrize("n,eps", [(1, 0.5), (2, 0.5), (3, 0.35), (4, 0.4)])
    def test_ordered_subset_that_dominates_the_grid(self, n, eps):
        step = eps**3
        limit = _grid_limit(step * step, 1, "grid")
        grid = _enumerate_grid(n, limit)
        frontier = _enumerate_maximal(n, limit)
        rows = [tuple(r) for r in frontier.tolist()]
        assert rows == sorted(rows)
        assert set(rows) <= {tuple(r) for r in grid.tolist()}
        # No coordinate of a frontier row can take one more step.
        used = np.square(frontier).sum(axis=1)
        assert (used + 2 * frontier.min(axis=1) + 1 > limit).all()
        dominated = np.zeros(len(grid), dtype=bool)
        for row in frontier:
            dominated |= (grid <= row).all(axis=1)
        assert dominated.all()

    def test_row_count(self):
        step = 0.4**3
        assert _enumerate_maximal(4, _grid_limit(step * step, 1, "grid")).shape == (784, 4)
        assert _enumerate_grid(4, _grid_limit(step * step, 1, "grid")).shape == (22672, 4)

    def test_enumeration_memory_near_result_size(self):
        # 1,018,899 rows (23 MiB): the rows are built as arrays, not as a list
        # of tuples that takes about five times the result.
        tracemalloc.start()
        try:
            grid = _enumerate_grid(3, 15400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (1_018_899, 3)
        assert peak < 3 * grid.nbytes

    @pytest.mark.parametrize("n_coords, limit", [(1, 7), (2, 30), (3, 12), (4, 9)])
    def test_rows_are_the_filtered_product(self, n_coords, limit):
        # The default squares (the deviation grid) and the identity table
        # (ptas_correlated's diagonals), in lexicographic product order.
        values = range(limit + 1)
        for costs, rows in (([k * k for k in values], _enumerate_grid(n_coords, limit)),
                            (values, _enumerate_grid(n_coords, limit, np.arange(limit + 1)))):
            expected = [list(d) for d in itertools.product(values, repeat=n_coords)
                        if sum(costs[k] for k in d) <= limit]
            assert rows.tolist() == expected

    def test_same_allocation_as_full_grid(self):
        rng = np.random.default_rng(2024)
        for n in (2, 3, 4):
            inst = single_set_instance(rng.uniform(0, 1, n))
            for eps in (0.4, 0.5):
                rep = ptas_independent(inst, eps, CFG)
                brute = brute_force_grid(inst, eps**3, CFG)
                assert rep.allocation == brute.allocation

    def test_tie_goes_to_first_maximal_point(self):
        # Every grid point scores 10 up to rounding: the full grid's first
        # argmax is the origin, the frontier's is the maximal point (3, 7).
        inst = single_set_instance([0.0, 10.0])
        rep = ptas_independent(inst, 0.5, CFG)
        brute = brute_force_grid(inst, 0.5**3, CFG)
        assert [s / 0.125 for s in rep.allocation.stddevs] == [3.0, 7.0]
        assert brute.allocation.stddevs == (0.0, 0.0)
        assert rep.objective.value == pytest.approx(10.0, abs=1e-15)
        assert brute.objective.value == pytest.approx(10.0, abs=1e-15)


class TestBruteForce:
    def test_cycle_optimum_at_uniform(self):
        rep = brute_force_grid(cycle_instance(4, 0), 0.25, CFG)
        assert rep.allocation.stddevs == (0.5,) * 4
        assert rep.objective.value == pytest.approx(math.sqrt(4 / math.pi), abs=1e-9)

    def test_single_variable_set(self):
        rep = brute_force_grid(Instance(1, (2.5,), [(0,)]), 0.5, CFG)
        assert rep.objective.value == pytest.approx(2.5, abs=1e-12)

    def test_pair_full_budget(self):
        rep = brute_force_grid(single_set_instance([0.0, 0.0]), 0.5, CFG)
        assert rep.objective.value == pytest.approx(PHI0, abs=1e-9)

    def test_budget_failure_reports_requirement(self):
        with pytest.raises(BudgetError) as exc:
            brute_force_grid(single_set_instance([0.0] * 4), 0.01, CFG, node_budget=1000)
        assert exc.value.required > 1000

    def test_cycle_no_grid_point_beats_uniform(self):
        for n in (3, 4, 6):
            inst = cycle_instance(n, 0.0)
            brute = brute_force_grid(inst, 0.25, CFG)
            uni = graph_objective(inst, uniform_allocation(inst), CFG)
            assert brute.objective.value <= uni.value + 1e-6


class TestBudgetCheckedFirst:
    """An over-budget grid is refused before it is counted or listed."""

    @staticmethod
    def refused(solve) -> tuple[BudgetError, int]:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as exc:
                solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return exc.value, peak

    def test_brute_force_refused_before_counting(self):
        # Counting this grid (limit 10^6) takes two 8 MB arrays.
        err, peak = self.refused(
            lambda: brute_force_grid(single_set_instance([0.0] * 3), 0.001, CFG))
        assert peak < 2**20
        assert "needs at least" in str(err) and err.required > err.budget

    def test_ptas_correlated_refused_before_listing_diagonals(self):
        # Listing the 1,373,701 diagonals of this grid takes about 100 MB.
        err, peak = self.refused(
            lambda: ptas_correlated(single_set_instance([0.0] * 3), 0.3, 0.005, CFG))
        assert peak < 2**20
        assert "needs at least" in str(err) and err.required > err.budget

    def test_exact_count_when_the_lower_bound_fits(self):
        limit = _grid_limit(0.1 * 0.1, 1, "grid")
        low = (math.isqrt(limit // 3) + 1) ** 3
        with pytest.raises(BudgetError) as exc:
            brute_force_grid(single_set_instance([0.0] * 3), 0.1, CFG, node_budget=low)
        assert exc.value.required == len(_enumerate_grid(3, limit)) > low
        assert "at least" not in str(exc.value)

    @pytest.mark.parametrize("s, cap", [(2, 2), (2, 7), (2, 50), (3, 2), (3, 6), (3, 20), (3, 45)])
    def test_ptas_correlated_count_matches_isqrt_caps(self, s, cap):
        # Reference count: per diagonal, the product of 2 isqrt(d_i d_j) + 1 over the pairs.
        pairs = list(itertools.combinations(range(s), 2))
        expected = sum(
            math.prod(2 * math.isqrt(d[i] * d[j]) + 1 for i, j in pairs)
            for d in itertools.product(range(cap + 1), repeat=s) if sum(d) <= cap
        )
        low = math.comb(cap + s, s)  # passes the lower bound, so the exact count runs
        with pytest.raises(BudgetError) as exc:
            ptas_correlated(single_set_instance([0.0] * s), 0.5, 1.0 / cap, CFG, node_budget=low)
        assert exc.value.required == expected > low
        assert "at least" not in str(exc.value)

    def test_ptas_correlated_large_count_is_exact(self):
        # 487,344 diagonals at cap 141 pass the lower bound of the default budget.
        with pytest.raises(BudgetError) as exc:
            ptas_correlated(single_set_instance([0.0] * 3), 0.6, 0.00709, CFG)
        assert exc.value.required == 89_063_976_900

    @pytest.mark.parametrize("n_coords", [1, 2, 3, 4])
    def test_count_matches_enumeration(self, n_coords):
        for limit in (0, 1, 2, 3, 4, 15, 16, 17, 100, 543):
            assert _count_grid(n_coords, limit) == len(_enumerate_grid(n_coords, limit))


def record_crn_means(patch) -> list:
    """Patch ``solvers._crn_mean`` to record every candidate's value, in order."""
    values, crn_mean = [], solvers._crn_mean

    def spy(*args, **kwargs):
        values.append(crn_mean(*args, **kwargs))
        return values[-1]

    patch.setattr(solvers, "_crn_mean", spy)
    return values


class TestPtasCorrelated:
    # The report checks re-estimate the winner by Monte Carlo, so that they
    # keep testing the sampler; under auto a winner of rank <= 2 is exact.
    MC = EstimatorConfig(method="monte_carlo")

    def test_finds_anti_correlation(self):
        rep = ptas_correlated(single_set_instance([0.0, 0.0]), 0.7, 0.25, self.MC)
        m = rep.allocation.matrix
        assert m[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert m[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert rep.allocation.trace <= 1.0 + 1e-9
        assert rep.support_size == 2
        assert rep.objective.value == pytest.approx(
            INV_SQRT_PI, abs=3 * rep.objective.half_width
        )

    def test_single_variable(self):
        rep = ptas_correlated(single_set_instance([3.0]), 0.7, 0.5, self.MC)
        assert rep.objective.value == pytest.approx(3.0, abs=3 * rep.objective.half_width + 1e-9)

    def test_mean_dominated_instance(self):
        # All-zero matrix is always feasible, so the objective is at least
        # the best mean.
        rep = ptas_correlated(single_set_instance([4.0, 0.1]), 0.7, 0.5, self.MC)
        assert rep.objective.value >= 4.0 - 3 * rep.objective.half_width - 1e-9

    def test_exact_report_under_auto(self):
        # Rank 1: the anti-correlated pair, whose value is 1/sqrt(pi).
        rep = ptas_correlated(single_set_instance([0.0, 0.0]), 0.7, 0.25, CFG)
        assert rep.objective.half_width == 0.0
        assert rep.objective.method_used == "closed_form"
        assert rep.objective.value == pytest.approx(INV_SQRT_PI, abs=1e-15)
        # Rank 2 on a support of two out of four, within 3 half-widths of the
        # 2,000,000-sample estimate that the report held before.
        rep = ptas_correlated(single_set_instance([0.54, 0.52, 0.21, 0.4]), 0.6, 0.2, CFG)
        assert np.linalg.matrix_rank(rep.allocation.matrix) == 2
        assert rep.objective.half_width == 0.0
        assert rep.objective.method_used == "quadrature"
        mc = oracle.expected_max_correlated(rep.allocation, self.MC)
        assert rep.objective.value == pytest.approx(mc.value, abs=3 * mc.half_width)

    def test_default_grid_step_is_eps_cubed(self):
        rep = ptas_correlated(single_set_instance([0.0]), 0.8, None, CFG)
        assert rep.grid_step == pytest.approx(0.8**3)

    def test_dominates_independent_on_zero_mean_pair(self):
        ind = ptas_independent(single_set_instance([0.0, 0.0]), 0.5, CFG)
        corr = ptas_correlated(single_set_instance([0.0, 0.0]), 0.7, 0.25, self.MC)
        slack = corr.objective.half_width + ind.objective.half_width
        assert corr.objective.value >= ind.objective.value - slack

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ptas_correlated(cycle_instance(4, 0), 0.7, 0.25, CFG)
        with pytest.raises(ValueError):
            ptas_correlated(single_set_instance([0.0] * 8), 0.3, 0.25, CFG)  # cap
        with pytest.raises(BudgetError):
            ptas_correlated(single_set_instance([0.0, 0.0]), 0.7, 0.01, CFG, node_budget=10)

    @pytest.mark.parametrize("diag,step", [((2, 3, 0), 0.2), ((3, 2, 3), 0.125), ((4, 4), 0.125)])
    def test_stacked_eigen_filter_matches_per_matrix_loop(self, diag, step):
        s = len(diag)
        pairs = list(itertools.combinations(range(s), 2))
        caps = [math.isqrt(diag[i] * diag[j]) for i, j in pairs]
        want_subs, want_factors = [], []
        for off in itertools.product(*(range(-c, c + 1) for c in caps)):
            sub = np.diag(np.asarray(diag, dtype=float) * step)
            for (i, j), o in zip(pairs, off):
                sub[i, j] = sub[j, i] = o * step
            w, vecs = np.linalg.eigh(sub)
            if w[0] < CovarianceSpec.PSD_TOL:
                continue
            want_subs.append(sub)
            want_factors.append(vecs * np.sqrt(np.clip(w, 0.0, None)))
        chunks = list(_psd_candidates(np.array([diag]), np.array([caps]), step))
        subs = np.concatenate([c[0] for c in chunks])
        factors = np.concatenate([c[1] for c in chunks])
        assert np.array_equal(subs, np.array(want_subs))
        assert np.array_equal(factors, np.array(want_factors))

    @pytest.mark.parametrize("s, step", [(2, 0.125), (3, 0.25)])
    def test_stream_across_diagonals_matches_per_matrix_loop(self, monkeypatch, s, step):
        # Chunks of 7 straddle diagonals; the stream keeps diagonal order, then
        # product order, and the bits of each matrix and factor.
        monkeypatch.setattr(solvers, "_EIGH_CHUNK", 7)
        cap = round(1 / step)
        diags = _enumerate_grid(s, cap, np.arange(cap + 1))
        pairs = list(itertools.combinations(range(s), 2))
        caps = np.array([[math.isqrt(d[i] * d[j]) for i, j in pairs] for d in diags.tolist()])
        want_subs, want_factors = [], []
        for diag, diag_caps in zip(diags.tolist(), caps.tolist()):
            for off in itertools.product(*(range(-c, c + 1) for c in diag_caps)):
                sub = np.diag(np.asarray(diag, dtype=float) * step)
                for (i, j), o in zip(pairs, off):
                    sub[i, j] = sub[j, i] = o * step
                w, vecs = np.linalg.eigh(sub)
                if w[0] >= CovarianceSpec.PSD_TOL:
                    want_subs.append(sub)
                    want_factors.append(vecs * np.sqrt(np.clip(w, 0.0, None)))
        chunks = list(_psd_candidates(diags, caps, step))
        total = sum(math.prod(2 * c + 1 for c in row) for row in caps.tolist())
        assert len(chunks) == -(-total // 7)  # full chunks of 7 until the last
        assert np.array_equal(np.concatenate([c[0] for c in chunks]), np.array(want_subs))
        assert np.array_equal(np.concatenate([c[1] for c in chunks]), np.array(want_factors))

    def test_one_eigh_call_per_chunk_across_diagonals(self, monkeypatch):
        # At n = 3 and step 0.2 the 56 diagonals' candidates fit in one chunk:
        # one stacked eigh call filters them, one on the survivors' 2 x 2 Gram
        # matrices scores them, and one more on the winner's scores the report.
        shapes, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        ptas_correlated(single_set_instance([0.3, 0.1, 0.5]), 0.6, 0.2, CFG)
        assert [shape[1:] for shape in shapes] == [(3, 3), (2, 2), (2, 2)]
        assert shapes[0][0] >= shapes[1][0] > len(_enumerate_grid(3, 5, np.arange(6)))
        assert shapes[2][0] == 1

    @pytest.mark.parametrize("tile", [1_000, 2**14])
    def test_crn_mean_takes_the_floor_after_the_chain(self, monkeypatch, tile):
        # The floor of the off-support means enters after each tile's chain; one
        # floor above every sample gives it everywhere, one below nowhere.
        monkeypatch.setattr(oracle, "_SAMPLE_TILE", tile)
        z_sup = np.random.default_rng(6).standard_normal((5_000, 3)).T
        factor = np.array([[0.5, 0.0, 0.0], [0.3, 0.4, 0.0], [-0.2, 0.1, 0.3]])
        mu = np.array([0.2, 0.1, 0.4])
        maxima = oracle.row_max(factor @ z_sup, range(3), mu)
        top = np.empty(5_000)
        assert solvers._crn_mean(factor, z_sup, mu, None, top) == float(maxima.mean())
        assert np.array_equal(top, maxima)
        above, below = float(maxima.max()) + 0.5, float(maxima.min()) - 0.5
        value = solvers._crn_mean(factor, z_sup, mu, above, top)
        assert (top == above).all() and value == float(top.mean())
        assert solvers._crn_mean(factor, z_sup, mu, below, top) == float(maxima.mean())
        assert np.array_equal(top, maxima)

    def test_column_max_chain_equals_row_max(self):
        x = np.random.default_rng(3).standard_normal((4096, 3))
        top = np.maximum(x[:, 0], -math.inf)
        for col in (1, 2):
            np.maximum(top, x[:, col], out=top)
        assert np.array_equal(top, x.max(axis=1))

    @pytest.mark.parametrize("means", [[0.3, 0.1, 0.5, 0.2], [0.0, 0.0, 0.0, 0.1]])
    def test_matches_sample_major_reference(self, monkeypatch, means):
        # s = 3 < n: three lines and the floor, the one case scored under CRN.
        eps, step = 0.6, 0.5
        inst = single_set_instance(means)
        values = record_crn_means(monkeypatch)
        rep = ptas_correlated(inst, eps, step, CFG)

        # The sample-major layout: (samples, s) blocks ``z[:, sup] @ factor.T``
        # and a column chain, with the floor right after the first column.
        n, s = inst.n, min(math.ceil(1.0 / eps**2), inst.n)
        cap = int(1.0 / step + 1e-9)
        pairs = list(itertools.combinations(range(s), 2))
        z = _crn_matrix(derive_seed(CFG.seed, "crn"), solvers._CRN_SAMPLES_GRID, n)
        want, best_val, best = [], -math.inf, None
        for support in itertools.combinations(range(n), s):
            sup = list(support)
            rest_mu = max((means[i] for i in range(n) if i not in support), default=-math.inf)
            diags = (d for d in itertools.product(range(cap + 1), repeat=s) if sum(d) <= cap)
            for diag in diags:
                caps = [math.isqrt(diag[i] * diag[j]) for i, j in pairs]
                for subs, factors in _psd_candidates(np.array([diag]), np.array([caps]), step):
                    for sub, factor in zip(subs, factors):
                        y = z[:, sup] @ factor.T
                        top = y[:, 0] + means[sup[0]]
                        np.maximum(top, rest_mu, out=top)
                        for c in range(1, s):
                            np.maximum(top, y[:, c] + means[sup[c]], out=top)
                        want.append(float(top.mean()))
                        if want[-1] > best_val:
                            best_val, best = want[-1], np.zeros((n, n))
                            best[np.ix_(sup, sup)] = sub
        assert len(want) > 10 and values == want
        assert np.array_equal(rep.allocation.matrix, best)

    @pytest.mark.parametrize("tile", [1_000, 4_096, 2**18])
    def test_does_not_depend_on_the_tile(self, monkeypatch, tile):
        # Candidates score 65,536 CRN samples, the winner 300,000 Monte Carlo
        # samples (chunks of 262,144 and 37,856); s = 3 < n takes the floor.
        inst = single_set_instance([0.3, 0.1, 0.5, 0.2])
        cfg = EstimatorConfig(method="monte_carlo", seed=4, mc_samples=300_000)

        def solve():
            with monkeypatch.context() as patch:
                values = record_crn_means(patch)
                return report_fields(ptas_correlated(inst, 0.6, 0.5, cfg)), values

        want = solve()
        assert len(want[1]) > 10
        monkeypatch.setattr(oracle, "_SAMPLE_TILE", tile)
        assert solve() == want

    def test_determinism(self):
        a = ptas_correlated(single_set_instance([0.0, 0.0]), 0.7, 0.25, CFG)
        b = ptas_correlated(single_set_instance([0.0, 0.0]), 0.7, 0.25, CFG)
        assert report_fields(a) == report_fields(b)

    @pytest.mark.parametrize("means,eps,step", [
        ([0.3, 0.1, 0.5], 0.6, 0.2),    # s = n = 3: three lines
        ([0.3, 0.1, 0.5], 0.8, 0.25),   # s = 2 < n: two lines and the floor
        ([0.0, 0.0], 0.7, 0.25),        # s = n = 2
        ([0.4], 0.7, 0.25),             # s = n = 1: one line
    ])
    def test_exact_scores_match_one_candidate_reference(self, monkeypatch, means, eps, step):
        # Each chunk's survivors are scored by one call; every score has the
        # bits of the candidate's call alone, and the first maximum wins.
        scores = []
        three_lines = solvers._three_line_maxima

        def spy(*args):
            out = three_lines(*args)
            scores.append(out[0])
            return out

        monkeypatch.setattr(solvers, "_three_line_maxima", spy)
        crn = record_crn_means(monkeypatch)
        rep = ptas_correlated(single_set_instance(means), eps, step, CFG)

        n, s = len(means), min(math.ceil(1.0 / eps**2), len(means))
        cap = int(1.0 / step + 1e-9)
        pairs = list(itertools.combinations(range(s), 2))
        want, best_val, best = [], -math.inf, None
        for support in itertools.combinations(range(n), s):
            sup = list(support)
            rest = [means[i] for i in range(n) if i not in support]
            lines = [means[i] for i in sup] + ([max(rest)] if rest else [])
            diags = (d for d in itertools.product(range(cap + 1), repeat=s) if sum(d) <= cap)
            for diag in diags:
                caps = [math.isqrt(diag[i] * diag[j]) for i, j in pairs]
                for subs, _ in _psd_candidates(np.array([diag]), np.array([caps]), step):
                    for sub in subs:
                        cov = np.zeros((len(lines), len(lines)))
                        cov[:s, :s] = sub
                        (value,), _, _ = oracle._three_line_maxima(
                            np.array([lines]), cov[None], CFG.quadrature_tolerance)
                        want.append(value)
                        if value > best_val:
                            best_val, best = value, np.zeros((n, n))
                            best[np.ix_(sup, sup)] = sub
        assert crn == [] and len(want) > 4
        assert np.concatenate(scores).tolist() == want
        assert np.array_equal(rep.allocation.matrix, best)

    @pytest.mark.parametrize("means,eps", [([0.62, 0.19, 0.45], 0.6), ([0.62, 0.19, 0.45], 0.8)])
    def test_winner_does_not_depend_on_the_seed(self, monkeypatch, means, eps):
        # Floor-free and floored supports of at most three lines draw no samples.
        drawn = []
        monkeypatch.setattr(solvers, "_crn_matrix", lambda *args: drawn.append(args))
        a, b = (ptas_correlated(single_set_instance(means), eps, 0.2, EstimatorConfig(seed=seed))
                for seed in (1, 101))
        assert report_fields(a) == report_fields(b) and drawn == []
        assert a.objective.half_width == 0.0

    def test_four_lines_keep_the_crn_scorer(self, monkeypatch):
        # s = 3 < n: every support has three lines and the floor.
        crn = record_crn_means(monkeypatch)
        monkeypatch.setattr(solvers, "_three_line_maxima", None)  # never called
        ptas_correlated(single_set_instance([0.3, 0.1, 0.5, 0.2]), 0.6, 0.5, CFG)
        assert len(crn) > 10

    def test_non_finite_score_raises(self, monkeypatch):
        three_lines = solvers._three_line_maxima

        def poisoned(*args):
            values, took, failed = three_lines(*args)
            values[3] = math.nan
            return values, took, failed

        monkeypatch.setattr(solvers, "_three_line_maxima", poisoned)
        with pytest.raises(oracle.EstimationError, match="not finite"):
            ptas_correlated(single_set_instance([0.3, 0.1, 0.5]), 0.6, 0.2, CFG)


class TestLogApprox:
    def test_cycle_matches_uniform_round(self):
        rep = log_approx_graph(cycle_instance(4, 0), CFG)
        assert rep.allocation.stddevs == (0.5,) * 4
        assert rep.objective.value == pytest.approx(math.sqrt(4 / math.pi), abs=1e-6)

    def test_single_pair_set(self):
        inst = Instance(2, (0.0, 0.0), [(0, 1)])
        rep = log_approx_graph(inst, CFG)
        assert rep.objective.value >= PHI0 - rep.objective.half_width - 1e-9

    def test_singleton_only_instance(self):
        inst = Instance(3, (1.5, 0.25, 2.0), [(0,), (1,), (2,), (1,)])
        rep = log_approx_graph(inst, CFG)
        assert rep.allocation.stddevs == (0.0, 0.0, 0.0)
        assert rep.objective.value == pytest.approx(1.5 + 0.25 + 2.0 + 0.25, abs=1e-12)

    def test_budget_never_exceeded(self):
        rep = log_approx_graph(cycle_instance(7, 0.1), CFG)
        assert sum(s * s for s in rep.allocation.stddevs) <= 1.0 + 1e-9

    def test_determinism(self):
        a = log_approx_graph(cycle_instance(5, 0.2), CFG)
        b = log_approx_graph(cycle_instance(5, 0.2), CFG)
        assert report_fields(a) == report_fields(b)


class TestGreedyFixedVariance:
    def test_single_set_unit_level(self):
        sel, est = greedy_fixed_variance(single_set_instance([0.0] * 3), 1.0, 1, CFG)
        assert sel == {0}  # symmetric gains tie to the lowest index
        assert est.value == pytest.approx(PHI0, abs=1e-9)

    def test_cardinality_zero(self):
        inst = Instance(3, (1.0, 2.0, 0.0), [(0, 1), (2,)])
        sel, est = greedy_fixed_variance(inst, 0.5, 0, CFG)
        assert sel == set()
        assert est.value == pytest.approx(2.0 + 0.0, abs=1e-12)

    def test_skips_singleton_only_variable(self):
        inst = Instance(3, (0.0,) * 3, [(0,), (1, 2)])
        sel, _ = greedy_fixed_variance(inst, 1.0, 1, CFG)
        assert sel <= {1, 2} and len(sel) == 1

    def test_budget_precondition(self):
        with pytest.raises(ValueError):
            greedy_fixed_variance(single_set_instance([0.0] * 3), 0.5, 3, CFG)

    def test_matches_exhaustive_within_factor(self):
        # 1 - 1/e guarantee against the exhaustive best subset of the same size.
        rng = np.random.default_rng(17)
        factor = 1.0 - 1.0 / math.e
        import itertools

        for trial in range(6):
            n = int(rng.integers(4, 9))
            m = int(rng.integers(2, 7))
            sets = []
            for _ in range(m):
                size = int(rng.integers(1, n + 1))
                sets.append(tuple(sorted(rng.choice(n, size=size, replace=False))))
            inst = Instance(n, rng.uniform(0, 0.5, n), sets)
            card = int(rng.integers(1, 4))
            level = float(rng.uniform(0.1, 1.0 / card))
            sel, est = greedy_fixed_variance(inst, level, card, CFG)

            best = -math.inf
            means = inst.means_array()
            for subset in itertools.combinations(range(n), card):
                sigma = np.zeros(n)
                sigma[list(subset)] = math.sqrt(level)
                total = 0.0
                for members in inst.sets:
                    idx = np.asarray(members)
                    total += float(expected_max_batch(means[idx], sigma[None, idx])[0])
                best = max(best, total)
            assert est.value >= factor * best - est.half_width - 1e-6


def reference_crn_greedy(means, sets, z, sdev, picks, stop_without_gain=False):
    """Plain CRN greedy: every set's sample mean is recomputed from scratch.

    A set with no assigned member is worth its largest mean; otherwise each
    sample takes the max over assigned terms ``means[i] + sdev * z[:, i]``
    and unassigned means.  Candidate totals add per-set differences to the
    running total in ascending set order; ties go to the lowest index.
    """
    means = np.asarray(means, dtype=float)
    n = len(means)
    terms = [means[i] + sdev * z[:, i] for i in range(n)]
    taken = [False] * n

    def set_value(members):
        if not any(taken[i] for i in members):
            return max(means[i] for i in members)
        cols = [terms[i] if taken[i] else np.full(z.shape[0], means[i]) for i in members]
        return float(np.max(cols, axis=0).mean())

    cur = [set_value(s) for s in sets]
    total = math.fsum(cur)
    chosen = []
    for _ in range(picks):
        best_i, best_obj = -1, -math.inf
        for i in range(n):
            if taken[i]:
                continue
            taken[i] = True
            obj = total
            for j, members in enumerate(sets):
                if i in members:
                    obj += set_value(members) - cur[j]
            taken[i] = False
            if obj > best_obj:
                best_i, best_obj = i, obj
        if best_i < 0 or (stop_without_gain and best_obj - total <= 0.0):
            break
        chosen.append(best_i)
        taken[best_i] = True
        for j, members in enumerate(sets):
            if best_i in members:
                new = set_value(members)
                total += new - cur[j]
                cur[j] = new
    return chosen, total


REF_SAMPLES = 2048


def _reference_instances():
    # Erdos-Renyi memberships plus a singleton set; means zero, U(0, 1), or
    # tied integers, whose sets often have a unique top mean next to ties.
    for rep in range(3):
        base = erdos_renyi_instance(10, 16, 0.35, 40 + rep)
        rng = np.random.default_rng([40, rep])
        for means in (np.zeros(10), rng.uniform(0, 1, 10), rng.integers(0, 3, 10)):
            sets = list(base.sets) + [(int(rng.integers(10)),)]
            yield Instance(10, [float(x) for x in means], sets), 40 + rep


def reference_log_approx(inst, seed):
    """The allocation of the best reference round: the exact greedy per level
    with every mean zero, the 2,048-sample CRN greedy otherwise."""
    work = [s for s in inst.sets if len(s) >= 2]
    if inst.means_array().any():
        z = _crn_matrix(derive_seed(seed, "crn"), REF_SAMPLES, inst.n)
        levels = [(2.0 ** (-k), *reference_crn_greedy(inst.means, work, z, 2.0 ** (-k),
                                                       min(4**k, inst.n)))
                  for k in range(int(math.floor(math.log2(inst.n))) + 1)]
    else:
        levels = per_level_greedy(work, inst.n)
    best_val, best_sigma = -math.inf, None
    for sdev, chosen, total in levels:
        if total > best_val:
            best_val, best_sigma = total, np.zeros(inst.n)
            best_sigma[chosen] = sdev
    return tuple(best_sigma)


def reference_fixed_variance(inst, seed, sdev, card):
    """The reference picks of ``greedy_fixed_variance`` on the sets of two or
    more members: exact with every mean zero, 2,048-sample CRN otherwise."""
    work = [s for s in inst.sets if len(s) >= 2]
    if not inst.means_array().any():
        return set(reference_exact_greedy(work, inst.n, sdev, card, stop_without_gain=True)[0])
    z = _crn_matrix(derive_seed(seed, "crn"), REF_SAMPLES, inst.n)
    return set(reference_crn_greedy(inst.means, work, z, sdev, card, stop_without_gain=True)[0])


@pytest.fixture
def ref_samples(monkeypatch):
    """The CRN greedy on the references' 2,048 samples instead of 32,768."""
    monkeypatch.setattr(solvers, "_CRN_SAMPLES_GREEDY", REF_SAMPLES)


def assert_every_prefix_matches_reference(seed, means, sets, z, sdev, picks):
    """The engine's picks and its total after each one equal the reference's."""
    chosen, totals = _crn_greedy(seed, z.shape[0], means, sdev, sets, picks)
    assert len(chosen) == picks and len(totals) == picks + 1
    for p in range(picks + 1):
        assert (chosen[:p], totals[p]) == reference_crn_greedy(means, sets, z, sdev, p)


class TestCrnGreedyEngine:
    def test_matches_reference_on_every_level(self):
        for inst, seed in _reference_instances():
            means = inst.means_array()
            z = _crn_matrix(seed, REF_SAMPLES, inst.n)
            for k in range(4):
                assert_every_prefix_matches_reference(seed, means, inst.sets, z, 2.0 ** (-k),
                                                      min(4**k, inst.n))

    def test_log_approx_picks_the_reference_level(self, ref_samples):
        for inst, seed in _reference_instances():
            rep = log_approx_graph(inst, EstimatorConfig(seed=seed))
            assert rep.allocation.stddevs == reference_log_approx(inst, seed)

    def test_unique_top_mean_holder(self):
        # Variable 0 holds the unique top mean of both sets; its own floor is
        # the second mean (1.0 or 0.0), the others' floor is 3.0.
        inst = Instance(4, (3.0, 1.0, 0.5, 0.0), [(0, 1, 2), (0, 3)])
        means = inst.means_array()
        z = _crn_matrix(5, REF_SAMPLES, 4)
        for sdev in (4.0, 2.0, 1.0):
            assert_every_prefix_matches_reference(5, means, inst.sets, z, sdev, 3)

    def test_fixed_variance_stops_without_gain(self, ref_samples):
        # Variables 1 and 2 sit below a mean of 9 at sdev 0.5: their gain is
        # exactly zero, so at most variable 0 is chosen of the four allowed.
        inst = Instance(3, (9.0, 0.0, 0.0), [(0, 1, 2)])
        sel, _ = greedy_fixed_variance(inst, 0.25, 4, CFG)
        assert sel == reference_fixed_variance(inst, CFG.seed, 0.5, 4) and len(sel) <= 1

    def test_fixed_variance_runs_out_of_candidates(self, ref_samples):
        # Both engines: the exact one with zero means, the CRN one with a mean of 0.5.
        for means in ((0.0, 0.0), (0.5, 0.0)):
            inst = Instance(2, means, [(0, 1)])
            sel, _ = greedy_fixed_variance(inst, 0.25, 4, CFG)
            assert sel == reference_fixed_variance(inst, CFG.seed, 0.5, 4) == {0, 1}

    def test_fixed_variance_matches_reference(self, ref_samples):
        for inst, seed in _reference_instances():
            for level, card in ((0.25, 4), (0.1, 10)):
                sel, _ = greedy_fixed_variance(inst, level, card, EstimatorConfig(seed=seed))
                assert sel == reference_fixed_variance(inst, seed, math.sqrt(level), card)

    def test_fixed_variance_ignores_singleton_sets(self):
        # Variable 0 is only in a size-1 set, so its true gain is 0 at any
        # deviation; a sampled gain sdev * mean(z_0) must not select it.
        inst = Instance(3, (0.5,) * 3, [(0,), (1, 2)])
        for seed in range(20):
            sel, _ = greedy_fixed_variance(inst, 1.0 / 3.0, 3, EstimatorConfig(seed=seed))
            assert sel == {1, 2}
        for means in ((0.0,) * 3, (1.5, 0.25, 2.0)):
            inst = Instance(3, means, [(0,), (1,), (2,), (1,)])
            for seed in range(5):
                sel, _ = greedy_fixed_variance(inst, 1.0 / 3.0, 3, EstimatorConfig(seed=seed))
                assert sel == set()

    def test_log_approx_memory_is_bounded(self):
        # With a nonzero mean: the CRN terms (n rows), one running maximum per
        # set (m) and a few buffers of 32,768 samples each; nothing may scale
        # with n * m.  With zero means no sample is drawn, and the count
        # tables' quadrature slabs stay below eight such rows.
        sets = erdos_renyi_instance(24, 72, 0.5, 7).sets
        peaks = []
        for means in ((0.0,) * 24, (0.0,) * 23 + (0.5,)):
            tracemalloc.start()
            try:
                log_approx_graph(Instance(24, means, sets), EstimatorConfig(seed=7))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 8 * 32_768 * 8
        assert peaks[1] <= (24 + len(sets) + 8) * 32_768 * 8


TIE_TOL = 1e-9


def reference_exact_greedy(sets, n, sdev, picks, stop_without_gain=False):
    """Zero-mean greedy scored from scratch on full set rows.

    Each candidate's objective is the ``math.fsum`` over every set of its
    ``expected_max_batch`` value on the set's row: zero means, ``sdev`` on
    the assigned members and on the candidate, zero elsewhere.  Equal rows
    are evaluated once, in one call per width.  Objectives within
    ``TIE_TOL`` of the best tie, and ties go to the lowest index.  Returns
    the picks and the final objective.
    """
    sets = [tuple(s) for s in sets]
    taken = np.zeros(n, dtype=bool)
    memo = {}

    def row(members, extra=-1):
        return np.array([sdev if taken[i] or i == extra else 0.0 for i in members])

    def values(rows):
        by_width = {}
        for r in rows:
            if r.tobytes() not in memo:
                by_width.setdefault(len(r), {})[r.tobytes()] = r
        for w, todo in by_width.items():
            vals = expected_max_batch(np.zeros(w), np.array(list(todo.values())))
            memo.update(zip(todo, vals.tolist()))
        return [memo[r.tobytes()] for r in rows]

    total = math.fsum(values([row(s) for s in sets]))
    chosen = []
    for _ in range(picks):
        cands = np.flatnonzero(~taken).tolist()
        base = values([row(s) for s in sets])
        swaps = [[(j, row(s, i)) for j, s in enumerate(sets) if i in s] for i in cands]
        values([r for swap in swaps for _, r in swap])
        objs = []
        for swap in swaps:
            vals = list(base)
            for j, r in swap:
                vals[j] = memo[r.tobytes()]
            objs.append(math.fsum(vals))
        if not cands or (stop_without_gain and max(objs) - total <= TIE_TOL):
            break
        best = next(i for i, obj in zip(cands, objs) if obj >= max(objs) - TIE_TOL)
        chosen.append(best)
        taken[best] = True
        total = math.fsum(values([row(s) for s in sets]))
    return chosen, total


def per_level_greedy(sets, n):
    """The exact reference greedy run separately at each level's sdev 2^-k."""
    levels = []
    for k in range(int(math.floor(math.log2(n))) + 1):
        chosen, total = reference_exact_greedy(sets, n, 2.0 ** (-k), min(4**k, n))
        levels.append((2.0 ** (-k), chosen, total))
    return levels


def assert_levels_match(got, want):
    assert [lv[:2] for lv in got] == [lv[:2] for lv in want]
    assert [lv[2] for lv in got] == pytest.approx([lv[2] for lv in want], rel=1e-12)


def greedy_levels(means, sets, n):
    """``(sdev, chosen, total)`` of ``_greedy_runs`` on log_approx_graph's levels."""
    levels = [(2.0 ** (-k), min(4**k, n)) for k in range(int(math.floor(math.log2(n))) + 1)]
    runs = _greedy_runs(means, sets, n, levels, CFG)
    return [(sdev, chosen, total) for (sdev, _), (chosen, total) in zip(levels, runs)]


class TestGreedyLevels:
    # n = 10 and 17 clamp 4^k to n on their last two levels; n = 16 meets it.
    CASES = [(7, 12, 0.4), (10, 16, 0.35), (16, 30, 0.3), (17, 24, 0.25)]

    @pytest.mark.parametrize("n, m, p", CASES)
    def test_zero_means_match_per_level_greedy(self, n, m, p):
        sets = [s for s in erdos_renyi_instance(n, m, p, n).sets if len(s) >= 2]
        signs = np.random.default_rng(n).random(n) < 0.5
        runs = [greedy_levels(means, sets, n)
                for means in (np.zeros(n), np.full(n, -0.0), np.where(signs, -0.0, 0.0))]
        got = runs[0]
        assert runs[1] == got and runs[2] == got  # the sign of a zero mean is moot
        assert_levels_match(got, per_level_greedy(sets, n))
        assert [len(chosen) for _, chosen, _ in got] == [min(4**k, n) for k in range(len(got))]

    def test_complete_k_and_zero_mean_cycle(self):
        for inst in (complete_k_subsets_instance(8, 3), cycle_instance(12, 0.0)):
            got = greedy_levels(inst.means_array(), inst.sets, inst.n)
            assert_levels_match(got, per_level_greedy(inst.sets, inst.n))

    @pytest.mark.parametrize("n", [5, 10, 17])
    def test_greedy_runs_once_only_with_zero_means(self, monkeypatch, ref_samples, n):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return _crn_greedy(*args, **kwargs)

        def counted_tables(*args, **kwargs):
            calls.append("table")
            return _table_greedy(*args, **kwargs)

        def no_samples(*args):
            raise AssertionError("zero means drew a CRN sample matrix")

        monkeypatch.setattr(solvers, "_crn_greedy", counted)
        monkeypatch.setattr(solvers, "_table_greedy", counted_tables)
        sets = erdos_renyi_instance(n, 2 * n, 0.4, 1).sets
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_crn_matrix", no_samples)
            log_approx_graph(Instance(n, (0.0,) * n, sets), CFG)
        assert calls == ["table"]
        calls.clear()
        means = (0.0,) * (n - 1) + (0.5,)
        log_approx_graph(Instance(n, means, sets), CFG)
        assert calls == [2.0 ** (-k) for k in range(int(math.floor(math.log2(n))) + 1)]


class TestTableGreedy:
    """The zero-mean count-table greedy against the exact reference."""

    @pytest.mark.parametrize("n, m, p, seeds", [(24, 72, 0.5, range(1, 6)),
                                                (64, 192, 0.3, range(1, 2))])
    def test_picks_match_exact_reference(self, n, m, p, seeds):
        for seed in seeds:
            sets = [s for s in erdos_renyi_instance(n, m, p, seed).sets if len(s) >= 2]
            chosen, totals = _table_greedy(sets, n, n, CFG.quadrature_tolerance)
            want, total = reference_exact_greedy(sets, n, 1.0, n)
            assert chosen == want
            assert totals[-1] == pytest.approx(total, rel=1e-12)

    def test_singletons_gain_nothing(self):
        # Variable 0 is only in a singleton: worth 0 at any deviation, so the
        # greedy stops after the pair's two members.
        inst = Instance(3, (0.0,) * 3, [(0,), (1, 2), (0,)])
        sel, _ = greedy_fixed_variance(inst, 1.0 / 3.0, 3, CFG)
        assert sel == {1, 2}
        (_, total2), (chosen, total3) = _greedy_runs(inst.means_array(), inst.sets, 3,
                                                     [(1.0, 2), (1.0, 3)], CFG)
        assert chosen == [1, 2, 0] and total3 == total2

    def test_equal_states_tie_in_any_set_order(self):
        # Variables 0 and 1 go first (most sets); then 2 and 3 each lie in four
        # sets in the states (width, picked) (8, 0), (11, 0), (3, 1), (12, 2),
        # listed in different orders.  A plain sum of their gains in set order
        # ranks 3 first by one ulp; the fsum ties them, and 2 wins.
        sets, nxt = [], 4

        def add(width, *members):
            nonlocal nxt
            sets.append((*members, *range(nxt, nxt + width - len(members))))
            nxt += width - len(members)

        for width, members in [(8, (2,)), (11, (2,)), (3, (0, 2)), (12, (0, 1, 2)),
                               (8, (3,)), (11, (3,)), (12, (0, 1, 3)), (3, (0, 3))]:
            add(width, *members)
        for d in (0, 1):
            for _ in range(10):
                add(2, d)
        chosen, _ = _table_greedy(sets, nxt, 3, CFG.quadrature_tolerance)
        assert chosen == [0, 1, 2]


class TestCountTables:
    def test_closed_forms(self):
        a, b = _count_tables([2, 3, 5], CFG.quadrature_tolerance)
        assert len(a) == 5 and sorted(b) == [2, 3, 5]
        assert a[0] == 0.0
        assert a[1] == pytest.approx(PHI0, abs=1e-12)
        assert b[2] == pytest.approx(expected_max_pair(0.0, 1.0, 0.0, 1.0), abs=1e-12)
        assert b[2] == pytest.approx(INV_SQRT_PI, abs=1e-12)
        # E max(0, M) = E M + int_0^inf P(M < -t) dt for M = max(Z_1, Z_2), and
        # int_0^inf Phi(-t)^2 dt = (sqrt 2 - 1) / (2 sqrt pi).
        assert a[2] == pytest.approx((1.0 + math.sqrt(2.0)) * INV_SQRT_PI / 2.0, abs=1e-12)
        _, b1 = _count_tables([1], CFG.quadrature_tolerance)
        assert b1[1] == pytest.approx(0.0, abs=1e-12)

    def test_increasing_with_decreasing_increments(self):
        a, b = _count_tables(range(2, 41), CFG.quadrature_tolerance)
        steps = np.diff(a)
        assert len(a) == 40 and np.all(steps > 0) and np.all(np.diff(steps) < 0)
        # Without the floor at 0 the maximum is smaller, and still increasing.
        assert all(b[w] < a[w] for w in range(2, 40))
        assert np.all(np.diff([b[w] for w in range(2, 41)]) > 0)

    def test_unconverged_row_raises(self, monkeypatch):
        real = oracle._expected_max_rules

        # The values drift and the first level's companion does not.
        def drifting(means, stddevs, subdiv, rules):
            out = real(means, stddevs, subdiv, rules)
            out[0] += 1e-6 * subdiv
            return out

        monkeypatch.setattr(oracle, "_expected_max_rules", drifting)
        with pytest.raises(QuadratureError) as exc:
            _count_tables([3], CFG.quadrature_tolerance)
        assert str(exc.value).startswith("quadrature did not reach tolerance 1e-09")
        assert exc.value.estimate == pytest.approx(1e-6 * 16, abs=1e-12)  # a[0] at subdiv 16
