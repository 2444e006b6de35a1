"""Allocation solvers: grid-search schemes, greedy methods, and baselines.

Two additive grid searches cover the single-set formulations (independent
deviations on a step grid, and covariance matrices with gridded entries),
a logarithmic-factor greedy covers the multi-set formulation, and an
exhaustive grid oracle plus the uniform split serve as baselines and ground
truth for tests.  The independent grid search scores only the grid points
that a proven Lipschitz bound from the points already scored cannot rule
out, and finds the winner of scoring them all.

Monte Carlo comparisons inside argmax loops reuse one standard-normal
sample matrix per solve (common random numbers), which keeps comparison
variance far below the gaps being resolved; objective values placed in a
report are always re-estimated independently of the selection pass.  Both
greedy solvers run one such engine when a mean is nonzero, which after
each pick re-scores only the sets that contain the picked variable.  With
every mean zero they run an exact greedy instead, on quadrature tables of
a set's value by how many of its members are picked, and draw no samples.
The correlated grid search scores its candidates exactly whenever a
support and its floor make at most three lines, and under common random
numbers only on supports of three variables with a floor; an exact
winner does not depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .instances import BUDGET_TOL, AllocationVector, Instance
from .oracle import (
    CovarianceSpec,
    Estimate,
    EstimationError,
    EstimatorConfig,
    _SLAB_NODES,
    _check_converged,
    _pad_rows,
    _quadrature_rows,
    _sample_tiles,
    _three_line_maxima,
    derive_seed,
    expected_max_batch,
    graph_objective,
    graph_objective_correlated,
    row_max,
)

__all__ = [
    "LIPSCHITZ_CONSTANT",
    "SolveReport",
    "BudgetError",
    "ptas_independent",
    "ptas_correlated",
    "log_approx_graph",
    "greedy_fixed_variance",
    "brute_force_grid",
    "uniform",
    "uniform_allocation",
]

# Desk-scale caps: supports larger than this make the grids unenumerable.
_MAX_SUPPORT_INDEPENDENT = 8
_MAX_SUPPORT_CORRELATED = 3

# Candidate covariance matrices eigen-decomposed per stacked eigh call.
_EIGH_CHUNK = 4096

# Common-random-numbers sample counts for argmax loops.
_CRN_SAMPLES_GREEDY = 32_768
_CRN_SAMPLES_GRID = 65_536

# How far E max can rise as the deviations grow: phi(0) = 1/sqrt(2 pi).  Let
# f(sigma) = E max_i (mu_i + sigma_i Z_i), Z_i iid N(0, 1), and M = max_{k != i}
# X_k, which is independent of Z_i.  Then df/dsigma_i = E[Z_i 1{X_i > M}] =
# E[phi((M - mu_i) / sigma_i)], which lies in [0, phi(0)].  So f does not
# decrease in any sigma_i, and f(s') <= f(s v s') <= f(s) + phi(0) sum_i (s'_i -
# s_i)^+; f is continuous at sigma_i = 0, so this holds on the closed orthant.
LIPSCHITZ_CONSTANT = 1.0 / math.sqrt(2.0 * math.pi)

# The pruned search of one PTAS support (``_search_support``), a bound-and-prune
# search in the manner of Shubert (1972): it scores a support of at most
# _PRUNE_BLOCK rows in one batch, and a larger one first on _PRUNE_SAMPLE spread
# rows.  Each pass probes _PRUNE_PROBE of the live rows, bounds them against at
# most _PRUNE_REFS scored rows, and scores at least _PRUNE_MIN_BATCH.  A row is
# dropped when its bound is below the best value less _PRUNE_SLACK * max(1,
# |best|), far above the subdiv-1 quadrature error (at most 3e-16 relative on
# widths 3-8, ``tests/test_reference.py``).
_PRUNE_BLOCK = 256
_PRUNE_SAMPLE = 128
_PRUNE_PROBE = 256
_PRUNE_REFS = 256
_PRUNE_MIN_BATCH = 128
_PRUNE_SLACK = 1e-9


class BudgetError(RuntimeError):
    """The candidate grid exceeds the configured node budget."""

    def __init__(self, required: int, budget: int, what: str, *, at_least: bool = False):
        needs = "needs at least" if at_least else "needs"
        super().__init__(f"{what} {needs} {required} nodes, exceeding the budget {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class SolveReport:
    """Solver output: allocation, re-estimated objective, and metadata."""

    allocation: AllocationVector | CovarianceSpec
    objective: Estimate
    algorithm: str
    eps: float | None
    grid_step: float | None
    elapsed: float

    @property
    def support_size(self) -> int:
        return self.allocation.support_size


def _report(algorithm: str, inst: Instance, allocation: AllocationVector | CovarianceSpec,
            cfg: EstimatorConfig, t0: float, *, eps: float | None = None,
            grid_step: float | None = None) -> SolveReport:
    """Re-estimates ``allocation`` independently of the search; elapsed counts from ``t0``."""
    if isinstance(allocation, CovarianceSpec):
        objective = graph_objective_correlated(inst, allocation, cfg)
    else:
        objective = graph_objective(inst, allocation, cfg)
    return SolveReport(allocation, objective, algorithm, eps, grid_step,
                       time.perf_counter() - t0)


def _ptas_support(inst: Instance, eps: float, cap: int, what: str) -> int:
    """Support size ceil(1/eps^2), clamped to n, after the checks both PTAS share."""
    if inst.m != 1 or inst.sets[0] != tuple(range(inst.n)):
        raise ValueError(f"{what} requires a single set covering all variables")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    s = min(math.ceil(1.0 / max(eps * eps, 1e-300)), inst.n)  # eps^2 may underflow to 0
    if s > cap:
        raise ValueError(
            f"support size {s} exceeds the desk-scale cap {cap}; "
            "use a larger eps or a smaller instance"
        )
    return s


def _grid_limit(cell: float, budget: int, what: str) -> int:
    """The unit budget in cells, int(1/cell) (the epsilon rescues boundaries
    such as 1/step^2), refusing a cell whose inverse is not a float: one
    coordinate alone then takes over 1e154 values, past any budget."""
    if not (cell > 0.0 and 1.0 / cell < math.inf):
        raise BudgetError(budget + 1, budget, what, at_least=True)
    return int(1.0 / cell + 1e-9)


def _count_grid(n_coords: int, limit: int) -> int:
    """Number of non-negative integer vectors with sum of squares <= limit.

    ``f[q]`` counts the vectors of all but the last coordinate with squared
    sum q; a last coordinate k extends those with q <= limit - k^2.  So one
    or two coordinates cost O(1) or O(limit) work, not O(limit^1.5).
    """
    kmax = math.isqrt(limit)
    if n_coords == 1:
        return kmax + 1
    squares = np.arange(kmax + 1) ** 2
    f = np.zeros(limit + 1)
    f[squares] = 1.0
    for _ in range(n_coords - 2):
        g = np.zeros_like(f)
        for sq in squares.tolist():
            g[sq:] += f[: limit + 1 - sq]
        f = g
    return int(np.cumsum(f, out=f)[limit - squares].sum())


def _check_grid_budget(n_coords: int, limit: int, supports: int, budget: int, what: str) -> None:
    """Raise BudgetError if ``supports`` grids of ``n_coords`` exceed ``budget`` nodes.

    A lower bound comes first, so the exact count only runs on a grid the
    budget bounds: every vector whose coordinates are all at most
    isqrt(limit // n_coords) is on the grid.
    """
    low = (math.isqrt(limit // n_coords) + 1) ** n_coords * supports
    if low > budget:
        raise BudgetError(low, budget, what, at_least=True)
    required = _count_grid(n_coords, limit) * supports
    if required > budget:
        raise BudgetError(required, budget, what)


def _enumerate_grid(n_coords: int, limit: int, costs: np.ndarray | None = None) -> np.ndarray:
    """All non-negative integer vectors k with sum_i costs[k_i] <= limit.

    ``costs`` rises from costs[0] == 0 and covers every affordable value:
    squares up to isqrt(limit) by default.  Each coordinate extends every row
    by the values its unused limit allows, in increasing order, so rows come
    in lexicographic order; the argmax tie-break relies on it.
    """
    if costs is None:
        costs = np.arange(math.isqrt(limit) + 1, dtype=np.int64) ** 2
    rows = np.zeros((1, 0), dtype=np.int64)
    rem = np.array([limit], dtype=np.int64)
    for _ in range(n_coords):
        count = np.searchsorted(costs, rem, side="right")
        k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        rem = np.repeat(rem, count) - costs[k]
        rows = np.column_stack([np.repeat(rows, count, axis=0), k])
    return rows


def _enumerate_maximal(n_coords: int, limit: int) -> np.ndarray:
    """The maximal grid vectors: no coordinate can take one more step.

    A vector with squared sum ``used`` is maximal when ``used + 2 k_i + 1 >
    limit`` for every coordinate, i.e. for its smallest one.  Given a prefix,
    only ``isqrt(rem)`` can make the last coordinate maximal, so each row of
    the (n-1)-dimensional grid yields at most one row.  Rows are a
    lexicographically ordered subset of ``_enumerate_grid``'s rows.
    """
    squares = np.arange(math.isqrt(limit) + 1, dtype=np.int64) ** 2
    prefix = _enumerate_grid(n_coords - 1, limit, squares)
    rem = limit - np.square(prefix).sum(axis=1)
    last = np.searchsorted(squares, rem, side="right") - 1  # isqrt(rem)
    rows = np.column_stack([prefix, last])
    used = limit - rem + last * last
    return rows[used + 2 * rows.min(axis=1) + 1 > limit]


def _objective_batch(inst: Instance, sigma_matrix: np.ndarray) -> np.ndarray:
    """Deterministic quadrature objective for a batch of deviation vectors."""
    means = inst.means_array()
    total = np.zeros(sigma_matrix.shape[0])
    for members in inst.sets:
        idx = np.asarray(members, dtype=int)
        total += expected_max_batch(means[idx], sigma_matrix[:, idx])
    return total


def _crn_matrix(seed: int, samples: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((samples, n))


def _crn_greedy(seed: int, samples: int, means: np.ndarray, sdev: float, sets, picks: int,
                stop_without_gain: bool = False) -> tuple[list[int], list[float]]:
    """Greedy assignment of deviation ``sdev`` under common random numbers.

    Up to ``picks`` times, assigns the unassigned variable that most increases
    ``sum_j mean_s max_{i in S_j} X_i``, where an assigned variable adds its
    term ``T_i = means[i] + sdev * z[:, i]`` (``z`` drawn from ``seed``) and an
    unassigned one its mean; ties go to the lowest index.  Returns the chosen
    indices in order and the sampled objective before the first pick and
    after each one, so ``totals[p]`` belongs to ``chosen[:p]``: nothing in the
    loop reads ``picks``, so a shorter run is a prefix of a longer one.
    ``stop_without_gain`` ends the loop at a best gain <= 0.

    Candidate i's value on set j, ``mean_s max(G, d, T_i)`` (G: the per-sample
    max of the set's assigned terms; d: its largest other unassigned mean),
    changes only when a member of j is assigned, so it is cached per (set,
    candidate), memoized per (assigned members, d, i), and re-scored only
    for the sets containing the last pick.  That is exact, not lazy,
    evaluation: the objective is not submodular.  Max is exact in any order
    and ``np.add.reduce(x) / S`` is ``x.mean()`` bit for bit, so choices and
    totals equal a from-scratch evaluation's.
    """
    t = _crn_matrix(seed, samples, len(means))
    t *= sdev  # in place: the bits of means + sdev * z, without a second matrix
    t += means
    rows = list(np.ascontiguousarray(t.T))
    del t
    mu = [float(x) for x in means]
    free = [list(s) for s in sets]  # unassigned members of each set
    held: list[tuple[int, ...]] = [()] * len(free)  # assigned members, in pick order
    by_var = [[j for j, s in enumerate(free) if i in s] for i in range(len(mu))]
    gmax: list[np.ndarray | None] = [None] * len(free)  # from first to last assignment
    memo: dict[tuple, dict[int, float]] = {}  # (held, d) -> {i: value, -1: set value}
    cand: list[dict[int, float]] = [{} for _ in free]
    buf, base_bufs = np.empty(samples), (np.empty(samples), np.empty(samples))

    def score(j: int) -> float:
        """Set j's value; caches each free member's value if it were assigned."""
        members, g = free[j], gmax[j]
        bases: dict[float, np.ndarray] = {}  # max(G, d) per floor d, built on first use

        def value(d: float, i: int) -> float:
            known = memo.setdefault((held[j], d), {})
            if i not in known:
                if g is not None and d not in bases:
                    bases[d] = np.maximum(g, d, out=base_bufs[len(bases)])
                b = bases.get(d, d)
                x = b if i < 0 else np.maximum(b, rows[i], out=buf)
                known[i] = float(np.add.reduce(x)) / samples
            return known[i]

        ranked = sorted((mu[i] for i in members), reverse=True) + [-math.inf] * 2
        # A holder of the top mean sees the next one, equal to it unless unique.
        cand[j] = {i: value(ranked[1 if mu[i] == ranked[0] else 0], i) for i in members}
        return ranked[0] if g is None else value(ranked[0], -1)

    set_mean = [score(j) for j in range(len(free))]
    total = math.fsum(set_mean)
    chosen: list[int] = []
    totals = [total]
    for _ in range(picks):
        best_i, best_obj = -1, -math.inf
        for i in range(len(mu)):
            if i in chosen:
                continue
            obj = total
            for j in by_var[i]:
                obj += cand[j][i] - set_mean[j]
            if obj > best_obj:
                best_obj = obj
                best_i = i
        if best_i < 0 or (stop_without_gain and best_obj - total <= 0.0):
            break
        chosen.append(best_i)
        for j in by_var[best_i]:
            g = gmax[j]
            gmax[j] = rows[best_i].copy() if g is None else np.maximum(g, rows[best_i], out=g)
            free[j].remove(best_i)
            held[j] += (best_i,)
            new_mean = score(j)
            total += new_mean - set_mean[j]
            set_mean[j] = new_mean
            if not free[j]:
                gmax[j] = None
        totals.append(total)
    return chosen, totals


def _count_tables(widths, tol: float) -> tuple[list[float], dict[int, float]]:
    """Zero-mean set values by how many members hold a unit deviation.

    Returns ``a`` with a[h] = E max(0, Z_1, ..., Z_h) for h below the widest
    set, and ``b`` with b[w] = E max(Z_1, ..., Z_w) per width, Z_i iid N(0, 1).
    Every row is as wide as the widest set and refined by
    ``_quadrature_rows``, as sets are: row h of ``a`` holds h unit deviations
    and a zero, row w of ``b`` w unit deviations, and ``_pad_rows`` pads the
    rest, so each value has the bits of its unpadded row.  A row whose
    8-point companion agrees closes on the first level with the bits of
    ``expected_max_batch`` at subdiv 1.  For one set of 512 members, 266 of
    the 513 rows miss it and go on to subdiv 2.
    ``_check_converged`` raises for the lowest row that does not converge
    within ``tol``.
    """
    wmax = max(widths)
    sizes = sorted(set(widths))
    units = np.array([*range(wmax), *sizes])  # unit deviations per row
    members = units + (np.arange(len(units)) < wmax)  # a's rows add the zero
    unit = (np.arange(wmax) < units[:, None]).astype(float)
    values, failed = _quadrature_rows(*_pad_rows(0.0, unit, members), tol)
    _check_converged(failed, tol)
    values = values.tolist()
    return values[:wmax], dict(zip(sizes, values[wmax:]))


def _table_greedy(sets, n: int, picks: int, tol: float,
                  stop_without_gain: bool = False) -> tuple[list[int], list[float]]:
    """``_crn_greedy`` at sdev 1 on zero means, scored exactly by ``_count_tables``.

    With every mean zero an unassigned variable is a point mass at 0, so set
    j with h_j of its w_j members assigned is worth a[h_j] while one is free
    and b[w_j] once none is.  A candidate's gain is the ``math.fsum`` over
    its sets of v(h_j + 1) - v(h_j), so candidates whose sets are in the same
    states tie exactly; ties go to the lowest index.  ``sets`` is non-empty
    and each set has two or more members.  Returns the picks and the
    ``fsum`` of the set values before the first pick and after each one.
    """
    widths = [len(s) for s in sets]
    a, b = _count_tables(widths, tol)
    value = {w: a[:w] + [b[w]] for w in b}  # by members assigned, 0..w
    step = {w: [v[h + 1] - v[h] for h in range(w)] for w, v in value.items()}
    count = [0] * len(sets)
    inc = [step[w][0] for w in widths]  # set j's gain from its next assignment
    by_var: list[list[int]] = [[] for _ in range(n)]
    for j, members in enumerate(sets):
        for i in members:
            by_var[i].append(j)
    gain = [math.fsum([inc[j] for j in js]) for js in by_var]
    free = list(range(n))
    chosen: list[int] = []
    totals = [math.fsum(value[w][0] for w in widths)]
    for _ in range(picks):
        if not free:
            break
        best_i = max(free, key=gain.__getitem__)  # the first of equal maxima
        if stop_without_gain and gain[best_i] <= 0.0:
            break
        chosen.append(best_i)
        free.remove(best_i)
        touched = set()
        for j in by_var[best_i]:
            count[j] += 1
            if count[j] < widths[j]:
                inc[j] = step[widths[j]][count[j]]
            touched.update(sets[j])
        for i in touched:
            gain[i] = math.fsum([inc[j] for j in by_var[i]])
        totals.append(math.fsum(value[w][h] for w, h in zip(widths, count)))
    return chosen, totals


def uniform_allocation(inst: Instance) -> AllocationVector:
    """sigma_i = 1/sqrt(n) for every variable (the full budget, evenly)."""
    s = 1.0 / math.sqrt(inst.n)
    return AllocationVector((s,) * inst.n)


def uniform(inst: Instance, cfg: EstimatorConfig) -> SolveReport:
    """The uniform-split baseline, evaluated and reported like the solvers."""
    t0 = time.perf_counter()
    return _report("uniform", inst, uniform_allocation(inst), cfg, t0)


def _lipschitz_bounds(points: np.ndarray, refs: np.ndarray, ref_values: np.ndarray) -> np.ndarray:
    """Per row r of ``points``, the least ref_values[e] + LIPSCHITZ_CONSTANT *
    sum_i (points[r, i] - refs[e, i])^+ over the rows e of ``refs``: an upper
    bound on r's value when ref_values[e] is e's.  Rows go in chunks of
    _SLAB_NODES // len(refs) through two reused buffers, so each holds at
    most _SLAB_NODES floats, or one row of refs where there are more."""
    out = np.empty(len(points))
    step = max(1, _SLAB_NODES // len(refs))
    rise = np.empty((min(step, len(points)), len(refs)))
    gap = np.empty_like(rise)
    for r0 in range(0, len(points), step):
        chunk = points[r0:r0 + step]
        total, part = rise[:len(chunk)], gap[:len(chunk)]
        total.fill(0.0)
        for i in range(points.shape[1]):
            np.subtract.outer(chunk[:, i], refs[:, i], out=part)
            total += np.maximum(part, 0.0, out=part)
        total *= LIPSCHITZ_CONSTANT
        total += ref_values
        out[r0:r0 + step] = total.min(axis=1)
    return out


def _search_support(means: np.ndarray, support: tuple[int, ...], sigmas: np.ndarray,
                    best: float) -> np.ndarray:
    """Quadrature values of the rows of ``sigmas`` on ``support`` that may tie or
    beat ``best``, and -inf for the rows a proven bound rules out.

    A support of at most _PRUNE_BLOCK rows is scored in one batch.  A larger
    one is scored first on _PRUNE_SAMPLE evenly spread rows.  Then, per pass,
    each unscored row keeps its least ``_lipschitz_bounds`` bound against the
    rows scored last (a spread _PRUNE_REFS of them); rows whose bound is below
    ``best``, raised to the support's best so far, less the slack are dropped;
    and the half of the rest with the highest bounds, at least
    _PRUNE_MIN_BATCH, is scored.  A dropped row never returns: bounds only
    fall and ``best`` only rises.  A pass first bounds a spread _PRUNE_PROBE
    of the live rows, and when over three quarters of those survive, as on
    zero means (89-98% at n = 4-6), it scores every live row in one batch
    instead.

    A row whose value ties or beats ``best`` is never dropped, so when the
    support's maximum ties or beats ``best`` every row at it is scored, and
    the first argmax is that of a full scoring.  The batches depend only on
    values and bounds, not on the worker count.
    """
    def score(rows: np.ndarray) -> np.ndarray:
        sig = np.zeros((len(rows), len(means)))
        sig[:, support] = sigmas[rows]
        return expected_max_batch(means, sig)

    count = len(sigmas)
    values = np.full(count, -np.inf)
    if count <= _PRUNE_BLOCK:
        values[:] = score(np.arange(count))
        return values
    scored = np.arange(_PRUNE_SAMPLE) * count // _PRUNE_SAMPLE
    values[scored] = score(scored)
    live = np.setdiff1d(np.arange(count), scored, assume_unique=True)
    bound = np.full(count, np.inf)

    def bounds(rows: np.ndarray, refs: np.ndarray) -> np.ndarray:
        return np.minimum(bound[rows], _lipschitz_bounds(sigmas[rows], sigmas[refs], values[refs]))

    while live.size:
        best = max(best, float(values.max()))
        floor = best - _PRUNE_SLACK * max(1.0, abs(best))
        refs = scored[::-(-scored.size // _PRUNE_REFS)]
        stride = -(-live.size // _PRUNE_PROBE)
        probe = bounds(live[::stride], refs)
        if 4 * np.count_nonzero(probe >= floor) > 3 * probe.size:
            values[live] = score(live)
            break
        bound[live] = probe if stride == 1 else bounds(live, refs)
        live = live[bound[live] >= floor]
        live = live[np.argsort(-bound[live], kind="stable")]
        take = max(_PRUNE_MIN_BATCH, -(-live.size // 2))
        scored, live = live[:take], live[take:]
        if scored.size:
            values[scored] = score(scored)
    return values


def ptas_independent(
    inst: Instance,
    eps: float,
    cfg: EstimatorConfig,
    *,
    node_budget: int = 2_000_000,
) -> SolveReport:
    """Additive grid search over independent deviation vectors.

    Enumerates every support of ceil(1/eps^2) variables (clamped to n) and,
    on each support, the deviation vectors whose entries are integral
    multiples of eps^3 within the unit variance budget; returns the argmax
    of the quadrature objective.  Candidates over budget are skipped, never
    projected, so the search stays on the grid.

    Only the grid's maximal points are candidates, those where no coordinate
    can take one more step within the budget.  For independent Gaussians
    E[max_i X_i] does not decrease in any sigma_i (``LIPSCHITZ_CONSTANT``
    has the proof), and every grid point lies below some maximal point, so
    the grid's maximum is attained at a maximal point.  The same proof bounds
    the rise: f(s') <= f(s) + phi(0) sum_i (s'_i - s_i)^+.  So
    ``_search_support`` scores a spread sample of a support's maximal points
    and then only the points whose bound from the scored ones could still
    tie or beat the best value so far (158 to 451 of the 784 on the ten
    ``ptas`` benchmark seeds), and the argmax is bit for bit that of scoring
    every point.  Ties go to the first maximal point in support,
    then lexicographic, order; ``brute_force_grid`` still searches the whole
    grid and is the reference for this pruning.  The node budget counts the
    whole grid, which bounds the enumeration.
    """
    t0 = time.perf_counter()
    s = _ptas_support(inst, eps, _MAX_SUPPORT_INDEPENDENT, "ptas_independent")
    step = eps**3
    limit = _grid_limit(step * step, node_budget, "ptas_independent grid")
    _check_grid_budget(s, limit, math.comb(inst.n, s), node_budget, "ptas_independent grid")

    values_on_support = _enumerate_maximal(s, limit) * step
    means = inst.means_array()
    best_val = -math.inf
    best_sigma = np.zeros(inst.n)
    for support in itertools.combinations(range(inst.n), s):
        vals = _search_support(means, support, values_on_support, best_val)
        i = int(np.argmax(vals))  # the first of equal maxima
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_sigma = np.zeros(inst.n)
            best_sigma[list(support)] = values_on_support[i]
    return _report("ptas_independent", inst, AllocationVector(best_sigma), cfg, t0,
                   eps=eps, grid_step=step)


def brute_force_grid(
    inst: Instance,
    grid_step: float,
    cfg: EstimatorConfig,
    *,
    node_budget: int = 10_000_000,
) -> SolveReport:
    """Exhaustive grid oracle: argmax over all deviation vectors on the grid.

    Every vector with entries that are multiples of ``grid_step`` and total
    variance at most 1 is evaluated with the quadrature objective.
    """
    t0 = time.perf_counter()
    if not (0.0 < grid_step <= 1.0):
        raise ValueError("grid_step must lie in (0, 1]")
    limit = _grid_limit(grid_step * grid_step, node_budget, "brute-force grid")
    _check_grid_budget(inst.n, limit, 1, node_budget, "brute-force grid")

    sig = _enumerate_grid(inst.n, limit) * grid_step
    vals = _objective_batch(inst, sig)
    i = int(np.argmax(vals))
    return _report("brute_force_grid", inst, AllocationVector(sig[i]), cfg, t0,
                   grid_step=grid_step)


def _psd_candidates(diags, caps, grid_step: float):
    """PSD candidate matrices on every gridded diagonal, with their factors.

    Row d of ``caps`` holds the caps of diagonal ``diags[d]``, one per pair in
    ``np.triu_indices`` order.  Candidates run in ``diags`` order, then over
    ``itertools.product`` of ``range(-c, c + 1)`` per pair; each chunk of at
    most ``_EIGH_CHUNK`` matrices, across diagonals, is eigen-decomposed by one
    stacked ``eigh`` call.  Yields ``(matrices, factors)`` stacks of the
    survivors in that order, where ``factor @ factor.T`` is the matrix up to
    rounding.
    """
    s = diags.shape[1]
    i, j = np.triu_indices(s, 1)
    # One row per candidate: the diagonal's levels, then one multiplier per pair.
    levels = itertools.chain.from_iterable(
        itertools.product(*([x] for x in diag), *(range(-c, c + 1) for c in cap))
        for diag, cap in zip(diags.tolist(), caps.tolist()))
    while chunk := list(itertools.islice(levels, _EIGH_CHUNK)):
        entries = np.asarray(chunk, dtype=float) * grid_step
        subs = np.zeros((len(chunk), s, s))
        subs[:, range(s), range(s)] = entries[:, :s]
        subs[:, i, j] = subs[:, j, i] = entries[:, s:]
        w, vecs = np.linalg.eigh(subs)
        keep = w[:, 0] >= CovarianceSpec.PSD_TOL
        yield subs[keep], vecs[keep] * np.sqrt(np.clip(w[keep], 0.0, None))[:, None, :]


def _crn_mean(factor, z_sup, mu_sup, floor, top: np.ndarray) -> float:
    """Sample mean of max(floor, max_i y[i] + mu_sup[i]) for the block y = factor @ z_sup.

    Tile by tile of ``_sample_tiles``: each tile's maxima, then the floor
    unless it is None, fill their slice of ``top`` (one buffer per solve, as
    long as ``z_sup``), and the mean runs over all of ``top`` at once.  A
    tile's product has the bits of the same columns of the whole-block
    product, so the value does not depend on the tile size.
    """
    for t in _sample_tiles(top.size):
        top[t] = row_max(factor @ z_sup[:, t], range(len(mu_sup)), mu_sup)
        if floor is not None:
            np.maximum(top[t], floor, out=top[t])
    return float(top.mean())


def ptas_correlated(
    inst: Instance,
    eps: float,
    grid_step: float | None,
    cfg: EstimatorConfig,
    *,
    node_budget: int = 500_000,
) -> SolveReport:
    """Additive grid search over covariance matrices.

    Enumerates supports of ceil(1/eps^2) variables (clamped, desk cap 3);
    on each support, symmetric matrices with entries that are integral
    multiples of ``grid_step`` in [-1, 1], diagonal summing to at most 1,
    off-diagonals within the Cauchy-Schwarz bound.  Per support, one
    ``_psd_candidates`` stream covers every diagonal in fixed-size chunks,
    each filtered for PSD by one stacked ``eigh`` call, so memory stays
    bounded.  A candidate's value is E max over the support's variables and
    the floor, the largest mean off the support, a line of zero variance.
    When those lines number at most three (s = n <= 3, or s <= 2), the
    survivors of each chunk are scored exactly by one ``_three_line_maxima``
    call; a score that is not finite raises ``EstimationError`` and a set
    that does not converge ``QuadratureError``.  Such a winner does not
    depend on ``cfg.seed``.  At s = 3 < n (four lines) the survivors'
    eigen-factors are compared under common random numbers, drawn for the
    first such support: ``_crn_mean`` scores a candidate in cache-sized
    tiles of the shared sample matrix, with the bits of the whole-block
    score.  Either way candidates run in enumeration order and the first
    maximum wins.  The report re-estimates the winner apart from the search,
    through ``graph_objective_correlated``: exactly (half-width 0) when n <=
    3 or the winner has rank <= 2, and by a fresh Monte Carlo estimate from
    the solve's seed otherwise or under ``method="monte_carlo"``.

    ``grid_step`` defaults to eps^3.  The smoothness argument behind the
    approximation guarantee asks for the much finer eps^8.5; that value is
    enumerable only for trivial supports, so the step is left configurable.
    """
    t0 = time.perf_counter()
    s = _ptas_support(inst, eps, _MAX_SUPPORT_CORRELATED, "ptas_correlated")
    if grid_step is None:
        grid_step = eps**3  # may underflow to 0, which the budget refuses
    elif not (0.0 < grid_step <= 1.0):
        raise ValueError("grid_step must lie in (0, 1]")

    level_cap = _grid_limit(grid_step, node_budget, "ptas_correlated grid")
    supports = math.comb(inst.n, s)
    # Each diagonal counts at least one candidate: a lower bound before listing them.
    low = math.comb(level_cap + s, s) * supports
    if low > node_budget:
        raise BudgetError(low, node_budget, "ptas_correlated grid", at_least=True)
    diags = _enumerate_grid(s, level_cap, np.arange(level_cap + 1))
    # Cauchy-Schwarz caps of the off-diagonal multipliers, isqrt(d_i * d_j) per pair.
    squares = np.arange(level_cap + 1, dtype=np.int64) ** 2
    i, j = np.triu_indices(s, 1)  # the pairs, in _psd_candidates' order
    caps = np.searchsorted(squares, diags[:, i] * diags[:, j], side="right") - 1
    # Candidates per diagonal fit in int64; their total is summed in Python ints.
    required = sum(np.prod(2 * caps + 1, axis=1).tolist()) * supports
    if required > node_budget:
        raise BudgetError(required, node_budget, "ptas_correlated grid")

    means = inst.means_array()
    tol = cfg.quadrature_tolerance
    z = top = None  # the CRN samples, drawn for the first support of four lines
    best_val = -math.inf
    best_matrix = np.zeros((inst.n, inst.n))
    for support in itertools.combinations(range(inst.n), s):
        sup = np.asarray(support, dtype=int)
        # The largest mean off the support; none on a full support (where a
        # floor of -inf would be an exact no-op pass).
        floor = max((inst.means[i] for i in range(inst.n) if i not in support), default=None)
        mu_sup = means[sup]
        lines = np.append(mu_sup, [] if floor is None else [floor])
        if len(lines) > 3:
            if z is None:
                z = _crn_matrix(derive_seed(cfg.seed, "crn"), _CRN_SAMPLES_GRID, inst.n)
                top = np.empty(_CRN_SAMPLES_GRID)
            z_sup = z[:, sup].T  # a view of the gathered copy: short-first gemm below
        for subs, factors in _psd_candidates(diags, caps, grid_step):
            if not len(subs):
                continue
            if len(lines) <= 3:
                covs = np.zeros((len(subs), len(lines), len(lines)))
                covs[:, :s, :s] = subs
                vals, _, failed = _three_line_maxima(
                    np.broadcast_to(lines, (len(subs), len(lines))), covs, tol)
                _check_converged(failed, tol)
                if not np.isfinite(vals).all():
                    k = int(np.argmin(np.isfinite(vals)))
                    raise EstimationError(f"candidate score {vals[k]!r} is not finite "
                                          f"for the matrix {subs[k].tolist()}")
                k = int(np.argmax(vals))  # the first of equal maxima
                scored = [(vals[k], subs[k])]
            else:
                scored = ((_crn_mean(factor, z_sup, mu_sup, floor, top), sub)
                          for sub, factor in zip(subs, factors))
            for val, sub in scored:
                if val > best_val:
                    best_val = val
                    best_matrix = np.zeros((inst.n, inst.n))
                    best_matrix[np.ix_(sup, sup)] = sub

    return _report("ptas_correlated", inst, CovarianceSpec(means, best_matrix), cfg, t0,
                   eps=eps, grid_step=grid_step)


def _greedy_runs(means: np.ndarray, sets, n: int, runs, cfg: EstimatorConfig,
                 stop_without_gain: bool = False) -> list[tuple[list[int], float]]:
    """``(chosen, total)`` of the greedy for each ``(sdev, picks)`` run.

    Size-1 sets are worth their mean whatever the allocation, so both engines
    work on the other sets; with none left nothing is picked.  With a nonzero
    mean each run is its own CRN greedy on ``_CRN_SAMPLES_GREEDY`` draws from
    the solve's seed.  With every mean zero (of either sign)
    E max(0, s Z_1, ..., s Z_h) = s a[h], so the runs share the exact table
    greedy at sdev 1 and its ties: each takes a prefix of its picks and its
    total times sdev.
    """
    sets = [s for s in sets if len(s) >= 2]
    if not sets:
        return [([], 0.0) for _ in runs]
    if means.any():
        seed = derive_seed(cfg.seed, "crn")
        out = []
        for sdev, picks in runs:
            chosen, totals = _crn_greedy(seed, _CRN_SAMPLES_GREEDY, means, sdev, sets, picks,
                                         stop_without_gain)
            out.append((chosen, totals[-1]))
        return out
    unit, totals = _table_greedy(sets, n, max(picks for _, picks in runs),
                                 cfg.quadrature_tolerance, stop_without_gain)
    return [(unit[:picks], totals[min(picks, len(unit))] * sdev) for sdev, picks in runs]


def log_approx_graph(inst: Instance, cfg: EstimatorConfig) -> SolveReport:
    """Logarithmic-factor greedy for the multi-set objective.

    For each k up to log2(n), up to min(4^k, n) variables greedily receive
    variance 4^-k (each step picks the zero-variance variable whose
    assignment maximizes the objective, ties to the lowest index); the best
    round wins, the first on ties.  ``_greedy_runs`` runs the rounds without
    the size-1 sets, which contribute their mean no matter the allocation.
    With a nonzero mean each round runs the CRN greedy engine on the same
    sample matrix, drawn from the solve's seed, and re-scores only the sets
    the last pick touched.  When every mean is zero, as in the Erdos-Renyi
    and complete-k families, one exact count-table greedy at sdev 1 serves
    every round, and the allocation does not depend on the seed.  The
    reported objective re-includes the singleton sets.
    """
    t0 = time.perf_counter()
    n = inst.n
    levels = [(2.0 ** (-k), min(4**k, n)) for k in range(int(math.floor(math.log2(n))) + 1)]
    runs = _greedy_runs(inst.means_array(), inst.sets, n, levels, cfg)
    best_val, best_sigma = -math.inf, np.zeros(n)
    for (sdev, _), (chosen, total) in zip(levels, runs):
        if total > best_val:
            best_val = total
            best_sigma = np.zeros(n)
            best_sigma[chosen] = sdev
    assert float(np.square(best_sigma).sum()) <= 1.0 + BUDGET_TOL
    return _report("log_approx_graph", inst, AllocationVector(best_sigma), cfg, t0)


def greedy_fixed_variance(
    inst: Instance,
    variance_level: float,
    cardinality: int,
    cfg: EstimatorConfig,
) -> tuple[set[int], Estimate]:
    """Greedy subset selection at a fixed variance level.

    Repeatedly adds the index with the largest marginal objective gain
    (evaluated by the engine ``log_approx_graph`` uses: common random numbers
    with a nonzero mean, the exact count tables with every mean zero; ties
    to the lowest index) until the cardinality is reached or the best gain
    is non-positive.  A variable only in size-1 sets gains nothing and is
    never picked.
    """
    if not variance_level > 0:
        raise ValueError("variance_level must be positive")
    if cardinality < 0:
        raise ValueError("cardinality must be non-negative")
    if cardinality * variance_level > 1.0 + BUDGET_TOL:
        raise ValueError("cardinality * variance_level exceeds the unit budget")

    sdev = math.sqrt(variance_level)
    [(chosen, _)] = _greedy_runs(inst.means_array(), inst.sets, inst.n, [(sdev, cardinality)],
                                 cfg, stop_without_gain=True)
    sigma = np.zeros(inst.n)
    sigma[chosen] = sdev
    estimate = graph_objective(inst, AllocationVector(sigma), cfg)
    return set(chosen), estimate
