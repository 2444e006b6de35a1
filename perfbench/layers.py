"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every ``varalloc`` module that holds a binding to it (for
example ``expected_max_batch`` is bound by name in ``oracle``, ``solvers``
and ``analysis``), and ``uninstall`` restores the originals.  Spans nest:
a span's self time is its duration minus the time of the traced spans it
called.  Counters (rows, nodes, samples, candidates) are computed from the
wrapped call's own arguments with the formulas named in README.md.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Panels per row in the quadrature: 15 knots per coordinate plus the origin,
# bracketed by lo and hi, give 15n + 3 edges.
_KNOTS_PER_COORD = 15
_BATCH_CHUNK = 2048
_SUBDIVS = (1, 2, 4, 8, 16)

VERIFY_CLAIMS = {
    "correlation_gap": "verify_correlation_gap",
    "eps_contribution": "verify_eps_contribution",
    "lipschitz": "verify_lipschitz",
    "max_floor_bound": "verify_max_floor_bound",
    "max_inequalities": "verify_max_inequalities",
    "submodular_g": "verify_submodular_g",
    "var2approx": "verify_var2approx",
}


_B = "oracle.expected_max_batch"
# Totals per traced round: the accumulator of the same name over the rounds.
_PER_ROUND = [
    (f"{_B}.calls", "count"),
    (f"{_B}.rows", "count"),
    (f"{_B}.s", "s"),
    (f"{_B}.nodes", "count"),
    *[(f"{_B}.calls_subdiv_{k}", "count") for k in _SUBDIVS],
    ("oracle.mc.calls", "count"),
    ("oracle.mc.samples", "count"),
    ("oracle.mc.s", "s"),
    ("oracle.graph_objective.calls", "count"),
    ("oracle.graph_objective.s", "s"),
    ("oracle.psd_factor.calls", "count"),
    ("oracle.psd_factor.s", "s"),
    ("solvers.ptas_independent.self_s", "s"),
    ("solvers.ptas_independent.grid_rows", "count"),
    ("solvers.ptas_correlated.self_s", "s"),
    ("solvers.ptas_correlated.candidates", "count"),
    ("solvers.log_approx_graph.self_s", "s"),
    ("solvers.log_approx_graph.candidate_evals", "count"),
    *[(f"analysis.verify.{c}.s", "s") for c in VERIFY_CLAIMS],
    ("cli.run.self_s", "s"),
    ("instances.parse_instance.s", "s"),
    ("instances.serialize_instance.s", "s"),
]
# Ratios of totals: name -> (numerator, denominator, scale, unit).
_RATIOS = {
    f"{_B}.rows_per_call": (f"{_B}.rows", f"{_B}.calls", 1.0, "rows/call"),
    f"{_B}.us_per_row": (f"{_B}.s", f"{_B}.rows", 1e6, "us"),
    f"{_B}.nodes_per_s": (f"{_B}.nodes", f"{_B}.s", 1.0, "1/s"),
    "oracle.mc.samples_per_s": ("oracle.mc.samples", "oracle.mc.s", 1.0, "1/s"),
    "solvers.ptas_correlated.candidates_per_s": (
        "solvers.ptas_correlated.candidates", "solvers.ptas_correlated.self_s", 1.0, "1/s"),
    "solvers.log_approx_graph.evals_per_s": (
        "solvers.log_approx_graph.candidate_evals", "solvers.log_approx_graph.self_s", 1.0, "1/s"),
}


def _panels(n: int) -> int:
    return _KNOTS_PER_COORD * n + 2


def ptas_correlated_candidates(n: int, eps: float, grid_step: float | None) -> int:
    """Candidate matrices of ``ptas_correlated``: its own node-count formula
    (diagonal compositions times off-diagonal ranges, over every support)."""
    if grid_step is None:
        grid_step = eps**3
    s = min(math.ceil(1.0 / (eps * eps)), n)
    level_cap = int(1.0 / grid_step + 1e-9)
    pairs = list(itertools.combinations(range(s), 2))
    total = 0
    for diag in itertools.product(range(level_cap + 1), repeat=s):
        if sum(diag) <= level_cap:
            total += math.prod(2 * math.isqrt(diag[i] * diag[j]) + 1 for i, j in pairs)
    return total * math.comb(n, s)


def log_approx_candidate_evals(n: int) -> int:
    """sum_k sum_{t < min(4^k, n)} (n - t) for k = 0..floor(log2 n)."""
    return sum(
        n - t
        for k in range(int(math.floor(math.log2(n))) + 1)
        for t in range(min(4**k, n))
    )


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Span stack plus per-name accumulators for the traced functions."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans --
    def _wrap(self, span: str, fn, count=None):
        stats = self.stats
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[span + ".calls"] += 1
                stats[span + ".s"] += dt
                stats[span + ".self_s"] += dt - frame[1]
                if count is not None:
                    count(args, kwargs, parent)

        return traced

    def _count_batch(self, args, kwargs, parent):
        shape = np.shape(_arg(args, kwargs, 1, "stddevs"))
        rows, n = shape if len(shape) == 2 else (1, shape[0])
        points = kwargs.get("points", 10)
        subdiv = kwargs.get("subdiv", 1)
        per_row = _panels(n) * points * subdiv
        st = self.stats
        st[f"{_B}.rows"] += rows
        st[f"{_B}.nodes"] += rows * per_row
        st[f"{_B}.calls_subdiv_{subdiv}"] += 1
        key = f"{_B}.peak_temp_bytes"
        st[key] = max(st[key], min(rows, _BATCH_CHUNK) * per_row * 8)
        if parent == "solvers.ptas_independent":
            st["solvers.ptas_independent.grid_rows"] += rows

    def _count_mc(self, cfg_index: int):
        def count(args, kwargs, parent):
            self.stats["oracle.mc.samples"] += _arg(args, kwargs, cfg_index, "cfg").mc_samples

        return count

    def _count_ptas_corr(self, args, kwargs, parent):
        inst = _arg(args, kwargs, 0, "inst")
        eps = _arg(args, kwargs, 1, "eps")
        step = _arg(args, kwargs, 2, "grid_step")
        self.stats["solvers.ptas_correlated.candidates"] += ptas_correlated_candidates(
            inst.n, eps, step)

    def _count_log_approx(self, args, kwargs, parent):
        inst = _arg(args, kwargs, 0, "inst")
        if any(len(s) >= 2 for s in inst.sets):
            self.stats["solvers.log_approx_graph.candidate_evals"] += (
                log_approx_candidate_evals(inst.n))

    # ---------------------------------------------------------- install --
    def install(self) -> None:
        """Wrap every traced function in every varalloc module bound to it."""
        from varalloc import analysis, cli, instances, oracle, solvers

        targets = [
            (oracle.expected_max_batch, "oracle.expected_max_batch", self._count_batch),
            (oracle.expected_max_correlated, "oracle.mc", self._count_mc(1)),
            (oracle.graph_objective_correlated, "oracle.mc", self._count_mc(2)),
            (oracle.graph_objective, "oracle.graph_objective", None),
            (oracle.psd_factor, "oracle.psd_factor", None),
            (solvers.ptas_independent, "solvers.ptas_independent", None),
            (solvers.ptas_correlated, "solvers.ptas_correlated", self._count_ptas_corr),
            (solvers.log_approx_graph, "solvers.log_approx_graph", self._count_log_approx),
            (cli.run, "cli.run", None),
            (instances.parse_instance, "instances.parse_instance", None),
            (instances.serialize_instance, "instances.serialize_instance", None),
        ]
        targets += [(getattr(analysis, fn), f"analysis.verify.{claim}", None)
                    for claim, fn in VERIFY_CLAIMS.items()]
        wrappers = {fn: self._wrap(span, fn, count) for fn, span, count in targets}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "varalloc" or name.startswith("varalloc."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # ---------------------------------------------------------- metrics --
    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer metrics, (value, unit) by name."""
        st = self.stats
        out = {name: (st[name] / rounds, unit) for name, unit in _PER_ROUND}
        for name, (num, den, scale, unit) in _RATIOS.items():
            out[name] = (scale * st[num] / st[den] if st[den] > 0 else 0.0, unit)
        out[f"{_B}.peak_temp_bytes"] = (st[f"{_B}.peak_temp_bytes"], "bytes")
        out["analysis.self_s"] = (
            sum(st[f"analysis.verify.{c}.self_s"] for c in VERIFY_CLAIMS) / rounds, "s")
        return out
