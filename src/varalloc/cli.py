"""Command-line interface: generate, solve, evaluate, verify, sweep.

All randomness flows from the single ``--seed`` flag; subcomponents derive
labeled sub-seeds from it, so identical invocations produce byte-identical
output files.  Reports embed the resolved configuration as an audit trail.
Wall-clock timings go to stderr, never into output files.

Exit status: 0 on success, 1 for verification violations or solver budget
failures, 2 for usage and input errors.  Error messages are written to
stderr with the prefix ``error:``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from . import analysis, solvers
from .instances import (
    BUDGET_TOL,
    AllocationVector,
    Instance,
    InstanceFormatError,
    complete_k_subsets_instance,
    cycle_instance,
    erdos_renyi_instance,
    parse_instance,
    serialize_instance,
)
from .oracle import (
    CovarianceSpec,
    Estimate,
    EstimatorConfig,
    EstimationError,
    graph_objective,
    graph_objective_correlated,
)

__all__ = ["run", "main"]

_SWEEP_P_GRID = tuple(i / 8 for i in range(1, 9))
_SWEEP_SEED_COUNT = 5


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer in [0, 2^64), refused by the parser otherwise."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return seed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every ``run``."""
    parser = argparse.ArgumentParser(
        prog="varalloc",
        description="Variance allocation for Gaussian vectors: solvers and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a problem instance file")
    gen.add_argument("family", choices=["erdos-renyi", "cycle", "complete-k"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, default=None)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--mu", type=float, default=None)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", default=None)

    sol = sub.add_parser("solve", help="solve an instance and write a report")
    sol.add_argument(
        "algorithm",
        choices=["ptas-ind", "ptas-corr", "log-approx", "brute-force", "uniform"],
    )
    sol.add_argument("--in", dest="instance_path", required=True)
    sol.add_argument("--eps", type=float, default=None)
    sol.add_argument("--grid-step", type=float, default=None)
    sol.add_argument("--seed", type=_seed, default=0)
    sol.add_argument("--mc-samples", type=int, default=2_000_000)
    sol.add_argument("--out", default=None)

    ev = sub.add_parser("evaluate", help="re-evaluate the allocation in a solve report")
    ev.add_argument("--in", dest="report_path", required=True)
    ev.add_argument("--seed", type=_seed, default=None)
    ev.add_argument("--mc-samples", type=int, default=None)
    ev.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the empirical inequality checks")
    # The registry itself, so a check added to it later is still a valid choice.
    which = ver.add_mutually_exclusive_group()
    which.add_argument("--claim", choices=analysis.ALL_CHECKS, default=None)
    which.add_argument("--all", action="store_true")
    ver.add_argument("--seed", type=_seed, default=0)
    ver.add_argument("--mc-samples", type=int, default=50_000)
    ver.add_argument("--out", default=None)

    sw = sub.add_parser("sweep", help="emit trend data as CSV")
    sw.add_argument("kind", choices=["concavity", "concentration"])
    sw.add_argument("--n", type=int, default=8)
    sw.add_argument("--m", type=int, default=24)
    sw.add_argument("--seed", type=_seed, default=0)
    sw.add_argument("--mc-samples", type=int, default=100_000)
    sw.add_argument("--out", default=None)
    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _estimate_doc(est: Estimate) -> dict:
    return {"value": est.value, "half_width": est.half_width, "method": est.method_used}


def _typed(value, kind, what: str):
    """``value`` if it is a ``kind`` (a bool is not a number), else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"report field {what!r} has an invalid value {value!r}")
    return value


def _field(doc: dict, what: str):
    """Report field ``what``, a dotted name ending in a key of ``doc``, else a ValueError."""
    key = what.rpartition(".")[2]
    if key not in doc:
        raise ValueError(f"report is missing the {what!r} field")
    return doc[key]


def _required(doc: dict, what: str, kind):
    """``_typed`` report field ``what``: a dotted name ending in a key of ``doc``."""
    return _typed(_field(doc, what), kind, what)


def _number(value, what: str, least: float = -np.inf) -> float:
    """``value`` as a float if it is a finite number of at least ``least``, else a ValueError."""
    try:
        x = float(_typed(value, (int, float), what))
    except OverflowError:
        raise ValueError(f"report field {what!r} is out of float range") from None
    if not (np.isfinite(x) and x >= least):
        raise ValueError(f"report field {what!r} has an invalid value {value!r}")
    return x


def _finite(value, what: str) -> None:
    """A ValueError naming the first non-finite number in ``value``, a parsed JSON value."""
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"report field {what!r} has an invalid value {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _finite(item, f"{what}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _finite(item, f"{what}[{i}]")


def _numbers(value, what: str) -> list:
    """``value`` as a list of floats if it is a list of numbers, else a ValueError."""
    return [_number(x, what) for x in _typed(value, list, what)]


def _report_doc(report: solvers.SolveReport, inst: Instance, cfg: EstimatorConfig) -> dict:
    alloc = report.allocation
    if isinstance(alloc, AllocationVector):
        alloc_doc = {"stddevs": list(alloc.stddevs)}
    else:
        alloc_doc = {"matrix": [[float(x) for x in row] for row in alloc.matrix]}
    return {
        "algorithm": report.algorithm,
        "seed": cfg.seed,
        "eps": report.eps,
        "grid_step": report.grid_step,
        "support_size": report.support_size,
        "objective": _estimate_doc(report.objective),
        "allocation": alloc_doc,
        "instance": {
            "n": inst.n,
            "means": list(inst.means),
            "sets": [list(s) for s in inst.sets],
        },
        "config": asdict(cfg),
    }


def _refuse_unread(args, choice: str, readers: dict) -> None:
    """A ValueError for the first flag of ``readers`` (dest -> the choices that read it)
    that was given although ``choice`` does not read it."""
    for dest, choices in readers.items():
        if getattr(args, dest) is not None and choice not in choices:
            raise ValueError(f"--{dest.replace('_', '-')} is not used by {choice}")


def _cmd_generate(args) -> int:
    _refuse_unread(args, args.family, {"m": ["erdos-renyi"], "p": ["erdos-renyi"],
                                       "mu": ["cycle"], "k": ["complete-k"]})
    if args.family == "erdos-renyi":
        if args.m is None or args.p is None:
            raise ValueError("erdos-renyi requires --m and --p")
        inst = erdos_renyi_instance(args.n, args.m, args.p, args.seed)
    elif args.family == "cycle":
        inst = cycle_instance(args.n, 0.0 if args.mu is None else args.mu)
    else:
        if args.k is None:
            raise ValueError("complete-k requires --k")
        inst = complete_k_subsets_instance(args.n, args.k)
    _write_text(args.out, serialize_instance(inst).decode("utf-8"))
    return 0


def _cmd_solve(args) -> int:
    _refuse_unread(args, args.algorithm, {"eps": ["ptas-ind", "ptas-corr"],
                                          "grid_step": ["ptas-corr", "brute-force"]})
    with open(args.instance_path, "rb") as fh:
        inst = parse_instance(fh.read())
    cfg = EstimatorConfig(seed=args.seed, mc_samples=args.mc_samples)
    if args.algorithm == "ptas-ind":
        if args.eps is None:
            raise ValueError("ptas-ind requires --eps")
        report = solvers.ptas_independent(inst, args.eps, cfg)
    elif args.algorithm == "ptas-corr":
        if args.eps is None:
            raise ValueError("ptas-corr requires --eps")
        report = solvers.ptas_correlated(inst, args.eps, args.grid_step, cfg)
    elif args.algorithm == "log-approx":
        report = solvers.log_approx_graph(inst, cfg)
    elif args.algorithm == "brute-force":
        if args.grid_step is None:
            raise ValueError("brute-force requires --grid-step")
        report = solvers.brute_force_grid(inst, args.grid_step, cfg)
    else:
        report = solvers.uniform(inst, cfg)
    print(f"{report.algorithm}: {report.elapsed:.2f}s", file=sys.stderr)
    _write_text(args.out, json.dumps(_report_doc(report, inst, cfg), indent=2) + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    with open(args.report_path, "r", encoding="utf-8") as fh:
        doc = _typed(json.load(fh), dict, "report")
    inst_doc, alloc_doc, conf = (_required(doc, key, dict)
                                 for key in ("instance", "allocation", "config"))
    inst = parse_instance(json.dumps(inst_doc))
    cfg = EstimatorConfig(
        method=conf.get("method", "auto"),
        quadrature_tolerance=_number(conf.get("quadrature_tolerance", 1e-9),
                                     "config.quadrature_tolerance"),
        mc_samples=(args.mc_samples if args.mc_samples is not None
                    else _required(conf, "config.mc_samples", int)),
        seed=args.seed if args.seed is not None else _required(conf, "config.seed", int),
    )
    if "stddevs" in alloc_doc:
        alloc = AllocationVector(_numbers(alloc_doc["stddevs"], "allocation.stddevs"))
        est = graph_objective(inst, alloc, cfg)
    elif "matrix" in alloc_doc:
        matrix = [_numbers(row, "allocation.matrix")
                  for row in _typed(alloc_doc["matrix"], list, "allocation.matrix")]
        spec = CovarianceSpec(inst.means, np.asarray(matrix, dtype=float))
        if spec.trace > 1.0 + BUDGET_TOL:
            raise ValueError(f"report field 'allocation.matrix' has trace {spec.trace!r} > 1")
        est = graph_objective_correlated(inst, spec, cfg)
    else:
        raise ValueError("allocation must contain 'stddevs' or 'matrix'")
    reported = doc.get("objective")
    out = {
        "objective": _estimate_doc(est),
        "reported_objective": reported,
        "seed": cfg.seed,
    }
    if reported is not None:
        _finite(_typed(reported, dict, "objective"), "objective")  # echoed as standard JSON
        half_width = _number(reported.get("half_width", 0.0), "objective.half_width", 0.0)
        tol = est.half_width + half_width + 1e-6
        value = _number(_field(reported, "objective.value"), "objective.value")
        out["matches_reported"] = bool(abs(est.value - value) <= tol)
    _write_text(args.out, json.dumps(out, indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    if args.claim is None and not args.all:
        raise ValueError("choose --claim NAME or --all")
    names = sorted(analysis.ALL_CHECKS) if args.all else [args.claim]
    # Refuse a bad --mc-samples whether or not the chosen claims sample.
    EstimatorConfig(seed=args.seed, mc_samples=args.mc_samples)
    docs = []
    failed = 0
    for name in names:
        rep = analysis.ALL_CHECKS[name](args.seed, args.mc_samples)
        docs.append({f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "details"})
        status = "ok" if rep.ok else "VIOLATED"
        print(
            f"{rep.claim}: {status} trials={rep.trials} violations={rep.violations} "
            f"worst_margin={rep.worst_margin!r}"
        )
        failed += rep.violations
    if args.out:
        _write_text(args.out, json.dumps(docs, indent=2) + "\n")
    if failed:
        print(f"error: {failed} verification violations", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    cfg = EstimatorConfig(seed=args.seed, mc_samples=args.mc_samples)
    if args.kind == "concavity":
        table = analysis.concavity_curve(args.n, cfg)
    else:
        seeds = [args.seed + i for i in range(_SWEEP_SEED_COUNT)]
        table = analysis.concentration_profile(args.n, args.m, _SWEEP_P_GRID, seeds, cfg)
    _write_text(args.out, analysis.sweep_csv(table))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (solvers.BudgetError, EstimationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, InstanceFormatError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
