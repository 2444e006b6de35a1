"""End-to-end benchmark of the varalloc command line, run in one process.

    python3 perfbench/run.py --workload {ptas,graph,verify} --seed N \
        --seconds S --trace {0,1}

Imports ``varalloc`` from ``src/`` of the checkout this file sits in, writes
the workload's seeded inputs under ``perfbench/out/<workload>/``, runs one
untimed warm-up round, then repeats the round through ``varalloc.cli.run``
for ``--seconds``, each round followed by a fixed reference kernel that
gauges the host's speed.  Every invocation's output is checked against the
benchmark's own computations (see workloads.py) and against the warm-up
round's bytes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
"""

import os

# BLAS threads are pinned before numpy loads; one thread leaves the second
# core to the rest of the host, which keeps round times steadier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# Peak memory is read after this many timed rounds, a number that always fits
# the run, so the figure includes round-to-round growth but not the speed.
RSS_ROUNDS = 3
# Times are reported in calibrated seconds: wall time divided by the wall
# time of the reference kernel measured next to it, times the kernel's
# nominal time.  The host's speed drifts by 15-45% over tens of seconds and
# exposes no cycle or instruction counters; the kernel slows with it, so the
# ratio repeats across runs where wall time does not.
KERNEL_NOMINAL_S = 0.5


class Kernel:
    """A fixed mix of interpreted Python, small numpy/scipy calls and
    array-wide numpy work, like the program's own mix.  Its buffers are
    allocated once, so it adds a constant to the peak resident memory."""

    def __init__(self):
        import numpy as np
        from scipy.special import ndtr

        self._np, self._ndtr = np, ndtr
        self._draws = np.empty((1 << 16, 8))
        self._row_max = np.empty(1 << 16)
        self._x = np.linspace(-3.0, 3.0, 64)

    def __call__(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        np, ndtr, x = self._np, self._ndtr, self._x
        t0 = time.perf_counter()
        acc: dict[int, float] = {}
        for i in range(700_000):
            acc[i & 1023] = acc.get(i & 1023, 0.0) + math.sqrt(i)
        for i in range(15_000):
            float(np.prod(ndtr(x * (1.0 + i * 1e-6))))
        rng = np.random.default_rng(12345)
        for _ in range(15):
            rng.standard_normal(out=self._draws)
            np.max(self._draws, axis=1, out=self._row_max)
            float(self._row_max.mean())
        return time.perf_counter() - t0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ptas", "graph", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import varalloc.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "varalloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no varalloc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import varalloc.cli

    if SRC not in Path(varalloc.__file__).resolve().parents:
        raise SystemExit(f"error: varalloc was imported from {varalloc.__file__}, not {SRC}")
    return varalloc.cli


def _environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        return config["Build Dependencies"]["blas"].get("version")

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def _run_round(cli, ops):
    """Run every op once; return (seconds inside cli.run, [(rc, stdout)])."""
    spent = 0.0
    results = []
    for op in ops:
        out = io.StringIO()
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(op.argv)
            except SystemExit as e:  # argparse rejects a command line this way
                rc = e.code
            except Exception:  # noqa: BLE001 - one failed op must not end the run
                rc = "exception"
                traceback.print_exc(file=err)
        spent += time.perf_counter() - t0
        if rc != 0:
            sys.stderr.write(f"{op.name}: exit {rc}\n{err.getvalue()}")
        results.append((rc, out.getvalue()))
    return spent, results


class Ledger:
    """Counts attempted and failed ops and holds the reference outputs.

    An op fails when it exits non-zero, when its output fails a check, or
    when its bytes differ from the warm-up round's.  Checks are pure
    functions of the bytes, so each distinct output is checked once.
    """

    def __init__(self, ops):
        self.ops = ops
        self.reference: list[str] | None = None
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def _verdict(self, op, digest: str, text: str, stdout: str) -> list[str]:
        key = (op.name, digest)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(text, stdout)
            except (KeyError, TypeError, ValueError, IndexError) as e:
                self.verdicts[key] = [f"output could not be read: {e!r}"]
        return self.verdicts[key]

    def record(self, results, count: bool = True) -> None:
        digests = []
        for i, (op, (rc, stdout)) in enumerate(zip(self.ops, results)):
            text = op.out.read_text(encoding="utf-8") if op.out.is_file() else ""
            digest = hashlib.sha256((stdout + "\0" + text).encode("utf-8")).hexdigest()
            digests.append(digest)
            problems = [] if rc != 0 else list(self._verdict(op, digest, text, stdout))
            if self.reference is not None and digest != self.reference[i]:
                problems.append("output bytes differ from the warm-up round")
            if count:
                self.attempted += 1
                self.failed += int(rc != 0 or bool(problems))
                self.wrong += int(rc == 0 and bool(problems))
            for p in problems:
                sys.stderr.write(f"{op.name}: {p}\n")
        if self.reference is None:
            self.reference = digests


def _calibrated(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * KERNEL_NOMINAL_S / statistics.fmean((kernel_before, kernel_after))


def _measure(cli, ops, ledger, budget: float, kernel, kernel_s, tracer=None):
    """Whole rounds for about `budget` seconds, each followed by the kernel,
    whose times are appended to `kernel_s` (the last one ran just before).

    Returns the calibrated times of the plain and the traced rounds, the wall
    times of all rounds in order and the peak resident MiB after RSS_ROUNDS
    rounds.  A round is calibrated by the mean of the kernel runs just before
    and just after it.  A round starts only while the typical round still
    fits, and at least RSS_ROUNDS rounds run.  With a tracer, traced and plain rounds alternate, so a slow phase
    of the host falls on both alike."""
    plain: list[float] = []
    traced: list[float] = []
    wall: list[float] = []
    cycles: list[float] = []  # wall time of round plus kernel
    peak_mib = 0.0
    start = time.perf_counter()
    while (len(cycles) < RSS_ROUNDS
           or time.perf_counter() - start + statistics.median(cycles) <= budget):
        t0 = time.perf_counter()
        use_tracer = tracer is not None and len(traced) < len(plain)
        if use_tracer:
            tracer.install()
        try:
            spent, results = _run_round(cli, ops)
        finally:
            if use_tracer:
                tracer.uninstall()
        ledger.record(results)
        if len(cycles) + 1 == RSS_ROUNDS:
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernel_s.append(kernel())
        (traced if use_tracer else plain).append(_calibrated(spent, *kernel_s[-2:]))
        wall.append(spent)
        cycles.append(time.perf_counter() - t0)
    return plain, traced, wall, peak_mib


def main(argv=None) -> int:
    args = _parse_args(argv)
    t0 = time.perf_counter()
    cli = _import_program()
    import_s = time.perf_counter() - t0
    import layers
    import workloads

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    t0 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, work)
    build_s = time.perf_counter() - t0
    kernel = Kernel()
    kernel_s = [kernel()]
    warm_s, warm_results = _run_round(cli, ops)
    kernel_s.append(kernel())
    setup_s = _calibrated(import_s + build_s + warm_s, *kernel_s)
    ledger = Ledger(ops)
    ledger.record(warm_results, count=False)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": _environment(), "import_s": import_s, "build_s": build_s,
              "warm_s": warm_s, "setup_s": setup_s}
    tracer = layers.Tracer() if args.trace else None
    plain, traced, wall, peak_mib = _measure(
        cli, ops, ledger, args.seconds, kernel, kernel_s, tracer)
    record.update(round_s=plain, traced_round_s=traced, round_wall_s=wall, kernel_s=kernel_s)
    if tracer is not None:
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        metrics["trace.kernel_s"] = (statistics.median(kernel_s), "s")
    else:
        metrics = {
            "round_s": (statistics.median(plain), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mib, "MiB"),
        }

    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    name = f"{args.workload}-{'trace' if args.trace else 'run'}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
