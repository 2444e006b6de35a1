"""Run-to-run spread of the benchmark: repeat run.py over seeds and report,
per workload and end-to-end metric, the median, the quartiles and the
interquartile distance as a share of the median.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --label a

Seeds are the outer loop and workloads the inner one, so slow phases of the
host fall on every workload alike.  The table goes to standard output and
every run's result to perfbench/out/spread-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ptas", "graph", "verify")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args(argv)

    runs = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for w in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(lines[-1])
            record = json.loads((BENCH_DIR / "out" / f"{w}-run.json").read_text())
            for key in ("round_s", "round_wall_s", "kernel_s", "warm_s"):
                result[key] = record[key]
            runs[w].append(result)
            vals = " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items())
            print(f"{w} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {vals}", flush=True)

    report = {}
    for w, results in runs.items():
        report[w] = {k: summary([r["metrics"][k]["value"] for r in results])
                     for k in results[0]["metrics"]}
        report[w]["failed_share"] = sorted({r["failed"] / r["attempted"] for r in results})
        for k, s in report[w].items():
            if k != "failed_share":
                print(f"{w:7s} {k:12s} median={s['median']:.4f} q1={s['q1']:.4f} "
                      f"q3={s['q3']:.4f} spread={s['spread']:.3f}")
    out = BENCH_DIR / "out" / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "seeds": args.seeds,
                               "runs": runs, "summary": report}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
