"""Golden outputs: fixed-seed CLI invocations must keep their bytes and values.

Each case runs ``varalloc.cli.run`` on inputs written from a fixed seed, once
per pytest run, and checks its output files against two layers:

- hashes: the SHA-256 of every file equals ``golden/sha256.json``;
- values: every parsed file agrees with ``golden/values.json`` field by field.
  Discrete fields (strings, integers, allocations, matrices, means, trials,
  CSV parameters) and Monte Carlo values match exactly; Monte Carlo values
  follow a seed and an allocation, and an allocation that changes fails on
  its own fields.  Each file's ``tolerances`` map a field path (keys and
  list indices joined by dots) to a rule: ``{"rel": r}`` for a value derived
  from quadrature or a closed form, or ``{"half_widths": k}`` for a Monte
  Carlo estimate that may become deterministic (half-width 0 and a method
  other than ``monte_carlo``) within k of its recorded half-width.

Speedups and refactors must leave the hashes unchanged.  A change that is
meant to alter an output re-records only the hashes, with ``python
tests/test_golden.py``, says why, and must still pass the values layer.
``python tests/test_golden.py --values`` records the values layer as well,
which needs a stated reason of its own.
"""

import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from varalloc.cli import run

FIXTURE = Path(__file__).parent / "golden" / "sha256.json"


def _write_instance(path: Path, means) -> str:
    doc = {"n": len(means), "means": [float(x) for x in means], "sets": [list(range(len(means)))]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def _ptas_ind_n4(work: Path) -> list[str]:
    inst = _write_instance(work / "in.json", np.random.default_rng([1, 1]).uniform(0, 1, 4))
    assert run(["solve", "ptas-ind", "--in", inst, "--eps", "0.4", "--seed", "1",
                "--out", str(work / "report.json")]) == 0
    return ["report.json"]


def _ptas_ind_n3(work: Path) -> list[str]:
    inst = _write_instance(work / "in.json", np.random.default_rng([2, 1]).uniform(0, 1, 3))
    assert run(["solve", "ptas-ind", "--in", inst, "--eps", "0.35", "--seed", "2",
                "--out", str(work / "report.json")]) == 0
    return ["report.json"]


def _ptas_ind_supports(work: Path) -> list[str]:
    # Equal means and n > s: 15 supports of four, where permuted supports tie exactly.
    inst = _write_instance(work / "in.json", [0.3, 0.3, 0.3, 0.7, 0.7, 0.0])
    assert run(["solve", "ptas-ind", "--in", inst, "--eps", "0.5",
                "--out", str(work / "report.json")]) == 0
    return ["report.json"]


def _ptas_corr_n3(work: Path) -> list[str]:
    rng = np.random.default_rng([1, 1])
    rng.uniform(0, 1, 4)  # the n=4 means above come first from this stream
    inst = _write_instance(work / "in.json", rng.uniform(0, 1, 3))
    assert run(["solve", "ptas-corr", "--in", inst, "--eps", "0.6", "--grid-step", "0.2",
                "--seed", "1", "--mc-samples", "200000",
                "--out", str(work / "report.json")]) == 0
    return ["report.json"]


def _ptas_corr_pair(work: Path) -> list[str]:
    inst = _write_instance(work / "in.json", [0.0, 0.0])
    assert run(["solve", "ptas-corr", "--in", inst, "--eps", "0.7", "--grid-step", "0.25",
                "--mc-samples", "200000", "--out", str(work / "report.json")]) == 0
    return ["report.json"]


def _ptas_corr_multichunk(work: Path) -> list[str]:
    # The default 2,000,000 samples: eight Monte Carlo chunks of 2^18, the
    # last of 164,992, in the solve's re-estimate and again in evaluate.  Four
    # means and supports of three, so the candidate loop takes a floor.
    inst = _write_instance(work / "in.json", [0.54, 0.52, 0.21, 0.4])
    rep = str(work / "report.json")
    assert run(["solve", "ptas-corr", "--in", inst, "--eps", "0.6", "--grid-step", "0.2",
                "--out", rep]) == 0
    assert run(["evaluate", "--in", rep, "--out", str(work / "eval.json")]) == 0
    return ["report.json", "eval.json"]


def _correlated_mc(work: Path) -> list[str]:
    # Hand-written correlated reports at the default 2,000,000 samples, eight
    # Monte Carlo chunks: a rank-3 matrix under auto on one set of four (the
    # fourth variable is a constant), and a rank-1 matrix under monte_carlo
    # on two overlapping sets.
    cases = {
        "rank3": ([0.54, 0.52, 0.21, 0.4], [[0, 1, 2, 3]], "auto",
                  [[0.4, 0.1, 0.0, 0.0], [0.1, 0.3, -0.1, 0.0], [0.0, -0.1, 0.3, 0.0],
                   [0.0, 0.0, 0.0, 0.0]]),
        "rank1": ([0.1, 0.3, 0.0], [[0, 1], [1, 2]], "monte_carlo",
                  [[0.16, -0.2, 0.12], [-0.2, 0.25, -0.15], [0.12, -0.15, 0.09]]),
    }
    outputs = []
    for name, (means, sets, method, matrix) in cases.items():
        doc = {"instance": {"n": len(means), "means": means, "sets": sets},
               "allocation": {"matrix": matrix},
               "config": {"method": method, "quadrature_tolerance": 1e-9,
                          "mc_samples": 2_000_000, "seed": 3}}
        rep = work / f"{name}-report.json"
        rep.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert run(["evaluate", "--in", str(rep), "--out", str(work / f"{name}-eval.json")]) == 0
        outputs.append(f"{name}-eval.json")
    return outputs


def _correlated_exact_sets(work: Path) -> list[str]:
    # Hand-written correlated reports on several sets under auto, so the exact
    # route scores one matrix set by set.  Rank 2: a singleton, a set with one
    # loaded member (variable 3 is a constant) and overlapping rank-2 sets.
    # Rank 1: closed forms on every set.  Each matrix is L L^T, each entry a
    # correctly rounded sum of products.
    cases = {
        "rank2": ([0.1, 0.3, 0.0, 0.25, 0.05], [[0, 1, 2], [3], [2, 3], [0, 1, 2, 4], [1, 4]],
                  [[0.3, 0.1], [-0.2, 0.25], [0.1, -0.3], [0.0, 0.0], [0.2, 0.2]]),
        "rank1": ([0.1, 0.3, 0.0, 0.2], [[0, 1], [1, 2, 3], [3]],
                  [[0.4], [-0.3], [0.25], [0.0]]),
    }
    outputs = []
    for name, (means, sets, factor) in cases.items():
        matrix = [[math.fsum(x * y for x, y in zip(ri, rj)) for rj in factor] for ri in factor]
        doc = {"instance": {"n": len(means), "means": means, "sets": sets},
               "allocation": {"matrix": matrix},
               "config": {"method": "auto", "quadrature_tolerance": 1e-9,
                          "mc_samples": 2_000_000, "seed": 3}}
        rep = work / f"{name}-report.json"
        rep.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert run(["evaluate", "--in", str(rep), "--out", str(work / f"{name}-eval.json")]) == 0
        outputs.append(f"{name}-eval.json")
    return outputs


def _correlated_three_lines(work: Path) -> list[str]:
    # Hand-written correlated reports at rank 3 under auto, where a set of at
    # most three members is exact: one set of three members, and sets of
    # three, four and two members on three loaded variables and a constant,
    # where the set of four (affine dimension 3) samples.
    loaded = [[0.4, 0.1, 0.0], [0.1, 0.3, -0.1], [0.0, -0.1, 0.3]]
    cases = {
        "three": ([0.54, 0.52, 0.21], [[0, 1, 2]], loaded),
        "mixed": ([0.54, 0.52, 0.21, 0.4], [[0, 1, 2], [0, 1, 2, 3], [1, 3]],
                  [[*row, 0.0] for row in loaded] + [[0.0] * 4]),
    }
    outputs = []
    for name, (means, sets, matrix) in cases.items():
        doc = {"instance": {"n": len(means), "means": means, "sets": sets},
               "allocation": {"matrix": matrix},
               "config": {"method": "auto", "quadrature_tolerance": 1e-9,
                          "mc_samples": 2_000_000, "seed": 3}}
        rep = work / f"{name}-report.json"
        rep.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert run(["evaluate", "--in", str(rep), "--out", str(work / f"{name}-eval.json")]) == 0
        outputs.append(f"{name}-eval.json")
    return outputs


def _log_approx(work: Path) -> list[str]:
    inst = str(work / "er.json")
    assert run(["generate", "erdos-renyi", "--n", "6", "--m", "10", "--p", "0.4",
                "--seed", "11", "--out", inst]) == 0
    assert run(["solve", "log-approx", "--in", inst, "--seed", "3",
                "--mc-samples", "100000", "--out", str(work / "report.json")]) == 0
    return ["er.json", "report.json"]


def _log_approx_rounds(work: Path) -> list[str]:
    # Zero means at n = 17: levels k = 0..4 take 1, 4, 16, 17 and 17 picks,
    # so 4^k clamps to n twice.  Then one set with distinct nonzero means,
    # which runs one greedy per level.
    er = str(work / "er17.json")
    assert run(["generate", "erdos-renyi", "--n", "17", "--m", "30", "--p", "0.3",
                "--seed", "5", "--out", er]) == 0
    assert run(["solve", "log-approx", "--in", er, "--seed", "4", "--mc-samples", "100000",
                "--out", str(work / "er17-report.json")]) == 0
    distinct = np.random.default_rng([3, 1]).uniform(0.1, 1, 6)
    means = _write_instance(work / "means.json", distinct)
    assert run(["solve", "log-approx", "--in", means, "--seed", "4", "--mc-samples", "100000",
                "--out", str(work / "means-report.json")]) == 0
    return ["er17.json", "er17-report.json", "means.json", "means-report.json"]


def _uniform(work: Path) -> list[str]:
    inst = str(work / "cycle.json")
    assert run(["generate", "cycle", "--n", "5", "--mu", "0.25", "--out", inst]) == 0
    assert run(["solve", "uniform", "--in", inst, "--out", str(work / "report.json")]) == 0
    return ["cycle.json", "report.json"]


def _uniform_wide(work: Path) -> list[str]:
    # One 256-wide set and a random graph: quadrature in auto mode on wide
    # sets of equal deviations, which the 2-member cycle sets never reach.
    wide = str(work / "wide.json")
    assert run(["generate", "complete-k", "--n", "256", "--k", "256", "--out", wide]) == 0
    assert run(["solve", "uniform", "--in", wide, "--out", str(work / "wide-report.json")]) == 0
    er = str(work / "er.json")
    assert run(["generate", "erdos-renyi", "--n", "24", "--m", "72", "--p", "0.5",
                "--seed", "1", "--out", er]) == 0
    assert run(["solve", "uniform", "--in", er, "--out", str(work / "er-report.json")]) == 0
    return ["wide.json", "wide-report.json", "er.json", "er-report.json"]


def _uniform_complete_k(work: Path) -> list[str]:
    # All 70 sets of 4 out of 8 under one deviation: every set has the same
    # row, so quadrature scores one row and all 70 sets share its value.
    inst = str(work / "k.json")
    assert run(["generate", "complete-k", "--n", "8", "--k", "4", "--out", inst]) == 0
    rep = str(work / "report.json")
    assert run(["solve", "uniform", "--in", inst, "--out", rep]) == 0
    assert run(["evaluate", "--in", rep, "--out", str(work / "eval.json")]) == 0
    return ["k.json", "report.json", "eval.json"]


def _write_mixed_widths(work: Path) -> Path:
    # Sets of widths 1, 2, 3 and 8+ (8, 9, 8), at least two of each.  Mean 6
    # sits more than 10 deviations above the zero means under the uniform split,
    # so the sets holding variable 0 have one live member; the log-approx
    # allocation leaves other sets with none or one nonzero deviation.
    means = [6.0, -0.0, 0.0, 0.0, 0.5] + [0.0] * 7
    sets = [[0], [5], [1, 2], [0, 3], [0, 1, 2], [3, 4, 5], [0, 6, 7], [8, 9, 10],
            list(range(8)), list(range(2, 11)), list(range(4, 12))]
    inst = work / "mixed.json"
    inst.write_text(json.dumps({"n": len(means), "means": means, "sets": sets}) + "\n",
                    encoding="utf-8")
    return inst


def _graph_mixed_widths(work: Path) -> list[str]:
    inst = _write_mixed_widths(work)
    assert run(["solve", "uniform", "--in", str(inst),
                "--out", str(work / "uniform-report.json")]) == 0
    assert run(["solve", "log-approx", "--in", str(inst), "--seed", "6", "--mc-samples", "100000",
                "--out", str(work / "la-report.json")]) == 0
    assert run(["evaluate", "--in", str(work / "la-report.json"),
                "--out", str(work / "la-eval.json")]) == 0
    return ["mixed.json", "uniform-report.json", "la-report.json", "la-eval.json"]


def _evaluate_methods(work: Path) -> list[str]:
    # A report's config.method is how a method other than auto reaches the
    # estimators from the command line.  Copies of a uniform report on the
    # mixed-width instance are evaluated under quadrature and Monte Carlo, and
    # one whose allocation has a single nonzero deviation under closed_form.
    inst = _write_mixed_widths(work)
    assert run(["solve", "uniform", "--in", str(inst),
                "--out", str(work / "uniform-report.json")]) == 0
    base = json.loads((work / "uniform-report.json").read_text(encoding="utf-8"))
    one_live = [0.0] * base["instance"]["n"]
    one_live[4] = 1.0
    cases = [("quadrature", None, []), ("monte_carlo", None, ["--mc-samples", "20000"]),
             ("closed_form", one_live, [])]
    outputs = []
    for method, stddevs, flags in cases:
        doc = json.loads(json.dumps(base))
        doc["config"]["method"] = method
        if stddevs is not None:
            doc["allocation"]["stddevs"] = stddevs
        rep = work / f"{method}-report.json"
        rep.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert run(["evaluate", "--in", str(rep), *flags,
                    "--out", str(work / f"{method}-eval.json")]) == 0
        outputs.append(f"{method}-eval.json")
    return outputs


def _evaluate(work: Path) -> list[str]:
    inst = _write_instance(work / "in.json", [0.0, 0.0])
    rep = str(work / "report.json")
    assert run(["solve", "ptas-corr", "--in", inst, "--eps", "0.7", "--grid-step", "0.5",
                "--mc-samples", "100000", "--out", rep]) == 0
    assert run(["evaluate", "--in", rep, "--seed", "9", "--out", str(work / "eval.json")]) == 0
    return ["eval.json"]


def _brute_force(work: Path) -> list[str]:
    inst = str(work / "cycle.json")
    assert run(["generate", "cycle", "--n", "3", "--mu", "0.25", "--out", inst]) == 0
    assert run(["solve", "brute-force", "--in", inst, "--grid-step", "0.125",
                "--out", str(work / "report.json")]) == 0
    return ["cycle.json", "report.json"]


def _sweep_concavity(work: Path) -> list[str]:
    assert run(["sweep", "concavity", "--n", "4", "--seed", "3", "--mc-samples", "100000",
                "--out", str(work / "sweep.csv")]) == 0
    return ["sweep.csv"]


def _sweep_concentration(work: Path) -> list[str]:
    # 40 log_approx_graph solves over the densities 1/8 ... 1.
    assert run(["sweep", "concentration", "--n", "6", "--m", "10", "--seed", "3",
                "--mc-samples", "100000", "--out", str(work / "sweep.csv")]) == 0
    return ["sweep.csv"]


def _verify(work: Path) -> list[str]:
    assert run(["verify", "--claim", "submodular_g", "--out", str(work / "verify.json")]) == 0
    return ["verify.json"]


def _verify_all(work: Path) -> list[str]:
    # Every claim, so the worst_margin bits of the six fuzzed claims are pinned.
    assert run(["verify", "--all", "--seed", "7", "--mc-samples", "20000",
                "--out", str(work / "verify.json")]) == 0
    return ["verify.json"]


CASES = {
    "ptas_ind_n4": _ptas_ind_n4,
    "ptas_ind_n3": _ptas_ind_n3,
    "ptas_ind_supports": _ptas_ind_supports,
    "ptas_corr_n3": _ptas_corr_n3,
    "ptas_corr_pair": _ptas_corr_pair,
    "ptas_corr_multichunk": _ptas_corr_multichunk,
    "correlated_mc": _correlated_mc,
    "correlated_exact_sets": _correlated_exact_sets,
    "correlated_three_lines": _correlated_three_lines,
    "log_approx": _log_approx,
    "log_approx_rounds": _log_approx_rounds,
    "uniform": _uniform,
    "uniform_wide": _uniform_wide,
    "uniform_complete_k": _uniform_complete_k,
    "graph_mixed_widths": _graph_mixed_widths,
    "evaluate": _evaluate,
    "evaluate_methods": _evaluate_methods,
    "verify_submodular_g": _verify,
    "verify_all": _verify_all,
    "brute_force": _brute_force,
    "sweep_concavity": _sweep_concavity,
    "sweep_concentration": _sweep_concentration,
}


VALUES = Path(__file__).parent / "golden" / "values.json"

# verify claims whose worst_margin comes from Monte Carlo, and sweep
# statistics computed by quadrature.
_MC_CLAIMS = {"correlation_gap"}
_QUADRATURE_STATISTICS = {"independent", "concavity_margin"}
_REL = {"rel": 1e-12}


def _parse(path: Path):
    """A JSON file's document, or a CSV file's rows with numeric cells as floats."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".csv":
        return json.loads(text)

    def cell(x):
        try:
            return float(x)
        except ValueError:
            return x

    return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _default_tolerances(doc, path=()) -> dict[str, dict]:
    """Relative tolerances for the fields of ``doc`` that quadrature or a closed form gives."""
    rules = {}
    if isinstance(doc, list):
        for i, x in enumerate(doc):
            rules.update(_default_tolerances(x, (*path, i)))
    elif isinstance(doc, dict):
        if {"value", "half_width", "method"} <= doc.keys():  # an estimate
            quadrature = doc["method"] != "monte_carlo" and doc["half_width"] == 0
        else:
            quadrature = (doc.get("claim") not in _MC_CLAIMS if "claim" in doc
                          else doc.get("statistic") in _QUADRATURE_STATISTICS)
        for key in ("value", "worst_margin"):
            if quadrature and isinstance(doc.get(key), float):
                rules[".".join(map(str, (*path, key)))] = _REL
        for k, x in doc.items():
            rules.update(_default_tolerances(x, (*path, k)))
    return rules


def _value_errors(old, new, rules, path=()) -> list[str]:
    """Where ``new`` departs from ``old`` under ``rules``; exact where no rule applies."""
    where = ".".join(map(str, path))
    rule = rules.get(where, {})
    if "half_widths" in rule and old != new:
        ok = (isinstance(new, dict) and new.keys() == old.keys() and new["half_width"] == 0
              and new["method"] != "monte_carlo"
              and abs(new["value"] - old["value"]) <= rule["half_widths"] * old["half_width"])
        return [] if ok else [f"{where}: {new!r} is not {old!r} made deterministic"]
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [e for k in old for e in _value_errors(old[k], new[k], rules, (*path, k))]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [e for i, (a, b) in enumerate(zip(old, new))
                for e in _value_errors(a, b, rules, (*path, i))]
    if "rel" in rule and type(old) is float and type(new) is float:
        ok = abs(new - old) <= rule["rel"] * abs(old)
    else:
        ok = type(old) is type(new) and old == new
    return [] if ok else [f"{where}: {new!r} != {old!r}"]


def _outputs(name: str, work: Path) -> dict[str, Path]:
    return {f: work / f for f in CASES[name](work)}


def _digests(outputs: dict[str, Path]) -> dict[str, str]:
    return {f: hashlib.sha256(p.read_bytes()).hexdigest() for f, p in outputs.items()}


def _values(outputs: dict[str, Path]) -> dict[str, dict]:
    return {f: {"doc": (doc := _parse(p)), "tolerances": _default_tolerances(doc)}
            for f, p in outputs.items()}


@pytest.fixture(scope="module")
def case_outputs(tmp_path_factory):
    """Each case's output files, made once for both layers."""
    made = {}

    def outputs(name: str) -> dict[str, Path]:
        if name not in made:
            made[name] = _outputs(name, tmp_path_factory.mktemp(name))
        return made[name]

    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_sha256(name, case_outputs):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    assert _digests(case_outputs(name)) == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_values(name, case_outputs):
    want = json.loads(VALUES.read_text(encoding="utf-8"))[name]
    outputs = case_outputs(name)
    assert sorted(outputs) == sorted(want)
    errors = [f"{f}: {e}" for f, rec in want.items()
              for e in _value_errors(rec["doc"], _parse(outputs[f]), rec["tolerances"])]
    assert not errors, "\n".join(errors)


def test_value_rules():
    est = {"value": 1.0, "half_width": 0.01, "method": "monte_carlo"}
    moved = {"value": 1.025, "half_width": 0.0, "method": "closed_form"}
    assert _value_errors(est, est, {}) == []
    assert _value_errors(est, moved, {}) != []
    assert _value_errors({"o": est}, {"o": moved}, {"o": {"half_widths": 3}}) == []
    assert _value_errors({"o": est}, {"o": {**moved, "value": 1.04}}, {"o": {"half_widths": 3}})
    assert _value_errors({"o": est}, {"o": {**est, "value": 1.001}}, {"o": {"half_widths": 3}})
    assert _value_errors([0.5], [0.5 * (1 + 5e-13)], {"0": _REL}) == []
    assert _value_errors([0.5], [0.5 * (1 + 5e-12)], {"0": _REL}) != []
    assert _value_errors([1], [1.0], {}) != []  # an integer field stays an integer
    assert _default_tolerances([{"claim": "lipschitz", "worst_margin": 0.3},
                                {"claim": "correlation_gap", "worst_margin": 0.3}]) == {
        "0.worst_margin": _REL}
    assert _default_tolerances({"objective": {"value": 1.0, "half_width": 0.0,
                                              "method": "quadrature"}, "eps": 0.5}) == {
        "objective.value": _REL}


if __name__ == "__main__":
    # Re-record the hashes from the current program; with --values, the values too.
    import tempfile

    hashes, values = {}, {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = _outputs(case, Path(tmp))
            hashes[case] = _digests(outputs)
            values[case] = _values(outputs)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
    if "--values" in sys.argv[1:]:
        VALUES.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        sys.stdout.write(f"wrote {VALUES}\n")
