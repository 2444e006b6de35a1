"""Command-line interface: pipelines, exit codes, reproducibility."""

import json
import math
import subprocess
import sys

import pytest

from varalloc.cli import run

SQRT_4_OVER_PI = math.sqrt(4 / math.pi)


def test_generate_solve_evaluate_pipeline(tmp_path, capsys):
    inst = tmp_path / "cycle.json"
    rep = tmp_path / "report.json"
    evl = tmp_path / "eval.json"
    assert run(["generate", "cycle", "--n", "4", "--mu", "0", "--out", str(inst)]) == 0
    assert run(["solve", "uniform", "--in", str(inst), "--out", str(rep)]) == 0
    assert run(["evaluate", "--in", str(rep), "--out", str(evl)]) == 0

    report = json.loads(rep.read_text())
    assert report["objective"]["value"] == pytest.approx(SQRT_4_OVER_PI, abs=1e-6)
    assert report["seed"] == 0

    evaluated = json.loads(evl.read_text())
    assert evaluated["matches_reported"] is True
    assert abs(
        evaluated["objective"]["value"] - report["objective"]["value"]
    ) <= report["objective"]["half_width"] + 1e-6


def test_solve_ptas_ind(tmp_path):
    inst = tmp_path / "pair.json"
    inst.write_text('{"n": 2, "means": [0.0, 0.0], "sets": [[0, 1]]}\n')
    out = tmp_path / "rep.json"
    assert run(["solve", "ptas-ind", "--in", str(inst), "--eps", "0.5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["objective"]["value"] >= 0.3979
    assert report["eps"] == 0.5


def test_solve_ptas_corr_and_evaluate(tmp_path):
    inst = tmp_path / "pair.json"
    inst.write_text('{"n": 2, "means": [0.0, 0.0], "sets": [[0, 1]]}\n')
    rep = tmp_path / "rep.json"
    assert run([
        "solve", "ptas-corr", "--in", str(inst), "--eps", "0.7",
        "--grid-step", "0.25", "--mc-samples", "200000", "--out", str(rep),
    ]) == 0
    doc = json.loads(rep.read_text())
    assert doc["allocation"]["matrix"][0][1] == pytest.approx(-0.5)
    evl = tmp_path / "eval.json"
    assert run(["evaluate", "--in", str(rep), "--out", str(evl)]) == 0
    assert json.loads(evl.read_text())["matches_reported"] is True


@pytest.mark.parametrize("algorithm, means, extra", [
    ("ptas-ind", [0.0, 0.4, 0.9], ["--eps", "0.5"]),
    ("ptas-corr", [0.0, 0.9], ["--eps", "0.7", "--grid-step", "0.25"]),
    ("log-approx", None, []),
    ("brute-force", [0.0, 0.4, 0.9], ["--grid-step", "0.25"]),
    ("uniform", None, []),
])
def test_report_fields_derived_for_every_algorithm(tmp_path, algorithm, means, extra):
    inst = tmp_path / "inst.json"
    if means is None:
        assert run(["generate", "erdos-renyi", "--n", "6", "--m", "8", "--p", "0.4",
                    "--seed", "11", "--out", str(inst)]) == 0
    else:
        inst.write_text(json.dumps({"n": len(means), "means": means,
                                    "sets": [list(range(len(means)))]}))
    out = tmp_path / "rep.json"
    assert run(["solve", algorithm, "--in", str(inst), "--seed", "5",
                "--mc-samples", "20000", *extra, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 5
    alloc = doc["allocation"]
    if "stddevs" in alloc:
        positive = sum(s > 0 for s in alloc["stddevs"])
    else:
        positive = sum(row[i] > 0 for i, row in enumerate(alloc["matrix"]))
    assert doc["support_size"] == positive


def test_byte_identical_reproducibility(tmp_path):
    paths = []
    for tag in ("a", "b"):
        inst = tmp_path / f"inst_{tag}.json"
        rep = tmp_path / f"rep_{tag}.json"
        csv = tmp_path / f"sweep_{tag}.csv"
        assert run([
            "generate", "erdos-renyi", "--n", "6", "--m", "10",
            "--p", "0.4", "--seed", "11", "--out", str(inst),
        ]) == 0
        assert run([
            "solve", "log-approx", "--in", str(inst), "--seed", "3",
            "--mc-samples", "100000", "--out", str(rep),
        ]) == 0
        assert run([
            "sweep", "concentration", "--n", "4", "--m", "8",
            "--seed", "5", "--out", str(csv),
        ]) == 0
        paths.append((inst.read_bytes(), rep.read_bytes(), csv.read_bytes()))
    assert paths[0] == paths[1]


def test_zero_mean_log_approx_does_not_depend_on_seed(tmp_path):
    # Zero means take the exact count-table greedy, which draws no samples, and
    # the report scores the allocation by quadrature and closed forms.
    inst = tmp_path / "er.json"
    assert run(["generate", "erdos-renyi", "--n", "24", "--m", "72", "--p", "0.5",
                "--seed", "2", "--out", str(inst)]) == 0
    docs = []
    for seed in (0, 1, 7):
        rep = tmp_path / f"report-{seed}.json"
        assert run(["solve", "log-approx", "--in", str(inst), "--seed", str(seed),
                    "--out", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc.pop("seed") == doc["config"].pop("seed") == seed
        assert doc["objective"]["half_width"] == 0.0
        docs.append(doc)
    assert docs[1] == docs[0] and docs[2] == docs[0]


def test_verify_single_claim_ok(capsys):
    assert run(["verify", "--claim", "max_inequalities", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max_inequalities: ok" in out


def test_verify_all_default_trials_green(capsys):
    # Every check at its default trial count and seed 0 reports no violations.
    assert run(["verify", "--all", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 7


def test_verify_writes_json_report(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--claim", "submodular_g", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc[0]["claim"] == "submodular_g"
    assert doc[0]["violations"] == 0


def test_usage_errors_exit_2(tmp_path, capsys):
    inst = tmp_path / "pair.json"
    inst.write_text('{"n": 2, "means": [0.0, 0.0], "sets": [[0, 1]]}\n')
    # missing --eps
    assert run(["solve", "ptas-ind", "--in", str(inst)]) == 2
    assert "error:" in capsys.readouterr().err
    # malformed instance
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "means": [0.0, -1.0], "sets": [[0]]}\n')
    assert run(["solve", "uniform", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "means[1]" in err
    # missing file
    assert run(["solve", "uniform", "--in", str(tmp_path / "nope.json")]) == 2
    # verify without a claim selection
    assert run(["verify"]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["generate", "erdos-renyi", "--n", "4", "--m", "2", "--p", "0.5", "--mu", "0.7"], "--mu"),
    (["generate", "erdos-renyi", "--n", "4", "--m", "2", "--p", "0.5", "--k", "2"], "--k"),
    (["generate", "cycle", "--n", "4", "--k", "2"], "--k"),
    (["generate", "cycle", "--n", "4", "--p", "0.3"], "--p"),
    (["generate", "cycle", "--n", "4", "--m", "3"], "--m"),
    (["generate", "complete-k", "--n", "4", "--k", "2", "--mu", "0.5"], "--mu"),
    (["generate", "complete-k", "--n", "4", "--k", "2", "--m", "3"], "--m"),
    (["solve", "ptas-ind", "--eps", "0.5", "--grid-step", "0.1"], "--grid-step"),
    (["solve", "brute-force", "--grid-step", "0.25", "--eps", "0.5"], "--eps"),
    (["solve", "log-approx", "--eps", "0.5"], "--eps"),
    (["solve", "uniform", "--grid-step", "0.25"], "--grid-step"),
])
def test_flags_the_choice_does_not_read_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.json"
    if argv[0] == "solve":
        inst = tmp_path / "pair.json"
        inst.write_text('{"n": 2, "means": [0.0, 0.0], "sets": [[0, 1]]}\n')
        argv = argv + ["--in", str(inst)]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} is not used by {argv[1]}\n"
    assert not out.exists()


def test_cycle_without_mu_has_zero_means(tmp_path):
    out = tmp_path / "cycle.json"
    assert run(["generate", "cycle", "--n", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["means"] == [0.0, 0.0, 0.0]


def test_verify_claim_and_all_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--claim", "submodular_g", "--all"])
    assert exc.value.code == 2
    assert "argument --all: not allowed with argument --claim" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
@pytest.mark.parametrize("argv", [
    ["generate", "cycle", "--n", "3"],
    ["solve", "uniform", "--in", "missing.json"],
    ["evaluate", "--in", "missing.json"],
    ["verify", "--all"],
    ["sweep", "concavity", "--n", "4"],
])
def test_seed_outside_64_bits_exits_2_before_reading_input(tmp_path, capsys, argv, seed):
    # The parser refuses the seed, so the missing input file is never opened.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"varalloc {argv[0]}: error: argument --seed: "
                        "seed must be a 64-bit unsigned integer\n")
    assert not out.exists()


def test_verify_violation_exit_1(monkeypatch, capsys):
    import varalloc.analysis as analysis
    from varalloc.analysis import VerificationReport

    def failing(seed, mc_samples):
        return VerificationReport("always_fails", 10, 3, -1.0, (), seed)

    monkeypatch.setitem(analysis.ALL_CHECKS, "always_fails", failing)
    assert run(["verify", "--claim", "always_fails"]) == 1
    captured = capsys.readouterr()
    assert "VIOLATED" in captured.out
    assert "error:" in captured.err


def test_budget_failure_exit_1(tmp_path, capsys):
    inst = tmp_path / "many.json"
    inst.write_text(json.dumps({
        "n": 6, "means": [0.0] * 6, "sets": [list(range(6))],
    }))
    assert run(["solve", "brute-force", "--in", str(inst), "--grid-step", "0.01"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["generate", "erdos-renyi", "--n", "1", "--m", "1", "--p", "1e-9"], 2),
    (["solve", "brute-force", "--grid-step", "1e-300"], 1),
    (["solve", "ptas-ind", "--eps", "1e-60"], 1),
    (["solve", "ptas-ind", "--eps", "1e-200"], 1),
    (["solve", "ptas-corr", "--eps", "0.9", "--grid-step", "1e-320"], 1),
    (["solve", "ptas-corr", "--eps", "1e-120"], 1),
])
def test_extreme_inputs_fail_cleanly(tmp_path, capsys, argv, code):
    # Steps whose inverse square leaves float range are refused by the budget.
    inst = tmp_path / "pair.json"
    inst.write_text('{"n": 2, "means": [0.0, 0.0], "sets": [[0, 1]]}\n')
    if argv[0] == "solve":
        argv = argv + ["--in", str(inst)]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if code == 1:
        assert "needs at least" in err


def test_numbers_beyond_float_range_exit_2(tmp_path, capsys):
    # json reads a 401-digit literal as an int, which float() cannot hold.
    huge = 10**400
    inst = tmp_path / "huge.json"
    inst.write_text(json.dumps({"n": 1, "means": [huge], "sets": [[0]]}) + "\n")
    assert run(["solve", "uniform", "--in", str(inst)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "means[0] is out of float range" in err
    cycle, rep = tmp_path / "cycle.json", tmp_path / "report.json"
    assert run(["generate", "cycle", "--n", "4", "--mu", "0", "--out", str(cycle)]) == 0
    assert run(["solve", "uniform", "--in", str(cycle), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    doc["allocation"]["stddevs"][0] = huge
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--in", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "'allocation.stddevs' is out of float range" in err


def test_evaluate_refuses_matrix_over_budget(tmp_path, capsys):
    # The variances of stddevs [sqrt(2), sqrt(2)] as a matrix: trace 4 > 1.
    inst, rep = tmp_path / "pair.json", tmp_path / "rep.json"
    inst.write_text('{"n": 2, "means": [0.0, 0.0], "sets": [[0, 1]]}\n')
    assert run(["solve", "ptas-corr", "--in", str(inst), "--eps", "0.7",
                "--grid-step", "0.25", "--out", str(rep)]) == 0
    assert run(["evaluate", "--in", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    doc["allocation"]["matrix"] = [[2, 0], [0, 2]]
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--in", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "'allocation.matrix' has trace 4.0 > 1" in err


def _matrix_report(path, means, matrix):
    """A hand-written correlated report on one set of every variable, under auto."""
    path.write_text(json.dumps({
        "instance": {"n": len(means), "means": means, "sets": [list(range(len(means)))]},
        "allocation": {"matrix": matrix},
        "config": {"method": "auto", "quadrature_tolerance": 1e-9, "mc_samples": 2_000_000,
                   "seed": 0}}))
    return str(path)


def test_evaluate_rank_two_set_with_near_parallel_slopes(tmp_path):
    # The eigen-factor slopes of members 0, 2 and 3 differ only in their last
    # bits; their crossings are kinks, and the quadrature converges.
    rep = _matrix_report(tmp_path / "rep.json",
                         [0.8040317224555162, 0.01886389299064406, 0.07670282893403546, 0.0],
                         [[0.2, 0.2, 0, 0.1], [0.2, 0.4, 0.2, 0.2], [0, 0.2, 0.2, 0.1],
                          [0.1, 0.2, 0.1, 0.1]])
    out = tmp_path / "eval.json"
    assert run(["evaluate", "--in", rep, "--out", str(out)]) == 0
    objective = json.loads(out.read_text())["objective"]
    assert objective["method"] == "quadrature" and objective["half_width"] == 0.0


def test_evaluate_rank_three_set_of_three_is_exact(tmp_path):
    rep = _matrix_report(tmp_path / "rep.json", [0.54, 0.52, 0.21],
                         [[0.4, 0.1, 0.0], [0.1, 0.3, -0.1], [0.0, -0.1, 0.3]])
    out, mc = tmp_path / "eval.json", tmp_path / "mc.json"
    assert run(["evaluate", "--in", rep, "--out", str(out)]) == 0
    exact = json.loads(out.read_text())["objective"]
    assert exact["method"] == "closed_form" and exact["half_width"] == 0.0
    doc = json.loads((tmp_path / "rep.json").read_text())
    doc["config"]["method"] = "monte_carlo"
    (tmp_path / "rep.json").write_text(json.dumps(doc))
    assert run(["evaluate", "--in", rep, "--out", str(mc)]) == 0
    sampled = json.loads(mc.read_text())["objective"]
    assert abs(exact["value"] - sampled["value"]) <= 3 * sampled["half_width"]


MISSING = object()  # the field is deleted from the report


@pytest.mark.parametrize("path, value", [
    (("objective",), 5),
    (("config",), []),
    (("objective", "value"), "x"),
    (("config", "mc_samples"), "x"),
    (("config", "mc_samples"), None),
    (("config", "quadrature_tolerance"), "x"),
    (("config", "seed"), None),
    (("allocation", "stddevs"), 5),
    (("allocation", "stddevs"), [None]),
    (("allocation",), {"matrix": {}}),
    (("instance",), MISSING),
    (("config", "seed"), MISSING),
    (("config", "mc_samples"), MISSING),
    (("objective", "value"), MISSING),
])
def test_evaluate_malformed_report_exits_2(tmp_path, capsys, path, value):
    inst = tmp_path / "cycle.json"
    rep = tmp_path / "report.json"
    assert run(["generate", "cycle", "--n", "4", "--mu", "0", "--out", str(inst)]) == 0
    assert run(["solve", "uniform", "--in", str(inst), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    *parents, key = path
    node = doc
    for p in parents:
        node = node[p]
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--in", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if value is MISSING:
        assert f"report is missing the {'.'.join(path)!r} field" in err


@pytest.mark.parametrize("section, key, value", [
    ("objective", "half_width", math.inf),
    ("objective", "half_width", -1.0),
    ("objective", "value", math.nan),
    ("config", "quadrature_tolerance", math.inf),
])
def test_evaluate_refuses_non_finite_or_negative_numbers(tmp_path, capsys, section, key, value):
    # json reads Infinity and NaN; a reported value of 123.0 is far from the
    # recomputed 0.739..., so no bound may be infinite.
    inst, rep, out = tmp_path / "in.json", tmp_path / "report.json", tmp_path / "eval.json"
    inst.write_text('{"n": 3, "means": [0.1, 0.4, 0.2], "sets": [[0, 1, 2]]}\n')
    assert run(["solve", "uniform", "--in", str(inst), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    doc["objective"]["value"] = 123.0
    doc[section][key] = value
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--in", str(rep), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"report field '{section}.{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, named", [
    ("method", math.nan, "objective.method"),
    ("note", math.inf, "objective.note"),
    ("extra", {"bounds": [0.5, -math.inf]}, "objective.extra.bounds[1]"),
])
def test_evaluate_refuses_non_finite_numbers_anywhere_in_objective(tmp_path, capsys, key, value,
                                                                  named):
    # The objective is echoed into the output, which must stay standard JSON.
    inst, rep, out = tmp_path / "in.json", tmp_path / "report.json", tmp_path / "eval.json"
    inst.write_text('{"n": 3, "means": [0.1, 0.4, 0.2], "sets": [[0, 1, 2]]}\n')
    assert run(["solve", "uniform", "--in", str(inst), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    doc["objective"][key] = value
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--in", str(rep), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"report field {named!r}" in err
    assert not out.exists()


def test_evaluate_echoes_a_finite_objective_unchanged(tmp_path):
    inst, rep, out = tmp_path / "in.json", tmp_path / "report.json", tmp_path / "eval.json"
    inst.write_text('{"n": 3, "means": [0.1, 0.4, 0.2], "sets": [[0, 1, 2]]}\n')
    assert run(["solve", "uniform", "--in", str(inst), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    doc["objective"]["note"] = {"bounds": [0.5, -1e300], "tag": None}
    rep.write_text(json.dumps(doc))
    assert run(["evaluate", "--in", str(rep), "--out", str(out)]) == 0
    echoed = json.loads(out.read_text())["reported_objective"]
    assert json.dumps(echoed) == json.dumps(doc["objective"])


def test_sweep_concavity_csv(tmp_path):
    out = tmp_path / "concavity.csv"
    assert run([
        "sweep", "concavity", "--n", "4", "--seed", "0",
        "--mc-samples", "20000", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "parameter,statistic,value,ci_half_width"
    stats = {line.split(",")[1] for line in lines[1:]}
    assert {"independent", "concavity_margin"} <= stats


@pytest.mark.parametrize("kind, extra", [
    ("concavity", ["--n", "3"]),
    ("concentration", ["--n", "4", "--m", "6"]),
])
def test_sweep_stdout_equals_out_file(tmp_path, capsys, kind, extra):
    argv = ["sweep", kind, *extra, "--seed", "2", "--mc-samples", "20000"]
    out = tmp_path / "sweep.csv"
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_console_entry_point(tmp_path):
    # The installed script path: generate to stdout.
    proc = subprocess.run(
        [sys.executable, "-m", "varalloc.cli", "generate", "cycle", "--n", "3", "--mu", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 3 and doc["means"] == [0.5, 0.5, 0.5]


def test_sweep_has_no_format_option(capsys):
    # Sweeps write CSV only; --format is not an option at all.
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "concavity", "--n", "4", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
