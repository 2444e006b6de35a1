"""Workload definitions: seeded inputs, the fixed round of CLI invocations,
and the independent checks applied to every invocation's output.

A workload is built from its seed alone.  ``build`` writes the input files
into a work directory and returns the round: a list of ``Op``s, each one
``varalloc`` command line plus a check that reads the command's output and
returns the problems it found (an empty list when the output is right).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

# ptas: one set, n=4 (22,672 grid rows at eps=0.4) and one set, n=3
# (correlated grid at eps=0.6, entries on a 0.2 grid).
PTAS_IND_N = 4
PTAS_IND_EPS = 0.4
PTAS_CORR_N = 3
PTAS_CORR_EPS = 0.6
PTAS_CORR_STEP = 0.2
GRID_PROBES = 36
CORR_MC_SAMPLES = 1 << 20
# Two 95% half-widths are widened to this many standard errors each, so a
# correct program fails the comparison with probability below 1e-6 on any seed.
CORR_SE_MULTIPLE = 5.0

# graph: Erdos-Renyi memberships (means 0) and one wide uniform set.
ER_N = 24
ER_M = 72
ER_P = 0.5
WIDE_N = 256

# verify: the claims' configured trial counts (eps_contribution: four eps
# values, each the adversarial profile plus 20 random profiles).
VERIFY_MC_SAMPLES = 20_000
VERIFY_TRIALS = {
    "correlation_gap": 400,
    "eps_contribution": 84,
    "lipschitz": 2000,
    "max_floor_bound": 1500,
    "max_inequalities": 10_000,
    "submodular_g": 11,
    "var2approx": 1500,
}

BUDGET_SLACK = 1e-9
GRID_SLACK = 1e-9


@dataclass
class Op:
    """One CLI invocation of a round and the check of its output."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[str, str], list[str]]  # (file text, stdout) -> problems


def _write_instance(path: Path, means, sets) -> None:
    doc = {"n": len(means), "means": [float(x) for x in means], "sets": sets}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _on_grid(values, step: float) -> bool:
    k = np.asarray(values, dtype=float) / step
    return bool(np.all(np.abs(k - np.round(k)) <= GRID_SLACK))


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: program {got!r}, reference {want!r}, |diff| > {tol:g}"]


def _set_sum(means, sets, sigma) -> float:
    means = np.asarray(means, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return math.fsum(reference.emax_independent(means[s], sigma[s]) for s in sets)


# ----------------------------------------------------------------- ptas --

def _check_ptas_ind(means, seed):
    step = PTAS_IND_EPS**3
    limit = int(1.0 / (step * step) + 1e-9)

    def check(text, _stdout):
        doc = json.loads(text)
        sigma = np.asarray(doc["allocation"]["stddevs"], dtype=float)
        obj = doc["objective"]["value"]
        problems = []
        if float(np.square(sigma).sum()) > 1.0 + BUDGET_SLACK:
            problems.append(f"sum sigma^2 = {float(np.square(sigma).sum())!r} > 1")
        if not _on_grid(sigma, step):
            problems.append(f"sigma {sigma.tolist()} not on the eps^3 grid")
        problems += _close("ptas-ind objective", obj,
                           reference.emax_independent(means, sigma), 1e-7)
        probes = reference.budget_grid_points(PTAS_IND_N, limit, GRID_PROBES, seed)
        worst = max(reference.emax_independent(means, k * step) for k in probes)
        if obj < worst - 1e-7:
            problems.append(f"objective {obj!r} below a probed grid point {worst!r}")
        return problems

    return check


def _check_ptas_corr(means, seed):
    def check(text, _stdout):
        doc = json.loads(text)
        mat = np.asarray(doc["allocation"]["matrix"], dtype=float)
        est = doc["objective"]
        problems = []
        if not np.array_equal(mat, mat.T):
            problems.append("matrix is not symmetric")
        if float(np.linalg.eigvalsh(mat)[0]) < -1e-9:
            problems.append("matrix is not PSD")
        if float(np.trace(mat)) > 1.0 + BUDGET_SLACK:
            problems.append(f"trace {float(np.trace(mat))!r} > 1")
        if not _on_grid(mat, PTAS_CORR_STEP):
            problems.append("matrix entries are off the step grid")
        value, se = reference.emax_correlated_mc(means, mat, CORR_MC_SAMPLES, seed)
        tol = CORR_SE_MULTIPLE * (est["half_width"] / 1.959963984540054 + se)
        problems += _close("ptas-corr objective", est["value"], value, tol)
        return problems

    return check


def _build_ptas(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ind_means = rng.uniform(0.0, 1.0, PTAS_IND_N)
    corr_means = rng.uniform(0.0, 1.0, PTAS_CORR_N)
    _write_instance(work / "ind.json", ind_means, [list(range(PTAS_IND_N))])
    _write_instance(work / "corr.json", corr_means, [list(range(PTAS_CORR_N))])
    s = str(seed)
    return [
        Op("ptas-ind",
           ["solve", "ptas-ind", "--in", str(work / "ind.json"), "--eps", str(PTAS_IND_EPS),
            "--seed", s, "--out", str(work / "ind_report.json")],
           work / "ind_report.json", _check_ptas_ind(ind_means, seed)),
        Op("ptas-corr",
           ["solve", "ptas-corr", "--in", str(work / "corr.json"), "--eps", str(PTAS_CORR_EPS),
            "--grid-step", str(PTAS_CORR_STEP), "--seed", s,
            "--out", str(work / "corr_report.json")],
           work / "corr_report.json", _check_ptas_corr(corr_means, seed)),
    ]


# ---------------------------------------------------------------- graph --

def _check_generate(sets):
    def check(text, _stdout):
        doc = json.loads(text)
        problems = []
        if doc.get("n") != ER_N or doc.get("means") != [0.0] * ER_N:
            problems.append("generated instance has the wrong n or nonzero means")
        if doc.get("sets") != sets:
            problems.append("generated memberships differ from the Erdos-Renyi draw")
        return problems

    return check


def _check_log_approx(sets):
    means = [0.0] * ER_N

    def check(text, _stdout):
        doc = json.loads(text)
        sigma = np.asarray(doc["allocation"]["stddevs"], dtype=float)
        obj = doc["objective"]["value"]
        problems = []
        live = sigma[sigma > 0]
        if live.size:
            level = float(live[0])
            k = -math.log2(level)
            if not (np.all(live == level) and k == round(k)):
                problems.append(f"nonzero sigma are not one value 2^-k: {sorted(set(live))}")
            elif live.size > min(4 ** round(k), ER_N):
                problems.append(f"{live.size} variables at 2^-{round(k)}")
        problems += _close("log-approx objective", obj,
                           _set_sum(means, sets, sigma), 1e-7 * ER_M)
        floor = math.fsum(max(means[i] for i in s) for s in sets)
        if obj < floor:
            problems.append(f"objective {obj!r} below sum of set maxima of means {floor!r}")
        return problems

    return check


def _check_evaluate(text, _stdout):
    if json.loads(text).get("matches_reported") is True:
        return []
    return ["evaluate: matches_reported is not true"]


def _check_uniform_er(sets):
    means = [0.0] * ER_N
    sigma = [1.0 / math.sqrt(ER_N)] * ER_N

    def check(text, _stdout):
        doc = json.loads(text)
        problems = []
        if doc["allocation"]["stddevs"] != sigma:
            problems.append("uniform allocation is not 1/sqrt(n) everywhere")
        return problems + _close("uniform objective", doc["objective"]["value"],
                                 _set_sum(means, sets, sigma), 1e-7 * ER_M)

    return check


def _check_uniform_wide(text, _stdout):
    want = reference.emax_independent(np.zeros(WIDE_N), np.full(WIDE_N, WIDE_N**-0.5))
    return _close("wide uniform objective", json.loads(text)["objective"]["value"], want, 1e-9)


def _build_graph(seed: int, work: Path) -> list[Op]:
    sets = reference.erdos_renyi_sets(ER_N, ER_M, ER_P, seed)
    _write_instance(work / "wide.json", [0.0] * WIDE_N, [list(range(WIDE_N))])
    er = str(work / "er.json")
    la = str(work / "la_report.json")
    s = str(seed)
    return [
        Op("generate", ["generate", "erdos-renyi", "--n", str(ER_N), "--m", str(ER_M),
                        "--p", str(ER_P), "--seed", s, "--out", er],
           work / "er.json", _check_generate(sets)),
        Op("log-approx", ["solve", "log-approx", "--in", er, "--seed", s, "--out", la],
           Path(la), _check_log_approx(sets)),
        Op("evaluate", ["evaluate", "--in", la, "--out", str(work / "evaluate.json")],
           work / "evaluate.json", _check_evaluate),
        Op("uniform-er", ["solve", "uniform", "--in", er, "--out", str(work / "uni_er.json")],
           work / "uni_er.json", _check_uniform_er(sets)),
        Op("uniform-wide", ["solve", "uniform", "--in", str(work / "wide.json"),
                            "--out", str(work / "uni_wide.json")],
           work / "uni_wide.json", _check_uniform_wide),
    ]


# --------------------------------------------------------------- verify --

def _check_verify(seed):
    def check(text, stdout):
        docs = {d["claim"]: d for d in json.loads(text)}
        problems = []
        if sorted(docs) != sorted(VERIFY_TRIALS):
            problems.append(f"claims {sorted(docs)} differ from {sorted(VERIFY_TRIALS)}")
        for claim, trials in VERIFY_TRIALS.items():
            d = docs.get(claim, {})
            if d.get("trials") != trials or d.get("violations") != 0:
                problems.append(f"{claim}: trials={d.get('trials')} "
                                f"violations={d.get('violations')}, want {trials} and 0")
            if claim != "submodular_g" and d.get("seed") != seed:
                problems.append(f"{claim}: ran at seed {d.get('seed')}, not {seed}")
        lines = stdout.splitlines()
        if len(lines) != len(VERIFY_TRIALS) or not all(": ok " in ln for ln in lines):
            problems.append("verify did not print one ok line per claim")
        return problems

    return check


def _build_verify(seed: int, work: Path) -> list[Op]:
    out = work / "verify.json"
    return [
        Op("verify", ["verify", "--all", "--seed", str(seed),
                      "--mc-samples", str(VERIFY_MC_SAMPLES), "--out", str(out)],
           out, _check_verify(seed)),
    ]


WORKLOADS = {
    "ptas": _build_ptas,
    "graph": _build_graph,
    "verify": _build_verify,
}


def build(name: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's inputs for ``seed`` into ``work``; return its round."""
    return WORKLOADS[name](seed, work)
