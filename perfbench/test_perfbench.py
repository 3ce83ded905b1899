"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
from workloads import Outcome  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return gate.load_references()


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300, check=False)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_two_traced_runs_give_identical_counts():
    counted = [m["name"] for m in _spec()["per_layer"] if m["unit"] in ("count", "B")]
    runs = []
    for _ in range(2):
        res = _run("--workload", "kahane", "--seed", "1", "--seconds", "0", "--trace", "1")
        assert res.returncode == 0, res.stderr
        runs.append(json.loads(res.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in runs)
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    assert first["kernels.fft.fwd"]["value"] == 504
    assert first["kernels.fft.inv"]["value"] == 252
    assert all(r["correct"] and r["failed"] == 0 for r in runs)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = _run("--workload", "kahane", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


# ------------------------------------------------- the gate discriminates

def _kahane_outcome(ref):
    ts = np.asarray(ref["checkpoints"])
    series = {k: SimpleNamespace(log_points=ts, values=np.asarray(v))
              for k, v in ref["series"].items()}
    v = ref["verdicts"]
    decay = {k[len("decay_"):]: SimpleNamespace(passed=val)
             for k, val in v.items() if k.startswith("decay_")}
    rep = SimpleNamespace(series=series, decay=decay, passed=v["passed"],
                          identity_passed=v["identity_passed"], g_passed=v["g_passed"],
                          growth=SimpleNamespace(passed=v["growth_passed"]),
                          identity_max_rel=ref["identity_max_rel"],
                          mk_route_gap=ref["mk_route_gap"])
    return Outcome("kahane_pipeline", value=rep)


def test_gate_flags_a_perturbed_kahane_reference(refs):
    outcome = _kahane_outcome(refs["kahane"])
    assert gate.check("kahane", [outcome], refs)[0][0].ok
    bad = copy.deepcopy(refs)
    bad["kahane"]["series"]["mk_ratio"][-1] += 1e-6
    verdict = gate.check("kahane", [outcome], bad)[0][0]
    assert not verdict.ok and not verdict.known_defect
    assert "mk_ratio" in verdict.detail


def test_gate_flags_a_perturbed_fit_constant(refs):
    outcomes = [Outcome(op, value=SimpleNamespace(
                    constants=dict(r["constants"], b1_relative_deviation=2.2e-4),
                    passed=r["passed"]))
                for op, r in refs["transform"].items()]
    assert all(v.ok for v in gate.check("transform", outcomes, refs)[0])
    bad = copy.deepcopy(refs)
    bad["transform"]["mellin_alpha_experiment"]["constants"]["alpha"] += 1e-3
    verdicts = gate.check("transform", outcomes, bad)[0]
    assert [v.ok for v in verdicts] == [False, True]


def test_gate_flags_a_perturbed_hypotheses_csv(refs, tmp_path):
    ref = refs["systems"]["0"]["ops"]["hypotheses/li/rec"]
    for name, vals in ref["csv"].items():
        with open(tmp_path / f"{name}.csv", "w", encoding="utf-8") as fh:
            fh.write("# h=0.004 n=16383\nt,value\n")
            fh.writelines(f"{t!r},{v!r}\n" for t, v in zip(ref["checkpoints"], vals))
    outcome = Outcome("hypotheses/li/rec", exit=ref["exit"], out_dir=str(tmp_path))
    assert gate.check_hypotheses(outcome, ref).ok
    bad = copy.deepcopy(ref)
    bad["csv"]["m_ratio"][4] += 1e-6
    assert not gate.check_hypotheses(outcome, bad).ok
    assert not gate.check_hypotheses(Outcome(outcome.op, exit=1, out_dir=str(tmp_path)), ref).ok


def _identities_stdout(gaps):
    return "".join(f"{law}: worst={gap:.3e} tol=1.0e-10\n" for law, gap in gaps.items())


def test_gate_flags_a_law_gap_above_tolerance(refs):
    ref = refs["systems"]["0"]["ops"]["identities"]
    outcome = Outcome("identities", exit=0, stdout=_identities_stdout(ref["gaps"]))
    verdict, resid = gate.check_identities(outcome, ref)
    assert verdict.ok and resid == max(ref["gaps"].values())
    worse = dict(ref["gaps"], inverse_law=1e-9)
    outcome = Outcome("identities", exit=0, stdout=_identities_stdout(worse))
    assert not gate.check_identities(outcome, ref)[0].ok


def test_known_defect_only_matches_its_recorded_exception(refs):
    ops = refs["systems"]["0"]["ops"]
    raised = Outcome("build/li/fft", error="ValueError: measure coefficients must be finite")
    verdict, _ = gate.check_build(raised, ops["build/li/fft"])
    assert not verdict.ok and verdict.known_defect and verdict.error == "ValueError"
    other = Outcome("build/li/fft", error="TypeError: boom")
    assert not gate.check_build(other, ops["build/li/fft"])[0].known_defect
    on_rec = Outcome("build/li/rec", error="ValueError: measure coefficients must be finite")
    assert not gate.check_build(on_rec, ops["build/li/rec"])[0].known_defect
