"""The benchmark's three workloads: their inputs and one iteration of each.

``setup`` builds a workload's inputs in a working directory; ``run`` makes the
program calls of one iteration and returns their raw outcomes.  ``run`` does
nothing but call the program, so timing it times the program.  Checking the
outcomes is the gate's job (``gate.py``) and happens outside the timed span.

Every call goes through a module attribute looked up at call time
(``pipelines.kahane_pipeline``, ``cli.main``), so a tracer that swaps those
attributes sees it.

kahane     kahane_pipeline() on its default grid (h = 1e-4, n = 500,001).
transform  mellin_alpha_experiment() then de_haan_experiment(), which is what
           ``beurling mellin-fit`` runs.
systems    in-process ``cli.main`` calls: ``identities``, then ``build`` and
           ``hypotheses`` for four configs on two grids either side of the
           n = 2^15 switch between the recurrence and the FFT exp*.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import shutil
from dataclasses import dataclass, field

WORKLOADS = ("kahane", "transform", "systems")

SYSTEMS_H = 4e-3
# n = 16,383 takes the O(n^2) recurrence and n = 32,768 the FFT Newton path
# (measure.exp_star switches at 2^15); both reach log x = 65 > 50, the last
# default checkpoint.
SYSTEMS_GRIDS = (("rec", 16_383), ("fft", 32_768))
SYSTEMS_BASES = ("li", "kahane", "classical", "custom")
SIEVE_LIMIT = 10 ** 8
# The seed picks one of this many perturbation draws, so that every systems
# output has a reference frozen from the seed commit (references.json).
SYSTEMS_VARIANTS = 8


@dataclass
class Outcome:
    """What one program call returned: an exit status or a raised exception,
    plus its captured standard streams and output directory."""
    op: str
    value: object = None
    exit: int | None = None
    error: str | None = None
    stdout: str = ""
    stderr: str = ""
    out_dir: str | None = None


@dataclass
class Inputs:
    workload: str
    seed: int
    workdir: str
    variant: int | None = None
    identity_seed: int | None = None
    ops: list = field(default_factory=list)


def systems_variant(seed: int) -> int:
    return seed % SYSTEMS_VARIANTS


def systems_params(variant: int) -> dict:
    """Perturbation amplitudes and exponents for each base, drawn from the
    variant.  Both perturbations carry an indicator(e) cutoff, so the cell
    holding u = e is integrated piecewise by quadrature."""
    rng = random.Random(variant)
    out = {}
    for base in SYSTEMS_BASES:
        out[base] = {
            "e_amp": round(rng.uniform(0.05, 0.5), 4),
            "e_pow": round(rng.uniform(1.5, 3.0), 3),
            "r_amp": round(rng.uniform(0.05, 0.5), 4),
            "r_pow": round(rng.uniform(1.5, 3.0), 3),
        }
    return out


def config_text(base: str, n: int, p: dict) -> str:
    lines = [f"base = {base}", f"grid.h = {SYSTEMS_H!r}", f"grid.n = {n}"]
    if base == "classical":
        lines.append(f"sieve_limit = {SIEVE_LIMIT}")
    if base == "custom":
        lines.append("base.density = (1 - 1/u)/log(u)")
    lines.append(f"e.density = indicator(e) * ({p['e_amp']} / log(u)**{p['e_pow']})")
    lines.append(f"r.density = indicator(e) * (-{p['r_amp']} / log(u)**{p['r_pow']})")
    return "\n".join(lines) + "\n"


def setup(workload: str, seed: int, workdir: str) -> Inputs:
    """Build a workload's inputs.  kahane and transform are the paper's
    fixed experiments on grids the package defines, so only systems has
    inputs to write: one config file per base and grid."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inp = Inputs(workload, seed, workdir)
    if workload != "systems":
        return inp
    inp.variant = systems_variant(seed)
    inp.identity_seed = 2026 + inp.variant
    params = systems_params(inp.variant)
    cfg_dir = os.path.join(workdir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    inp.ops.append(("identities", ["identities", "--seed", str(inp.identity_seed)]))
    for base in SYSTEMS_BASES:
        for side, n in SYSTEMS_GRIDS:
            cfg = os.path.join(cfg_dir, f"{base}-{side}.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(config_text(base, n, params[base]))
            for cmd in ("build", "hypotheses"):
                op = f"{cmd}/{base}/{side}"
                out = os.path.join(workdir, "out", op.replace("/", "-"))
                inp.ops.append((op, [cmd, "--config", cfg, "--out", out]))
    return inp


def clear_outputs(inp: Inputs) -> None:
    """Remove the previous iteration's CSVs so a missing write cannot pass."""
    shutil.rmtree(os.path.join(inp.workdir, "out"), ignore_errors=True)


def _call(op: str, fn, *args) -> Outcome:
    # The benchmark must survive a failing call and record how it failed, so
    # this is the one place that catches every Exception.
    try:
        return Outcome(op, value=fn(*args))
    except Exception as exc:  # noqa: BLE001
        return Outcome(op, error=type(exc).__name__ + ": " + str(exc))


_FAIL_ERROR = re.compile(r"^FAIL \w+ error=(\w+)\(", re.M)


def _call_cli(cli, op: str, argv: list) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        res = _call(op, cli.main, argv)
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    if res.error is None:
        res.exit, res.value = res.value, None
        m = _FAIL_ERROR.search(res.stderr)
        if res.exit != 0 and m:
            res.error = m.group(1)
    if "--out" in argv:
        res.out_dir = argv[argv.index("--out") + 1]
    return res


def run(inp: Inputs) -> list:
    """One iteration: the program calls only, returning their outcomes."""
    from beurling import cli, pipelines

    if inp.workload == "kahane":
        return [_call("kahane_pipeline", pipelines.kahane_pipeline)]
    if inp.workload == "transform":
        return [_call("mellin_alpha_experiment", pipelines.mellin_alpha_experiment),
                _call("de_haan_experiment", pipelines.de_haan_experiment)]
    return [_call_cli(cli, op, argv) for op, argv in inp.ops]
