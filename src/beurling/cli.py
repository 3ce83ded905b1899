"""Command-line front end.

Subcommands: build, identities, kahane, hypotheses, mellin-fit.
Every subcommand prints its verdicts, one stdout line
`<check>: key=value ... pass|FAIL` each, with what the check measured and
its thresholds, plus one machine-readable stderr line per failed check,
`FAIL <check> key=value ...`.  Exit status is 0 when every check passes, 1
when one fails, and 2 on configuration or parameter errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .asymptotics import Verdict
from .config import load_spec
from .csvio import report_to_mapping, write_keyvalue, write_series_csv
from .errors import (BeurlingError, ConfigError, ConstructionError, FitError,
                     ParameterError)
from .grid import LogGrid
from .measure import load_measure, save_measure
from .pipelines import (KAHANE_GRID, de_haan_experiment, kahane_pipeline,
                        mellin_alpha_experiment)
from .selfcheck import run_identity_suite
from .systems import DEFAULT_CHECKPOINTS, build_system, hypothesis_report


def _fail(check: str, detail: str):
    print(f"FAIL {check} {detail}", file=sys.stderr)


def _report(verdicts) -> int:
    """Print each verdict as `name: key=value ... pass|FAIL`, with a FAIL line
    on stderr for each failed one; the exit status, 1 when any failed."""
    for v in verdicts:
        kv = " ".join(f"{k}={x:.4g}" if isinstance(x, float) else f"{k}={x}"
                      for k, x in v.values.items())
        print(f"{v.name}: {kv} {'pass' if v.passed else 'FAIL'}")
        if not v.passed:
            _fail(v.name, kv)
    return 0 if all(v.passed for v in verdicts) else 1


def _parse_checkpoints(text: str):
    try:
        ts = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad checkpoint list {text!r}") from None
    if not ts or not all(math.isfinite(t) and t > 0 for t in ts):
        raise ConfigError(f"checkpoints must be finite and positive, got {text!r}")
    return ts


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_build(args) -> int:
    spec = load_spec(args.config, h=args.h, n=args.n)
    system = build_system(spec)
    out = _outdir(args)
    paths, verdicts = [], []
    for name, meas in (("pi", system.pi), ("n", system.n), ("m", system.m)):
        path = os.path.join(out, f"{name}.csv")
        save_measure(meas, path)
        mismatches = int(np.count_nonzero(load_measure(path).coeffs != meas.coeffs))
        verdicts.append(Verdict("serialization_roundtrip", mismatches == 0,
                                {"measure": name, "mismatches": mismatches}))
        paths.append(path)
    print(f"built {spec.base} system on h={spec.grid.h!r} n={spec.grid.n}")
    for path in paths:
        print(f"wrote {path}")
    return _report(verdicts)


def cmd_identities(args) -> int:
    result = run_identity_suite(seed=args.seed, tol=args.tol)
    status = _report(result.verdicts)
    print(f"identity suite: {result.count} measures in {result.runtime:.2f}s")
    return status


def cmd_kahane(args) -> int:
    grid = LogGrid(args.h, args.n)
    checkpoints = _parse_checkpoints(args.checkpoints)
    report = kahane_pipeline(grid=grid, checkpoints=checkpoints,
                             identity_tol=args.tol)
    out = _outdir(args)
    for name, series in report.series.items():
        write_series_csv(os.path.join(out, f"{name}.csv"), series, grid)
    return _report(report.verdicts)


def cmd_hypotheses(args) -> int:
    spec = load_spec(args.config, h=args.h, n=args.n)
    checkpoints = _parse_checkpoints(args.checkpoints)
    report = hypothesis_report(spec, a=args.a, checkpoints=checkpoints,
                               sigma0=args.sigma0)
    out = _outdir(args)
    for name, series in report.series.items():
        write_series_csv(os.path.join(out, f"{name}.csv"), series, spec.grid)
    return _report(report.verdicts)


def cmd_mellin_fit(args) -> int:
    if (args.h is None) != (args.n is None):
        raise ParameterError("--h and --n set the Mellin-fit grid together; "
                             "give both or neither")
    grid = None if args.h is None else LogGrid(args.h, args.n)
    out = _outdir(args)
    mrep = mellin_alpha_experiment(grid=grid, alpha_tol=args.tol)
    write_keyvalue(os.path.join(out, "mellin_fit.txt"), report_to_mapping(mrep))
    drep = de_haan_experiment()
    write_keyvalue(os.path.join(out, "de_haan_fit.txt"), report_to_mapping(drep))
    return _report(mrep.verdicts + drep.verdicts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beurling",
        description="Multiplicative convolution calculus for generalized "
                    "number systems on a logarithmic lattice.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, h=None, n=None, tol=1e-10):
        # each subcommand accepts exactly the flags it uses; no prefixes, or
        # --h would mean --help where there is no grid
        p.allow_abbrev = False
        p.add_argument("--out", default=".", help="output directory")
        if "grid" in flags:
            p.add_argument("--h", type=float, default=h, help="grid step in log u")
            p.add_argument("--n", type=int, default=n, help="grid size")
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=tol, help="tolerance override")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=2026, help="rng seed")
        if "checkpoints" in flags:
            p.add_argument("--checkpoints", default=",".join(
                str(int(t)) for t in DEFAULT_CHECKPOINTS),
                help="comma-separated log x checkpoints")

    p = sub.add_parser("build", help="build a system from config and serialize it")
    p.add_argument("--config", required=True)
    common(p, "grid")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("identities", help="run the random measure-algebra suite")
    common(p, "tol", "seed")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("kahane", help="run the Kahane system experiment suite")
    common(p, "grid", "tol", "checkpoints",
           h=KAHANE_GRID.h, n=KAHANE_GRID.n, tol=1e-6)
    p.set_defaults(func=cmd_kahane)

    p = sub.add_parser("hypotheses",
                       help="hypothesis diagnostics for a configured system")
    p.add_argument("--config", required=True)
    p.add_argument("--a", type=float, default=1.0,
                   help="exponent in the |M0(x)| log^a x / x check")
    p.add_argument("--sigma0", type=float, default=None,
                   help="also check the u^{-sigma0}-weighted tail integral")
    common(p, "grid", "checkpoints")
    p.set_defaults(func=cmd_hypotheses)

    p = sub.add_parser("mellin-fit",
                       help="fit the transform-side asymptotic expansions")
    p.add_argument("--h", type=float, help="grid step of the Mellin-fit grid "
                   "only (give with --n); the de Haan fit keeps its own grid")
    p.add_argument("--n", type=int, help="grid size of the Mellin-fit grid only "
                   "(give with --h)")
    common(p, "tol", tol=0.02)
    p.set_defaults(func=cmd_mellin_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _fail("config", f"error={exc!r}")
        return 2
    except (ConstructionError, FitError) as exc:
        _fail("check", f"error={exc!r}")
        return 1
    except BeurlingError as exc:
        _fail("parameters", f"error={exc!r}")
        return 2
    except OverflowError as exc:
        _fail("overflow", f"error={exc!r}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
