"""Command-line front end.

Subcommands: build, identities, kahane, hypotheses, mellin-fit, bench.
Exit status is 0 when every requested check passes, 1 when a check fails,
and 2 on configuration errors; failed checks additionally print one
machine-readable line per failure to stderr, of the form

    FAIL <check> key=value ...
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .asymptotics import CheckpointSeries, check_decay
from .config import load_spec
from .csvio import report_to_mapping, write_keyvalue, write_series_csv
from .errors import (BeurlingError, ConfigError, ConstructionError, FitError,
                     ParameterError)
from .grid import LogGrid
from .measure import exp_star, load_measure, negate, save_measure
from .pipelines import (KAHANE_GRID, de_haan_experiment, kahane_pipeline,
                        mellin_alpha_experiment)
from .selfcheck import benchmark_exp, fft_scaling_exponent, run_identity_suite
from .systems import DEFAULT_CHECKPOINTS, assemble_pi, build_system, hypothesis_report


def _fail(check: str, **kv):
    parts = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"FAIL {check} {parts}".rstrip(), file=sys.stderr)


def _parse_checkpoints(text: str):
    try:
        ts = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad checkpoint list {text!r}") from None
    if not ts or any(t <= 0 for t in ts):
        raise ConfigError(f"checkpoints must be positive, got {text!r}")
    return ts


def _method(args) -> str:
    if args.fft == "on":
        return "fft"
    if args.fft == "off":
        return "recurrence"
    return "auto"


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_build(args) -> int:
    spec = load_spec(args.config, h=args.h, n=args.n)
    system = build_system(spec, method=_method(args))
    out = _outdir(args)
    paths = {}
    for name, meas in (("pi", system.pi), ("n", system.n), ("m", system.m)):
        path = os.path.join(out, f"{name}.csv")
        save_measure(meas, path)
        back = load_measure(path)
        if not np.array_equal(back.coeffs, meas.coeffs):
            _fail("serialization_roundtrip", measure=name)
            return 1
        paths[name] = path
    print(f"built {spec.base} system on h={spec.grid.h!r} n={spec.grid.n}")
    for name, path in paths.items():
        print(f"wrote {path}")
    return 0


def cmd_identities(args) -> int:
    result = run_identity_suite(seed=args.seed, tol=args.tol)
    for law, gap in result.worst.items():
        status = "pass" if gap <= result.tol else "FAIL"
        print(f"{law}: worst={gap:.3e} tol={result.tol:.1e} {status}")
        if gap > result.tol:
            _fail(f"identity_{law}", worst=f"{gap:.3e}", tol=f"{result.tol:.1e}")
    print(f"identity suite: {result.count} measures in {result.runtime:.2f}s "
          f"-> {'pass' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def cmd_kahane(args) -> int:
    grid = LogGrid(args.h, args.n)
    checkpoints = _parse_checkpoints(args.checkpoints)
    report = kahane_pipeline(grid=grid, checkpoints=checkpoints,
                             method=_method(args), identity_tol=args.tol)
    out = _outdir(args)
    for name, series in report.series.items():
        write_series_csv(os.path.join(out, f"{name}.csv"), series, grid)
    print(f"identity |m_K - B-/x|: max relative {report.identity_max_rel:.3e} "
          f"(tol {args.tol:.1e}) {'pass' if report.identity_passed else 'FAIL'}")
    print(f"m_K two-route agreement: {report.mk_route_gap:.3e}")
    for name, decay in report.decay.items():
        print(f"decay {name}: final/max={decay.final_over_max:.4f} "
              f"{'pass' if decay.passed else 'FAIL'}")
    print(f"growth nk_ratio: gain={report.growth.gain:.4f} "
          f"{'pass' if report.growth.passed else 'FAIL'}")
    print(f"g_ratio final={report.g_final:.4f} (want within 10% of 1) "
          f"{'pass' if report.g_passed else 'FAIL'}")
    if not report.identity_passed:
        _fail("kahane_identity", max_rel=f"{report.identity_max_rel:.3e}",
              tol=f"{args.tol:.1e}")
    if report.mk_route_gap > args.tol:
        _fail("mk_two_routes", gap=f"{report.mk_route_gap:.3e}")
    for name, decay in report.decay.items():
        if not decay.passed:
            _fail(f"decay_{name}", final_over_max=f"{decay.final_over_max:.4f}")
    if not report.growth.passed:
        _fail("growth_nk_ratio", gain=f"{report.growth.gain:.4f}")
    if not report.g_passed:
        _fail("g_ratio", final=f"{report.g_final:.4f}")
    return 0 if report.passed else 1


def cmd_hypotheses(args) -> int:
    spec = load_spec(args.config, h=args.h, n=args.n)
    checkpoints = _parse_checkpoints(args.checkpoints)
    report = hypothesis_report(spec, a=args.a, checkpoints=checkpoints,
                               sigma0=args.sigma0)
    out = _outdir(args)
    for name, series in report.series.items():
        write_series_csv(os.path.join(out, f"{name}.csv"), series, spec.grid)

    # conclusion series M(x)/x for the full assembled system, weighted side
    pi_w = assemble_pi(spec, weight_sigma=1.0)
    m_w = exp_star(negate(pi_w), method=_method(args), tilt=0.0)
    ts = np.asarray(sorted(checkpoints), dtype=float)
    vals = np.empty(len(ts))
    for j, t in enumerate(ts):
        k = spec.grid.index_of_log(t)
        vals[j] = np.dot(m_w.coeffs[: k + 1],
                         np.exp(np.arange(k + 1) * spec.grid.h - t))
    conclusion = CheckpointSeries(ts, vals, "M(x)/x")
    write_series_csv(os.path.join(out, "m_ratio.csv"), conclusion, spec.grid)
    conclusion_decay = check_decay(conclusion)

    for name, flag in report.flags.items():
        print(f"hypothesis {name}: {'pass' if flag else 'FAIL'}")
        if not flag:
            _fail(f"hypothesis_{name}")
    print(f"conclusion M(x)/x decay: final/max={conclusion_decay.final_over_max:.4f} "
          f"{'pass' if conclusion_decay.passed else 'FAIL'}")
    if not conclusion_decay.passed:
        _fail("conclusion_m_ratio", final_over_max=f"{conclusion_decay.final_over_max:.4f}")
    return 0 if (report.passed and conclusion_decay.passed) else 1


def cmd_mellin_fit(args) -> int:
    if (args.h is None) != (args.n is None):
        raise ParameterError("--h and --n set the Mellin-fit grid together; "
                             "give both or neither")
    grid = None if args.h is None else LogGrid(args.h, args.n)
    out = _outdir(args)
    status = 0
    mrep = mellin_alpha_experiment(grid=grid, alpha_tol=args.tol)
    write_keyvalue(os.path.join(out, "mellin_fit.txt"), report_to_mapping(mrep))
    print(f"mellin fit: alpha={mrep.constants['alpha']:.4f} "
          f"c1={mrep.constants['c1']:.4f} c2={mrep.constants['c2']:.4f} "
          f"({mrep.criterion}) {'pass' if mrep.passed else 'FAIL'}")
    if not mrep.passed:
        _fail("mellin_alpha", alpha=f"{mrep.constants['alpha']:.4f}",
              criterion=mrep.criterion)
        status = 1

    drep = de_haan_experiment()
    write_keyvalue(os.path.join(out, "de_haan_fit.txt"), report_to_mapping(drep))
    print(f"slow-variation fit: b1_checkpoint={drep.constants['b1_checkpoint']:.4f} "
          f"b1_mellin={drep.constants['b1_mellin']:.4f} "
          f"{'pass' if drep.passed else 'FAIL'}")
    if not drep.passed:
        _fail("de_haan_consistency",
              b1_dev=f"{drep.details['b1_deviation']:.4f}",
              gamma_dev=f"{drep.details['gamma_deviation']:.4f}")
        status = 1
    return status


def cmd_bench(args) -> int:
    rows = benchmark_exp()
    out = _outdir(args)
    path = os.path.join(out, "bench.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# exp-star timings, li-type weighted input\n")
        fh.write("n,recurrence_s,fft_s,relative_gap\n")
        for row in rows:
            rec = "" if row["recurrence_s"] is None else repr(row["recurrence_s"])
            gap = "" if row["gap"] is None else repr(row["gap"])
            fh.write(f"{row['n']},{rec},{repr(row['fft_s'])},{gap}\n")
    for row in rows:
        rec = "-" if row["recurrence_s"] is None else f"{row['recurrence_s']:.3f}s"
        gap = "-" if row["gap"] is None else f"{row['gap']:.2e}"
        print(f"n={row['n']:>8} recurrence={rec:>9} fft={row['fft_s']:.3f}s gap={gap}")
    exponent = fft_scaling_exponent(rows)
    print(f"fft scaling exponent: {exponent:.3f}")
    print(f"wrote {path}")
    return 0


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
        if "fft" in flags:
            p.add_argument("--fft", choices=("on", "off", "auto"), default="auto",
                           help="exp-star path selection")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=2026, help="rng seed")
        if "checkpoints" in flags:
            p.add_argument("--checkpoints", default=",".join(
                str(int(t)) for t in DEFAULT_CHECKPOINTS),
                help="comma-separated log x checkpoints")

    p = sub.add_parser("build", help="build a system from config and serialize it")
    p.add_argument("--config", required=True)
    common(p, "grid", "fft")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("identities", help="run the random measure-algebra suite")
    common(p, "tol", "seed")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("kahane", help="run the Kahane system experiment suite")
    common(p, "grid", "tol", "fft", "checkpoints",
           h=KAHANE_GRID.h, n=KAHANE_GRID.n, tol=1e-6)
    p.set_defaults(func=cmd_kahane)

    p = sub.add_parser("hypotheses",
                       help="hypothesis diagnostics for a configured system")
    p.add_argument("--config", required=True)
    p.add_argument("--a", type=float, default=1.0,
                   help="exponent in the |M0(x)| log^a x / x check")
    p.add_argument("--sigma0", type=float, default=None,
                   help="also check the u^{-sigma0}-weighted tail integral")
    common(p, "grid", "fft", "checkpoints")
    p.set_defaults(func=cmd_hypotheses)

    p = sub.add_parser("mellin-fit",
                       help="fit the transform-side asymptotic expansions")
    p.add_argument("--h", type=float, help="grid step of the Mellin-fit grid "
                   "only (give with --n); the de Haan fit keeps its own grid")
    p.add_argument("--n", type=int, help="grid size of the Mellin-fit grid only "
                   "(give with --h)")
    common(p, "tol", tol=0.02)
    p.set_defaults(func=cmd_mellin_fit)

    p = sub.add_parser("bench", help="time recurrence vs FFT exp-star")
    common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _fail("config", error=f"{exc!r}")
        return 2
    except (ConstructionError, FitError) as exc:
        _fail("check", error=f"{exc!r}")
        return 1
    except BeurlingError as exc:
        _fail("parameters", error=f"{exc!r}")
        return 2
    except OverflowError as exc:
        _fail("overflow", error=f"{exc!r}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
