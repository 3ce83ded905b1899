"""Config grammar and the command-line front end.

CLI tests drive main(argv) in-process (exit codes, stdout/stderr contract,
emitted files); one subprocess smoke test covers the module entry point.
"""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from beurling import (ConfigError, LogGrid, Measure, build_li_pi, kahane_tail,
                      load_measure, relative_gap)
from beurling.cli import main
from beurling.config import parse_config, parse_density, spec_from_text
from beurling.density import discretize
from beurling.systems import _li_density_log, assemble_pi
from conftest import u_density

COARSE = ["--h", "1e-3", "--n", "50001"]
# li with r = u^{-3/2} du past e: (ii) holds, and the u^{+1}-weighted (ii)
# of --sigma0 -1 does not
SIGMA0_CFG = ("base = li\ngrid.h = 0.004\ngrid.n = 16383\n"
              "r.density = indicator(e) * u**(-1.5)\n")


# ------------------------------------------------------------------ config

def test_parse_config_basics():
    raw = parse_config("# comment\n\nbase = li\ngrid.h = 0.01\ngrid.n = 200\n")
    assert raw == {"base": "li", "grid.h": "0.01", "grid.n": "200"}


@pytest.mark.parametrize("text", [
    "flavor = li",                       # unknown key
    "base = li\nbase = li",              # duplicate
    "base =",                            # empty value
    "base li",                           # no equals sign
])
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_spec_from_text_builds_li():
    spec = spec_from_text("base = li\ngrid.h = 0.001\ngrid.n = 3001\n")
    assert spec.base == "li"
    assert spec.grid == LogGrid(0.001, 3001)
    got = assemble_pi(spec)
    assert np.array_equal(got.coeffs, build_li_pi(spec.grid).coeffs)


def test_spec_overrides_grid():
    spec = spec_from_text("base = li\ngrid.h = 0.001\ngrid.n = 3001\n",
                          h=0.01, n=50)
    assert spec.grid == LogGrid(0.01, 50)
    spec2 = spec_from_text("base = li\n", h=0.01, n=50)
    assert spec2.grid == LogGrid(0.01, 50)


@pytest.mark.parametrize("text,h,n", [
    ("base = li\n", None, None),                       # grid missing
    ("base = nope\ngrid.h = 0.01\ngrid.n = 10", None, None),
    ("base = classical\ngrid.h = 0.01\ngrid.n = 10", None, None),
    ("base = custom\ngrid.h = 0.01\ngrid.n = 10", None, None),
    ("base = li\ngrid.h = -1\ngrid.n = 10", None, None),
    ("base = li\ngrid.h = 0.01\ngrid.n = 0", None, None),
    ("base = li\ngrid.h = 0.01\ngrid.n = 10\nbase.density = u", None, None),
])
def test_spec_from_text_rejects(text, h, n):
    with pytest.raises(ConfigError):
        spec_from_text(text, h=h, n=n)


def test_custom_base_expression_matches_stock_li():
    spec = spec_from_text("base = custom\ngrid.h = 0.001\ngrid.n = 3001\n"
                          "base.density = (1 - 1/u)/log(u)\n")
    got = assemble_pi(spec)
    assert relative_gap(got, build_li_pi(spec.grid)) <= 1e-9
    t = math.log(7.5)
    assert spec.custom.log_density(t) == pytest.approx(_li_density_log(t), rel=1e-12)


def test_tail_expression_matches_stock_tail():
    d = parse_density("indicator(e**e) / (log(u) * loglog(u))")
    g = LogGrid(1e-3, 12_001)
    got = discretize(d, g)
    assert relative_gap(got, kahane_tail(g)) <= 1e-15
    assert d.breakpoints == pytest.approx((math.e ** math.e,))


def test_leading_indicator_gates_undefined_cofactors():
    d = parse_density("indicator(e**e) / (log(u) * loglog(u))")
    # below the cutoff loglog(u) is undefined; the gate must return exact 0
    assert float(d.log_density(math.log(2.0))) == 0.0
    assert float(d.log_density(0.5)) == 0.0
    cut = math.log(math.e ** math.e)
    assert float(d.log_density(cut * (1 - 1e-15))) == 0.0
    assert float(d.log_density(cut)) == pytest.approx(
        1.0 / (cut * math.log(cut)), rel=1e-15)
    assert float(d.log_density(4.0)) == pytest.approx(
        1.0 / (4.0 * math.log(4.0)), rel=1e-12)


def test_log_form_agrees_and_survives_long_grids():
    d = parse_density("u**-2")
    for t in (0.5, 2.0, 5.0):
        assert float(d.log_density(t)) == pytest.approx(math.exp(-2.0 * t),
                                                        rel=1e-13)
    assert float(d.log_density(800.0)) == 0.0  # exp(-1600) underflows to 0

    d2 = parse_density("u**2")
    assert float(d2.log_density(math.log(3.0))) == pytest.approx(9.0, rel=1e-15)
    assert float(d2.log_density(0.5)) == pytest.approx(math.e, rel=1e-15)

    d3 = parse_density("sqrt(u) * loglog(u) + log(u) / u")
    for t in (1.5, 4.0):
        u = math.exp(t)
        assert float(d3.log_density(t)) == pytest.approx(
            math.sqrt(u) * math.log(t) + t / u, rel=1e-13)


def test_constant_density_is_broadcast():
    # the log form of a constant is a scalar; every cell still gets it
    g = LogGrid(0.01, 300)
    got = discretize(parse_density("0.5"), g)
    want = discretize(u_density(lambda u: np.full_like(u, 0.5)), g)
    assert np.array_equal(got.coeffs, want.coeffs)


def test_indicator_bookkeeping():
    assert parse_density("indicator(5) * 1").breakpoints == (5.0,)
    assert parse_density("indicator(1) * u").breakpoints == ()
    two = parse_density("indicator(2)*1 + indicator(10)*1")
    assert two.breakpoints == (2.0, 10.0)


@pytest.mark.parametrize("expr", [
    "u < 2",                   # comparison
    "__import__('os')",        # call of a non-whitelisted name
    "x + 1",                   # unknown name
    "u(2)",                    # u is not callable
    "indicator(u)",            # cutoff must be constant
    "indicator(0)",            # cutoff must be positive
    "log(u, 2)",               # arity
    "[1, 2]",                  # container literal
    "lambda u: u",             # function syntax
    "'text'",                  # non-numeric literal
    "u **",                    # syntax error
])
def test_density_expression_rejections(expr):
    with pytest.raises(ConfigError):
        parse_density(expr)


# --------------------------------------------------------------------- CLI

def write_config(tmp_path, text, name="system.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_build_roundtrips(tmp_path, capsys):
    cfg = write_config(tmp_path, "base = li\ngrid.h = 0.001\ngrid.n = 12001\n")
    out = tmp_path / "out"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "built li system" in captured.out
    assert "wrote" in captured.out
    assert [line for line in captured.out.splitlines()
            if line.startswith("serialization_roundtrip:")] == [
        f"serialization_roundtrip: measure={name} mismatches=0 pass"
        for name in ("pi", "n", "m")]
    assert captured.err == ""
    pi = load_measure(out / "pi.csv")
    assert np.array_equal(pi.coeffs, build_li_pi(LogGrid(0.001, 12001)).coeffs)
    for name in ("pi", "n", "m"):
        assert (out / f"{name}.csv").exists()


def test_cli_build_reports_a_failed_roundtrip_as_a_verdict(tmp_path, capsys,
                                                          monkeypatch):
    # a reload that differs in two coefficients of n fails that measure's
    # check only; every measure is still written and checked
    def load_with_damage(path):
        meas = load_measure(path)
        if os.path.basename(path) != "n.csv":
            return meas
        coeffs = meas.coeffs.copy()
        coeffs[[3, 7]] += 1.0
        return Measure(meas.grid, coeffs)

    monkeypatch.setattr("beurling.cli.load_measure", load_with_damage)
    cfg = write_config(tmp_path, "base = li\ngrid.h = 0.01\ngrid.n = 512\n")
    out = tmp_path / "out"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines()
            if line.startswith("serialization_roundtrip:")] == [
        "serialization_roundtrip: measure=pi mismatches=0 pass",
        "serialization_roundtrip: measure=n mismatches=2 FAIL",
        "serialization_roundtrip: measure=m mismatches=0 pass"]
    assert captured.err.splitlines() == [
        "FAIL serialization_roundtrip measure=n mismatches=2"]
    for name in ("pi", "n", "m"):
        assert (out / f"{name}.csv").exists()


def test_cli_build_fft_path(tmp_path):
    cfg = write_config(tmp_path, "base = li\ngrid.h = 0.001\ngrid.n = 4096\n")
    out = tmp_path / "fft"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0


def test_cli_build_fft_path_on_a_long_grid(tmp_path, capsys):
    # log x reaches 131: raw li dPi spans e^131, and only the weighted
    # exp keeps the Newton iteration inside the double range
    cfg = write_config(tmp_path, (
        "base = li\ngrid.h = 0.004\ngrid.n = 32768\n"
        "e.density = indicator(e) * (0.3 / log(u)**2)\n"
        "r.density = indicator(e) * (-0.2 / log(u)**1.7)\n"))
    out = tmp_path / "fft"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("pi", "n", "m"):
        assert load_measure(out / f"{name}.csv").grid == LogGrid(0.004, 32768)


@pytest.mark.parametrize("command, grid, density", [
    # the pair of a huge perturbation cancels in exp*(-dPi), so both halves
    # run the recurrence, whose sums overflow into inf and NaN
    ("build", "grid.h = 0.004\ngrid.n = 4096", "indicator(2) * 1e60 * u**2"),
    # weighted u^2 still grows like e^{kh}: in exp*(u^2 - li) nothing
    # cancels and its envelope bound is no bound, so Newton runs and
    # overflows into NaN, which no comparison with the bound catches
    ("hypotheses", "grid.h = 0.004\ngrid.n = 32768", "-u**2"),
], ids=["build", "hypotheses"])
def test_cli_reports_a_nan_exp_as_overflow(tmp_path, capsys, command, grid,
                                           density):
    cfg = write_config(tmp_path, f"base = li\n{grid}\ne.density = {density}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL overflow error=OverflowError(")


def test_cli_build_reports_a_cancelling_pair_as_a_failed_check(tmp_path, capsys):
    # exp*(-dPi) of li + u^2 cancels, so the pair runs the recurrence: the
    # inverse law then fails by a finite deviation, about 1e98, instead of
    # Newton's overflowing product
    cfg = write_config(tmp_path, ("base = li\ngrid.h = 0.004\ngrid.n = 16384\n"
                                  "e.density = u**2\n"))
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL check error=ConstructionError("
                               "'dM fails to invert dN: max deviation ")


def test_cli_build_reports_an_overflowing_inverse_law_as_a_failed_check(tmp_path, capsys):
    # li + u^3: the pair's halves are finite, their product is not
    cfg = write_config(tmp_path, ("base = li\ngrid.h = 0.004\ngrid.n = 32768\n"
                                  "e.density = u**3\n"))
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL check error=ConstructionError(")


def test_cli_build_refuses_an_overflowing_grid(tmp_path, capsys):
    # raw cell masses of li pass the double range near log u = 709
    cfg = write_config(tmp_path, "base = li\ngrid.h = 0.004\ngrid.n = 200000\n")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("FAIL parameters error=ParameterError(")


def test_cli_build_refuses_an_overflowing_classical_grid(tmp_path, capsys,
                                                         monkeypatch):
    # the sieved classical base is finite on any grid, but the raw dN it
    # builds carries e^{kh}; the refusal comes before any exponential runs
    from beurling import kernels

    def no_exp(*args, **kwargs):
        raise AssertionError("an exponential ran before the grid check")

    for name in ("exp_recurrence", "exp_newton", "exp_newton_pair"):
        monkeypatch.setattr(kernels, name, no_exp)
    cfg = write_config(tmp_path, ("base = classical\ngrid.h = 0.01\n"
                                  "grid.n = 80000\nsieve_limit = 1000000\n"))
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAIL parameters error=ParameterError(")
    assert "hypotheses" in err


@pytest.mark.parametrize("command", ["build", "hypotheses"])
def test_cli_refuses_a_sieve_limit_below_two(tmp_path, capsys, command):
    cfg = write_config(tmp_path, ("base = classical\ngrid.h = 0.01\n"
                                  "grid.n = 5001\nsieve_limit = 1\n"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAIL parameters error=ParameterError(")
    assert "at least 2" in err


@pytest.mark.parametrize("command", ["build", "hypotheses"])
def test_cli_refuses_a_density_with_a_non_finite_cell(tmp_path, capsys, command):
    # the pole at u = e^3 falls on the lattice point of cell 300; densities
    # from a config file evaluate with numpy warnings off, and discretize
    # refuses the infinite mass they give there
    cfg = write_config(tmp_path, ("base = li\ngrid.h = 0.01\ngrid.n = 2000\n"
                                  "e.density = 1/(log(u) - 3)\n"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL parameters error=ParameterError(")
    assert "non-finite mass in cell 300" in lines[0]


def test_cli_build_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "base = li\ngrid.h = 0.001\ngrid.n = 4096\n")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("pi", "n", "m"):
        assert (outs[0] / f"{name}.csv").read_bytes() == \
            (outs[1] / f"{name}.csv").read_bytes()


def test_cli_build_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "base = li\nflavor = mint\n")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "FAIL config" in capsys.readouterr().err
    assert main(["build", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_kahane_coarse(tmp_path, capsys):
    out = tmp_path / "kahane"
    assert main(["kahane", *COARSE, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "kahane_identity: max_rel=" in captured.out
    assert captured.err == ""
    for name in ("mk_ratio", "nk_ratio", "s_of_x", "identity_residual",
                 "m_harmonic", "bminus_over_x", "bplus_harmonic", "mk_over_x",
                 "bminus_ratio", "blog_over_x", "g_ratio"):
        assert (out / f"{name}.csv").exists()
    lines = (out / "mk_ratio.csv").read_text().splitlines()
    assert lines[0] == "# h=0.001 n=50001"
    assert lines[1].startswith("# checkpoints=5.0,10.0,")
    assert lines[2] == "# series=M_K(x) log x / x"
    assert lines[3] == "t,value"
    t, v = lines[4].split(",")
    assert float(t) == 5.0 and math.isfinite(float(v))


def test_cli_kahane_is_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["kahane", *COARSE, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("mk_ratio", "nk_ratio", "s_of_x", "identity_residual"):
        assert (outs[0] / f"{name}.csv").read_bytes() == \
            (outs[1] / f"{name}.csv").read_bytes()


def test_cli_kahane_rejects_bad_checkpoints(tmp_path, capsys):
    assert main(["kahane", *COARSE, "--out", str(tmp_path),
                 "--checkpoints", "0"]) == 2
    assert "FAIL config" in capsys.readouterr().err
    assert main(["kahane", *COARSE, "--out", str(tmp_path),
                 "--checkpoints", "five"]) == 2


@pytest.mark.parametrize("command", ["kahane", "hypotheses"])
@pytest.mark.parametrize("last", ["nan", "inf"])
def test_cli_refuses_non_finite_checkpoints(tmp_path, capsys, command, last):
    # NaN fails every comparison, so a positivity test alone passes it
    grid = (["--config", write_config(tmp_path, "base = li\n")]
            if command == "hypotheses" else [])
    assert main([command, *grid, *COARSE, "--out", str(tmp_path / "o"),
                 "--checkpoints", f"5,10,15,20,{last}"]) == 2
    assert capsys.readouterr().err.startswith("FAIL config error=ConfigError(")


@pytest.fixture
def no_exp(monkeypatch):
    """Make any exponential fail the test: a refusal must come first."""
    from beurling import kernels

    def refuse(*args):
        raise AssertionError("an exponential ran before the ladder check")

    for name in ("exp_recurrence", "exp_newton", "exp_newton_pair"):
        monkeypatch.setattr(kernels, name, refuse)


@pytest.mark.parametrize("command", ["kahane", "hypotheses"])
def test_cli_refuses_a_ladder_shorter_than_the_decay_tail(tmp_path, capsys,
                                                        no_exp, command):
    # the decay proxy reads the last 5 checkpoints; two cannot carry it, and
    # the command says so before any exponential runs
    grid = (["--config", write_config(tmp_path, "base = li\n")]
            if command == "hypotheses" else [])
    assert main([command, *grid, *COARSE, "--out", str(tmp_path / "o"),
                 "--checkpoints", "5,10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAIL parameters error=ParameterError(")
    assert "tail_k=5" in err


@pytest.mark.parametrize("command, ladder", [
    ("kahane", "5,10,10,20,30,40"), ("hypotheses", "5,5,10,20,30,40")],
    ids=["kahane", "hypotheses"])
def test_cli_refuses_repeated_checkpoints(tmp_path, capsys, no_exp, command,
                                          ladder):
    grid = (["--config", write_config(tmp_path, "base = li\n")]
            if command == "hypotheses" else [])
    assert main([command, *grid, "--h", "0.01", "--n", "6000",
                 "--out", str(tmp_path / "o"), "--checkpoints", ladder]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL parameters error=ParameterError(")
    assert "distinct" in lines[0]


def test_cli_hypotheses_pass_and_fail(tmp_path, capsys):
    good = write_config(tmp_path, (
        "base = li\ngrid.h = 0.001\ngrid.n = 50001\n"
        "e.density = indicator(e**e) / (log(u) * loglog(u))\n"), "good.cfg")
    out = tmp_path / "hyp"
    assert main(["hypotheses", "--config", good, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert re.search(r"^hypothesis_i: .* pass$", captured.out, re.M)
    assert (out / "e_variation_ratio.csv").exists()
    assert (out / "m_ratio.csv").exists()

    bad = write_config(tmp_path, (
        "base = li\ngrid.h = 0.001\ngrid.n = 50001\n"
        "e.density = 1/log(u)\n"), "bad.cfg")
    assert main(["hypotheses", "--config", bad, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "FAIL hypothesis_i" in captured.err


def test_cli_hypotheses_exits_on_a_failed_sigma0_check(tmp_path, capsys):
    cfg = write_config(tmp_path, SIGMA0_CFG)
    assert main(["hypotheses", "--config", cfg, "--sigma0", "-1",
                 "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL hypothesis_ii_sigma0 ")


def test_cli_hypotheses_refuses_a_sigma0_past_the_double_range(tmp_path, capsys):
    # at sigma0 = -50 the u^{-sigma0}-weighted partial of |dR|/u grows like
    # e^{51 t} and leaves the double range before the last checkpoint:
    # refused as a parameter, with no numpy warning, where it used to print
    # numpy's overflow warning and a FAIL verdict on final=inf
    cfg = write_config(tmp_path, SIGMA0_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["hypotheses", "--config", cfg, "--sigma0=-50",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL parameters ") and "sigma0" in lines[0]


@pytest.mark.parametrize("argv", [
    ["identities", "--tol", "1e-15"],
    # kahane_identity fails on this grid (6.2e-6 against 1e-6); the rest pass
    ["kahane", "--h", "0.01", "--n", "6000"],
    ["hypotheses", "--sigma0", "-1"],
], ids=["identities", "kahane", "hypotheses"])
def test_cli_fail_lines_name_the_failed_verdicts(tmp_path, capsys, argv):
    if argv[0] == "hypotheses":
        argv = [*argv, "--config", write_config(tmp_path, SIGMA0_CFG)]
    code = main([*argv, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    verdicts = [line for line in captured.out.splitlines()
                if line.endswith((" pass", " FAIL"))]
    failed = [line.split(":")[0] for line in verdicts if line.endswith(" FAIL")]
    assert ([line.split()[:2] for line in captured.err.splitlines()]
            == [["FAIL", name] for name in failed])
    assert code == (1 if failed else 0)
    if argv[0] == "identities":
        laws = [re.match(r"^(\w+): worst=(\S+) tol=", line) for line in verdicts]
        assert len(laws) == 8 and all(laws)


@pytest.mark.parametrize("command", [
    "identities --seed -1", "identities --tol nan", "identities --tol=-1",
    "identities --tol 0", "kahane --tol inf", "mellin-fit --tol nan",
    "hypotheses --a nan", "hypotheses --sigma0 nan", "hypotheses --sigma0=-inf",
])
def test_cli_refuses_numeric_flags_outside_their_domain(tmp_path, capsys, command):
    # refused as the flag parses, before any work: exit 2 with a config
    # error that names the flag, where a NaN or negative tolerance used to
    # fail every check and a negative seed ended in numpy's traceback
    argv = command.split()
    flag = argv[1].split("=")[0]
    if argv[0] == "hypotheses":
        argv = [*argv, "--config", write_config(tmp_path, SIGMA0_CFG)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAIL config ") and flag in err
    assert not (tmp_path / "o").exists()


def test_cli_hypotheses_runs_newton_on_both_exps(tmp_path, monkeypatch):
    # li + E at n = 8192: both exps are well conditioned
    from beurling import kernels

    calls = {"fft": 0, "recurrence": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "exp_newton", spy("fft", kernels.exp_newton))
    monkeypatch.setattr(kernels, "exp_recurrence",
                        spy("recurrence", kernels.exp_recurrence))
    cfg = write_config(tmp_path, (
        "base = li\ngrid.h = 0.01\ngrid.n = 8192\n"
        "e.density = indicator(e**e) / (log(u) * loglog(u))\n"))
    assert main(["hypotheses", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"fft": 2, "recurrence": 0}


def test_cli_mellin_fit_needs_grid_room(tmp_path, capsys):
    # a 30-log-unit grid cannot reach sigma - 1 = 1e-5; every sigma is
    # clipped and the fit refuses rather than extrapolating
    assert main(["mellin-fit", "--h", "0.01", "--n", "3001",
                 "--out", str(tmp_path)]) == 1
    assert "FAIL check" in capsys.readouterr().err


def test_cli_rejects_bad_grid_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "beurling.cli", "kahane", "--h", "-1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("FAIL parameters ")
    assert "ParameterError" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", ["--h", "--n"])
def test_cli_mellin_fit_refuses_lone_grid_flag(tmp_path, capsys, flag):
    # --h and --n set the Mellin-fit grid only together; a lone one used to
    # be ignored without a word
    value = "0.25" if flag == "--h" else "5600001"
    assert main(["mellin-fit", flag, value, "--out", str(tmp_path)]) == 2
    assert "FAIL parameters" in capsys.readouterr().err
    assert not (tmp_path / "mellin_fit.txt").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("mellin-fit", "--fft", "on"),
    ("mellin-fit", "--checkpoints", "5,10"),
    ("mellin-fit", "--seed", "7"),
    ("build", "--tol", "1e-3"),
    ("build", "--seed", "7"),
    ("build", "--checkpoints", "5,10"),
    ("build", "--fft", "on"),
    ("identities", "--h", "0.01"),
    ("identities", "--n", "512"),
    ("identities", "--fft", "on"),
    ("identities", "--checkpoints", "5,10"),
    ("kahane", "--seed", "7"),
    ("kahane", "--fft", "off"),
    ("hypotheses", "--tol", "1e-3"),
    ("hypotheses", "--seed", "7"),
    ("hypotheses", "--fft", "auto"),
])
def test_cli_refuses_flags_the_command_ignores(tmp_path, capsys, command, flag, value):
    argv = [command, flag, value, "--out", str(tmp_path / "o")]
    if command in ("build", "hypotheses"):
        argv += ["--config", write_config(tmp_path, "base = li\ngrid.h = 0.01\ngrid.n = 512\n")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_identities(tmp_path, capsys):
    assert main(["identities", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "identity suite: 100 measures" in out
    assert "pass" in out


def test_cli_identities_check_only_the_recurrence(tmp_path, capsys,
                                                  monkeypatch):
    # the suite checks the reference path; its uniform(-1, 1) inputs would
    # not reach Newton under the exp_star rule either, but it must not rely
    # on that
    from beurling import kernels

    def no_newton(*args, **kwargs):
        raise AssertionError("the identity suite reached the Newton exp")

    for name in ("exp_newton", "exp_newton_pair"):
        monkeypatch.setattr(kernels, name, no_newton)
    monkeypatch.setattr(kernels, "_NEWTON_MAX_EXCESS", math.inf)
    assert main(["identities", "--out", str(tmp_path)]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_unknown_command(capsys):
    # bench is no subcommand: perfbench times the package
    for command in ("frobnicate", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_cli_module_entry_point(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("base = li\ngrid.h = 0.01\ngrid.n = 512\n")
    proc = subprocess.run(
        [sys.executable, "-m", "beurling.cli", "build", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "built li system" in proc.stdout

