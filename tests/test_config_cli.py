"""Config grammar and the command-line front end.

CLI tests drive main(argv) in-process (exit codes, stdout/stderr contract,
emitted files); one subprocess smoke test covers the module entry point.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from beurling import (ConfigError, LogGrid, build_li_pi, kahane_tail,
                      load_measure, relative_gap)
from beurling.cli import main
from beurling.config import parse_config, parse_density, spec_from_text
from beurling.density import discretize
from beurling.systems import assemble_pi, li_density

COARSE = ["--h", "1e-3", "--n", "50001"]


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
    assert spec.custom.density(7.5) == pytest.approx(li_density(7.5), rel=1e-12)


def test_tail_expression_matches_stock_tail():
    d = parse_density("indicator(e**e) / (log(u) * loglog(u))")
    g = LogGrid(1e-3, 12_001)
    got = discretize(d, g)
    assert relative_gap(got, kahane_tail(g)) <= 1e-15
    assert d.breakpoints == pytest.approx((math.e ** math.e,))


def test_leading_indicator_gates_undefined_cofactors():
    d = parse_density("indicator(e**e) / (log(u) * loglog(u))")
    # below the cutoff loglog(u) is undefined; the gate must return exact 0
    assert float(d.density(2.0)) == 0.0
    assert float(d.log_density(0.5)) == 0.0
    above = math.exp(4.0)
    assert float(d.density(above)) == pytest.approx(
        1.0 / (4.0 * math.log(4.0)), rel=1e-12)


def test_log_form_agrees_and_survives_long_grids():
    d = parse_density("u**-2")
    for t in (0.5, 2.0, 5.0):
        assert float(d.log_density(t)) == pytest.approx(
            float(d.density(math.exp(t))), rel=1e-13)
    assert float(d.log_density(800.0)) == 0.0  # exp(-1600) underflows to 0

    d2 = parse_density("u**2")
    assert float(d2.density(3.0)) == pytest.approx(9.0, rel=1e-15)
    assert float(d2.log_density(0.5)) == pytest.approx(math.e, rel=1e-15)


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
    pi = load_measure(out / "pi.csv")
    assert np.array_equal(pi.coeffs, build_li_pi(LogGrid(0.001, 12001)).coeffs)
    for name in ("pi", "n", "m"):
        assert (out / f"{name}.csv").exists()


def test_cli_build_fft_path(tmp_path):
    cfg = write_config(tmp_path, "base = li\ngrid.h = 0.001\ngrid.n = 4096\n")
    out = tmp_path / "fft"
    assert main(["build", "--config", cfg, "--out", str(out),
                 "--fft", "on"]) == 0


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
    assert "identity |m_K - B-/x|" in captured.out
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


def test_cli_hypotheses_pass_and_fail(tmp_path, capsys):
    good = write_config(tmp_path, (
        "base = li\ngrid.h = 0.001\ngrid.n = 50001\n"
        "e.density = indicator(e**e) / (log(u) * loglog(u))\n"), "good.cfg")
    out = tmp_path / "hyp"
    assert main(["hypotheses", "--config", good, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "hypothesis i: pass" in captured.out
    assert (out / "e_variation_ratio.csv").exists()
    assert (out / "m_ratio.csv").exists()

    bad = write_config(tmp_path, (
        "base = li\ngrid.h = 0.001\ngrid.n = 50001\n"
        "e.density = 1/log(u)\n"), "bad.cfg")
    assert main(["hypotheses", "--config", bad, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "FAIL hypothesis_i" in captured.err


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
    ("identities", "--h", "0.01"),
    ("identities", "--n", "512"),
    ("identities", "--fft", "on"),
    ("identities", "--checkpoints", "5,10"),
    ("kahane", "--seed", "7"),
    ("hypotheses", "--tol", "1e-3"),
    ("hypotheses", "--seed", "7"),
    ("bench", "--h", "0.01"),
    ("bench", "--n", "512"),
    ("bench", "--tol", "1e-3"),
    ("bench", "--fft", "on"),
    ("bench", "--seed", "7"),
    ("bench", "--checkpoints", "5,10"),
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


def test_cli_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_module_entry_point(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("base = li\ngrid.h = 0.01\ngrid.n = 512\n")
    proc = subprocess.run(
        [sys.executable, "-m", "beurling.cli", "build", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "built li system" in proc.stdout


def test_cli_bench_writes_csv(tmp_path, monkeypatch, capsys):
    # benchmark timings are exercised by the selfcheck tests; here only the
    # CSV contract and summary lines matter, so feed cmd_bench canned rows
    rows = [
        {"n": 1 << 16, "fft_s": 0.05, "recurrence_s": 2.0, "gap": 3e-11},
        {"n": 1 << 17, "fft_s": 0.11, "recurrence_s": None, "gap": None},
        {"n": 1 << 18, "fft_s": 0.24, "recurrence_s": None, "gap": None},
    ]
    monkeypatch.setattr("beurling.cli.benchmark_exp", lambda: rows)
    assert main(["bench", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fft scaling exponent:" in out
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "n,recurrence_s,fft_s,relative_gap"
    assert lines[2] == "65536,2.0,0.05,3e-11"
    assert lines[3] == "131072,,0.11,"
