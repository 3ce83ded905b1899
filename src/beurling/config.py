"""Plain-text configuration for system builds.

Config files are line-oriented key = value pairs; blank lines and lines
starting with # are ignored.  Recognized keys:

    base          li | classical | kahane | custom
    grid.h        float
    grid.n        integer
    sieve_limit   integer
    base.density  density expression
    e.density     density expression, optional signed perturbation
    r.density     density expression, optional signed perturbation

This module only reads and parses: a file that cannot be read, a line or
value that cannot be parsed, a density that cannot be compiled, or a grid
key missing is a ConfigError.  The values it parses are judged by the
library, which refuses them with ParameterError: LogGrid takes a positive
finite h and a positive n, SystemSpec the base, the sieve_limit that base
classical needs and the base.density that base custom alone takes, and
build_classical_pi a sieve_limit of at least 2.

Density expressions are functions of u on [1, inf) built from: numbers,
u, log(u), loglog(u), exp(..), sqrt(..), indicator(a) (1 for u >= a, 0
below), the constants e and pi, and + - * / ** with parentheses.  A cutoff
a is a positive, finite constant expression: no u and no indicator.
Expressions compile in one pass through an ast whitelist; any other syntax
is rejected.  Every number, e and pi included, is a double, so constant
arithmetic is IEEE arithmetic: 1/0 is inf and (-1)**0.5 is NaN, which
discretization refuses, and a literal outside the double range is an
error.  Each cutoff is evaluated once, as it compiles, and every cutoff
above 1 is a breakpoint, so discretization integrates the straddling cell
piecewise exactly.

An indicator written as a leading factor gates the rest of its term:
indicator(a) * X and indicator(a) / X are exact zeros below the cutoff
even where X is undefined there (loglog(u) below u = e, say).  An
indicator buried elsewhere in a term is just a 0/1 value and does not
protect its cofactors.

Each expression compiles to one form, the same function of t = log u
(log(u) becomes t, u**c becomes exp(c t), and so on), so configured
densities discretize correctly on grids extending past log u = 709 where
u itself overflows; only a genuinely u-sized density overflows there.
"""

from __future__ import annotations

import ast
import math
import sys

import numpy as np

from .density import DensitySpec
from .errors import ConfigError
from .grid import LogGrid
from .systems import SystemSpec

_KEYS = {"base", "grid.h", "grid.n", "sieve_limit",
         "base.density", "e.density", "r.density"}
_CALLS = {"log", "loglog", "indicator", "exp", "sqrt"}
_NAMES = {"u", "e", "pi"}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.UAdd, ast.USub)


def _env(t):
    """Names an expression sees when evaluated at t = log u, where
    indicator cutoffs move to log a."""
    return {
        "logu": t,
        "num": np.float64,
        "e": np.float64(math.e),
        "pi": np.float64(math.pi),
        "log": np.log,
        "loglog": lambda y: np.log(np.log(y)),
        "exp": np.exp,
        "sqrt": np.sqrt,
        "indicator": lambda a: np.where(np.asarray(t, dtype=float) >= math.log(a), 1.0, 0.0),
        "gate": lambda a, y: np.where(np.asarray(t, dtype=float) >= math.log(a), y, 0.0),
    }


def _is_indicator(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "indicator")


def _is_u(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "u"


def _name(ident):
    return ast.Name(id=ident, ctx=ast.Load())


def _call(ident, *args):
    return ast.Call(func=_name(ident), args=list(args), keywords=[])


def _gated(node):
    # indicator(a) * X and indicator(a) / X, and X * indicator(a), to gate(a, X-form)
    if isinstance(node.op, (ast.Mult, ast.Div)) and _is_indicator(node.left):
        inner = node.right if isinstance(node.op, ast.Mult) else \
            ast.BinOp(left=ast.Constant(1.0), op=ast.Div(), right=node.right)
        return _call("gate", node.left.args[0], inner)
    if isinstance(node.op, ast.Mult) and _is_indicator(node.right):
        return _call("gate", node.right.args[0], node.left)
    return node


class _Compiler(ast.NodeTransformer):
    """One pass over a parsed density: each node is checked against the
    whitelist (a node with no visit_ method is refused), rewritten into t =
    log u with each literal num(literal), a double, and gated where an
    indicator leads it.  A cutoff is folded in as the float it evaluates
    to, which breakpoints records."""

    def __init__(self):
        self.breakpoints: list[float] = []
        self.in_cutoff = False

    def generic_visit(self, node):
        raise ConfigError(f"disallowed syntax: {ast.dump(node)[:60]}")

    def visit_Constant(self, node):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"literal {node.value!r} is not a number")
        if not node.value <= sys.float_info.max:  # exact for ints too
            raise ConfigError("a numeric literal lies outside the double range")
        return _call("num", node)

    def visit_Name(self, node):
        if node.id not in _NAMES or (node.id == "u" and self.in_cutoff):
            raise ConfigError(f"name {node.id!r} not allowed here")
        return _call("exp", _name("logu")) if node.id == "u" else node

    def visit_UnaryOp(self, node):
        if not isinstance(node.op, _UNARY):
            return self.generic_visit(node)
        node.operand = self.visit(node.operand)
        return node

    def visit_BinOp(self, node):
        if not isinstance(node.op, _BINOPS):
            return self.generic_visit(node)
        power_of_u = isinstance(node.op, ast.Pow) and _is_u(node.left)
        node.left, node.right = self.visit(node.left), self.visit(node.right)
        if power_of_u:  # u**c is exp(c t)
            return _call("exp", _gated(ast.BinOp(left=node.right, op=ast.Mult(),
                                                 right=_name("logu"))))
        return _gated(node)

    def visit_Call(self, node):
        if not isinstance(node.func, ast.Name) or node.func.id not in _CALLS:
            raise ConfigError("only log, loglog, indicator, exp, sqrt may be called")
        if node.keywords or len(node.args) != 1:
            raise ConfigError(f"{node.func.id} takes exactly one positional argument")
        ident, (arg,) = node.func.id, node.args
        if ident == "indicator":
            return _call(ident, ast.Constant(self._cutoff(arg)))
        node.args = [self.visit(arg)]
        if _is_u(arg) and ident in ("log", "loglog"):  # log u is t
            return _name("logu") if ident == "log" else _call("log", _name("logu"))
        return node

    def _cutoff(self, node) -> float:
        # a constant expression, no u and no indicator, so that it is one
        # number at every t and can be a breakpoint
        if self.in_cutoff:
            raise ConfigError("an indicator cutoff may not hold an indicator")
        self.in_cutoff = True
        form = ast.fix_missing_locations(ast.Expression(body=self.visit(node)))
        self.in_cutoff = False
        with np.errstate(all="ignore"):
            cut = float(eval(compile(form, "<cutoff>", "eval"),
                             {"__builtins__": {}}, _env(0.0)))
        if not (math.isfinite(cut) and cut > 0):
            raise ConfigError("indicator cutoff must be positive and finite")
        self.breakpoints.append(cut)
        return cut


def parse_density(text: str) -> DensitySpec:
    """Compile one density expression into a DensitySpec."""
    compiler = _Compiler()
    try:
        body = compiler.visit(ast.parse(text, mode="eval").body)
        code = compile(ast.fix_missing_locations(ast.Expression(body=body)),
                       "<density>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse density {text!r}: {exc}") from None
    except (RecursionError, MemoryError):
        raise ConfigError(f"density of {len(text)} characters nests too deeply") from None

    def log_density(t):
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, _env(t))

    cuts = tuple(sorted(b for b in compiler.breakpoints if b > 1.0))
    return DensitySpec(breakpoints=cuts, log_density=log_density)


def parse_config(text: str) -> dict:
    """key = value lines to a raw string dict; duplicate or unknown keys error."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _value(raw: dict, key: str, convert):
    """raw[key] converted, or None when the file does not set it."""
    try:
        return convert(raw[key]) if key in raw else None
    except ValueError:
        raise ConfigError(f"{key}: cannot read {raw[key]!r} as {convert.__name__}") from None


def spec_from_text(text: str, h: float | None = None,
                   n: int | None = None) -> SystemSpec:
    """Parse a config document into a SystemSpec; h and n override the file.

    Every value is converted and every density compiled before any is
    judged: text that fails to is a ConfigError, and LogGrid and SystemSpec
    then refuse values with ParameterError."""
    raw = parse_config(text)
    for key, override in (("grid.h", h), ("grid.n", n)):
        if override is None and key not in raw:
            raise ConfigError(f"{key} missing and no override given")
    h = _value(raw, "grid.h", float) if h is None else h
    n = _value(raw, "grid.n", int) if n is None else n
    sieve_limit = _value(raw, "sieve_limit", int)
    custom, e_part, r_part = (parse_density(raw[key]) if key in raw else None
                              for key in ("base.density", "e.density", "r.density"))
    return SystemSpec(base=raw.get("base", "").lower(), grid=LogGrid(h, n),
                      e_part=e_part, r_part=r_part, sieve_limit=sieve_limit,
                      custom=custom)


def load_spec(path, h: float | None = None, n: int | None = None) -> SystemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return spec_from_text(text, h=h, n=n)
