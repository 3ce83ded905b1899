"""Plain-text configuration for system builds.

Config files are line-oriented key = value pairs; blank lines and lines
starting with # are ignored.  Recognized keys:

    base          li | classical | kahane | custom
    grid.h        positive float
    grid.n        positive integer
    sieve_limit   integer >= 2, classical base only
    base.density  density expression, custom base only
    e.density     density expression, optional signed perturbation
    r.density     density expression, optional signed perturbation

Density expressions are functions of u on [1, inf) built from: numbers,
u, log(u), loglog(u), exp(..), sqrt(..), indicator(a) (a > 0 constant;
value 1 for u >= a and 0 below), the constants e and pi, and + - * / ** with parentheses.
Expressions compile through an ast whitelist; any other syntax is
rejected.  Every number, e and pi included, is a double, so constant
arithmetic is IEEE arithmetic: 1/0 is inf and (-1)**0.5 is NaN, which
discretization refuses, and a literal outside the double range is an
error.  Every indicator cutoff above 1 is recorded as a breakpoint so
discretization integrates the straddling cell piecewise exactly.

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
import copy
import math
import sys

import numpy as np

from .density import DensitySpec
from .errors import ConfigError
from .grid import LogGrid
from .systems import SystemSpec

_KEYS = {"base", "grid.h", "grid.n", "sieve_limit",
         "base.density", "e.density", "r.density"}
_BASES = {"li", "classical", "kahane", "custom"}
_CALLS = {"log", "loglog", "indicator", "exp", "sqrt"}
_NAMES = {"u", "e", "pi"}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.UAdd, ast.USub)


def _check_node(node, breakpoints, allow_u=True):
    if isinstance(node, ast.Expression):
        _check_node(node.body, breakpoints, allow_u)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"literal {node.value!r} is not a number")
        if not node.value <= sys.float_info.max:  # exact for ints too
            raise ConfigError("a numeric literal lies outside the double range")
    elif isinstance(node, ast.Name):
        if node.id not in _NAMES or (node.id == "u" and not allow_u):
            raise ConfigError(f"name {node.id!r} not allowed here")
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _check_node(node.left, breakpoints, allow_u)
        _check_node(node.right, breakpoints, allow_u)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        _check_node(node.operand, breakpoints, allow_u)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _CALLS:
            raise ConfigError("only log, loglog, indicator, exp, sqrt may be called")
        if node.keywords or len(node.args) != 1:
            raise ConfigError(f"{node.func.id} takes exactly one positional argument")
        if node.func.id == "indicator":
            # cutoffs must be fixed numbers so they can become breakpoints
            _check_node(node.args[0], breakpoints, allow_u=False)
            cut = _eval_scalar(node.args[0])
            if not (math.isfinite(cut) and cut > 0):
                raise ConfigError("indicator cutoff must be positive and finite")
            breakpoints.append(cut)
        else:
            _check_node(node.args[0], breakpoints, allow_u)
    else:
        raise ConfigError(f"disallowed syntax: {ast.dump(node)[:60]}")


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


class _LogCoordinates(ast.NodeTransformer):
    """Rewrite a u-expression into the same function of t = log u, each
    literal into num(literal), a double."""

    def visit_Constant(self, node):
        return ast.Call(func=_name("num"), args=[node], keywords=[])

    def visit_Name(self, node):
        if node.id == "u":
            return ast.Call(func=_name("exp"), args=[_name("logu")], keywords=[])
        return node

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Pow) and _is_u(node.left):
            exponent = self.visit(node.right)
            prod = ast.BinOp(left=exponent, op=ast.Mult(), right=_name("logu"))
            return ast.Call(func=_name("exp"), args=[prod], keywords=[])
        self.generic_visit(node)
        return node

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and len(node.args) == 1:
            if node.func.id == "log" and _is_u(node.args[0]):
                return _name("logu")
            if node.func.id == "loglog" and _is_u(node.args[0]):
                return ast.Call(func=_name("log"), args=[_name("logu")], keywords=[])
        self.generic_visit(node)
        return node


class _GateLeadingIndicators(ast.NodeTransformer):
    """Rewrite indicator(a) * X and indicator(a) / X to gate(a, X-form)."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, (ast.Mult, ast.Div)) and _is_indicator(node.left):
            inner = node.right if isinstance(node.op, ast.Mult) else \
                ast.BinOp(left=ast.Constant(1.0), op=ast.Div(), right=node.right)
            return ast.Call(func=ast.Name(id="gate", ctx=ast.Load()),
                            args=[node.left.args[0], inner], keywords=[])
        if isinstance(node.op, ast.Mult) and _is_indicator(node.right):
            return ast.Call(func=ast.Name(id="gate", ctx=ast.Load()),
                            args=[node.right.args[0], node.left], keywords=[])
        return node


def _eval_scalar(node) -> float:
    # on a copy: the rewrite edits the tree it visits
    expr = ast.Expression(body=_LogCoordinates().visit(copy.deepcopy(node)))
    ast.fix_missing_locations(expr)
    code = compile(expr, "<cutoff>", "eval")
    with np.errstate(all="ignore"):
        return float(eval(code, {"__builtins__": {}}, _env(0.0)))


def parse_density(text: str) -> DensitySpec:
    """Compile one density expression into a DensitySpec."""
    breakpoints: list[float] = []
    try:
        tree = ast.parse(text, mode="eval")
        _check_node(tree, breakpoints)
        tree = _GateLeadingIndicators().visit(_LogCoordinates().visit(tree))
        ast.fix_missing_locations(tree)
        code = compile(tree, "<density>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse density {text!r}: {exc}") from None
    except (RecursionError, MemoryError):
        raise ConfigError(f"density of {len(text)} characters nests too deeply") from None

    def log_density(t):
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, _env(t))

    cuts = tuple(sorted(b for b in breakpoints if b > 1.0))
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


def _positive_float(raw: str, key: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not (val > 0 and math.isfinite(val)):
        raise ConfigError(f"{key} must be positive and finite, got {raw!r}")
    return val


def _positive_int(raw: str, key: str) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if val <= 0:
        raise ConfigError(f"{key} must be positive, got {raw!r}")
    return val


def spec_from_text(text: str, h: float | None = None,
                   n: int | None = None) -> SystemSpec:
    """Parse a config document into a SystemSpec; h and n override the file."""
    raw = parse_config(text)
    base = raw.get("base", "").lower()
    if base not in _BASES:
        raise ConfigError(f"base must be one of {sorted(_BASES)}, got {raw.get('base')!r}")
    if h is None:
        if "grid.h" not in raw:
            raise ConfigError("grid.h missing and no override given")
        h = _positive_float(raw["grid.h"], "grid.h")
    if n is None:
        if "grid.n" not in raw:
            raise ConfigError("grid.n missing and no override given")
        n = _positive_int(raw["grid.n"], "grid.n")
    grid = LogGrid(h, n)

    sieve_limit = None
    if "sieve_limit" in raw:
        sieve_limit = _positive_int(raw["sieve_limit"], "sieve_limit")
    if base == "classical" and sieve_limit is None:
        raise ConfigError("base classical requires sieve_limit")

    custom = parse_density(raw["base.density"]) if "base.density" in raw else None
    if base == "custom" and custom is None:
        raise ConfigError("base custom requires base.density")
    if base != "custom" and custom is not None:
        raise ConfigError("base.density only applies to base custom")

    e_part = parse_density(raw["e.density"]) if "e.density" in raw else None
    r_part = parse_density(raw["r.density"]) if "r.density" in raw else None
    return SystemSpec(base=base, grid=grid, e_part=e_part, r_part=r_part,
                      sieve_limit=sieve_limit, custom=custom)


def load_spec(path, h: float | None = None, n: int | None = None) -> SystemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return spec_from_text(text, h=h, n=n)
