"""Every name a package or test module imports is used in that module, every
module-level definition and every method of a module-level class is
referenced somewhere in the package, every
public re-export is used by the package or named in README.md, and every
defaulted parameter of a public function is set by some call.  The
package runs on numpy alone: no scipy module loads.

A standard-library ast walk, since no linter is assumed installed.  The
package __init__ is exempt from the import check: its imports are the public
re-exports, and they count as references for the definition check, but not
for the re-export check.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "beurling"
README = SRC.parent.parent / "README.md"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_definitions(source: str) -> dict:
    """{name: line} of the module-level functions, classes and constants,
    and of the methods of module-level classes: all but the dunders and the
    visit_ methods, which Python and ast.NodeVisitor call by name."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            defs.update((item.name, item.lineno) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__|visit_\w+", item.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node.lineno
    return defs


def references(source: str) -> set:
    """Names read, attributes taken and names imported: every use of a
    definition that is not the definition itself."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_definitions(sources: dict) -> list:
    refs = set().union(*(references(src) for src in sources.values()))
    return sorted((mod, line, name) for mod, src in sources.items()
                  for name, line in module_definitions(src).items()
                  if name not in refs and name != "__version__")


def test_checker_flags_an_unreferenced_definition():
    sources = {"a.py": "X = 1\ndef f():\n    return g()\ndef g():\n    pass\n",
               "b.py": "from a import X\n"}
    assert unreferenced_definitions(sources) == [("a.py", 2, "f")]


def test_checker_flags_a_method_only_tests_call():
    sources = {"a.py": "class C:\n    def __init__(self):\n        self.kept()\n"
                       "    def kept(self):\n        pass\n"
                       "    def visit_Name(self, node):\n        pass\n"
                       "    def index_of(self, x):\n        pass\n",
               "b.py": "from a import C\n"}
    assert unreferenced_definitions(sources) == [("a.py", 8, "index_of")]


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_definitions(sources) == []


def unused_exports(init: str, sources: dict, readme: str) -> list:
    """Names the package __init__ imports that no other module references
    and README does not name."""
    exported = {alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    refs = set().union(*(references(src) for src in sources.values()))
    return sorted(exported - refs - set(re.findall(r"\w+", readme)))


def test_checker_flags_an_unused_export():
    init = "from .a import f, g, h\n"
    sources = {"a.py": "def f():\n    pass\ndef g():\n    pass\ndef h():\n    pass\n",
               "b.py": "from .a import g\n"}
    assert unused_exports(init, sources, "`h(x)` is public") == ["f"]


def test_every_export_is_used_or_documented():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert unused_exports(init, sources, README.read_text(encoding="utf-8")) == []


# Every defaulted parameter of a public function is set by some call in
# src/ or tests/, by name or by position; a default that no caller changes
# is a constant.  Calls are found by the function's name, so kernels is left
# out: _route calls exp_newton and exp_newton_pair through the alias exp.
OPTION_MODULES = tuple(p.stem for p in MODULES if p.stem != "kernels")


def unset_options(defining: dict, calling: dict) -> list:
    """(module, function, parameter) for each defaulted parameter of a
    public module-level function in defining that no call in calling
    passes, by name or by position."""
    options = {}  # function: (module, {parameter: position, or None})
    for mod, src in defining.items():
        for node in ast.parse(src).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                first = len(positional) - len(args.defaults)
                params = {name: i for i, name in enumerate(positional) if i >= first}
                params.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None)
                options[node.name] = (mod, params)
    passed = set()
    for src in calling.values():
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in options:
                continue
            keywords = {k.arg for k in node.keywords}
            spread = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            for param, pos in options[name][1].items():
                if spread or param in keywords or (pos is not None and pos < len(node.args)):
                    passed.add((name, param))
    return sorted((mod, fn, param) for fn, (mod, params) in options.items()
                  for param in params if (fn, param) not in passed)


def test_checker_flags_an_option_no_call_sets():
    defining = {"a.py": "def f(x, y=1, z=2, *, w=3):\n    pass\n"
                        "def _g(v=0):\n    pass\n"
                        "def h(u=0):\n    pass\n"}
    calling = {"b.py": "f(0, 5)\nm.f(0, w=4)\nh(*args)\n"}
    assert unset_options(defining, calling) == [("a.py", "f", "z")]


def test_every_option_is_set_by_some_call():
    defining = {f"{m}.py": (SRC / f"{m}.py").read_text(encoding="utf-8")
                for m in OPTION_MODULES}
    calling = {str(p): p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) + TESTS}
    assert unset_options(defining, calling) == []


# the modules that may name the O(n^2) reference exp: kernels, whose
# exp_star applies the one size-and-conditioning rule, and selfcheck, whose
# identity suite checks the reference path by name
REFERENCE_EXP_USERS = {"kernels.py", "selfcheck.py"}


def modules_naming(name: str, sources: dict) -> list:
    return sorted(mod for mod, src in sources.items() if name in references(src))


def test_checker_finds_a_named_kernel():
    sources = {"a.py": "from .kernels import exp_recurrence\n",
               "b.py": "kernels.exp_recurrence(x)\n",
               "c.py": "kernels.exp_star(x, h)\n"}
    assert modules_naming("exp_recurrence", sources) == ["a.py", "b.py"]


def test_only_the_rule_and_the_oracle_name_the_recurrence():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert set(modules_naming("exp_recurrence", sources)) <= REFERENCE_EXP_USERS


# the names of threads and of what runs on them: only kernels, whose
# _halves hands the second part of a pass to its one-thread pool
THREAD_NAMES = ("threading", "contextvars", "ThreadPoolExecutor")


def test_only_kernels_names_threads():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert {name: modules_naming(name, sources) for name in THREAD_NAMES} == {
        name: ["kernels.py"] for name in THREAD_NAMES}


# the names of the transforms: only kernels, whose spectra sit in the
# four-step's permuted order and whose rfft and irfft take a ramp and a
# spectrum to multiply by inside their own passes
TRANSFORM_NAMES = ("fft", "rfft", "irfft")


def test_only_kernels_names_the_transforms():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert {name: modules_naming(name, sources) for name in TRANSFORM_NAMES} == {
        name: ["kernels.py"] for name in TRANSFORM_NAMES}


# the direct product: only kernels, whose mul_trunc takes a product of at
# most _DIRECT_WORK_LIMIT coefficient pairs by np.convolve
def modules_calling_numpy(name: str, sources: dict) -> list:
    return sorted(mod for mod, src in sources.items()
                  if any(isinstance(node, ast.Attribute) and node.attr == name
                         and getattr(node.value, "id", None) == "np"
                         for node in ast.walk(ast.parse(src))))


def test_checker_finds_a_numpy_call():
    sources = {"a.py": "np.convolve(x, y)\n", "b.py": "convolve(x, y)\n",
               "c.py": "measure.convolve(x, y)\n"}
    assert modules_calling_numpy("convolve", sources) == ["a.py"]


def test_only_kernels_convolves_directly():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert modules_calling_numpy("convolve", sources) == ["kernels.py"]


# A fresh interpreter imports the package and its CLI, splits a density cell
# at a breakpoint by quadrature and runs one FFT exp pair whose products are
# large enough for both the 1-D and the four-step transforms; then lists
# every scipy module loaded on the way, so that none comes back as a lazy
# import paid in a first call.
NO_SCIPY_PROBE = """
import sys
import beurling, beurling.cli
from beurling import kernels
from beurling.grid import LogGrid
from beurling.systems import build_kahane_pi
grid = LogGrid(1e-3, 1 << 16)
a = build_kahane_pi(grid, weight_sigma=1.0).coeffs
assert a.shape[0] ** 2 > kernels._DIRECT_WORK_LIMIT
kernels.exp_star_pair(a, grid.h)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


# A fresh interpreter runs one exp pair on 32,768 points, whose passes are
# all below kernels._SPLIT_MIN: no pass splits, so the pool is not made and
# concurrent.futures, whose import takes some milliseconds, is not loaded.
NO_POOL_PROBE = """
import sys
import beurling, beurling.cli
from beurling import kernels
from beurling.grid import LogGrid
from beurling.systems import build_kahane_pi
grid = LogGrid(1e-3, 1 << 15)
kernels.exp_star_pair(build_kahane_pi(grid, weight_sigma=1.0).coeffs, grid.h)
print(kernels._pool, sorted(m for m in sys.modules if m.startswith("concurrent")))
"""


def run_probe(probe: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=120, check=False)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_the_package_runs_without_loading_scipy():
    assert run_probe(NO_SCIPY_PROBE) == "[]"


def test_an_unsplit_exp_loads_no_thread_pool():
    assert run_probe(NO_POOL_PROBE) == "None []"
