"""Every name a package module imports is used in that module, every
module-level definition is referenced somewhere in the package, and every
public re-export is used by the package or named in README.md.  The
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_definitions(source: str) -> dict:
    """{name: line} of the module-level functions, classes and constants."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node.lineno
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


def test_the_package_runs_without_loading_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    res = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], capture_output=True,
                         text=True, env=env, timeout=120, check=False)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
