"""The package imports only the standard library, numpy and its own modules.

numpy is the one dependency pyproject.toml declares; anything else that
happens to be installed (scipy, say) must not leak into src/povmix.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "povmix"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source, name="<source>"):
    """(line, module) of each absolute import outside ALLOWED."""
    out = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        out += [(node.lineno, m) for m in modules if m.split(".")[0] not in ALLOWED]
    return out


def test_the_rule_flags_undeclared_packages_only():
    source = (
        "from __future__ import annotations\nimport math, numpy.linalg as la\n"
        "from . import linalg\nfrom .model import FinitePOVM\n"
        "def f():\n    import scipy.linalg\n    from hypothesis import given\n"
    )
    assert foreign_imports(source) == [(6, "scipy.linalg"), (7, "hypothesis")]


def test_package_imports_only_stdlib_numpy_and_itself():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    found = [
        f"{path.name}:{line}: {module}"
        for path in files
        for line, module in foreign_imports(path.read_text(), str(path))
    ]
    assert not found, found


def unused_imports(source, name="<source>"):
    """(line, name) of each name a module imports at top level and never
    reads. __future__ imports bind no name."""
    tree = ast.parse(source, name)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, n) for line, n in bound if n not in read]


def test_the_unused_import_rule_flags_names_never_read():
    source = (
        "from __future__ import annotations\nimport itertools, math\n"
        "import numpy as np\nimport os.path\nfrom .model import PRUNE_TOL, _prune\n"
        "def f(x: np.ndarray):\n    return math.pi, os.sep, _prune(x)\n"
    )
    assert unused_imports(source) == [(2, "itertools"), (5, "PRUNE_TOL")]


def test_package_modules_read_every_name_they_import():
    """__init__.py is exempt: it imports names to re-export them."""
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(files) > 1
    found = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text(), str(path))
    ]
    assert not found, found
