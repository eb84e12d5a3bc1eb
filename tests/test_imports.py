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
