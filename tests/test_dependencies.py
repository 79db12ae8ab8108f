"""The package's third-party imports are exactly its declared dependencies,
and the heavy optional one stays out of `import residuum`."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import residuum

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(residuum.__file__).resolve().parent


def test_import_residuum_loads_neither_sympy_nor_mpmath():
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import residuum; "
        "print(sorted(m for m in ('sympy', 'mpmath') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"


def third_party_imports():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_third_party_imports_are_the_declared_dependencies():
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert third_party_imports() == {re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in declared}
