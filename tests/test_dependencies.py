"""The package's third-party imports are exactly its declared dependencies
(each imported under its distribution name, as numpy and scipy are)."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
ROOT = Path(__file__).resolve().parent.parent


def _imported_packages():
    names = set()
    for path in (ROOT / "src" / "orbitstates").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"orbitstates"}


def _declared_packages():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}


def test_every_dependency_is_imported_and_every_import_declared():
    imported, declared = _imported_packages(), _declared_packages()
    assert imported - declared == set(), "imported but not declared"
    assert declared - imported == set(), "declared but never imported"
