"""The package's third-party imports are exactly its declared runtime
dependencies, and the tests' are declared in those or the `test` extra
(each imported under its distribution name, as numpy, scipy, pytest and
hypothesis are)."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
ROOT = Path(__file__).resolve().parent.parent


def _imported_packages(directory):
    names, paths = set(), list(directory.glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    local = {p.stem for p in paths} | {"orbitstates"}
    return names - set(sys.stdlib_module_names) - local


def _declared_packages():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(deps):
        return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}
    return (names(project["dependencies"]),
            names(project["optional-dependencies"]["test"]))


def test_every_dependency_is_imported_and_every_import_declared():
    imported = _imported_packages(ROOT / "src" / "orbitstates")
    declared = _declared_packages()[0]
    assert imported - declared == set(), "imported but not declared"
    assert declared - imported == set(), "declared but never imported"


def test_every_test_import_is_declared():
    runtime, test = _declared_packages()
    missing = _imported_packages(ROOT / "tests") - runtime - test
    assert missing == set(), "imported by the tests but not declared"
