"""The package's third-party imports are exactly its declared runtime
dependencies, and the tests' are declared in those or the `test` extra
(each imported under its distribution name, as numpy, scipy, pytest and
hypothesis are); the declared NumPy floor covers the NumPy names the
package calls."""

import ast
import re
import sys
from pathlib import Path

import numpy as np
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


def _version(text):
    return tuple(int(part) for part in re.findall(r"\d+", text)[:2])


def _numpy_names(directory):
    """Every dotted name the package reads off `np` (np.linalg.norm, ...)."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id == "np":
                names.add(".".join(reversed(parts)))
    return names


def _added(obj):
    """The NumPy version its docstring says obj arrived in, if it says:
    the newest ".. versionadded::" before the Parameters section (notes
    after it date a parameter)."""
    head = re.split(r"\n\s*Parameters\s*\n", obj.__doc__ or "")[0]
    return max(map(_version, re.findall(r"versionadded::\s*([\d.]+)", head)),
               default=None)


def test_numpy_floor_covers_the_numpy_names_called():
    """The floor declared in pyproject.toml is at least the version each
    NumPy name src calls arrived in (np.vecdot and np.trapezoid: 2.0), as
    the installed NumPy's docstrings note it.  Aliases without a note are
    not seen."""
    assert _added(np.vecdot) == (2, 0) and _added(np.stack) is None
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    floor = next(_version(d.split(">=")[1]) for d in deps
                 if d.startswith("numpy>="))
    too_new = {}
    for name in _numpy_names(ROOT / "src" / "orbitstates"):
        obj = np
        for part in name.split("."):
            obj = getattr(obj, part)
        added = _added(obj)
        if added is not None and added > floor:
            too_new[name] = added
    assert too_new == {}, "declared numpy floor %s is below these" % (floor,)
