"""Every public top-level function and class of the package is reached:
either something in the package refers to it outside its own definition,
or README.md names it (in backticks) as library API.  And every
`module.name` of the package that README.md writes in code exists."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions_and_references():
    """The public top-level definitions as (module, name) pairs, and for
    each name the top-level statements, as (module, index), that refer to
    it by a bare name or an attribute."""
    defs, refs = [], {}
    for path in sorted((ROOT / "src" / "orbitstates").glob("*.py")):
        module = ast.parse(path.read_text(), str(path))
        for i, stmt in enumerate(module.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                defs.append((path.stem, stmt.name, i))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None:
                    refs.setdefault(name, set()).add((path.stem, i))
    return defs, refs


def _readme_code():
    """The fenced code blocks and the inline code spans of README.md."""
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```.*?```", text, re.S) + re.findall(
        r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))


def _readme_names():
    """The identifiers inside fenced code blocks and inline code spans."""
    return {word for code in _readme_code()
            for word in re.findall(r"[A-Za-z_]\w*", code)}


def test_every_public_definition_is_reached():
    defs, refs = _definitions_and_references()
    named = _readme_names()
    unreached = ["%s.%s" % (module, name) for module, name, i in defs
                 if not refs.get(name, set()) - {(module, i)}
                 and name not in named]
    assert unreached == [], "neither used in src nor named in README.md"


def test_readme_module_references_resolve():
    # every `module.name` that README.md writes in code, with module one of
    # the package's, names an attribute that module has
    modules = {path.stem for path in (ROOT / "src" / "orbitstates").glob(
        "*.py")} - {"__init__"}
    refs = {ref for code in _readme_code() for ref in re.findall(
        r"(?<![\w.])([a-z_]\w*)\.([A-Za-z_]\w*)", code) if ref[0] in modules}
    assert len(refs) >= 30
    missing = sorted("%s.%s" % ref for ref in refs if not hasattr(
        importlib.import_module("orbitstates." + ref[0]), ref[1]))
    assert missing == []
