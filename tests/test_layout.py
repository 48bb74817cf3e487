"""Package layout: every function and class under ``src/capstate`` has a
reference somewhere else under ``src/capstate``, so a helper whose last
caller went away is found by the suite, not by a reader."""

import ast
from pathlib import Path

import capstate

PACKAGE = Path(capstate.__file__).resolve().parent

# Kept without a caller in the package, each for the reason given
EXEMPT = {
    ("evaluation.statespace", "map_state"): "a library entry point README documents",
}


def _module(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _definitions_and_references():
    """Every function and class definition as (module, name, first line,
    last line, whether it sits in a class body), and every reference as
    (module, name, line, whether it is an attribute access): a ``Name``, an
    ``Attribute``'s attribute, or a name imported by a module that is not a
    package ``__init__`` (a re-export is not a caller)."""
    definitions, references = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module(path)
        tree = ast.parse(path.read_text(), str(path))
        members = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, node.lineno, node.end_lineno, id(node) in members))
            elif isinstance(node, ast.Name):
                references.append((module, node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.attr, node.lineno, True))
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                references.extend((module, alias.name, node.lineno, False) for alias in node.names)
    return definitions, references


def test_every_function_and_class_has_a_reference():
    """A reference inside a definition's own body (a recursive call) does not
    count; a method counts only through an attribute access (``.name``), not a
    local variable of the same name; dunder methods are called by Python
    itself."""
    definitions, references = _definitions_and_references()
    unreferenced = [
        f"{module}.{name} (line {first})"
        for module, name, first, last, member in definitions
        if not (name.startswith("__") and name.endswith("__")) and (module, name) not in EXEMPT
        and not any(ref_name == name and (attribute or not member)
                    and not (ref_module == module and first <= line <= last)
                    for ref_module, ref_name, line, attribute in references)
    ]
    assert not unreferenced, f"no reference under src/capstate: {unreferenced}"


def test_exemptions_are_still_defined():
    """An exempt name that is gone is dropped from the list, not kept."""
    definitions, _ = _definitions_and_references()
    assert set(EXEMPT) <= {(module, name) for module, name, *_ in definitions}
