"""Package layout: every function and class under ``src/capstate`` has a
reference somewhere else under ``src/capstate``, so a helper whose last
caller went away is found by the suite, not by a reader."""

import ast
from pathlib import Path

import capstate

PACKAGE = Path(capstate.__file__).resolve().parent

# Kept without a caller in the package: test entry points
EXEMPT = {("dsp", "_sosfilt"), ("model.network", "collect_activations")}


def _module(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _definitions_and_references():
    """Every function and class definition as (module, name, first line,
    last line), and every referenced name as (module, line): a ``Name``, an
    ``Attribute``'s attribute or a name an import brings in."""
    definitions, references = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module(path)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                references.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                references.extend((module, alias.name, node.lineno) for alias in node.names)
    return definitions, references


def test_every_function_and_class_has_a_reference():
    """A reference inside a definition's own body (a recursive call) does not
    count; dunder methods are called by Python itself."""
    definitions, references = _definitions_and_references()
    unreferenced = [
        f"{module}.{name} (line {first})"
        for module, name, first, last in definitions
        if not (name.startswith("__") and name.endswith("__")) and (module, name) not in EXEMPT
        and not any(ref_name == name and not (ref_module == module and first <= line <= last)
                    for ref_module, ref_name, line in references)
    ]
    assert not unreferenced, f"no reference under src/capstate: {unreferenced}"


def test_exemptions_are_still_defined():
    """An exempt name that is gone is dropped from the list, not kept."""
    definitions, _ = _definitions_and_references()
    assert EXEMPT <= {(module, name) for module, name, _, _ in definitions}
