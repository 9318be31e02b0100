"""The package exports only names that a caller uses: the package itself,
the acceptance suite or the benchmark harness."""

import ast
from pathlib import Path

import substoch

ROOT = Path(__file__).resolve().parents[1]


def _used_names(path: Path) -> set[str]:
    """Every name the file's code reads: variables, attributes, imported
    names, and the dotted parts of string constants (the benchmark's
    tracer names the functions it wraps by string).  A def or class
    statement does not use the name it defines."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def test_every_export_has_a_caller():
    callers = [p for p in (ROOT / "src" / "substoch").glob("*.py") if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(_used_names, callers))
    exported = set(substoch.__all__) - {"errors", "__version__"}
    assert sorted(exported - used) == []
