"""The package exports only names that a caller uses: the package itself,
the acceptance suite or the benchmark harness."""

import ast
import inspect
import os
import subprocess
import sys
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
    callers = [p for p in (ROOT / "src" / "substoch").rglob("*.py") if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(_used_names, callers))
    exported = set(substoch.__all__) - {"errors", "__version__"}
    assert sorted(exported - used) == []


def test_only_the_matrix_module_lifts_rows():
    # each matrix is lifted once, by DenseMatrix, and every other module
    # reads that lift; the backends in scalars.py define the lift
    modules = sorted((ROOT / "src" / "substoch").rglob("*.py"))
    readers = [p.name for p in modules if "lift_rows" in _used_names(p)]
    definers = [
        p.name for p in modules
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "lift_rows"
    ]
    assert readers == ["matrix.py"]
    assert sorted(set(definers)) == ["scalars.py"]


def test_exports_and_modules_resolve_on_demand():
    code = (
        "import sys, substoch\n"
        "assert [m for m in sys.modules if m.startswith('substoch.')] == []\n"
        "substoch.substochastic.validate_substochastic\n"
        "assert all(getattr(substoch, name) is not None for name in substoch.__all__)\n"
        "assert not hasattr(substoch, 'no_such_name')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_only_the_backends_round_floats_to_zero():
    # each backend's floor is the one rule for when a rounded value counts
    # as zero, its sides_pass the one rule for when two agree, and no module
    # asks which backend it is by name
    modules = sorted((ROOT / "src" / "substoch").rglob("*.py"))
    owners, by_name, retired_calls = set(), [], []
    for p in modules:
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "floor":
                owners.add(p.name)
            elif isinstance(node, ast.ClassDef) and any(
                isinstance(t, ast.Name) and t.id == "floor"
                for a in node.body if isinstance(a, ast.Assign) for t in a.targets
            ):
                owners.add(p.name)
            elif isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-6:
                owners.add(p.name)
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Attribute) and o.attr == "name" for o in operands) and any(
                    isinstance(o, ast.Constant) and o.value in ("exact", "float") for o in operands
                ):
                    by_name.append(f"{p.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("eq", "same"):
                    retired_calls.append(f"{p.name}:{node.lineno}")
    assert owners == {"scalars.py"}
    assert by_name == [] and retired_calls == []
    backends = (substoch.EXACT, substoch.FLOAT)
    assert [(b.name, a) for b in backends for a in ("eq", "same", "abs_floor") if hasattr(b, a)] == []
    retired = "pivot_floor" + "_factor"
    texts = [*modules, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    texts.append(ROOT / "README.md")
    assert [p.name for p in texts if retired in p.read_text(encoding="utf-8")] == []


def _cached_names(cls: ast.ClassDef) -> list[str]:
    """The names that the class body makes cached properties, by decorator
    or by assignment."""
    names = []
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            makers, name = [stmt.value], ast.unparse(stmt.targets[0])
        else:
            makers, name = getattr(stmt, "decorator_list", []), getattr(stmt, "name", None)
        if any("cached_property" in ast.unparse(m) for m in makers):
            names.append(name)
    return names


def test_certificates_hold_only_what_they_certify():
    # GeneralMatrix holds B, det(B) and B^-1 as values, which its certificate
    # computed and Lemma1 reads; verify_all builds the two routes its sweep
    # reads; Thm1 reads column m of N in place of row m of (I - P^T)^-1, so
    # nothing asks for a transpose
    cached, builders, transposed = [], set(), []
    for p in sorted((ROOT / "src" / "substoch").rglob("*.py")):
        tree = ast.parse(p.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ClassDef) and node.name == "GeneralMatrix":
                    cached += _cached_names(node)
                elif isinstance(node, ast.Call):
                    if isinstance(node.func, ast.Name) and node.func.id == "_Terms":
                        builders.add(f"{p.name}:{getattr(top, 'name', top.lineno)}")
                    transposed += [f"{p.name}:{node.lineno}" for k in node.keywords if k.arg == "transposed"]
    assert cached == []
    assert substoch.GeneralMatrix._fields == ("B", "det", "inverse")
    assert builders == {"identities.py:verify_all"}
    assert transposed == []
    assert "transposed" not in inspect.signature(substoch.fundamental_matrix).parameters
    assert substoch.MaximalityReport._fields == ("holds", "witness")


def test_float_fundamental_failure_has_one_owner():
    # N and Thm2's tables are values read before the sweep, not thunks; a
    # given N is taken as B^-1; one place names a float (I-P)^-1 that fails
    tree = ast.parse((ROOT / "src" / "substoch" / "identities.py").read_text(encoding="utf-8"))
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [c for c in calls if c.endswith("cache")] == []
    assert list(inspect.signature(substoch.certify_general).parameters) == ["B", "N"]
    named = [p.name for p in sorted((ROOT / "src").rglob("*.py"))
             if "in the float (I-P)^-1" in p.read_text(encoding="utf-8")]
    assert named == ["substochastic.py"]


def test_a_route_is_built_whole_or_not_at_all():
    # a route holds only values: no per-index error table or reader of one,
    # and a SubstochError is told apart from sides only where a report is made
    from substoch.identities import _Terms

    tree = ast.parse((ROOT / "src" / "substoch" / "identities.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"_raise_first", "_error", "_entry"} == set()

    def substoch_error_tests(root):
        return [node for node in ast.walk(root) if isinstance(node, ast.Call)
                and ast.unparse(node.func) == "isinstance" and ast.unparse(node.args[1]) == "SubstochError"]

    report = next(node for node in tree.body if getattr(node, "name", None) == "IdentityReport")
    init = next(node for node in report.body if getattr(node, "name", None) == "__init__")
    assert len(substoch_error_tests(tree)) == len(substoch_error_tests(init)) == 1
    for B in (substoch.DenseMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]]),
              substoch.DenseMatrix.from_rows([[2.0, 1.0], [1.0, 3.0]], substoch.FLOAT)):
        for cleared_det in (None, substoch.determinant(B)):
            solves = _Terms(B, cleared_det).solves
            assert len(solves) == B.n_rows and all(type(entry) is tuple for entry in solves)
