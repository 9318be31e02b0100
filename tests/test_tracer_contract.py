"""The traced benchmark run (perfbench/tracing.py) wraps package functions by
name.  A refactor that removes or renames one of them fails here, in the
unit suite, instead of only in the traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def spanned():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED


def test_every_traced_function_exists():
    missing = [
        f"substoch.{mod}.{func}"
        for mod, func, _metric in spanned()
        if not callable(getattr(importlib.import_module(f"substoch.{mod}"), func, None))
    ]
    assert missing == []
