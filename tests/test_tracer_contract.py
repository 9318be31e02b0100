"""The traced benchmark run (perfbench/tracing.py) wraps package functions by
name.  A refactor that removes or renames one of them fails here, in the
unit suite, instead of only in the traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from substoch import DenseMatrix, kernels, montecarlo, validate_substochastic

from .forking import fake_cpus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spanned():
    return tracing().SPANNED


def test_every_traced_function_exists():
    missing = [
        f"substoch.{mod}.{func}"
        for mod, func, _metric in spanned()
        if not callable(getattr(importlib.import_module(f"substoch.{mod}"), func, None))
    ]
    assert missing == []


def test_tracer_reads_the_walk_kernel_as_it_returns(monkeypatch):
    # the tracer's _after_walk reads cum at args[0], trials at args[2] and a
    # (visit matrix of shape (trials, n), survivors) result: --trace 1 counts
    # kernels.visits, cap_hits and visit_matrix_bytes from them
    assert list(inspect.signature(kernels.walk_visits).parameters)[:3] == ["cum", "start", "trials"]
    P = validate_substochastic(DenseMatrix.from_rows([["1/2", "1/4"], ["1/3", "1/3"]]))
    cum = montecarlo.walk_table(P).cum
    tally = kernels.WalkTally(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))
    result = kernels.walk_visits(cum, 0, 300, 5, 3, tally=tally)
    assert isinstance(result, tuple) and len(result) == 2
    assert result[0].shape == (300, 2) and int(result[0].sum()) == tally.moves + 300
    assert result[1] == 300 - int((result[0].sum(axis=1) <= 3).sum())

    monkeypatch.setattr(montecarlo, "CHUNK_CELLS", 64 * 16)  # 300 trials make 5 kernel calls
    fake_cpus(monkeypatch, 1)  # the tracer counts in this process only
    tracer = tracing().Tracer()
    tracer.install()
    try:
        stats = montecarlo.simulate_visits(P, 1, 300, seed=5, cap=3)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["kernels.walk_calls"] == 5
    assert metrics["kernels.visits"] == stats.moves + 300
    assert metrics["kernels.cap_hits"] == stats.cap_exceeded > 0
    assert metrics["kernels.visit_matrix_bytes"] == 64 * 2 * 8
