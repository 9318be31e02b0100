"""Tests of the benchmark itself: `python -m pytest perfbench` from the
repository root.  They run the tiny smoke mode, which asserts that every
declared metric is emitted with its unit and that every correctness check
rejects corrupted outputs."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import exact_verdict  # noqa: E402


def test_smoke_mode_passes():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("smoke: ok")


def test_exact_verdict_uses_exact_row_sums_and_reachability():
    half = Fraction(1, 2)
    assert exact_verdict([[half, 0], [half, half]])
    # 0.5 + (0.5 + 2^-53) rounds to 1.0 in floats but exceeds 1 exactly.
    assert not exact_verdict([[half, Fraction(0.5000000000000001)], [0, 0]])
    # A closed class {1, 2} with row sums exactly 1 has spectral radius 1.
    assert not exact_verdict([[0, 1, 0], [1, 0, 0], [half, 0, 0]])
    assert not exact_verdict([[Fraction(-1, 4), 0], [0, 0]])


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
