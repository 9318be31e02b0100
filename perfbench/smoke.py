"""Tiny-size self-test of the benchmark (`python3 perfbench/run.py --smoke`).

It runs every workload at SMOKE sizes, with and without tracing, and fails
unless each run emits exactly the metrics BENCHMARK.json declares, with
their units.  It then feeds each correctness checker a real output and
deliberately corrupted copies of it, and fails unless the checker accepts
the first and rejects every copy.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

from run import OUT_DIR, ROOT, Outcomes, _child_env, run_child, run_workload
from workloads import PLANS, SMOKE, Output

SEED = 1


class SmokeFailure(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_metrics() -> None:
    declared = _declared()
    for workload in PLANS:
        for trace in (0, 1):
            record = run_workload(workload, SEED, 0.5, trace, SMOKE)
            line = record["result"]
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            _require(got == declared[trace], f"{workload} trace={trace}: metrics {got}")
            for name, m in line["metrics"].items():
                value = m["value"]
                _require(
                    isinstance(value, (int, float)) and math.isfinite(value) and value >= 0,
                    f"{workload} {name} = {value!r}",
                )
            _require(line["attempted"] >= 1, f"{workload}: nothing attempted")
            if workload != "float_csv":  # float CSV input gets wrong verdicts
                _require(line["correct"], f"{workload} trace={trace}: {record['problems']}")
            print(f"smoke: {workload} trace={trace} ok ({line['attempted']} commands)")


# -- corrupted outputs ----------------------------------------------------------


def _edit(out: Output, change) -> Output:
    """Copy of `out` whose JSON report went through `change(report)`."""
    head, sep, _ = out.stdout.partition("\n{")
    report = out.report()
    change(report)
    return Output(out.returncode, head + sep[:1] + json.dumps(report, indent=2) + "\n")


def _records(kind):
    return lambda rep: [r for r in rep["reports"] if r.get("type") == kind]


def _set_first(kind, key, value):
    def change(rep):
        _records(kind)(rep)[0][key] = value

    return change


def _drop_last(rep):
    rep["reports"].pop()


def _fake_counterexample(rep):
    rep["reports"][0]["counterexamples"] = 1
    rep["reports"].append({"type": "counterexample", "identity": "Eq13", "instance": 0})


def _shift_exact(rep):
    _records("crosscheck")(rep)[0]["exact"] += 1e-6


CORRUPTIONS = {
    ("verify_exact", "check"): [_set_first("certification", "certified", False)],
    ("verify_exact", "verify"): [
        _set_first("identity", "residual", "1/2"),
        _set_first("identity", "residual", 0.0),
        _set_first("maximality", "holds", False),
        _drop_last,
    ],
    ("falsify_sweep", "falsify"): [_fake_counterexample],
    ("simulate_walk", "simulate"): [
        _set_first("crosscheck", "flagged", True),
        _shift_exact,
        _drop_last,
    ],
    ("float_csv", "check"): [_set_first("certification", "certified", None)],
    ("float_csv", "verify"): [_drop_last],
}


def check_checkers() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=OUT_DIR))
    env = _child_env()
    try:
        for workload, make_plan in PLANS.items():
            plan = make_plan(SEED, workdir, SMOKE)
            for command in plan.commands[:2]:
                out, _wall, _rss = run_child(command.argv, workdir, env)
                if workload != "float_csv":
                    _require(not command.check(out), f"{workload}: real output rejected")
                bad = [Output(1 - min(out.returncode, 1), out.stdout), Output(0, "no report\n")]
                bad += [_edit(out, c) for c in CORRUPTIONS[(workload, command.argv[0])]]
                for i, corrupted in enumerate(bad):
                    _require(
                        bool(command.check(corrupted)),
                        f"{workload} {command.argv[0]}: corruption {i} accepted",
                    )
                if command.same_bytes:
                    outcomes = Outcomes()
                    outcomes.record(command, out)
                    outcomes.record(command, Output(out.returncode, out.stdout + " "))
                    _require(outcomes.failed == 1, f"{workload}: changed bytes accepted")
            print(f"smoke: {workload} checkers reject corrupted outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    try:
        check_checkers()
        check_metrics()
    except SmokeFailure as exc:
        print(f"smoke: FAILED: {exc}")
        return 1
    print("smoke: ok")
    return 0
