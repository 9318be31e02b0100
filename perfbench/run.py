#!/usr/bin/env python3
"""Benchmark of the substoch CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload falsify_sweep --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root; it imports and runs the package from
`src/`.  It writes the workload's inputs, generated from the seed with
substoch's own generators, into a temporary directory under
`.perfbench-out/`, and deletes them when done.

--trace 0 times the real CLI, `python -m substoch ...`, one child process at
a time, in passes that each run one `python -m substoch --help` (set-up)
and then every command of the workload once.  After each pass a fixed
reference computation (`reference.py`, no substoch code) runs for a third
of the pass's time.  Passes repeat until the next one would end after
--seconds.  Every time is reported at the reference speed: measured seconds
times REFERENCE_S over the mean time of one reference run in this run.  On
a shared 2-vCPU VM the host's speed drifts by a quarter or more between
runs a minute apart, and the raw times follow it; the scaled times do not,
while a change to the program moves them in full.  The raw times and the
reference runs go to the result file.

wall_s is the mean pass time, the rates are work per pass over wall_s, and
setup_s is the median `--help` time, all at the reference speed.
peak_rss_mb is the largest peak RSS of any child.  Every output is checked;
a command whose exit code or output is wrong counts as failed.

--trace 1 runs the same commands in this process through `cli.main(argv)`,
a plain pass and a traced pass (wrappers from `tracing.py`), twice, and
reports per-layer self times and counts.  Counts repeat exactly for a seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (per-pass times, run
metadata, spans) goes to `.perfbench-out/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_RUNS = 7
MIN_PASSES = 3
# After each pass the reference computation runs for this share of the pass time.
REFERENCE_SHARE = 1 / 3
TRACE_ROUNDS = 2


def _require_source() -> None:
    if not (SRC / "substoch" / "cli.py").is_file():
        sys.exit(f"error: no substoch source at {SRC}; run from the repository root")


# -- child processes -----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Forks, times and reaps one child per request line on stdin; answers with
# [exit code, wall seconds, peak RSS KiB].  A child's ru_maxrss starts from
# the resident size of the process that forked it, so the children are
# forked from this small helper, started before numpy is imported, and not
# from the benchmark process, whose inputs and reference arrays would
# otherwise show as every child's peak.  os.wait4 gives each child's own
# usage; RUSAGE_CHILDREN would keep the maximum over every child so far.
_LAUNCHER_CODE = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, env, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_maxrss]), flush=True)
"""
_launcher = None


def start_launcher() -> None:
    global _launcher
    _launcher = subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER_CODE],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def stop_launcher() -> None:
    """Let the helper finish its current child, then wait for it to exit."""
    global _launcher
    if _launcher is not None:
        _launcher.stdin.close()
        _launcher.wait()
        _launcher.stdout.close()
        _launcher = None


def run_child(argv: list[str], workdir: Path, env: dict):
    """Run `python -m substoch argv`; returns (Output, wall seconds, peak RSS MB)."""
    from workloads import Output

    out_path = workdir / "stdout.txt"
    request = [[sys.executable, "-m", "substoch", *argv], env, str(out_path),
               str(workdir / "stderr.txt")]
    _launcher.stdin.write(json.dumps(request) + "\n")
    _launcher.stdin.flush()
    answer = _launcher.stdout.readline()
    if not answer:
        raise RuntimeError("the launcher process exited")
    code, wall, maxrss_kib = json.loads(answer)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    return Output(code, text), wall, maxrss_kib / 1024.0


class Outcomes:
    """Checks command outputs and counts attempts and failures; `problems`
    lists every failed check, including ones that concern no single command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[tuple, str] = {}

    def record(self, command, output) -> None:
        self.attempted += 1
        problems = command.check(output)
        if command.same_bytes:
            digest = hashlib.sha256(output.stdout.encode()).hexdigest()
            first = self._digests.setdefault(tuple(command.argv), digest)
            if digest != first:
                problems = problems + ["stdout differs from an earlier run of the same command"]
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(command.argv[:2])}: {'; '.join(problems[:5])}")


def _reference_for(seconds: float, refs: list) -> None:
    """Run the reference computation until it has taken `seconds`, at least once."""
    from reference import reference

    spent = 0.0
    while spent < seconds or not spent:
        refs.append(reference())
        spent += refs[-1]


def timed_run(plan, seconds: float, workdir: Path) -> dict:
    from reference import REFERENCE_S

    env = _child_env()
    outcomes = Outcomes()
    run_child(["--help"], workdir, env)  # warm-up: byte-compile, fill the page cache
    _reference_for(0, [])
    refs, setup, passes, rss = [], [], [], []
    _reference_for(0, refs)
    start = time.perf_counter()
    while True:
        setup.append(run_child(["--help"], workdir, env)[1])
        wall = 0.0
        for command in plan.commands:
            output, seconds_taken, peak = run_child(command.argv, workdir, env)
            wall += seconds_taken
            rss.append(peak)
            outcomes.record(command, output)
        passes.append(wall)
        _reference_for(wall * REFERENCE_SHARE, refs)
        elapsed = time.perf_counter() - start
        step = statistics.median(passes) * (1 + REFERENCE_SHARE) + statistics.median(setup)
        if len(passes) >= MIN_PASSES and elapsed + step > seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(run_child(["--help"], workdir, env)[1])
    speed = REFERENCE_S / statistics.fmean(refs)
    wall = statistics.fmean(passes) * speed
    values = {
        "setup_s": statistics.median(setup) * speed,
        "wall_s": wall,
        "checks_per_s": plan.checks / wall,
        "instances_per_s": plan.instances / wall,
        "peak_rss_mb": max(rss),
    }
    samples = dict.fromkeys(values, len(passes))
    samples.update(setup_s=len(setup), peak_rss_mb=len(rss))
    detail = {
        "host_speed": speed,
        "setup_runs_s": setup,
        "pass_walls_s": passes,
        "reference_runs_s": refs,
        "child_peak_rss_mb": rss,
    }
    return {"values": values, "samples": samples, "outcomes": outcomes, "detail": detail}


# -- traced run ------------------------------------------------------------------


def _in_process_pass(plan, outcomes: Outcomes) -> float:
    from substoch import cli
    from workloads import Output

    wall = 0.0
    for command in plan.commands:
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(command.argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
        wall += time.perf_counter() - t0
        outcomes.record(command, Output(code, stdout.getvalue()))
    return wall


def traced_run(plan) -> dict:
    """Plain and traced in-process passes, interleaved twice so that a slow
    spell of the host falls on both sides of the overhead ratio.  Layer
    times are the mean of the two traced passes; counts must agree."""
    from tracing import Tracer

    outcomes = Outcomes()
    plain, traced, layers = [], [], []
    for _ in range(TRACE_ROUNDS):
        plain.append(_in_process_pass(plan, outcomes))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(_in_process_pass(plan, outcomes))
        finally:
            tracer.uninstall()
        layers.append(tracer)
    runs = [t.metrics() for t in layers]
    values = {}
    for name in runs[0]:
        if PER_LAYER_UNITS[name] in ("s", "1/s"):
            values[name] = statistics.fmean(r[name] for r in runs)
        else:
            values[name] = runs[-1][name]
            if any(r[name] != values[name] for r in runs):
                outcomes.problems.append(f"{name} differs between traced passes")
    values["trace.overhead_ratio"] = sum(traced) / sum(plain)
    detail = {
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "spans": [list(s) for s in layers[-1].spans],
        "span_fields": ["id", "parent", "name", "start", "end", "self_s"],
    }
    samples = dict.fromkeys(values, TRACE_ROUNDS)
    return {"values": values, "samples": samples, "outcomes": outcomes, "detail": detail}


# -- metric declarations -----------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.load_s": "s",
    "cli.self_s": "s",
    "generators.gen_s": "s",
    "generators.calls": "count",
    "generators.accept_ratio": "ratio",
    "substochastic.validate_s": "s",
    "substochastic.mmatrix_tests": "count",
    "substochastic.fundamental_s": "s",
    "substochastic.radius_estimate_s": "s",
    "identities.certify_general_s": "s",
    "identities.verify_all_s": "s",
    "identities.reports": "count",
    "matrix.det_calls": "count",
    "matrix.det_s": "s",
    "matrix.inverse_calls": "count",
    "matrix.inverse_s": "s",
    "matrix.adjugate_calls": "count",
    "matrix.adjugate_s": "s",
    "matrix.mat_vec_calls": "count",
    "matrix.mat_vec_s": "s",
    "matrix.max_bits": "bits",
    "montecarlo.crosscheck_s": "s",
    "kernels.walk_s": "s",
    "kernels.walk_calls": "count",
    "kernels.visits": "count",
    "kernels.visits_per_s": "1/s",
    "kernels.cap_hits": "count",
    "kernels.visit_matrix_bytes": "B_computed",
    "trace.overhead_ratio": "ratio",
}


# -- run metadata --------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _steal_ticks() -> int | None:
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata_start() -> dict:
    import numpy
    import importlib.util

    cpu = [l for l in _read("/proc/cpuinfo").splitlines() if l.startswith("model name")]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu[0].split(":", 1)[1].strip() if cpu else platform.processor(),
        "loadavg_start": _read("/proc/loadavg").split()[:3],
        "_steal": _steal_ticks(),
    }


def metadata_end(meta: dict) -> dict:
    steal0 = meta.pop("_steal")
    steal1 = _steal_ticks()
    meta["loadavg_end"] = _read("/proc/loadavg").split()[:3]
    meta["steal_s"] = (
        (steal1 - steal0) / os.sysconf("SC_CLK_TCK") if None not in (steal0, steal1) else None
    )
    return meta


# -- entry point -----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int, sizes) -> dict:
    from workloads import PLANS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        meta = metadata_start()
        plan = PLANS[workload](seed, workdir, sizes)
        result = traced_run(plan) if trace else timed_run(plan, seconds, workdir)
        meta = metadata_end(meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcomes = result["outcomes"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    line = {
        "correct": not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": result["values"][k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "result": line, "samples": result["samples"], "problems": outcomes.problems,
        "meta": meta, **result["detail"],
    }
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=("verify_exact", "falsify_sweep", "simulate_walk", "float_csv"),
        help="verify_exact and float_csv are not in BENCHMARK.json: the run budget leaves "
        "room for two steady workloads, and float CSV input gets wrong verdicts",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the tiny self-test")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    _require_source()
    start_launcher()
    try:
        sys.path.insert(0, str(SRC))
        from workloads import FULL

        if args.smoke:
            # smoke.py imports this file as `run`; let it share this module's launcher.
            sys.modules.setdefault("run", sys.modules[__name__])
            from smoke import smoke

            return smoke()
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, FULL)
    finally:
        stop_launcher()
    line = record["result"]
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name, metric in line["metrics"].items():
        n = record["samples"][name]
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']} (n={n})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
