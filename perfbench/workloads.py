"""Workload definitions: seeded inputs, the CLI commands of one pass, and
independent checks of each command's output.

A workload turns a seed into input files (written with substoch's own
generators, before any timing) and a list of `substoch` command lines.  One
*pass* runs every command once.  Each command carries a checker that returns
the problems it finds in the command's exit code and stdout; an empty list
means the output is correct.  The checkers never trust the program's own
verdict: they recompute what the answer must be from the generated input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from substoch.cli import dump_jsonexact
from substoch.generators import GenSpec, derive_seed, gen_substochastic
from substoch.matrix import DenseMatrix
from substoch.scalars import EXACT
from substoch.substochastic import validate_substochastic


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload; FULL is what the benchmark times,
    SMOKE is the tiny variant its self-test runs."""

    verify_n: int
    falsify_n: tuple[int, int]
    falsify_count: int
    simulate_n: int
    simulate_trials: int
    float_ns: tuple[int, ...]


FULL = Sizes(
    verify_n=10,
    falsify_n=(2, 6),
    falsify_count=50,
    simulate_n=16,
    simulate_trials=200_000,
    float_ns=(12, 14, 16),
)
SMOKE = Sizes(
    verify_n=4,
    falsify_n=(2, 3),
    falsify_count=3,
    simulate_n=4,
    simulate_trials=2_000,
    float_ns=(4, 5),
)


@dataclass
class Output:
    """What one command produced."""

    returncode: int
    stdout: str

    def report(self) -> dict:
        """The RunReport object that `--json` prints after the human-readable
        lines: everything from the first line that starts with `{`."""
        lines = self.stdout.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if line.startswith("{"):
                return json.loads("".join(lines[i:]))
        raise ValueError("no JSON report in stdout")


Checker = Callable[[Output], list]


@dataclass
class Command:
    argv: list[str]  # arguments after `python -m substoch`
    check: Checker
    same_bytes: bool = False  # stdout must repeat byte for byte across passes


@dataclass
class Plan:
    """One workload prepared for one seed."""

    commands: list[Command]
    checks: int  # identity/cross-check verdicts one pass evaluates
    instances: int  # matrices one pass processes


# -- independent references -------------------------------------------------


def substochastic_checks(n: int) -> int:
    """Records `verify --identity all` prints for a certified n x n matrix:
    Lemma1, Eq20, Eq21, Thm2Second over m != l, Lemma2, Eq13, Eq17,
    Thm2First over one index, plus the Thm1 maximality record."""
    return 4 * n * (n - 1) + 4 * n + 1


def general_checks(n: int) -> int:
    """Identity evaluations of the general family (no Thm1, no Thm2)."""
    return 3 * n * (n - 1) + 3 * n


def exact_verdict(rows: list[list[Fraction]]) -> bool:
    """True iff the matrix is substochastic with spectral radius < 1.

    Entries nonnegative, every row sum at most 1, and every state reaches a
    row whose sum is below 1 along positive entries; for such matrices the
    last condition is equivalent to rho < 1.  This is a different algorithm
    from the program's leading-minor test.
    """
    n = len(rows)
    if any(x < 0 for row in rows for x in row):
        return False
    sums = [sum(row) for row in rows]
    if any(s > 1 for s in sums):
        return False
    leaking = {i for i in range(n) if sums[i] < 1}
    # Walk the edges backwards from the leaking rows.
    reached = set(leaking)
    frontier = list(leaking)
    while frontier:
        j = frontier.pop()
        for i in range(n):
            if i not in reached and rows[i][j] > 0:
                reached.add(i)
                frontier.append(i)
    return len(reached) == n


def _problems_from(out: Output, want_rc: int) -> tuple[list, dict | None]:
    problems = []
    if out.returncode != want_rc:
        problems.append(f"exit code {out.returncode}, expected {want_rc}")
    try:
        return problems, out.report()
    except (ValueError, json.JSONDecodeError) as exc:
        return problems + [f"unreadable report: {exc}"], None


# -- checkers ---------------------------------------------------------------


def check_certified(expected: bool) -> Checker:
    def check(out: Output) -> list:
        problems, rep = _problems_from(out, 0 if expected else 1)
        if rep is None:
            return problems
        cert = [r for r in rep["reports"] if r.get("type") == "certification"]
        if len(cert) != 1 or cert[0].get("certified") is not expected:
            problems.append(f"certification verdict is not {expected}")
        if rep.get("overall_pass") is not expected:
            problems.append(f"overall_pass is not {expected}")
        return problems

    return check


def check_verify_exact(n: int) -> Checker:
    def check(out: Output) -> list:
        problems, rep = _problems_from(out, 0)
        if rep is None:
            return problems
        records = rep["reports"]
        if len(records) != substochastic_checks(n):
            problems.append(f"{len(records)} records, expected {substochastic_checks(n)}")
        for r in records:
            if r.get("type") == "maximality":
                if r.get("holds") is not True:
                    problems.append("Thm1 maximality does not hold")
            elif r.get("error") is not None or r.get("passed") is not True:
                problems.append(f"{r.get('id')} m={r.get('m')} l={r.get('l')} failed")
            elif type(r.get("residual")) is not int or r["residual"] != 0:
                problems.append(
                    f"{r.get('id')} m={r.get('m')} l={r.get('l')} residual "
                    f"{r.get('residual')!r} is not the literal 0"
                )
        if sum(r.get("type") == "maximality" for r in records) != 1:
            problems.append("expected exactly one Thm1 maximality record")
        if rep.get("overall_pass") is not True:
            problems.append("overall_pass is not true")
        return problems

    return check


def check_falsify(count: int) -> Checker:
    def check(out: Output) -> list:
        problems, rep = _problems_from(out, 0)
        if rep is None:
            return problems
        summary = rep["reports"][0] if rep["reports"] else {}
        if summary.get("type") != "sweep" or summary.get("count") != count:
            problems.append("missing or wrong sweep summary")
        if summary.get("counterexamples") != 0 or len(rep["reports"]) != 1:
            problems.append(f"{summary.get('counterexamples')} counterexamples reported")
        if summary.get("families") != ["substochastic", "general"]:
            problems.append(f"families {summary.get('families')}")
        if rep.get("overall_pass") is not True:
            problems.append("overall_pass is not true")
        return problems

    return check


def check_simulate(reference: np.ndarray) -> Checker:
    n = reference.shape[0]

    def check(out: Output) -> list:
        problems, rep = _problems_from(out, 0)
        if rep is None:
            return problems
        cells = rep["reports"]
        if len(cells) != n * n:
            problems.append(f"{len(cells)} cells, expected {n * n}")
        for c in cells:
            if c.get("flagged") is not False:
                problems.append(f"cell ({c.get('start')},{c.get('state')}) flagged")
            try:
                want = reference[c["start"] - 1, c["state"] - 1]
                if not abs(c["exact"] - want) <= 1e-9 * max(1.0, abs(want)):
                    problems.append(
                        f"cell ({c['start']},{c['state']}) exact {c['exact']!r}, "
                        f"reference {want!r}"
                    )
            except (KeyError, IndexError, TypeError):
                problems.append(f"malformed cell {c!r}")
        if "cap_exceeded: 0\n" not in out.stdout:
            problems.append("walks hit the step cap")
        if rep.get("overall_pass") is not True:
            problems.append("overall_pass is not true")
        return problems

    return check


def check_verify_float(n: int, expected: bool) -> Checker:
    """verify on float input must run in substochastic mode iff the input is
    substochastic.  In general mode the general nonzero-minor certificate
    may fail, which the CLI documents as exit code 2."""
    mode = "substochastic" if expected else "general"

    def check(out: Output) -> list:
        if f"mode={mode}\n" not in out.stdout:
            return [f"verify did not run in {mode} mode; the exact verdict is {expected}"]
        if out.returncode == 2 and not expected:
            return []
        problems, rep = _problems_from(out, 0)
        if rep is None:
            return problems
        want = substochastic_checks(n) if expected else general_checks(n)
        if len(rep["reports"]) != want:
            problems.append(f"{len(rep['reports'])} records, expected {want}")
        if rep.get("overall_pass") is not True:
            problems.append("overall_pass is not true")
        return problems

    return check


# -- workloads --------------------------------------------------------------


def _instance(n: int, seed: int):
    return gen_substochastic(GenSpec(n=n, seed=seed)).P


# Every row of a simulate_walk instance sums to this, so a walk from any
# state makes 1 / (1 - SIMULATE_ROW_SUM) visits on average whatever the seed,
# and the walk work of a pass does not depend on the seed.
SIMULATE_ROW_SUM = Fraction(1, 2)


def _rescaled(P, row_sum: Fraction):
    """P with every nonzero row scaled exactly to sum to row_sum."""
    rows = []
    for row in P.rows_as_lists():
        total = sum(row)
        rows.append([x * (row_sum / total) for x in row] if total else row)
    return validate_substochastic(DenseMatrix.from_rows(rows, EXACT)).P


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def plan_verify_exact(seed: int, workdir: Path, sizes: Sizes) -> Plan:
    n = sizes.verify_n
    P = _instance(n, derive_seed(seed, 0))
    path = _write(workdir / "verify.json", dump_jsonexact(P))
    return Plan(
        [
            Command(["check", path, "--json"], check_certified(exact_verdict(P.rows_as_lists()))),
            Command(["verify", path, "--identity", "all", "--json"], check_verify_exact(n)),
        ],
        checks=substochastic_checks(n),
        instances=1,
    )


def plan_falsify_sweep(seed: int, workdir: Path, sizes: Sizes) -> Plan:
    lo, hi = sizes.falsify_n
    count = sizes.falsify_count
    ns = [lo + idx % (hi - lo + 1) for idx in range(count)]
    argv = [
        "falsify", "--identity", "all", "--n", f"{lo}..{hi}",
        "--count", str(count), "--seed", str(seed), "--json",
    ]
    return Plan(
        [Command(argv, check_falsify(count), same_bytes=True)],
        checks=sum(substochastic_checks(n) + general_checks(n) for n in ns),
        instances=2 * count,
    )


def plan_simulate_walk(seed: int, workdir: Path, sizes: Sizes) -> Plan:
    n = sizes.simulate_n
    P = _rescaled(_instance(n, derive_seed(seed, 0)), SIMULATE_ROW_SUM)
    path = _write(workdir / "simulate.json", dump_jsonexact(P))
    p = np.array(P.to_float().rows_as_lists(), dtype=np.float64)
    reference = np.linalg.inv(np.eye(n) - p)
    argv = [
        "simulate", path, "--trials", str(sizes.simulate_trials),
        "--seed", str(derive_seed(seed, 1)), "--json",
    ]
    return Plan([Command(argv, check_simulate(reference))], checks=n * n, instances=1)


def plan_float_csv(seed: int, workdir: Path, sizes: Sizes) -> Plan:
    commands = []
    checks = 0
    for k, n in enumerate(sizes.float_ns):
        P = _instance(n, derive_seed(seed, k))
        floats = [[float(x) for x in row] for row in P.rows_as_lists()]
        text = "".join(",".join(repr(x) for x in row) + "\n" for row in floats)
        path = _write(workdir / f"float{k}_n{n}.csv", text)
        expected = exact_verdict([[Fraction(x) for x in row] for row in floats])
        commands.append(Command(["check", path, "--json"], check_certified(expected)))
        commands.append(
            Command(["verify", path, "--identity", "all", "--json"], check_verify_float(n, expected))
        )
        checks += substochastic_checks(n) if expected else general_checks(n)
    return Plan(commands, checks=checks, instances=len(sizes.float_ns))


PLANS = {
    "verify_exact": plan_verify_exact,
    "falsify_sweep": plan_falsify_sweep,
    "simulate_walk": plan_simulate_walk,
    "float_csv": plan_float_csv,
}
