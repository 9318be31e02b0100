"""Command-line front end.

Subcommands: check (certify a matrix file), verify (identity residual
sweeps), falsify (randomized counterexample search), simulate (Monte-Carlo
cross-check) and gen (write reproducible instances).

File formats: JsonExact is {"n": N, "entries": [[...]]} with integer or
"p/q" string entries; CsvFloat is a square grid of decimal floats.  Exit
codes: 0 all passed, 1 check/verification failed, 2 usage/certification
error, 3 I/O or parse error.

falsify and gen embed no timing in their reports, so identical flags
reproduce byte-identical output; elapsed time goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (
    CertificationError,
    GenerationExhausted,
    ParseError,
    SubstochError,
    SingularSubmatrix,
    ValidationError,
)
from .generators import GenSpec, derive_seed, gen_general, gen_substochastic
from .identities import (
    IdentityId,
    IdentityReport,
    certify_general,
    verify_all,
)
from .matrix import DenseMatrix
from .scalars import EXACT, FLOAT
from .substochastic import (
    SubstochasticMatrix,
    check_diagonal_maximality,
    det_I_minus_Pt_positive,
    spectral_radius_estimate,
    validate_substochastic,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

GENERAL_IDENTITIES = ("lemma1", "lemma2", "eq13", "eq17", "eq20", "eq21")
SUBSTOCHASTIC_IDENTITIES = ("thm1", "thm2")
IDENTITY_CHOICES = SUBSTOCHASTIC_IDENTITIES + GENERAL_IDENTITIES + ("all",)

_ID_BY_FLAG = {
    "lemma1": IdentityId.LEMMA1,
    "lemma2": IdentityId.LEMMA2,
    "eq13": IdentityId.EQ13,
    "eq17": IdentityId.EQ17,
    "eq20": IdentityId.EQ20,
    "eq21": IdentityId.EQ21,
}


# -- matrix file I/O --------------------------------------------------------


def _scalar_to_json(value, backend) -> object:
    if backend.name == "float":
        return float(value)
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def matrix_to_jsonexact(M: DenseMatrix) -> dict:
    if M.backend.name != "exact":
        M = M.to_exact()
    return {
        "n": M.n_rows,
        "entries": [
            [_scalar_to_json(v, M.backend) for v in M.row(i)]
            for i in range(1, M.n_rows + 1)
        ],
    }


def dump_jsonexact(M: DenseMatrix) -> str:
    return json.dumps(matrix_to_jsonexact(M), indent=2) + "\n"


def _parse_jsonexact(text: str) -> DenseMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ParseError('JsonExact needs {"n": ..., "entries": [[...]]}')
    n = data["n"]
    entries = data["entries"]
    if not isinstance(n, int) or n < 1:
        raise ParseError('"n" must be a positive integer')
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f'"entries" must be a list of {n} rows')
    rows = []
    for i, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must be a list of {n} entries", line=i)
        parsed = []
        for j, cell in enumerate(row, start=1):
            if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                raise ParseError(
                    f"entry ({i},{j}) must be an integer or a 'p/q' string, got {cell!r}",
                    line=i,
                    column=j,
                )
            try:
                parsed.append(Fraction(cell))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(
                    f"entry ({i},{j}) is not a valid rational: {cell!r}", line=i, column=j
                ) from exc
        rows.append(parsed)
    return DenseMatrix.from_rows(rows, EXACT)


def _parse_csvfloat(text: str) -> DenseMatrix:
    rows = []
    for i, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not record or all(not c.strip() for c in record):
            continue
        row = []
        for j, cell in enumerate(record, start=1):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"cell {cell!r} is not a decimal float", line=i, column=j
                ) from exc
            if not math.isfinite(value):
                raise ParseError(f"cell {cell!r} is not finite", line=i, column=j)
            row.append(value)
        rows.append(row)
    if not rows:
        raise ParseError("CSV file contains no data rows")
    n = len(rows)
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ParseError(
                f"matrix must be square: row {i} has {len(row)} cells, expected {n}",
                line=i,
            )
    return DenseMatrix.from_rows(rows, FLOAT)


def load_matrix(path: str, backend: Optional[str]) -> tuple[DenseMatrix, str, str]:
    """Read a matrix file; returns (matrix, sha256 digest, format name).

    Format from the extension (.json / .csv), else sniffed from the first
    byte.  --backend renders JSON input to float or lifts CSV to exact.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not UTF-8 text: {exc}") from exc
    lower = path.lower()
    if lower.endswith(".json"):
        fmt = "JsonExact"
    elif lower.endswith(".csv"):
        fmt = "CsvFloat"
    else:
        fmt = "JsonExact" if text.lstrip()[:1] == "{" else "CsvFloat"
    M = _parse_jsonexact(text) if fmt == "JsonExact" else _parse_csvfloat(text)
    if backend == "float":
        try:
            M = M.to_float()
        except OverflowError:
            k = next(k for k, e in enumerate(M.entries) if abs(e) > sys.float_info.max)
            i, j = divmod(k, M.n_cols)
            raise ParseError(
                f"entry ({i + 1},{j + 1}) is beyond the double range", line=i + 1, column=j + 1
            ) from None
    elif backend == "exact":
        M = M.to_exact()
    return M, digest, fmt


# -- run reports ------------------------------------------------------------


@dataclass
class RunReport:
    """Machine-readable record of one CLI run; --json emits it verbatim."""

    command: str
    input_digest: Optional[str]
    backend: str
    overall_pass: bool
    wall_time_s: Optional[float]
    reports: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "backend": self.backend,
            "overall_pass": self.overall_pass,
            "wall_time_s": self.wall_time_s,
            "reports": self.reports,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _identity_record(r: IdentityReport, backend) -> dict:
    fmt = (lambda v: None if v is None else _scalar_to_json(v, backend))
    return {
        "type": "identity",
        "id": r.identity.label,
        "m": r.m,
        "l": r.l,
        "lhs": fmt(r.lhs),
        "rhs": fmt(r.rhs),
        "residual": fmt(r.residual),
        "passed": r.passed,
        "error": r.error,
    }


def _identity_line(r: IdentityReport, backend) -> str:
    where = " ".join(
        s for s in (f"m={r.m}" if r.m else "", f"l={r.l}" if r.l else "") if s
    )
    if r.error:
        body = f"error: {r.error}"
    else:
        body = f"residual={backend.format(r.residual)}"
    status = "PASS" if r.passed else "FAIL"
    return f"{r.identity.label:<11}{where:<11}{body}  {status}"


def _echo(args: argparse.Namespace, names: list[str]) -> str:
    parts = [args.cmd]
    for name in names:
        parts.append(f"--{name.replace('_', '-')}={getattr(args, name)}")
    return " ".join(parts)


def _emit(report: RunReport, args, out=None) -> None:
    if getattr(args, "json", False):
        (out or sys.stdout).write(report.to_json())


# -- check ------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    M, digest, fmt = load_matrix(args.path, args.backend)
    backend = M.backend
    print(f"input: {args.path} [{fmt}] sha256={digest[:16]}...")
    print(f"matrix: {M.n_rows}x{M.n_cols}, backend={backend.name}")
    report = RunReport(f"check {args.path}", digest, backend.name, False, None)
    try:
        P = validate_substochastic(M)
    except ValidationError as exc:
        print(f"certified: no — {type(exc).__name__}: {exc}")
        print("FAIL")
        report.reports.append(
            {"type": "certification", "certified": False,
             "error": f"{type(exc).__name__}: {exc}"}
        )
        report.wall_time_s = time.perf_counter() - t0
        _emit(report, args)
        return EXIT_FAIL
    det = det_I_minus_Pt_positive(P)
    estimate = spectral_radius_estimate(M, args.iterations, args.seed)
    print(f"certified: yes ({P.certification.value})")
    print(f"det(I - P^T) = {backend.format(det)}")
    print(
        f"spectral radius estimate = {estimate:.9f}"
        f" ({args.iterations} iterations, seed {args.seed})"
    )
    print("PASS")
    report.overall_pass = True
    report.reports.append(
        {
            "type": "certification",
            "certified": True,
            "method": P.certification.value,
            "det_I_minus_Pt": _scalar_to_json(det, backend),
            "spectral_radius_estimate": estimate,
            "iterations": args.iterations,
            "seed": args.seed,
        }
    )
    report.wall_time_s = time.perf_counter() - t0
    _emit(report, args)
    return EXIT_PASS


# -- verify -----------------------------------------------------------------


def _wanted_ids(flag: str, mode: str) -> set[str]:
    if flag != "all":
        return {flag}
    if mode == "substochastic":
        return set(SUBSTOCHASTIC_IDENTITIES) | set(GENERAL_IDENTITIES)
    return set(GENERAL_IDENTITIES)


def _filter_reports(reports, wanted, m_filter, l_filter):
    keep_ids = {_ID_BY_FLAG[w] for w in wanted if w in _ID_BY_FLAG}
    if "thm2" in wanted:
        keep_ids |= {IdentityId.THM2_FIRST, IdentityId.THM2_SECOND}
    out = []
    for r in reports:
        if r.identity not in keep_ids:
            continue
        if m_filter is not None and r.m is not None and r.m != m_filter:
            continue
        if l_filter is not None and r.l is not None and r.l != l_filter:
            continue
        out.append(r)
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    M, digest, fmt = load_matrix(args.path, args.backend)
    backend = M.backend
    tol = args.tol
    needs_sub = args.identity in SUBSTOCHASTIC_IDENTITIES
    sub: Optional[SubstochasticMatrix] = None
    if needs_sub or args.identity == "all":
        try:
            sub = validate_substochastic(M)
        except ValidationError as exc:
            if needs_sub:
                raise CertificationError(
                    f"{args.identity} needs a certified substochastic matrix: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
    mode = "substochastic" if sub is not None else "general"
    wanted = _wanted_ids(args.identity, mode)
    print(f"input: {args.path} [{fmt}] sha256={digest[:16]}...")
    print(f"matrix: {M.n_rows}x{M.n_cols}, backend={backend.name}, mode={mode}")
    records: list[dict] = []
    lines: list[str] = []
    ok = True

    if mode == "substochastic":
        if "thm1" in wanted:
            rep = check_diagonal_maximality(sub)
            ok &= rep.holds
            status = "PASS" if rep.holds else "FAIL"
            if rep.holds:
                lines.append(f"{'Thm1':<11}diagonal of (I-P^T)^-1 maximal in each row  {status}")
                records.append({"type": "maximality", "holds": True, "witness": None})
            else:
                w = rep.witness
                lines.append(
                    f"{'Thm1':<11}violated at row {w.row}, col {w.col}: "
                    f"c_mm={backend.format(w.diagonal_value)} < "
                    f"c_ml={backend.format(w.offending_value)}  {status}"
                )
                records.append(
                    {
                        "type": "maximality",
                        "holds": False,
                        "witness": {
                            "row": w.row,
                            "col": w.col,
                            "diagonal": _scalar_to_json(w.diagonal_value, backend),
                            "offending": _scalar_to_json(w.offending_value, backend),
                        },
                    }
                )
        id_reports = _filter_reports(verify_all(sub, tol), wanted, args.m, args.l)
    else:
        try:
            G = certify_general(M)
        except SingularSubmatrix as exc:
            raise CertificationError(
                f"matrix fails the nonzero-minor certificate: {exc}"
            ) from exc
        id_reports = _filter_reports(verify_all(G, tol), wanted, args.m, args.l)

    for r in id_reports:
        ok &= r.passed
        lines.append(_identity_line(r, backend))
        records.append(_identity_record(r, backend))
    for line in lines:
        print(line)
    total = len(records)
    print(f"overall: {'PASS' if ok else 'FAIL'} ({total} checks)")
    report = RunReport(
        f"verify {args.path} --identity {args.identity}",
        digest,
        backend.name,
        ok,
        time.perf_counter() - t0,
        records,
    )
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_FAIL


# -- falsify ----------------------------------------------------------------


def _parse_n_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--n expects INT or A..B, got {text!r}"
        ) from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad dimension range {text!r}")
    return list(range(lo, hi + 1))


def _genspec(args, n: int, seed: int) -> GenSpec:
    return GenSpec(
        n=n,
        seed=seed,
        density=Fraction(args.density),
        max_row_sum=Fraction(args.max_row_sum),
        denominator_bound=args.denominator_bound,
    )


def _falsify_substochastic(args, wanted, idx, counterexamples) -> None:
    n = args.n[idx % len(args.n)]
    sub = gen_substochastic(_genspec(args, n, derive_seed(args.seed, 2 * idx)))
    backend = sub.P.backend
    if "thm1" in wanted:
        rep = check_diagonal_maximality(sub)
        if not rep.holds:
            w = rep.witness
            counterexamples.append(
                {
                    "type": "counterexample",
                    "identity": "Thm1",
                    "instance": idx,
                    "matrix": matrix_to_jsonexact(sub.P),
                    "witness": {
                        "row": w.row,
                        "col": w.col,
                        "diagonal": _scalar_to_json(w.diagonal_value, backend),
                        "offending": _scalar_to_json(w.offending_value, backend),
                    },
                }
            )
    if "thm2" in wanted or (set(wanted) & set(GENERAL_IDENTITIES)):
        for r in _filter_reports(verify_all(sub), wanted, None, None):
            if not r.passed:
                counterexamples.append(
                    {
                        "type": "counterexample",
                        "identity": r.identity.label,
                        "instance": idx,
                        "matrix": matrix_to_jsonexact(sub.P),
                        "report": _identity_record(r, backend),
                    }
                )


def _falsify_general(args, wanted, idx, counterexamples) -> None:
    n = args.n[idx % len(args.n)]
    G = gen_general(_genspec(args, n, derive_seed(args.seed, 2 * idx + 1)))
    for r in _filter_reports(verify_all(G), wanted, None, None):
        if not r.passed:
            counterexamples.append(
                {
                    "type": "counterexample",
                    "identity": r.identity.label,
                    "instance": idx,
                    "matrix": matrix_to_jsonexact(G.B),
                    "report": _identity_record(r, G.backend),
                }
            )


def cmd_falsify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    sub_mode = args.identity in SUBSTOCHASTIC_IDENTITIES or args.identity == "all"
    gen_mode = args.identity in GENERAL_IDENTITIES or args.identity == "all"
    wanted_sub = _wanted_ids(args.identity, "substochastic") if sub_mode else set()
    wanted_gen = _wanted_ids(args.identity, "general") if gen_mode else set()
    counterexamples: list[dict] = []
    for idx in range(args.count):
        if sub_mode:
            _falsify_substochastic(args, wanted_sub, idx, counterexamples)
        if gen_mode:
            _falsify_general(args, wanted_gen, idx, counterexamples)
    ok = not counterexamples
    families = []
    if sub_mode:
        families.append("substochastic")
    if gen_mode and args.identity not in SUBSTOCHASTIC_IDENTITIES:
        families.append("general")
    print(
        f"falsify: identity={args.identity} n={args.n[0]}..{args.n[-1]} "
        f"count={args.count} seed={args.seed} density={args.density} "
        f"max_row_sum={args.max_row_sum} denominator_bound={args.denominator_bound}"
    )
    print(f"instances checked: {args.count} per family ({', '.join(families)})")
    print(f"counterexamples: {len(counterexamples)}")
    for ce in counterexamples:
        print(json.dumps(ce, indent=2))
    print("PASS" if ok else "FAIL")
    summary = {
        "type": "sweep",
        "identity": args.identity,
        "n_values": args.n,
        "count": args.count,
        "seed": args.seed,
        "families": families,
        "counterexamples": len(counterexamples),
    }
    report = RunReport(
        _echo(args, ["identity", "count", "seed"]),
        None,
        "exact",
        ok,
        None,  # timing deliberately omitted: identical flags => identical bytes
        [summary, *counterexamples],
    )
    _emit(report, args)
    print(f"elapsed: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


# -- simulate ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    for bad, message in (
        (args.trials < 1, "--trials must be >= 1"),
        (args.cap < 1, "--cap must be >= 1"),
        (not (math.isfinite(args.sigma) and args.sigma > 0), "--sigma must be finite and > 0"),
    ):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return EXIT_USAGE
    M, digest, fmt = load_matrix(args.path, args.backend)
    try:
        sub = validate_substochastic(M)
    except ValidationError as exc:
        raise CertificationError(
            f"simulate needs a certified substochastic matrix: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    from .montecarlo import crosscheck_fundamental

    rep = crosscheck_fundamental(sub, args.trials, args.seed, args.sigma, args.cap)
    print(f"input: {args.path} [{fmt}] sha256={digest[:16]}...")
    print(
        f"simulate: trials={args.trials} seed={args.seed} sigma={args.sigma} "
        f"cap={args.cap}"
    )
    records = []
    for c in rep.cells:
        status = "FLAG" if c.flagged else "ok"
        print(
            f"start={c.start} state={c.state} estimate={c.estimate:.6f} "
            f"exact={c.exact:.6f} halfwidth={c.halfwidth:.6f}  {status}"
        )
        records.append(
            {
                "type": "crosscheck",
                "start": c.start,
                "state": c.state,
                "estimate": c.estimate,
                "exact": c.exact,
                "halfwidth": c.halfwidth,
                "flagged": c.flagged,
            }
        )
    print(f"flags: {len(rep.flags)}, cap_exceeded: {rep.cap_exceeded}")
    print("PASS" if rep.passed else "FAIL")
    print(
        f"walks: {rep.walks}, moves: {rep.moves}, longest walk: {rep.longest_walk} moves, "
        f"cap hits: {rep.cap_exceeded}",
        file=sys.stderr,
    )
    report = RunReport(
        f"simulate {args.path} --trials {args.trials} --seed {args.seed}",
        digest,
        "float",
        rep.passed,
        time.perf_counter() - t0,
        records,
    )
    _emit(report, args)
    return EXIT_PASS if rep.passed else EXIT_FAIL


# -- gen --------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if len(args.n) != 1:
        print("error: gen takes a single dimension, not a range", file=sys.stderr)
        return EXIT_USAGE
    spec = _genspec(args, args.n[0], args.seed)
    if args.kind == "substochastic":
        M = gen_substochastic(spec).P
    else:
        M = gen_general(spec).B
    payload = dump_jsonexact(M)
    if args.out is None or args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.kind} {M.n_rows}x{M.n_cols} matrix to {args.out}")
    print(f"elapsed: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_PASS


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="substoch",
        description="Certify substochastic matrices and verify their "
        "fundamental-matrix, minor and Schur-quotient identities.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_backend(p):
        p.add_argument(
            "--backend",
            choices=("exact", "float"),
            default=None,
            help="force the scalar backend (default: exact for JSON, float for CSV)",
        )

    def add_genspec(p):
        p.add_argument("--density", default="1", help="keep-probability per entry (fraction or decimal)")
        p.add_argument("--max-row-sum", default="1", help="upper bound for row sums, in (0,1]")
        p.add_argument("--denominator-bound", type=int, default=16, help="entry grid denominator")

    p = sub.add_parser("check", help="certify a matrix file as substochastic")
    p.add_argument("path")
    add_backend(p)
    p.add_argument("--iterations", type=int, default=200, help="power-iteration steps")
    p.add_argument("--seed", type=int, default=0, help="start-vector seed for the estimate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="evaluate identity residuals on a matrix file")
    p.add_argument("path")
    p.add_argument("--identity", choices=IDENTITY_CHOICES, default="all")
    add_backend(p)
    p.add_argument("--tol", type=float, default=None, help="float-backend tolerance (default 1e-9)")
    p.add_argument("--m", type=int, default=None, help="restrict to this m index")
    p.add_argument("--l", type=int, default=None, help="restrict to this l index")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("falsify", help="randomized counterexample search (exact backend)")
    p.add_argument("--identity", choices=IDENTITY_CHOICES, required=True)
    p.add_argument("--n", type=_parse_n_range, default=[4], help="dimension INT or range A..B")
    p.add_argument("--count", type=int, required=True, help="instances per family")
    p.add_argument("--seed", type=int, required=True)
    add_genspec(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("simulate", help="Monte-Carlo cross-check of (I-P)^-1")
    p.add_argument("path")
    add_backend(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sigma", type=float, default=4.0, help="flag threshold in half-widths")
    p.add_argument("--cap", type=int, default=10**6, help="max moves per walk")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", help="write a reproducible instance as JsonExact")
    p.add_argument("--kind", choices=("substochastic", "general"), default="substochastic")
    p.add_argument("--n", type=_parse_n_range, required=True, help="dimension")
    p.add_argument("--seed", type=int, required=True)
    add_genspec(p)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CertificationError, GenerationExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SubstochError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
