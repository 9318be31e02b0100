"""Command-line front end.

Subcommands: check (certify a matrix file), verify (identity residual
sweeps), falsify (randomized counterexample search), simulate (Monte-Carlo
cross-check) and gen (write reproducible instances).

File formats: JsonExact is {"n": N, "entries": [[...]]} with integer or
"p/q" string entries of bounded size (MAX_ENTRY_DIGITS); CsvFloat is a
square grid of decimal floats.  Exit codes: 0 all passed, 1
check/verification failed, 2 usage/certification error, 3 I/O or parse
error.

falsify and gen embed no timing in their reports, so identical flags
reproduce byte-identical output; elapsed time goes to stderr.
"""

from __future__ import annotations

# Only what parsing, main's exit codes and the run's clock need is imported
# here (time is built into the interpreter), so that --help and usage errors
# load no library module; each command imports what it runs.  Annotations are
# not evaluated (PEP 563), so the library types they name need no import.
import argparse
import os
import sys
import time

from .errors import (
    CertificationError,
    GenerationExhausted,
    ParseError,
    SubstochError,
    SingularSubmatrix,
    ValidationError,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

GENERAL_IDENTITIES = ("lemma1", "lemma2", "eq13", "eq17", "eq20", "eq21")
SUBSTOCHASTIC_IDENTITIES = ("thm1", "thm2")
IDENTITY_CHOICES = SUBSTOCHASTIC_IDENTITIES + GENERAL_IDENTITIES + ("all",)
# every check of these identities has m != l
PAIR_IDENTITIES = {"lemma1", "eq20", "eq21"}
# JsonExact entries: integers of at most this many digits, strings of at most
# this many characters whose decimal exponent is at most this in magnitude
MAX_ENTRY_DIGITS = 1000


# -- matrix file I/O --------------------------------------------------------


def matrix_to_jsonexact(M: DenseMatrix) -> dict:
    from .scalars import EXACT

    M = M.to_exact()
    return {
        "n": M.n_rows,
        "entries": [
            [EXACT.to_json(v) for v in M.row(i)]
            for i in range(1, M.n_rows + 1)
        ],
    }


def dump_jsonexact(M: DenseMatrix) -> str:
    import json

    return json.dumps(matrix_to_jsonexact(M), indent=2) + "\n"


def _bounded_int(digits: str) -> int:
    if len(digits.lstrip("-")) > MAX_ENTRY_DIGITS:
        raise ParseError(f"an integer entry has more than {MAX_ENTRY_DIGITS} digits")
    return int(digits)


def _within_entry_bound(cell: str) -> bool:
    # an exponent that is no integer is left for Fraction to reject
    _, e, exponent = cell.lower().partition("e")
    try:
        return len(cell) <= MAX_ENTRY_DIGITS and not (e and abs(int(exponent)) > MAX_ENTRY_DIGITS)
    except ValueError:
        return True


def _parse_jsonexact(text: str) -> DenseMatrix:
    import json
    from fractions import Fraction

    from .matrix import DenseMatrix
    from .scalars import EXACT

    try:
        data = json.loads(text, parse_int=_bounded_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ParseError('JsonExact needs {"n": ..., "entries": [[...]]}')
    n = data["n"]
    entries = data["entries"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
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
            if isinstance(cell, str) and not _within_entry_bound(cell):
                raise ParseError(
                    f"entry ({i},{j}) exceeds {MAX_ENTRY_DIGITS} characters or exponent magnitude",
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
    import csv
    import io
    import math

    from .matrix import DenseMatrix
    from .scalars import FLOAT

    reader = csv.reader(io.StringIO(text, newline=""))  # so bare-CR line endings parse
    try:
        records = list(reader)
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}", line=reader.line_num) from exc
    rows = []
    for i, record in enumerate(records, start=1):
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


def _sha256(raw: bytes) -> str:
    """Hex sha256 digest of raw, from CPython's own sha256 module when it has
    one: hashlib loads OpenSSL (CPython's random takes its sha512 likewise)."""
    for module in ("_sha2", "_sha256", "hashlib"):  # CPython 3.12+, CPython <= 3.11, any
        try:
            sha256 = __import__(module).sha256
        except ImportError:
            continue
        return sha256(raw).hexdigest()


def load_matrix(path: str, backend: str | None) -> tuple[DenseMatrix, str, str]:
    """Read a matrix file; returns (matrix, sha256 digest, format name).

    Format from the extension (.json / .csv), else sniffed from the first
    byte, after a UTF-8 byte-order mark if there is one; the digest is
    over the raw bytes.  --backend renders JSON input to float or lifts CSV
    to exact.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = _sha256(raw)
    try:
        text = raw.decode("utf-8-sig")
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


def _input_line(args: argparse.Namespace, fmt: str, digest: str) -> str:
    return f"input: {args.path} [{fmt}] sha256={digest[:16]}..."


# -- run reports ------------------------------------------------------------


def _identity_record(r: IdentityReport, backend) -> dict:
    fmt = (lambda v: None if v is None else backend.to_json(v))
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


def _counterexample(identity: str, idx: int, M: DenseMatrix, **detail) -> dict:
    return {
        "type": "counterexample",
        "identity": identity,
        "instance": idx,
        "matrix": matrix_to_jsonexact(M),
        **detail,
    }


def _text(r: dict) -> str:
    """The human-readable line(s) of one record.  Its scalars print as
    backend.format does: an integer or "p/q" string as it is, a float as its
    repr."""
    kind = r["type"]
    if kind == "identity":
        where = " ".join(f"{k}={r[k]}" for k in ("m", "l") if r[k])
        body = f"error: {r['error']}" if r["error"] else f"residual={r['residual']}"
        return f"{r['id']:<11}{where:<11}{body}  {'PASS' if r['passed'] else 'FAIL'}"
    if kind == "maximality":
        if r["holds"]:
            return f"{'Thm1':<11}diagonal of (I-P^T)^-1 maximal in each row  PASS"
        w = r["witness"]
        return (
            f"{'Thm1':<11}violated at row {w['row']}, col {w['col']}: "
            f"c_mm={w['diagonal']} < c_ml={w['offending']}  FAIL"
        )
    if kind == "crosscheck":
        return (
            f"start={r['start']} state={r['state']} estimate={r['estimate']:.6f} "
            f"exact={r['exact']:.6f} halfwidth={r['halfwidth']:.6f}"
            f"  {'FLAG' if r['flagged'] else 'ok'}"
        )
    if kind == "certification":
        if not r["certified"]:
            return f"certified: no — {r['error']}"
        return (
            f"certified: yes ({r['method']})\n"
            f"det(I - P^T) = {r['det_I_minus_Pt']}\n"
            f"spectral radius estimate = {r['spectral_radius_estimate']:.9f}"
            f" ({r['iterations']} iterations, seed {r['seed']})"
        )
    if kind == "sweep":
        return (
            f"instances checked: {r['count']} per family ({', '.join(r['families'])})\n"
            f"counterexamples: {r['counterexamples']}"
        )
    import json

    return json.dumps(r, indent=2)  # counterexample


def _finish(args, command, digest, backend, ok, t0, records, head, tail) -> int:
    """Print the header lines, the text of each record and the footer lines,
    then under --json the run report, timed from t0 (null when t0 is None);
    the exit code follows ok."""
    report = {
        "command": command,
        "input_digest": digest,
        "backend": backend,
        "overall_pass": ok,
        "wall_time_s": None if t0 is None else time.perf_counter() - t0,
        "reports": records,
    }
    for line in (*head, *map(_text, records), *tail):
        print(line)
    if args.json:
        import json

        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return EXIT_PASS if ok else EXIT_FAIL


# -- check ------------------------------------------------------------------


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _substochastic(M: DenseMatrix, needed_by: str | None) -> SubstochasticMatrix | None:
    """M certified substochastic, else None; when the command needed_by needs
    it, validate_substochastic's error is raised as a CertificationError."""
    from .substochastic import validate_substochastic

    try:
        return validate_substochastic(M)
    except ValidationError as exc:
        if needed_by:
            raise CertificationError(
                f"{needed_by} needs a certified substochastic matrix: {type(exc).__name__}: {exc}"
            ) from exc


def cmd_check(args: argparse.Namespace) -> int:
    from .substochastic import (
        det_I_minus_Pt_positive,
        spectral_radius_estimate,
        validate_substochastic,
    )

    t0 = time.perf_counter()
    if args.iterations < 1:
        return _usage_error("--iterations must be >= 1")
    M, digest, fmt = load_matrix(args.path, args.backend)
    backend = M.backend
    try:
        P = validate_substochastic(M)
    except ValidationError as exc:
        error = f"{type(exc).__name__}: {exc}"
        record = {"type": "certification", "certified": False, "error": error}
    else:
        record = {
            "type": "certification",
            "certified": True,
            "method": P.certification.value,
            "det_I_minus_Pt": backend.to_json(det_I_minus_Pt_positive(P)),
            "spectral_radius_estimate": spectral_radius_estimate(M, args.iterations, args.seed),
            "iterations": args.iterations,
            "seed": args.seed,
        }
    ok = record["certified"]
    head = [_input_line(args, fmt, digest), f"matrix: {M.n_rows}x{M.n_cols}, backend={backend.name}"]
    tail = ["PASS" if ok else "FAIL"]
    return _finish(args, f"check {args.path}", digest, backend.name, ok, t0, [record], head, tail)


# -- verify -----------------------------------------------------------------


def _wanted_ids(flag: str, mode: str) -> set[str]:
    if flag != "all":
        return {flag}
    if mode == "substochastic":
        return set(SUBSTOCHASTIC_IDENTITIES) | set(GENERAL_IDENTITIES)
    return set(GENERAL_IDENTITIES)


def _records(instance, backend, wanted, tol=None, m=None, l=None, failed_only=False):
    """The Thm1 maximality record when thm1 is wanted (on a substochastic
    instance), then the records of the other wanted identities' reports at
    the --m/--l indices; verify_all runs only when there are such.  With
    failed_only, only the records of failed checks are built."""
    records = []
    if "thm1" in wanted:
        from .substochastic import check_diagonal_maximality

        rep = check_diagonal_maximality(instance)
        w = rep.witness
        witness = w and {
            "row": w.row,
            "col": w.col,
            "diagonal": backend.to_json(w.diagonal_value),
            "offending": backend.to_json(w.offending_value),
        }
        if not (failed_only and rep.holds):
            records.append({"type": "maximality", "holds": rep.holds, "witness": witness})
    if wanted - {"thm1"}:
        from .identities import verify_all

        records += [
            _identity_record(r, backend)
            for r in verify_all(instance, tol)
            if not (failed_only and r.passed)
            and r.identity.name.partition("_")[0].lower() in wanted  # THM2_FIRST is thm2's
            and (m is None or r.m in (None, m))
            and (l is None or r.l in (None, l))
        ]
    return records


def cmd_verify(args: argparse.Namespace) -> int:
    import math

    t0 = time.perf_counter()
    tol = args.tol
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        return _usage_error("--tol must be finite and >= 0")
    M, digest, fmt = load_matrix(args.path, args.backend)
    backend = M.backend
    instance = None
    if args.identity in (*SUBSTOCHASTIC_IDENTITIES, "all"):  # all falls back to general mode
        instance = _substochastic(M, None if args.identity == "all" else args.identity)
    mode = "substochastic" if instance is not None else "general"
    wanted = _wanted_ids(args.identity, mode)
    for flag, index in (("--m", args.m), ("--l", args.l)):
        if index is not None and not 1 <= index <= M.n_rows:
            return _usage_error(f"{flag} must be in 1..{M.n_rows}")
    if args.m is not None and args.m == args.l and wanted <= PAIR_IDENTITIES:
        return _usage_error(f"--identity {args.identity} has no check with m == l")
    # the header goes out before certify_general, whose failure exits 2 after it
    print(_input_line(args, fmt, digest))
    print(f"matrix: {M.n_rows}x{M.n_cols}, backend={backend.name}, mode={mode}")
    if mode == "general":
        from .identities import certify_general

        try:
            instance = certify_general(M)
        except SingularSubmatrix as exc:
            raise CertificationError(
                f"matrix fails the nonzero-minor certificate: {exc}"
            ) from exc
    records = _records(instance, backend, wanted, tol, args.m, args.l)
    if not records:  # every general identity needs n >= 2
        return _usage_error(f"--identity {args.identity} has no check on a 1x1 {mode} matrix")
    ok = all(r.get("passed", r.get("holds")) for r in records)
    command = f"verify {args.path} --identity {args.identity}"
    footer = f"overall: {'PASS' if ok else 'FAIL'} ({len(records)} checks)"
    return _finish(args, command, digest, backend.name, ok, t0, records, [], [footer])


# -- falsify ----------------------------------------------------------------


def _parse_n_range(text: str) -> range:
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
    return range(lo, hi + 1)  # not a list, so gen refuses a long range without building it


def _genspec(args) -> GenSpec:
    """The run's GenSpec, at the first --n and at --seed; a bad generator
    flag raises ValueError."""
    from fractions import Fraction

    from .generators import GenSpec

    for flag in ("density", "max_row_sum", "denominator_bound"):
        if not _within_entry_bound(str(getattr(args, flag))):
            raise ValueError(f"--{flag.replace('_', '-')} is past the {MAX_ENTRY_DIGITS} bound")
    try:
        density, max_row_sum = Fraction(args.density), Fraction(args.max_row_sum)
    except ZeroDivisionError:
        raise ValueError("--density or --max-row-sum has a zero denominator") from None
    return GenSpec(args.n[0], args.seed, density, max_row_sum, args.denominator_bound)


def _falsify(args, spec: GenSpec, families: list[str], indices) -> tuple[list, tuple | None]:
    """The counterexamples on the instances `indices` of each family, in
    order.  It stops at the first index that raises and returns (index,
    error) too, for the caller to raise the error of the least index."""
    from .generators import GenSpec, derive_seed, gen_general, gen_substochastic

    found = []
    for idx in indices:
        try:
            for family in families:
                seed = derive_seed(args.seed, 2 * idx + (family == "general"))
                # spec[2:] is (density, max_row_sum, denominator_bound)
                instance_spec = GenSpec(args.n[idx % len(args.n)], seed, *spec[2:])
                if family == "substochastic":
                    instance = gen_substochastic(instance_spec)
                    M = instance.P
                else:
                    instance = gen_general(instance_spec)
                    M = instance.B
                wanted = _wanted_ids(args.identity, family)
                for r in _records(instance, M.backend, wanted, failed_only=True):
                    if r["type"] == "maximality":
                        found.append(_counterexample("Thm1", idx, M, witness=r["witness"]))
                    else:
                        found.append(_counterexample(r["id"], idx, M, report=r))
        except Exception as exc:
            return found, (idx, exc)
    return found, None


def cmd_falsify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.count < 1:
        return _usage_error("--count must be >= 1")
    if args.n == range(1, 2) and args.identity not in ("thm1", "all"):  # n >= 2 for the rest
        return _usage_error(f"--identity {args.identity} has no check at n = 1")
    try:
        spec = _genspec(args)
    except ValueError as exc:
        return _usage_error(f"bad generator flags: {exc}")
    families = [  # each with the least n at which it has a check
        family
        for family, ids, least_n in (
            ("substochastic", SUBSTOCHASTIC_IDENTITIES, 1),
            ("general", GENERAL_IDENTITIES, 2),
        )
        if args.identity in (*ids, "all") and args.n[-1] >= least_n
    ]
    if args.identity != "thm1":  # loaded before the fork, not in each worker
        from . import identities  # noqa: F401
    from .workers import forked_map

    # both families of an index go to one process, so each process gets every n alike
    shares = forked_map(lambda share: _falsify(args, spec, families, share), range(args.count))
    first = min((error for _, error in shares if error), key=lambda error: error[0], default=None)
    if first:  # the error a loop over the instances in order meets
        raise first[1]
    counterexamples = sorted((ce for found, _ in shares for ce in found), key=lambda ce: ce["instance"])
    summary = {
        "type": "sweep",
        "identity": args.identity,
        "n_values": list(args.n),
        "count": args.count,
        "seed": args.seed,
        "families": families,
        "counterexamples": len(counterexamples),
    }
    command = f"falsify --identity={args.identity} --count={args.count} --seed={args.seed}"
    ok = not counterexamples
    head = [
        f"falsify: identity={args.identity} n={args.n[0]}..{args.n[-1]} "
        f"count={args.count} seed={args.seed} density={args.density} "
        f"max_row_sum={args.max_row_sum} denominator_bound={args.denominator_bound}"
    ]
    tail = ["PASS" if ok else "FAIL"]
    # no t0, so no wall time in the report: identical flags give identical bytes
    code = _finish(args, command, None, "exact", ok, None, [summary, *counterexamples], head, tail)
    print(f"elapsed: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


# -- simulate ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    import math

    t0 = time.perf_counter()
    for bad, message in (
        (args.trials < 1, "--trials must be >= 1"),
        (args.cap < 1, "--cap must be >= 1"),
        (not (math.isfinite(args.sigma) and args.sigma > 0), "--sigma must be finite and > 0"),
    ):
        if bad:
            return _usage_error(message)
    M, digest, fmt = load_matrix(args.path, args.backend)
    from . import kernels
    from .montecarlo import crosscheck_fundamental

    if M.n_rows > kernels.MAX_STATES:  # before certifying and inverting I - P
        return _usage_error(
            f"simulate walks at most {kernels.MAX_STATES} states; the matrix has {M.n_rows}"
        )
    sub = _substochastic(M, "simulate")
    rep = crosscheck_fundamental(sub, args.trials, args.seed, args.sigma, args.cap)
    print(
        f"walks: {rep.walks}, moves: {rep.moves}, longest walk: {rep.longest_walk} moves, "
        f"cap hits: {rep.cap_exceeded}",
        file=sys.stderr,
    )
    records = [{"type": "crosscheck", **c._asdict()} for c in rep.cells]
    command = f"simulate {args.path} --trials {args.trials} --seed {args.seed}"
    head = [
        _input_line(args, fmt, digest),
        f"simulate: trials={args.trials} seed={args.seed} sigma={args.sigma} cap={args.cap}",
    ]
    tail = [
        f"flags: {len(rep.flags)}, cap_exceeded: {rep.cap_exceeded}",
        "PASS" if rep.passed else "FAIL",
    ]
    return _finish(args, command, digest, "float", rep.passed, t0, records, head, tail)


# -- gen --------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    from .generators import gen_general, gen_substochastic

    t0 = time.perf_counter()
    if args.n[-1] != args.n[0]:  # len() overflows past 2**63 - 1 dimensions
        return _usage_error("gen takes a single dimension, not a range")
    try:
        spec = _genspec(args)
    except ValueError as exc:
        return _usage_error(f"bad generator flags: {exc}")
    if args.kind == "substochastic":
        M = gen_substochastic(spec).P
    else:
        M = gen_general(spec).B
    payload = dump_jsonexact(M)
    try:  # write only what the CLI reads back
        _parse_jsonexact(payload)
    except ParseError as exc:
        return _usage_error(f"bad generator flags: the instance cannot be read back: {exc}")
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
    p.add_argument("--n", type=_parse_n_range, default=range(4, 5), help="dimension INT or range A..B")
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
    # before any command imports numpy: OpenBLAS would start a thread pool that
    # no command uses (simulate forks its walk workers instead); a set value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    # exact values derived from bounded entries (det(I - P^T) at large n) can
    # pass Python's limit on int-to-str digits (3.10.7+); the parser bounds input
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
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
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
