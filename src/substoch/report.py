"""The records each command prints, one text line or block per record, and
the run report that --json adds."""

from __future__ import annotations

import sys
import time

from .cli import EXIT_FAIL, EXIT_PASS, GENERAL_IDENTITIES, SUBSTOCHASTIC_IDENTITIES
from .errors import CertificationError, ValidationError


def _input_line(args, fmt: str, digest: str) -> str:
    return f"input: {args.path} [{fmt}] sha256={digest[:16]}..."


def _identity_record(r: IdentityReport, backend) -> dict:
    fmt = (lambda v: None if v is None else backend.to_json(v))
    return {
        "type": "identity", "id": r.identity.label, "m": r.m, "l": r.l,
        "lhs": fmt(r.lhs), "rhs": fmt(r.rhs), "residual": fmt(r.residual),
        "passed": r.passed, "error": r.error,
    }


def _counterexample(identity: str, idx: int, M: DenseMatrix, **detail) -> dict:
    from .matrixio import matrix_to_jsonexact  # here, so that a passing falsify loads no matrixio

    matrix = matrix_to_jsonexact(M)
    return {"type": "counterexample", "identity": identity, "instance": idx, "matrix": matrix, **detail}


def _text(r: dict) -> str:
    """The human-readable line(s) of one record.  Its scalars print as
    their backend.to_json values do: an integer or "p/q" string as it is, a
    float as its repr."""
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
