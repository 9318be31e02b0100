"""substoch verify: evaluate identity residuals on a matrix file."""

import time

from ..cli import PAIR_IDENTITIES, SUBSTOCHASTIC_IDENTITIES, _usage_error
from ..errors import CertificationError, SingularSubmatrix
from ..matrixio import load_matrix
from ..report import _finish, _input_line, _records, _substochastic, _wanted_ids


def run(args) -> int:
    t0 = time.perf_counter()
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
        from ..identities import certify_general

        try:
            instance = certify_general(M)
        except SingularSubmatrix as exc:
            raise CertificationError(f"matrix fails the nonzero-minor certificate: {exc}") from exc
    records = _records(instance, backend, wanted, args.tol, args.m, args.l)
    if not records:  # every general identity needs n >= 2
        return _usage_error(f"--identity {args.identity} has no check on a 1x1 {mode} matrix")
    ok = all(r.get("passed", r.get("holds")) for r in records)
    command = f"verify {args.path} --identity {args.identity}"
    footer = f"overall: {'PASS' if ok else 'FAIL'} ({len(records)} checks)"
    return _finish(args, command, digest, backend.name, ok, t0, records, [], [footer])
