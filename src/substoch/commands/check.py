"""substoch check: certify a matrix file as substochastic."""

import time

from ..errors import ValidationError
from ..matrixio import load_matrix
from ..report import _finish, _input_line


def run(args) -> int:
    from ..substochastic import det_I_minus_Pt_positive, spectral_radius_estimate, validate_substochastic

    t0 = time.perf_counter()
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
