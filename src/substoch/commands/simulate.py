"""substoch simulate: Monte-Carlo cross-check of (I-P)^-1."""

import sys
import time

from ..cli import _usage_error
from ..matrixio import load_matrix
from ..report import _finish, _input_line, _substochastic


def run(args) -> int:
    t0 = time.perf_counter()
    M, digest, fmt = load_matrix(args.path, args.backend)
    from .. import kernels
    from ..montecarlo import crosscheck_fundamental

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
