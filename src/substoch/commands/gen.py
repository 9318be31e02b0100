"""substoch gen: write a reproducible instance as JsonExact."""

import sys
import time

from ..cli import EXIT_PASS, _usage_error
from ..errors import ParseError
from ..matrixio import _genspec, _parse_jsonexact, dump_jsonexact


def run(args) -> int:
    from ..generators import gen_general, gen_substochastic

    t0 = time.perf_counter()
    if len(args.n) > 1:
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
