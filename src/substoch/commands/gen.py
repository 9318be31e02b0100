"""substoch gen: write a reproducible instance as JsonExact."""

import sys
import time

from ..cli import EXIT_PASS, _usage_error
from ..errors import ParseError
from ..matrixio import _parse_jsonexact, dump_jsonexact


def run(args) -> int:
    from ..generators import GenSpec, gen_general, gen_substochastic

    t0 = time.perf_counter()
    spec = GenSpec(args.n[0], args.seed, args.density, args.max_row_sum, args.denominator_bound)
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
