"""substoch falsify: randomized counterexample search (exact backend)."""

import sys
import time

from ..cli import GENERAL_IDENTITIES, SUBSTOCHASTIC_IDENTITIES, _usage_error
from ..report import _counterexample, _finish, _records, _wanted_ids


def _falsify(args, families: list[str], indices) -> tuple[list, tuple | None]:
    """The counterexamples on the instances `indices` of each family, in
    order.  It stops at the first index that raises and returns (index,
    error) too, for the caller to raise the error of the least index."""
    from ..generators import GenSpec, derive_seed, gen_general, gen_substochastic

    found = []
    for idx in indices:
        try:
            for family in families:
                seed = derive_seed(args.seed, 2 * idx + (family == "general"))
                spec = GenSpec(args.n[idx % len(args.n)], seed, args.density, args.max_row_sum,
                               args.denominator_bound)
                if family == "substochastic":
                    instance = gen_substochastic(spec)
                    M = instance.P
                else:
                    instance = gen_general(spec)
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


def run(args) -> int:
    t0 = time.perf_counter()
    if args.n == range(1, 2) and args.identity not in ("thm1", "all"):  # n >= 2 for the rest
        return _usage_error(f"--identity {args.identity} has no check at n = 1")
    families = [  # each with the least n at which it has a check
        family
        for family, ids, least_n in (
            ("substochastic", SUBSTOCHASTIC_IDENTITIES, 1),
            ("general", GENERAL_IDENTITIES, 2),
        )
        if args.identity in (*ids, "all") and args.n[-1] >= least_n
    ]
    # what the workers run is loaded before the fork, not in each of them
    from .. import generators  # noqa: F401
    if args.identity != "thm1":
        from .. import identities  # noqa: F401
    from ..workers import forked_map

    # both families of an index go to one process, so each process gets every n alike
    shares = forked_map(lambda share: _falsify(args, families, share), range(args.count))
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
