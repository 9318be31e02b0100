"""Command-line front end: the parser, main and the exit codes.

Each subcommand (check, verify, falsify, simulate, gen) is the run(args) of
substoch.commands.<name>, which main imports once the command line parses.
Exit codes: 0 all passed, 1 check/verification failed, 2 usage/certification
error, 3 I/O or parse error.  falsify and gen embed no timing in their
reports, so identical flags reproduce byte-identical output.
"""

# Only the parser's and main's own needs are imported here, so that --help
# and usage errors compile this module alone: errors and the command's module
# load after parse_args, and a command loads the helper modules it calls.
import argparse
import os
import sys

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

GENERAL_IDENTITIES = ("lemma1", "lemma2", "eq13", "eq17", "eq20", "eq21")
SUBSTOCHASTIC_IDENTITIES = ("thm1", "thm2")
IDENTITY_CHOICES = SUBSTOCHASTIC_IDENTITIES + GENERAL_IDENTITIES + ("all",)
# every check of these identities has m != l
PAIR_IDENTITIES = {"lemma1", "eq20", "eq21"}
# the largest --n dimension and --count, both far past any run; past them a
# range could not be listed (falsify's n_values) nor counted (len() < 2**63)
MAX_N = 1000
MAX_COUNT = 10**9

# home modules of the names read as substoch.cli.<name> from outside the
# package; any other name, a dunder looked up at start-up too, loads nothing
_MOVED = {"dump_jsonexact": "matrixio", "load_matrix": "matrixio"}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{_MOVED[name]}", fromlist=[name]), name)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_n_range(text: str) -> range:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--n expects INT or A..B, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad dimension range {text!r}")
    if hi > MAX_N:
        raise argparse.ArgumentTypeError(f"dimensions are at most {MAX_N}, got {text!r}")
    return range(lo, hi + 1)


def _parse_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:  # argparse's own message for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count > MAX_COUNT:  # a count below 1 is the command's usage error
        raise argparse.ArgumentTypeError(f"at most {MAX_COUNT}, got {text!r}")
    return count


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

    p = sub.add_parser("verify", help="evaluate identity residuals on a matrix file")
    p.add_argument("path")
    p.add_argument("--identity", choices=IDENTITY_CHOICES, default="all")
    add_backend(p)
    p.add_argument("--tol", type=float, default=None, help="float-backend tolerance (default 1e-9)")
    p.add_argument("--m", type=int, default=None, help="restrict to this m index")
    p.add_argument("--l", type=int, default=None, help="restrict to this l index")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("falsify", help="randomized counterexample search (exact backend)")
    p.add_argument("--identity", choices=IDENTITY_CHOICES, required=True)
    p.add_argument("--n", type=_parse_n_range, default=range(4, 5), help="dimension INT or range A..B")
    p.add_argument("--count", type=_parse_count, required=True, help="instances per family")
    p.add_argument("--seed", type=int, required=True)
    add_genspec(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="Monte-Carlo cross-check of (I-P)^-1")
    p.add_argument("path")
    add_backend(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sigma", type=float, default=4.0, help="flag threshold in half-widths")
    p.add_argument("--cap", type=int, default=10**6, help="max moves per walk")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="write a reproducible instance as JsonExact")
    p.add_argument("--kind", choices=("substochastic", "general"), default="substochastic")
    p.add_argument("--n", type=_parse_n_range, required=True, help="dimension")
    p.add_argument("--seed", type=int, required=True)
    add_genspec(p)
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def main(argv=None) -> int:
    # before any command imports numpy: OpenBLAS would start a thread pool that
    # no command uses (simulate forks its walk workers instead); a set value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    from .errors import CertificationError, GenerationExhausted, ParseError, SubstochError

    command = __import__(f"{__package__}.commands.{args.cmd}", fromlist=["run"])
    # exact values derived from bounded entries (det(I - P^T) at large n) can
    # pass Python's limit on int-to-str digits (3.10.7+); the parser bounds input
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        return command.run(args)
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
