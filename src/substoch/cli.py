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
import gc
import math
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
# the largest --n dimension and --count or --trials, both far past any run;
# past them a range could not be listed (falsify's n_values) nor counted
# (len() < 2**63)
MAX_N = 1000
MAX_COUNT = 10**9
# JsonExact entries: integers of at most this many digits, strings of at most
# this many characters whose decimal exponent is at most this in magnitude;
# generator flags are held to it too
MAX_ENTRY_DIGITS = 1000

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


def _within_entry_bound(cell: str) -> bool:
    # an exponent that is no integer is left for Fraction to reject
    _, e, exponent = cell.lower().partition("e")
    try:
        return len(cell) <= MAX_ENTRY_DIGITS and not (e and abs(int(exponent)) > MAX_ENTRY_DIGITS)
    except ValueError:
        return True


def _rational(text: str):
    """Fraction(text), for a text within the entry bound."""
    from fractions import Fraction  # here, so that --help does not load it

    if not _within_entry_bound(text):
        raise ValueError(text)
    return Fraction(text)


def _flag(convert, holds, expects: str):
    """An argparse type: convert(text), for a value that `holds` accepts;
    any other text is a usage error saying what the flag `expects`."""

    def parse(text: str):
        try:
            value = convert(text)
            if holds(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"expects {expects}, got {text!r}")

    return parse


def _n_range(text: str) -> range:
    """INT or A..B as the range of the dimensions it names."""
    lo, dots, hi = text.partition("..")
    return range(int(lo), int(hi if dots else lo) + 1)


# the argparse type of each flag whose range is known before any file is read:
# a value outside it exits 2 through argparse, before any library module loads
_COUNT = _flag(int, lambda v: 1 <= v <= MAX_COUNT, f"an integer in 1..{MAX_COUNT}")
_POSITIVE = _flag(int, lambda v: v >= 1, "an integer >= 1")
_TOL = _flag(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_SIGMA = _flag(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_N_RANGE = _flag(_n_range, lambda r: 1 <= r.start < r.stop <= MAX_N + 1, f"INT or A..B in 1..{MAX_N}")
_DIMENSION = _flag(_n_range, lambda r: 1 <= r.start == r.stop - 1 <= MAX_N, f"one dimension in 1..{MAX_N}")
# --density and --max-row-sum keep their text, which falsify's header shows
_DENSITY = _flag(str, lambda t: 0 <= _rational(t) <= 1, "a rational in [0, 1] within the entry bound")
_MAX_ROW_SUM = _flag(str, lambda t: 0 < _rational(t) <= 1, "a rational in (0, 1] within the entry bound")
_DENOMINATOR = _flag(int, lambda v: 1 <= v < 10**MAX_ENTRY_DIGITS, "an integer >= 1 within the entry bound")


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
        p.add_argument("--density", type=_DENSITY, default="1",
                       help="keep-probability per entry (fraction or decimal)")
        p.add_argument("--max-row-sum", type=_MAX_ROW_SUM, default="1",
                       help="upper bound for row sums, in (0,1]")
        p.add_argument("--denominator-bound", type=_DENOMINATOR, default=16, help="entry grid denominator")

    p = sub.add_parser("check", help="certify a matrix file as substochastic")
    p.add_argument("path")
    add_backend(p)
    p.add_argument("--iterations", type=_POSITIVE, default=200, help="power-iteration steps")
    p.add_argument("--seed", type=int, default=0, help="start-vector seed for the estimate")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="evaluate identity residuals on a matrix file")
    p.add_argument("path")
    p.add_argument("--identity", choices=IDENTITY_CHOICES, default="all")
    add_backend(p)
    p.add_argument("--tol", type=_TOL, default=None, help="float-backend tolerance (default 1e-9)")
    p.add_argument("--m", type=int, default=None, help="restrict to this m index")
    p.add_argument("--l", type=int, default=None, help="restrict to this l index")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("falsify", help="randomized counterexample search (exact backend)")
    p.add_argument("--identity", choices=IDENTITY_CHOICES, required=True)
    p.add_argument("--n", type=_N_RANGE, default=range(4, 5), help="dimension INT or range A..B")
    p.add_argument("--count", type=_COUNT, required=True, help="instances per family")
    p.add_argument("--seed", type=int, required=True)
    add_genspec(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="Monte-Carlo cross-check of (I-P)^-1")
    p.add_argument("path")
    add_backend(p)
    p.add_argument("--trials", type=_COUNT, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sigma", type=_SIGMA, default=4.0, help="flag threshold in half-widths")
    p.add_argument("--cap", type=_POSITIVE, default=10**6, help="max moves per walk")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="write a reproducible instance as JsonExact")
    p.add_argument("--kind", choices=("substochastic", "general"), default="substochastic")
    p.add_argument("--n", type=_DIMENSION, required=True, help="dimension")
    p.add_argument("--seed", type=int, required=True)
    add_genspec(p)
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def main(argv=None) -> int:
    # before any command imports numpy: OpenBLAS would start a thread pool that
    # no command uses (simulate forks its walk workers instead); a set value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    from .errors import CertificationError, ParseError, SubstochError

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
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SubstochError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        set_limit(limit)


def entry() -> int:
    """main() for a process that exits after it: python -m substoch, python
    -m substoch.cli and the console script.  gc.freeze() spares CPython's
    teardown from collecting every module's objects one by one; atexit, the
    flush of stdout and stderr and the exit code stay as they are.  main()
    never freezes, so an in-process caller's garbage is still collected."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    # python -m substoch.cli: the commands' imports of substoch.cli find this
    # module, rather than compile and run a second copy of it
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(entry())
