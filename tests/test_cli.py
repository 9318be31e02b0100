import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import substoch
from substoch import IdentityId, IdentityReport, gen_general, gen_substochastic, generators
from substoch import cli, identities, matrixio, report, substochastic
from substoch.cli import main
from substoch.errors import NegativeEntry, ValidationError
from substoch.generators import GenSpec
from substoch.matrixio import MAX_ENTRY_DIGITS, dump_jsonexact
from substoch.scalars import EXACT, ExactScalars
from substoch.substochastic import MaximalityReport, MaximalityWitness

from .forking import fake_cpus, fork_counter

GOOD_JSON = '{"n": 2, "entries": [[0, "1/2"], ["1/2", 0]]}\n'
PERM_JSON = '{"n": 2, "entries": [[0, 1], [1, 0]]}\n'
P_JSON = '{"n": 2, "entries": [["1/2", "1/4"], ["1/3", "1/3"]]}\n'
ZERO_JSON = '{"n": 3, "entries": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}\n'
TRIDIAG_JSON = '{"n": 3, "entries": [[2, 1, 0], [1, 2, 1], [0, 1, 2]]}\n'
TRIDIAG4_JSON = '{"n": 4, "entries": [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]}\n'
BAD_CSV = "0.5,0.6\n0.1,0.2\n"
GOOD_CSV = "0.25,0.5\n0.125,0.25\n"
ROW_SUM_JSON = '{"n": 2, "entries": [["1/2", "3/4"], [0, "1/2"]]}\n'


def flag_error(capsys, argv) -> str:
    """What argparse says of the flag that is argv's last but one word: main
    exits 2 before a command runs, with nothing on stdout and a last stderr
    line that names the flag."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    prefix = f"substoch {argv[0]}: error: argument {argv[-2]}: "
    last = captured.err.splitlines()[-1]
    assert last.startswith(prefix)
    return last[len(prefix):]


def home(name):
    """The module that defines the library function `name`; the CLI reads
    it from there when it runs, so a fake is set there."""
    return sys.modules[getattr(substoch, name).__module__]


@pytest.fixture
def write(tmp_path):
    def _write(name, content):
        p = tmp_path / name
        if isinstance(content, bytes):
            p.write_bytes(content)
        else:
            p.write_text(content)
        return str(p)

    return _write


# -- check --------------------------------------------------------------------


def test_check_certified(write, capsys):
    code = main(["check", write("p.json", GOOD_JSON)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified: yes (RowSumStrict)" in out
    assert "det(I - P^T) = 3/4" in out
    assert out.rstrip().endswith("PASS")


def test_check_takes_det_of_i_minus_p_not_its_transpose(write, monkeypatch):
    # det(I - P^T) = det(I - P); each row of I - P lifts with its own lcm,
    # where the rows of I - P^T, P's columns, mix unrelated denominators
    real, seen = substoch.substochastic.determinant, []
    monkeypatch.setattr(substoch.substochastic, "determinant", lambda M: seen.append(M) or real(M))
    assert main(["check", write("p.json", P_JSON)]) == 0
    P = substoch.DenseMatrix.from_rows(json.loads(P_JSON)["entries"])
    assert seen == [substoch.identity_minus(P)]


def test_check_spectral_radius_failure(write, capsys):
    code = main(["check", write("p.json", PERM_JSON)])
    out = capsys.readouterr().out
    assert code == 1
    assert "SpectralRadiusNotLessThanOne" in out
    assert "(some state reaches no row summing below 1)" in out


@pytest.mark.parametrize("name, content", [("p.csv", GOOD_CSV), ("p.json", GOOD_JSON), ("p", GOOD_JSON)])
def test_check_reads_past_a_utf8_byte_order_mark(write, capsys, name, content):
    # spreadsheet tools often start a CSV with one; the digest stays over the raw bytes
    raw = b"\xef\xbb\xbf" + content.encode()
    assert main(["check", write("plain-" + name, content)]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(["check", write(name, raw)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"sha256={hashlib.sha256(raw).hexdigest()[:16]}..." in out[0]
    assert out[1:] == plain[1:]


@pytest.mark.parametrize(
    "content",
    [b"", b"\xef\xbb\xbf" + GOOD_JSON.encode(), GOOD_JSON.encode() + b" " * (1 << 20)],
    ids=["empty", "bom", "1MiB"],
)
def test_file_digest_equals_hashlib_sha256(write, content):
    # load_matrix takes sha256 from CPython's own module rather than hashlib
    path = write("p.json", content)
    expected = hashlib.sha256(content).hexdigest()
    assert matrixio._sha256(content) == expected
    if content:
        assert matrixio.load_matrix(path, None)[1] == expected


def test_check_csv_row_sum(write, capsys):
    code = main(["check", write("p.csv", BAD_CSV)])
    out = capsys.readouterr().out
    assert code == 1
    assert "RowSumExceedsOne" in out and "row 1" in out


def test_check_csv_row_sum_decided_exactly(write, capsys):
    # the doubles 0.5 and 0.5000000000000001 sum to exactly 1 + 2**-53,
    # which a float sum rounds to 1.0
    code = main(["check", write("p.csv", "0.5,0.5000000000000001\n0,0.5\n")])
    out = capsys.readouterr().out
    assert code == 1
    assert "RowSumExceedsOne" in out and "row 1" in out


# certified exactly, with exact det(I - P) = 2**-55; row 2 is row 3 times 1 - 2**-34
NEAR_SINGULAR_CSV = (
    "0.22441071624787942,0.0,0.7755892837521206\n0.9999999999417923,0.0,0.0\n1.0,0.0,0.0\n"
)
# certified exactly, exact N >= 0 with max N about 2.2e7; in doubles N_14 is -3.8e-11
ROUNDED_NEGATIVE_N_CSV = (
    "0.5961180412741173,0.0,0.40388157355403154,0.0\n"
    "0.18163976073555235,0.20338440168156116,0.4692462612531383,0.1457295763297482\n"
    "0.04773787787573456,0.0,0.9522621221242654,0.0\n"
    "0.7104958253901198,0.0,0.15580078773781195,0.13370338687206826\n"
)


def test_check_float_prints_the_rounded_det_of_a_certified_input(write, capsys):
    # det(I - P^T) > 0 is checked on exact values only; on floats check
    # prints what the elimination gives, here 0.0
    path = write("p.csv", NEAR_SINGULAR_CSV)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "certified: yes (MMatrixCertified)" in out and "det(I - P^T) = 0.0\n" in out
    assert main(["check", path, "--backend", "exact"]) == 0
    assert "det(I - P^T) = 1/36028797018963968\n" in capsys.readouterr().out


@pytest.mark.parametrize("iterations", ["0", "-3"])
def test_check_iterations_usage_error(write, capsys, iterations):
    argv = ["check", write("p.json", GOOD_JSON), "--iterations", iterations]
    assert flag_error(capsys, argv) == f"expects an integer >= 1, got '{iterations}'"


@pytest.mark.parametrize(
    "command, flags, first",
    [
        ("check", [], {"type": "certification", "det_I_minus_Pt": "3/4"}),
        ("verify", [], {"type": "maximality"}),
        ("simulate", ["--trials", "2000", "--seed", "11"], {"type": "crosscheck"}),
    ],
    ids=["check", "verify", "simulate"],
)
def test_json_report_schema(write, capsys, command, flags, first):
    code = main([command, write("p.json", GOOD_JSON), *flags, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{") :])
    assert list(payload) == [
        "command",
        "input_digest",
        "backend",
        "overall_pass",
        "wall_time_s",
        "reports",
    ]
    assert payload["overall_pass"] is True
    # timed from the command's start; only falsify writes null
    assert type(payload["wall_time_s"]) is float and payload["wall_time_s"] >= 0
    assert first.items() <= payload["reports"][0].items()


@pytest.mark.parametrize(
    "entry",
    [
        '"1e-200000"',
        f'"1e{MAX_ENTRY_DIGITS + 1}"',
        f'"1/{"3" * MAX_ENTRY_DIGITS}"',
        "7" * (MAX_ENTRY_DIGITS + 1),
        "7" * 5000,  # past Python's own int-parsing limit
    ],
    ids=[
        "exponent_200000", "exponent_past_bound", "long_string", "long_int", "int_past_str_limit"
    ],
)
def test_entry_beyond_bound_is_parse_error(write, capsys, entry):
    path = write("big.json", f'{{"n": 2, "entries": [[{entry}, 0], [0, "1/2"]]}}')
    for command in ("check", "verify"):
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error: ") and captured.out == ""


def test_check_prints_values_past_int_str_limit(write, capsys):
    # entries inside the bound whose det(I - P^T) has about 5,000 digits
    diag = [["0"] * 5 for _ in range(5)]
    for i in range(5):
        diag[i][i] = f"1e-{MAX_ENTRY_DIGITS - 1}"
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    code = main(["check", write("p.json", json.dumps({"n": 5, "entries": diag})), "--json"])
    out = capsys.readouterr().out
    assert code == 0 and get_limit() == limit
    det = json.loads(out[out.index("{") :])["reports"][0]["det_I_minus_Pt"]
    assert len(det) > 2 * 4300


def test_check_float_backend_flag(write, capsys):
    code = main(["check", write("p.json", GOOD_JSON), "--backend", "float"])
    out = capsys.readouterr().out
    assert code == 0 and "backend=float" in out


# -- verify -------------------------------------------------------------------


def test_verify_general_identity_matrix(write, capsys):
    code = main(["verify", write("eye.json", '{"n": 3, "entries": [[1,0,0],[0,1,0],[0,0,1]]}')])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=general" in out
    assert "overall: PASS (27 checks)" in out


def test_verify_substochastic_example(write, capsys):
    code = main(["verify", write("p.json", P_JSON)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=substochastic" in out
    assert "Thm1" in out and "Thm2First" in out and "Thm2Second" in out
    assert "FAIL" not in out


def test_verify_identity_filter_and_index_filter(write, capsys):
    code = main(
        ["verify", write("t.json", TRIDIAG_JSON), "--identity", "eq13", "--m", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("Eq13")]
    assert len(lines) == 1 and "m=2" in lines[0]
    assert "Lemma1" not in out


@pytest.mark.parametrize(
    "flags",
    [
        ["--identity", "eq13", "--m", "99"],
        ["--identity", "eq20", "--l", "0"],
        ["--identity", "lemma1", "--m", "1", "--l", "1"],
    ],
)
def test_verify_index_filter_selecting_nothing_usage_error(write, capsys, flags):
    code = main(["verify", write("t.json", TRIDIAG4_JSON), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.out == ""


def test_verify_1x1_general_has_no_check(write, capsys):
    code = main(["verify", write("one.json", '{"n": 1, "entries": [["3"]]}')])
    captured = capsys.readouterr()
    assert code == 2
    assert "no check" in captured.err and "overall" not in captured.out


# sha256 of `verify --identity all --json` stdout on gen instances (kind,
# spec), with the input path written as P.json and the wall_time_s line
# dropped: an elimination-kernel change that moves one exact byte fails here
GOLDEN_VERIFY = {
    "general": ("general", GenSpec(n=8, seed=7),
                "c28822ce92b79212fe34fdb91e4fa42ee997a48dc62edcb046f060fd00737f02"),
    "substochastic": ("substochastic", GenSpec(n=8, seed=7),
                      "21475401dd0b5cf4906d71ff7f6938301b3d1b9c6e3a5fd3db0ef55755846a7a"),
    # `gen --kind general --n 6 --seed 7 --denominator-bound 1000000`: mixed
    # signs and 20-bit denominators
    "general 20-bit": ("general", GenSpec(n=6, seed=7, denominator_bound=1000000),
                       "3384a919dc0c4d737267cc15c03fe9be0596ea3909d9c14434f33ecf41c52636"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_VERIFY))
def test_verify_json_matches_golden_digest(tmp_path, capsys, case):
    kind, spec, digest = GOLDEN_VERIFY[case]
    M = gen_substochastic(spec).P if kind == "substochastic" else gen_general(spec).B
    path = tmp_path / "P.json"
    path.write_text(dump_jsonexact(M))
    assert main(["verify", str(path), "--identity", "all", "--json"]) == 0
    assert _golden_digest(capsys.readouterr().out, path) == digest


def _golden_digest(out: str, path) -> str:
    out = out.replace(str(path), "P.json")
    kept = "".join(ln for ln in out.splitlines(keepends=True) if '"wall_time_s"' not in ln)
    return hashlib.sha256(kept.encode()).hexdigest()


# the same digest for the text paths of the other commands: case -> (P.json,
# as literal text or the n of the gen substochastic instance at seed 7, argv,
# exit code, digest); --tol 0 gives float FAIL lines, --sigma 0.01 FLAG lines
GOLDEN_TEXT = {
    "check PASS": (8, "check P.json --json", 0,
                   "2b66f425a8904829d77b97178ff40b0917c08b9354a2478abfc56f7f842c37a8"),
    "check FAIL": (ROW_SUM_JSON, "check P.json --json", 1,
                   "83ac95520242f2de880095774321730da8acb2ae9ced1d09d4dff9b94583e410"),
    "verify float FAIL": (5, "verify P.json --backend float --tol 0", 1,
                          "0b1fe34486ea1d5f925372bd0511d98ba347ddf26838984ae1827b7519c654e1"),
    "simulate FLAG": (3, "simulate P.json --trials 2000 --seed 11 --sigma 0.01 --json", 1,
                      "6e80b6e62ca7cd377f5abbdf876278025d4f5230ed1436a81baeb48eeda4dfb7"),
    "falsify all": ("", "falsify --identity all --n 2..4 --count 5 --seed 21 --json", 0,
                    "3860ba92f778b7fe2c86da962f709a117a667d6506ef092629dc201719fce06f"),
    # the benchmark's falsify_sweep command; at density 1/2 gen_general
    # rejects candidates whose det(B) or some det(B(l|l)) is zero
    "falsify sweep": ("", "falsify --identity all --n 2..6 --count 50 --seed 51 --json", 0,
                      "67c599427f2ee6aa6206d8fec7b0200e47f92ad50ade4924b6c220c3e7b93fad"),
    "falsify sweep density 1/2": (
        "", "falsify --identity all --n 2..6 --count 50 --seed 51 --json --density 1/2", 0,
        "efa2e8910989e58a4a07ba16ec265280244417c86659108c54d952cec1b741db",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TEXT))
def test_text_matches_golden_digest(tmp_path, capsys, case):
    content, argv, code, digest = GOLDEN_TEXT[case]
    if isinstance(content, int):
        content = dump_jsonexact(gen_substochastic(GenSpec(n=content, seed=7)).P)
    path = tmp_path / "P.json"
    path.write_text(content)
    assert main([str(path) if a == "P.json" else a for a in argv.split()]) == code
    assert _golden_digest(capsys.readouterr().out, path) == digest


# a planted wrong side: every deletion solve of the inverse route returns its
# first numerator plus 1, so the Eq13/Eq20 sides that read it are wrong and
# Thm2 disagrees with them; sha256 of `verify --identity all --json` stdout
# on the gen instances at n=3, seed 7 (as GOLDEN_VERIFY), taken when each
# side was still a Fraction before its check was decided
PLANTED_VERIFY = {
    "general": "208b0da8329534ec33456e276ebf5daed9418276626f01d046cbfaf32a163c1d",
    "substochastic": "72d15d678f5be257ea1b0ef1eb5dc765e69ce9d39aeb2b69bc622fb51b895a93",
}
PLANTED_THM2_ERROR = (
    "InvariantViolation: Thm2First disagrees with its I-P specialization: "
    "(Fraction(6667, 478631), Fraction(6667, 478631)) vs "
    "(Fraction(3328, 239321), Fraction(106161893, 7636461880))"
)


def _plant_wrong_side(monkeypatch):
    real = identities.solve_column

    def planted(rows, backend):
        V, D = real(rows, backend)
        return [V[0] + 1, *V[1:]], D

    monkeypatch.setattr(identities, "solve_column", planted)


@pytest.mark.parametrize("kind", sorted(PLANTED_VERIFY))
def test_failing_exact_records_render_unchanged(tmp_path, capsys, monkeypatch, kind):
    spec = GenSpec(n=3, seed=7)
    M = gen_substochastic(spec).P if kind == "substochastic" else gen_general(spec).B
    path = tmp_path / "P.json"
    path.write_text(dump_jsonexact(M))
    _plant_wrong_side(monkeypatch)
    assert main(["verify", str(path), "--identity", "all", "--json"]) == 1
    out = capsys.readouterr().out
    records = json.loads(out[out.index('{\n  "command"') :])["reports"]
    failed = [r for r in records if r["type"] == "identity" and not r["passed"]]
    sided = [r for r in failed if r["error"] is None]
    assert sided, records
    for r in sided:
        # each value in lowest terms, the sign on its numerator
        lhs, rhs, residual = (Fraction(r[k]) for k in ("lhs", "rhs", "residual"))
        assert [r[k] for k in ("lhs", "rhs", "residual")] == [
            v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            for v in (lhs, rhs, lhs - rhs)
        ]
        assert residual != 0
    errors = {r["error"] for r in failed if r["error"]}
    if kind == "substochastic":
        assert PLANTED_THM2_ERROR in errors
    else:
        assert errors == set()
    assert _golden_digest(out, path) == PLANTED_VERIFY[kind]


def test_verify_thm1_runs_no_identity_sweep(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(identities, "verify_all", lambda *args: calls.append(args) or [])
    path = tmp_path / "P.json"
    path.write_text(dump_jsonexact(gen_substochastic(GenSpec(n=8, seed=7)).P))
    assert main(["verify", str(path), "--identity", "thm1", "--json"]) == 0
    assert calls == []
    digest = _golden_digest(capsys.readouterr().out, path)
    assert digest == "0b37cc75f4b4b4f04178659ed6dabb86c8a38ad228043fa66c2cdb3b1c0b779f"


@pytest.mark.parametrize(
    "backend, diagonal, offending, text",
    [
        ("exact", Fraction(1, 3), Fraction(1, 2), "c_mm=1/3 < c_ml=1/2"),
        ("float", 0.1, 0.30000000000000004, "c_mm=0.1 < c_ml=0.30000000000000004"),
    ],
)
def test_verify_thm1_violation_text(write, capsys, monkeypatch, backend, diagonal, offending, text):
    # the theorem holds on every input, so the violation is faked
    witness = MaximalityWitness(2, 1, diagonal, offending)
    monkeypatch.setattr(substochastic, "check_diagonal_maximality",
                        lambda P: MaximalityReport(False, witness))
    code = main(["verify", write("p.json", P_JSON), "--identity", "thm1", "--backend", backend])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"Thm1       violated at row 2, col 1: {text}  FAIL",
        "overall: FAIL (1 checks)",
    ]


def test_verify_float_csv_with_cancelling_sides(write, capsys):
    # Eq21's sides cancel terms of size |b| det(B(k|k)); the float bound
    # scales with them (this input failed 11 Eq21 reports, exit 1)
    B = gen_general(GenSpec(n=24, seed=3)).B.to_float()
    csv_text = "".join(",".join(map(repr, row)) + "\n" for row in B.rows_as_lists())
    code = main(["verify", write("b.csv", csv_text)])
    out = capsys.readouterr().out
    assert "mode=general" in out and "overall: PASS" in out
    assert code == 0


def test_verify_thm2_requires_substochastic(write, capsys):
    code = main(["verify", write("b.json", '{"n": 2, "entries": [[1, 2], [3, 4]]}'), "--identity", "thm2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "substochastic" in err


def test_verify_general_certification_error(write, capsys):
    # singular matrix cannot enter the general identity family
    code = main(["verify", write("s.json", '{"n": 2, "entries": [[1, 1], [1, 1]]}')])
    assert code == 2


@pytest.mark.parametrize(
    "command, content, header, error",
    [
        (
            ["verify", "--identity", "thm2"],
            '{"n": 2, "entries": [[1, 2], [3, 4]]}',
            False,
            "thm2 needs a certified substochastic matrix: RowSumExceedsOne: row 1 sums to 3 > 1",
        ),
        (
            ["verify", "--identity", "thm1"],
            '{"n": 2, "entries": [[1, 2], [3, 4]]}',
            False,
            "thm1 needs a certified substochastic matrix: RowSumExceedsOne: row 1 sums to 3 > 1",
        ),
        (
            ["verify"],
            '{"n": 2, "entries": [[1, 1], [1, 1]]}',
            True,
            "matrix fails the nonzero-minor certificate: det(B) is zero",
        ),
        (
            ["simulate", "--trials", "10", "--seed", "1"],
            '{"n": 2, "entries": [[1, 2], [3, 4]]}',
            False,
            "simulate needs a certified substochastic matrix: RowSumExceedsOne: row 1 sums to 3 > 1",
        ),
        (
            ["simulate", "--trials", "10", "--seed", "1"],
            '{"n": 2, "entries": [["1/2", "1/2"], [0, 1]]}',
            False,
            "simulate needs a certified substochastic matrix: SpectralRadiusNotLessThanOne: "
            "matrix has spectral radius >= 1 (some state reaches no row summing below 1)",
        ),
    ],
    ids=["verify-thm2", "verify-thm1", "verify-general", "simulate-row-sum", "simulate-stochastic"],
)
def test_certification_failure_output(write, capsys, command, content, header, error):
    # verify's general mode prints its header before certify_general fails
    path = write("m.json", content)
    code = main([command[0], path, *command[1:]])
    captured = capsys.readouterr()
    digest = hashlib.sha256(content.encode()).hexdigest()
    stdout = (
        f"input: {path} [JsonExact] sha256={digest[:16]}...\n"
        "matrix: 2x2, backend=exact, mode=general\n"
    )
    assert (code, captured.out, captured.err) == (2, stdout if header else "", f"error: {error}\n")


def test_verify_float_csv(write, capsys):
    code = main(["verify", write("p.csv", GOOD_CSV)])
    out = capsys.readouterr().out
    assert code == 0 and "backend=float" in out


def test_verify_float_thm1_tie_is_not_a_violation(write, capsys):
    # c_22 and c_24 of (I-P^T)^-1 are equal; in doubles c_24 comes out one
    # unit in the last place above c_22
    csv_text = (
        "0,1,0,0\n"
        "0.1195408958193722,0.017855962271577465,0.11055702884874281,0.1746810141188687\n"
        "0,1,0,0\n"
        "0,1,0,0\n"
    )
    path = write("tie.csv", csv_text)
    for backend in ("float", "exact"):
        code = main(["verify", path, "--identity", "thm1", "--backend", backend])
        out = capsys.readouterr().out
        assert code == 0 and "overall: PASS (1 checks)" in out


def test_verify_float_thm1_takes_a_rounded_negative_fundamental_entry(write, capsys):
    # N >= 0 is checked on exact values only: a rounded N_14 of -3.8e-11
    # next to entries of 2.2e7 does not disprove it
    path = write("p.csv", ROUNDED_NEGATIVE_N_CSV)
    for backend in ("float", "exact"):
        code = main(["verify", path, "--identity", "thm1", "--backend", backend])
        out = capsys.readouterr().out
        assert code == 0 and "Thm1       diagonal of (I-P^T)^-1 maximal in each row  PASS" in out


def test_verify_float_thm2_takes_a_rounded_negative_fundamental_entry(write, capsys):
    # Thm2's lhs from the rounded N is decided against the inverse route's
    # Eq13/Eq20 rhs by sides_pass; a rounded side is no InvariantViolation
    code = main(["verify", write("p.csv", ROUNDED_NEGATIVE_N_CSV), "--identity", "all"])
    out = capsys.readouterr().out
    assert code == 0 and "InvariantViolation" not in out and "overall: PASS (65 checks)" in out
    assert "Thm2First  m=4        residual=-3.309824215321786e-11  PASS" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_bad_tol_usage_error(write, capsys, tol):
    argv = ["verify", write("p.json", P_JSON), "--backend", "float", "--tol", tol]
    assert flag_error(capsys, argv) == f"expects a finite number >= 0, got '{tol}'"


def test_verify_json_records(write, capsys):
    code = main(["verify", write("p.json", P_JSON), "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert code == 0 and payload["overall_pass"] is True
    kinds = {r["type"] for r in payload["reports"]}
    assert kinds == {"maximality", "identity"}
    id_report = next(r for r in payload["reports"] if r["type"] == "identity")
    assert set(id_report) == {"type", "id", "m", "l", "lhs", "rhs", "residual", "passed", "error"}


# -- falsify ------------------------------------------------------------------


def test_falsify_thm1_no_counterexamples(capsys):
    code = main(["falsify", "--identity", "thm1", "--n", "2..4", "--count", "12", "--seed", "42"])
    out = capsys.readouterr().out
    assert code == 0
    assert "counterexamples: 0" in out


def test_falsify_deterministic_stdout(capsys):
    argv = ["falsify", "--identity", "eq13", "--n", "2..3", "--count", "6", "--seed", "9"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("kind", ["substochastic", "general"])
def test_failed_only_records_make_no_side_value(monkeypatch, kind):
    # falsify builds records of failed checks only, and every check here
    # passes: the identity layer must then turn no side into a value
    spec = GenSpec(n=5, seed=7)
    instance = gen_substochastic(spec) if kind == "substochastic" else gen_general(spec)
    made = []
    real = ExactScalars.ratio

    def ratio(*args):
        if sys._getframe(1).f_code.co_filename == identities.__file__:
            made.append(args)
        return real(*args)

    monkeypatch.setattr(ExactScalars, "ratio", staticmethod(ratio))
    wanted = report._wanted_ids("all", kind)
    assert report._records(instance, EXACT, wanted, failed_only=True) == []
    assert made == []
    # a rendered record makes both its sides' values
    records = [r for r in report._records(instance, EXACT, wanted) if r["type"] == "identity"]
    assert records and len(made) == 2 * len(records)


def test_falsify_json_omits_timing(capsys):
    code = main(
        ["falsify", "--identity", "lemma2", "--n", "3", "--count", "3", "--seed", "1", "--json"]
    )
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert code == 0
    assert payload["wall_time_s"] is None
    assert payload["reports"][0]["type"] == "sweep"


@pytest.mark.parametrize(
    "identity, code",
    [("eq13", 2), ("thm2", 2), ("lemma1", 2), ("thm1", 0), ("all", 0)],
)
def test_falsify_at_n1_needs_an_applicable_check(capsys, identity, code):
    # every identity but Thm1 needs n >= 2; `all` at n = 1 still runs Thm1,
    # and makes no general instance
    argv = ["falsify", "--identity", identity, "--n", "1", "--count", "3", "--seed", "1"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert f"--identity {identity} has no check at n = 1" in captured.err
    else:
        assert "instances checked: 3 per family (substochastic)\n" in captured.out
        assert "counterexamples: 0" in captured.out


def test_falsify_all_runs_both_families(capsys):
    code = main(["falsify", "--identity", "all", "--n", "2..3", "--count", "4", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "substochastic, general" in out


FALSIFY_THM1_COUNTEREXAMPLE = """\
falsify: identity=thm1 n=2..2 count=1 seed=1 density=1 max_row_sum=1 denominator_bound=16
instances checked: 1 per family (substochastic)
counterexamples: 1
{
  "type": "counterexample",
  "identity": "Thm1",
  "instance": 0,
  "matrix": {
    "n": 2,
    "entries": [
      [
        "11/128",
        "5/128"
      ],
      [
        "7/64",
        "49/64"
      ]
    ]
  },
  "witness": {
    "row": 2,
    "col": 1,
    "diagonal": "1/3",
    "offending": "1/2"
  }
}
FAIL
"""

FALSIFY_EQ13_COUNTEREXAMPLE = """\
falsify: identity=eq13 n=2..2 count=1 seed=1 density=1 max_row_sum=1 denominator_bound=16
instances checked: 1 per family (general)
counterexamples: 1
{
  "type": "counterexample",
  "identity": "Eq13",
  "instance": 0,
  "matrix": {
    "n": 2,
    "entries": [
      [
        "11/16",
        "-15/16"
      ],
      [
        "15/16",
        "-3/4"
      ]
    ]
  },
  "report": {
    "type": "identity",
    "id": "Eq13",
    "m": 1,
    "l": null,
    "lhs": 1,
    "rhs": "1/2",
    "residual": "1/2",
    "passed": false,
    "error": null
  }
}
FAIL
"""


@pytest.mark.parametrize(
    "identity, name, fake, text",
    [
        (
            "thm1",
            "check_diagonal_maximality",
            lambda P: MaximalityReport(
                False, MaximalityWitness(2, 1, Fraction(1, 3), Fraction(1, 2))
            ),
            FALSIFY_THM1_COUNTEREXAMPLE,
        ),
        (
            "eq13",
            "verify_all",
            lambda G, tol=None: [
                IdentityReport(IdentityId.EQ13, 1, None, ((1, 1), (1, 2), None), EXACT)
            ],
            FALSIFY_EQ13_COUNTEREXAMPLE,
        ),
    ],
)
def test_falsify_counterexample_text(capsys, monkeypatch, identity, name, fake, text):
    # the theorems hold on every instance, so the failure is faked
    monkeypatch.setattr(home(name), name, fake)
    argv = ["falsify", "--identity", identity, "--n", "2", "--count", "1", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().out == text


def test_falsify_count_must_be_positive(capsys):
    argv = ["falsify", "--identity", "thm1", "--n", "2", "--seed", "1", "--count", "0"]
    assert flag_error(capsys, argv) == f"expects an integer in 1..{cli.MAX_COUNT}, got '0'"


def _falsify_on_cpus(monkeypatch, capsys, cpus, argv):
    """(exit code, stdout, stderr without its elapsed line, fork count) of
    `falsify argv` under an affinity mask of `cpus` CPUs."""
    with monkeypatch.context() as mp:
        forks = fork_counter(mp)
        fake_cpus(mp, cpus)
        code = main(["falsify", *argv.split()])
    out, err = capsys.readouterr()
    err = "".join(ln for ln in err.splitlines(keepends=True) if not ln.startswith("elapsed: "))
    return code, out, err, len(forks)


@pytest.mark.parametrize(
    "argv",
    [
        "--identity all --n 2..4 --count 1 --seed 21",  # fewer instances than processes
        "--identity all --n 2..4 --count 2 --seed 21 --json",
        "--identity all --n 2..6 --count 7 --seed 22",
        "--identity all --n 2..6 --count 7 --seed 22 --json",
        "--identity thm1 --n 2..5 --count 7 --seed 23",
        "--identity thm1 --n 2..5 --count 7 --seed 23 --json",
        # gen_general rejects candidates at density 1/2
        "--identity all --n 2..6 --count 9 --seed 51 --density 1/2 --json",
    ],
)
def test_falsify_output_does_not_depend_on_worker_count(monkeypatch, capsys, argv):
    count = int(argv.split("--count ")[1].split()[0])
    runs = {cpus: _falsify_on_cpus(monkeypatch, capsys, cpus, argv) for cpus in (1, 2, 3)}
    assert {cpus: run[3] for cpus, run in runs.items()} == {c: min(c, count) - 1 for c in runs}
    assert runs[1][0] == 0
    assert runs[2][:3] == runs[3][:3] == runs[1][:3]


@pytest.mark.parametrize(
    "identity, name",
    [("thm1", "check_diagonal_maximality"), ("eq13", "verify_all")],
)
def test_falsify_counterexamples_come_back_in_instance_order(monkeypatch, capsys, identity, name):
    # --n 2..4: instances 1 and 4 have n = 3; with 2 or 3 processes a worker
    # checks instance 1, and with 3 instance 4 too
    real = getattr(home(name), name)
    failed = {
        "check_diagonal_maximality": lambda P: MaximalityReport(
            False, MaximalityWitness(2, 1, Fraction(1, 3), Fraction(1, 2))
        ),
        "verify_all": lambda G, tol=None: [
            IdentityReport(IdentityId.EQ13, 1, None, ((1, 1), (1, 2), None), EXACT)
        ],
    }[name]
    monkeypatch.setattr(home(name), name, lambda M, *a: (failed if M.n == 3 else real)(M, *a))
    argv = f"--identity {identity} --n 2..4 --count 5 --seed 1 --json"
    runs = {cpus: _falsify_on_cpus(monkeypatch, capsys, cpus, argv) for cpus in (1, 2, 3)}
    code, out, _, _ = runs[1]
    assert code == 1 and "counterexamples: 2\n" in out
    report = json.loads(out[out.index('{\n  "command"') :])
    assert [r.get("instance") for r in report["reports"]] == [None, 1, 4]
    assert runs[2][:3] == runs[3][:3] == runs[1][:3]


def test_falsify_reports_an_instance_whose_candidates_are_all_rejected(monkeypatch, capsys):
    # the first 100 substochastic candidates rejected: the instance is the
    # last one halved, and the sweep still reports in full
    calls = []

    def reject_then_certify(M):
        calls.append(M)
        if len(calls) <= generators.MAX_ATTEMPTS:
            raise ValidationError("rejected")
        return substochastic.validate_substochastic(M)

    monkeypatch.setattr(generators, "validate_substochastic", reject_then_certify)
    argv = "falsify --identity thm1 --n 2 --count 1 --seed 1".split()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "instances checked: 1 per family (substochastic)\ncounterexamples: 0\nPASS\n" in out


def test_sparse_falsify_gets_every_general_instance(capsys):
    # a general instance at n = 5 rejects 100 candidates and takes the
    # diagonally dominant fallback, so the sweep reports in full
    argv = "falsify --identity all --n 2..5 --count 6 --seed 17 --density 1/4".split()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "instances checked: 6 per family (substochastic, general)\ncounterexamples: 0\nPASS\n" in out


@pytest.mark.parametrize(
    "error, message",
    [(lambda n: NegativeEntry(n, 1, -1), "error: NegativeEntry: entry ({},1) = -1 is negative\n")],
    ids=["NegativeEntry"],
)
@pytest.mark.parametrize(
    "failing, first",
    # instances 0..3 have n = 2..5; with 2 processes the parent checks
    # instances 0 and 2 (n = 2, 4) and the worker 1 and 3 (n = 3, 5)
    [({3, 4}, 3), ({4, 5}, 4)],
    ids=["worker first", "parent first"],
)
def test_falsify_raises_the_error_of_the_first_failing_instance(
    monkeypatch, capsys, error, message, failing, first
):
    real = generators.gen_substochastic

    def gen(spec):
        if spec.n in failing:
            raise error(spec.n)
        return real(spec)

    monkeypatch.setattr(generators, "gen_substochastic", gen)
    argv = "--identity thm1 --n 2..5 --count 4 --seed 1"
    sequential = _falsify_on_cpus(monkeypatch, capsys, 1, argv)
    assert sequential == (2, "", message.format(first), 0)
    assert _falsify_on_cpus(monkeypatch, capsys, 2, argv) == (*sequential[:3], 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["falsify", "--identity", "all", "--count", "2", "--seed", "1", "--density", "2"],
        ["falsify", "--identity", "all", "--count", "2", "--seed", "1", "--density", "abc"],
        ["falsify", "--identity", "all", "--count", "2", "--seed", "1", "--denominator-bound", "0"],
        ["gen", "--n", "3", "--seed", "1", "--max-row-sum", "0"],
        ["gen", "--n", "3", "--seed", "1", "--density", "1e-99999999999"],
        ["gen", "--n", "3", "--seed", "1", "--density", "1e0.5"],
        ["falsify", "--identity", "all", "--count", "1", "--seed", "1", "--density", "1/0"],
        ["gen", "--n", "3", "--seed", "1", "--max-row-sum", "0/0"],
        ["gen", "--kind", "general", "--n", "16", "--seed", "1", "--denominator-bound", str(10**1200 + 7)],
    ],
    ids=[
        "density 2",
        "density abc",
        "denominator-bound 0",
        "max-row-sum 0",
        "density exponent",
        "density exponent not an integer",
        "density 1/0",
        "max-row-sum 0/0",
        "denominator-bound 1201 digits",
    ],
)
def test_bad_generator_flags_usage_error(capsys, argv):
    # rejected by the parser, so before generating
    assert flag_error(capsys, argv).startswith(("expects a rational in ", "expects an integer >= 1 "))


# -- simulate -----------------------------------------------------------------


def test_simulate_passes(write, capsys):
    code = main(["simulate", write("p.json", P_JSON), "--trials", "20000", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "flags: 0" in out


# certified; exact N_34 = 0, and in doubles N_34 is -3.47e-18
ROUNDED_ZERO_N_CSV = (
    "0.3551906932386167,0.0319014645618094,0.0,0.0,0.13328814231142724\n"
    "0.4537564536629655,0.0,0.0,0.0,0.0\n"
    "0.0,0.04555918883586155,0.0,0.0,0.2661997974144181\n"
    "0.6965781428100015,0.0,0.0,0.0,0.0\n"
    "0.0,0.30690595772374557,0.0,0.0,0.17042454071464636\n"
)


def test_simulate_float_reads_a_rounded_zero_target_as_zero(write, capsys):
    # no walk from 3 reaches 4, so the half-width is 0; a target up to the
    # backend's floor of N's entries is read as 0.0, not -3.47e-18
    argv = ["simulate", write("p.csv", ROUNDED_ZERO_N_CSV), "--trials", "2000", "--seed", "1"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0 and "FLAG" not in out
    assert "start=3 state=4 estimate=0.000000 exact=0.000000 halfwidth=0.000000  ok" in out


def test_simulate_fundamental_entry_beyond_double_range_exits_2_before_any_walk(write, capsys):
    # P = 1 - 10^-400 certifies as RowSumStrict, but N = 10^400 has no double
    path = write("near1.json", json.dumps({"n": 1, "entries": [["9" * 400 + "/1" + "0" * 400]]}))
    code = main(["simulate", path, "--trials", "2", "--seed", "1", "--cap", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: BeyondDoubleRange: entry (1,1) of (I-P)^-1 is beyond the double range\n"


def test_simulate_float_inverse_below_the_pivot_floor_names_it_and_exits_2(write, capsys):
    # check certifies P (det(I - P^T) = 5.0e-16), but the float (I-P)^-1
    # meets a pivot of 1.0e-15 below its floor 5e-14: the error names the
    # float inverse, not the certified P
    path = write("p.csv", "0.5,0.499999999999999\n0.5,0.5\n")
    assert main(["check", path]) == 0
    capsys.readouterr()
    code = main(["simulate", path, "--trials", "2", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (
        "error: SingularMatrix: pivot 9.992007221626409e-16 below singularity floor 5e-14"
        " in the float (I-P)^-1\n"
    )


@pytest.mark.parametrize("csv, pivot", [
    ("0.5,0.499999999999999\n0.5,0.5\n", "pivot 9.992007221626409e-16 below singularity floor 5e-14"),
    (NEAR_SINGULAR_CSV, "pivot 0.0 below singularity floor 1e-13"),
], ids=["tiny-pivot", "near-singular"])
@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "all"], ["verify", "--identity", "thm1"], ["verify", "--identity", "thm2"],
    ["simulate", "--trials", "10", "--seed", "1"],
], ids=["verify-all", "verify-thm1", "verify-thm2", "simulate"])
def test_a_float_inverse_that_fails_ends_every_command_one_way(write, capsys, csv, pivot, argv):
    # P is certified, but its float (I-P)^-1 meets a pivot below the floor:
    # every command that reads N exits 2 with the one named error, and
    # verify prints its two header lines and no record
    path = write("p.csv", csv)
    code = main([argv[0], path, *argv[1:]])
    out, err = capsys.readouterr()
    heads = ["input", "matrix"] if argv[0] == "verify" else []
    assert code == 2 and [line.split(":")[0] for line in out.splitlines()] == heads
    assert err == f"error: SingularMatrix: {pivot} in the float (I-P)^-1\n"


# B and every B(l|l) are certified nonzero, but the float Gauss-Jordan solve
# of B(3|3) meets a pivot below its floor
FLOAT_SINGULAR_DELETION_CSV = (
    "-2.673849722164166,-2.8582276862508196,0.5767628315945448,-0.5076903975677256\n"
    "1.2591515359342953,-1.8953710469608742,-0.3021482125743895,1.2722084768228363\n"
    "-0.1089888260200684,-0.22689055183669854,-0.24674338925710254,-0.1961365965947193\n"
    "-2.3699891751588167,-0.9596669801972226,0.14878547547646281,-0.9516034813262112\n"
)


def test_a_float_deletion_solve_that_fails_ends_verify_one_way(write, capsys):
    # the route that fails raises before the sweep: verify prints its two
    # header lines and no record, and exits 2; the exact backend passes
    path = write("b.csv", FLOAT_SINGULAR_DELETION_CSV)
    code = main(["verify", path])
    out, err = capsys.readouterr()
    assert code == 2 and [line.split(":")[0] for line in out.splitlines()] == ["input", "matrix"]
    assert err == (
        "error: SingularSubmatrix: B(3|3) is singular: pivot 4.141131881851834e-14"
        " below singularity floor 2.8582276862508197e-13\n"
    )
    code = main(["verify", path, "--backend", "exact"])
    assert code == 0 and capsys.readouterr().out.endswith("overall: PASS (48 checks)\n")


def test_simulate_zero_trials_usage_error(write, capsys):
    argv = ["simulate", write("p.json", P_JSON), "--seed", "11", "--trials", "0"]
    assert flag_error(capsys, argv) == f"expects an integer in 1..{cli.MAX_COUNT}, got '0'"


@pytest.mark.parametrize(
    "flags", [["--cap", "0"], ["--sigma", "nan"], ["--sigma", "inf"], ["--sigma", "0"]]
)
def test_simulate_bad_cap_or_sigma_usage_error(write, capsys, flags):
    argv = ["simulate", write("p.json", P_JSON), "--trials", "10", "--seed", "11", *flags]
    expects = "an integer >= 1" if flags[0] == "--cap" else "a finite number > 0"
    assert flag_error(capsys, argv) == f"expects {expects}, got '{flags[1]}'"


def test_simulate_walk_statistics_on_stderr(write, capsys):
    path = write("p.json", P_JSON)
    argv = ["simulate", path, "--trials", "500", "--seed", "11", "--cap", "2"]
    main(argv)
    first = capsys.readouterr()
    main(argv)
    assert capsys.readouterr() == first
    cap_hits = int(first.out.split("cap_exceeded: ")[1].split()[0])
    assert cap_hits > 0
    line = first.err.strip()
    assert line.startswith("walks: 1000, moves: ")
    assert line.endswith(f"longest walk: 2 moves, cap hits: {cap_hits}")
    assert "moves" not in first.out

    assert main(["simulate", write("z.json", ZERO_JSON), "--trials", "7", "--seed", "1"]) == 0
    assert capsys.readouterr().err == "walks: 21, moves: 0, longest walk: 0 moves, cap hits: 0\n"


def test_main_defaults_openblas_to_one_thread(write, capsys, monkeypatch):
    path = write("p.json", GOOD_JSON)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["check", path]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # a caller's value wins
    assert main(["check", path]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_main_sets_the_blas_default_before_numpy_starts(write):
    # numpy is imported by the command, after main set the default, so
    # OpenBLAS starts no thread pool: the process keeps its one thread
    src = os.path.dirname(os.path.dirname(substoch.__file__))
    code = (
        "import os, sys, substoch.cli; substoch.cli.main(['check', sys.argv[1]]); "
        "sys.exit(len(os.listdir('/proc/self/task')))"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-c", code, write("p.json", GOOD_JSON)]
    assert subprocess.run(argv, env=env, capture_output=True).returncode == 1


def test_simulate_requires_substochastic(write, capsys):
    code = main(["simulate", write("b.json", PERM_JSON), "--trials", "10", "--seed", "1"])
    assert code == 2


def test_simulate_rejects_more_states_than_the_walk_kernel_holds(write, capsys, monkeypatch):
    # past the bound the walk table cannot be built: reject before I - P is inverted
    from substoch import kernels, substochastic

    inverses = []
    real = substochastic.inverse
    monkeypatch.setattr(substochastic, "inverse", lambda B: inverses.append(1) or real(B))
    monkeypatch.setattr(kernels, "MAX_STATES", 3)
    zero4 = json.dumps({"n": 4, "entries": [[0] * 4] * 4})
    code = main(["simulate", write("z4.json", zero4), "--trials", "7", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and inverses == []
    assert captured.err == "error: simulate walks at most 3 states; the matrix has 4\n"
    assert main(["simulate", write("z.json", ZERO_JSON), "--trials", "7", "--seed", "1"]) == 0
    assert inverses == [1]


# -- gen ----------------------------------------------------------------------


def test_gen_roundtrip_and_determinism(write, tmp_path, capsys):
    out1 = str(tmp_path / "m1.json")
    out2 = str(tmp_path / "m2.json")
    assert main(["gen", "--kind", "substochastic", "--n", "3", "--seed", "9", "--out", out1]) == 0
    assert main(["gen", "--kind", "substochastic", "--n", "3", "--seed", "9", "--out", out2]) == 0
    capsys.readouterr()
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    # the written file parses back to the very matrix the library generates
    expected = gen_substochastic(GenSpec(n=3, seed=9)).P
    from substoch.matrixio import load_matrix

    parsed, _, fmt = load_matrix(out1, None)
    assert fmt == "JsonExact" and parsed == expected
    assert main(["check", out1]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-row-sum", f"1/{10**996 + 1}"],
        ["--denominator-bound", str(10**998 + 7)],
    ],
    ids=["max-row-sum 999 characters", "denominator-bound 999 digits"],
)
def test_gen_writes_only_what_reads_back(tmp_path, capsys, flags):
    # the flags are inside the bound but the entries they make are past it
    # (a flag past it is rejected by the parser, before generating)
    out = tmp_path / "m.json"
    code = main(["gen", "--n", "4", "--seed", "1", *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: bad generator flags" in captured.err and captured.out == ""
    assert not out.exists()


def test_gen_to_stdout(capsys):
    code = main(["gen", "--kind", "general", "--n", "2", "--seed", "4"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0 and payload["n"] == 2


@pytest.mark.parametrize("n", ["2..3", "1..1000"])
def test_gen_refuses_a_range_without_listing_it(capsys, n):
    argv = ["gen", "--seed", "1", "--n", n]
    assert flag_error(capsys, argv) == f"expects one dimension in 1..{cli.MAX_N}, got '{n}'"


@pytest.mark.parametrize(
    "argv",
    [
        # a listed 1..10**15 would take 8*10**15 bytes; 10**20 dimensions
        # are more than len() of a range can count, and so is a count of 10**20
        "falsify --identity thm1 --n 1..1000000000000000 --count 2 --seed 1",
        f"falsify --identity thm1 --n 1..{10**20} --count 2 --seed 1",
        f"falsify --identity thm1 --n 2 --count {10**20} --seed 1",
        "gen --n 1..1000000000000000 --seed 1",
        f"gen --n 1..{10**20} --seed 1",
    ],
)
def test_n_or_count_past_its_bound_is_a_usage_error(argv):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(substoch.__file__))}
    run = subprocess.run(
        [sys.executable, "-m", "substoch", *argv.split()], env=env, capture_output=True, text=True
    )
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("usage: substoch ") and "Traceback" not in run.stderr
    flag = "--count" if "--n 2 " in argv else "--n"
    assert run.stderr.splitlines()[-1].startswith(f"substoch {argv.split()[0]}: error: argument {flag}: ")


def test_n_and_count_bounds_are_inclusive():
    assert cli._N_RANGE(f"1..{cli.MAX_N}") == range(1, cli.MAX_N + 1)
    assert cli._COUNT(str(cli.MAX_COUNT)) == cli.MAX_COUNT
    for parse, text in ((cli._N_RANGE, str(cli.MAX_N + 1)), (cli._COUNT, str(cli.MAX_COUNT + 1))):
        with pytest.raises(argparse.ArgumentTypeError):
            parse(text)


_FLAG_BASES = {
    "check": ["check", "p.json"],
    "verify": ["verify", "p.json"],
    "falsify": ["falsify", "--identity", "all", "--count", "1", "--seed", "1"],
    "simulate": ["simulate", "p.json", "--trials", "1", "--seed", "1"],
    "gen": ["gen", "--n", "2", "--seed", "1"],
}


@pytest.mark.parametrize(
    "command, flag, inside, outside",
    [
        # argparse takes a word that starts with "-" for a flag unless it
        # looks like a plain negative number, so the negatives here are plain
        ("check", "--iterations", ["1", "07"], ["0", "-1", "1.5", "x"]),
        ("verify", "--tol", ["0", "-0.0", "1e308"], ["-0.001", "inf", "nan", "1e309", "x"]),
        ("falsify", "--count", ["1", str(10**9)], ["0", str(10**9 + 1), "x"]),
        ("simulate", "--trials", ["1", str(10**9)], ["0", str(10**9 + 1), "x"]),
        ("simulate", "--sigma", ["5e-324", "1e308"], ["0", "-1", "inf", "nan", "x"]),
        ("simulate", "--cap", ["1"], ["0", "-5"]),
        ("falsify", "--n", ["1", "1000", "3..3", "1..1000"], ["0", "1001", "0..2", "3..2", "2..1001", "1..2..3", "x"]),
        ("gen", "--n", ["1", "1000", "3..3"], ["0", "1001", "2..3", f"1..{10**20}", "x"]),
        ("falsify", "--density", ["0", "1", "0.25", "1/3", f"1e-{MAX_ENTRY_DIGITS}"],
         ["-0.5", "1.01", "1/0", "x", f"1e-{MAX_ENTRY_DIGITS + 1}", "1" * (MAX_ENTRY_DIGITS + 1)]),
        ("gen", "--max-row-sum", ["1", "1/2", f"1e-{MAX_ENTRY_DIGITS}"], ["0", "0/0", "3/2", "nan"]),
        ("gen", "--denominator-bound", ["1", str(10**MAX_ENTRY_DIGITS - 1)], ["0", str(10**MAX_ENTRY_DIGITS)]),
    ],
)
def test_each_flag_range_is_the_parsers(capsys, command, flag, inside, outside):
    # every value inside a flag's range parses, and every value outside it
    # is argparse's usage error, whose bounds are inclusive
    parser = cli.build_parser()
    for value in inside:
        parser.parse_args([*_FLAG_BASES[command], flag, value])
    for value in outside:
        assert flag_error(capsys, [*_FLAG_BASES[command], flag, value]).endswith(f", got {value!r}")


# -- parse / io errors ----------------------------------------------------------


def test_malformed_json_exits_3(write, capsys):
    code = main(["check", write("broken.json", '{"n": 2, "entries": [[0, oops]]}')])
    err = capsys.readouterr().err
    assert code == 3
    assert "line 1" in err


def test_json_n_must_be_an_integer_not_a_bool(write, capsys):
    code = main(["check", write("b.json", '{"n": true, "entries": [["1/2"]]}')])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == 'parse error: "n" must be a positive integer\n'


def test_missing_file_exits_3(capsys):
    assert main(["check", "/nonexistent/file.json"]) == 3


def test_json_rejects_float_entries(write, capsys):
    code = main(["check", write("f.json", '{"n": 1, "entries": [[0.5]]}')])
    err = capsys.readouterr().err
    assert code == 3 and "integer or a 'p/q' string" in err


def test_csv_must_be_square(write, capsys):
    code = main(["check", write("r.csv", "0.1,0.2\n0.3\n")])
    assert code == 3


def test_csv_blank_lines_are_skipped_but_counted(write, capsys):
    assert main(["check", write("gaps.csv", "\n0.25,0.5\n \t,\n\n0.125,0.25\n\n")]) == 0
    assert "certified: yes" in capsys.readouterr().out
    # a bad cell's line counts the blank lines above it
    assert main(["check", write("bad.csv", "0.25,0.5\n\n0.125,x\n")]) == 3
    assert capsys.readouterr().err == "parse error: cell 'x' is not a decimal float (line 3, column 2)\n"
    # and so does a short row's
    assert main(["check", write("short.csv", "0.1,0.2\n\n0.3\n")]) == 3
    assert capsys.readouterr().err == (
        "parse error: matrix must be square: row 2 has 1 cells, expected 2 (line 3)\n"
    )


def test_csv_with_bare_cr_line_endings_parses(write, capsys):
    assert main(["check", write("lf.csv", "0.25,0.5\n0.125,0.25\n")]) == 0
    lf = capsys.readouterr().out
    assert main(["check", write("cr.csv", "0.25,0.5\r0.125,0.25\r")]) == 0
    # the same report past the input line, which names the file and its digest
    assert capsys.readouterr().out.split("\n")[1:] == lf.split("\n")[1:]


def test_csv_cell_past_the_field_limit_exits_3(write, capsys):
    code = main(["check", write("wide.csv", "0.5,0\n" + "1" * 200_000 + ",0\n")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("parse error: invalid CSV: field larger than field limit")
    assert "line 2" in captured.err


def test_non_square_json_entries(write, capsys):
    code = main(["check", write("r.json", '{"n": 2, "entries": [[0, 0], [0]]}')])
    assert code == 3


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_csv_cell_exits_3(write, capsys, cell):
    code = main(["check", write("p.csv", f"{cell},0\n0,0.5\n")])
    assert code == 3
    assert "parse error" in capsys.readouterr().err


def test_float_backend_entry_beyond_double_range_exits_3(write, capsys):
    code = main(["check", write("big.json", '{"n": 1, "entries": [["1e400"]]}'), "--backend", "float"])
    err = capsys.readouterr().err
    assert code == 3
    assert "parse error: entry (1,1) is beyond the double range" in err


def test_float_backend_names_the_entry_that_overflows_not_one_that_rounds_down(write, capsys):
    # entry (1,1) is above the largest double but rounds to it; (1,2) overflows
    top = Fraction(int(sys.float_info.max)) * (1 + Fraction(1, 2**60))
    path = write("locator.json", json.dumps(
        {"n": 2, "entries": [[f"{top.numerator}/{top.denominator}", str(10**400)], [0, 1]]}
    ))
    code = main(["verify", path, "--backend", "float"])
    assert code == 3
    assert capsys.readouterr().err == (
        "parse error: entry (1,2) is beyond the double range (line 1, column 2)\n"
    )


def test_non_utf8_file_exits_3(write, capsys):
    code = main(["check", write("p.csv", b"\xff\xfe0.1,0\n0,0.5\n")])
    assert code == 3
    assert "parse error" in capsys.readouterr().err


def test_deeply_nested_json_exits_3(write, capsys):
    code = main(["check", write("deep.json", "[" * 5000)])
    assert code == 3
    assert "parse error" in capsys.readouterr().err


# decimal exponents on both sides of the entry bound, on integer, decimal
# and empty mantissas
_EXPONENT_CELLS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["1", "-3", "0.5", ".25", "7.", ""]),
    st.sampled_from(["e", "E"]),
    st.one_of(
        st.integers(-2 * MAX_ENTRY_DIGITS, 2 * MAX_ENTRY_DIGITS),
        st.integers(-(10**12), 10**12),
    ),
)
_CELLS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["1/2", "-1/3", "1/0", "x", "", "1e400", "0.25"]),
    _EXPONENT_CELLS,
    st.floats(),
    st.booleans(),
    st.none(),
)
_MATRIX_JSON = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.one_of(st.just(n), st.integers(-1, 4)),
            "entries": st.lists(
                st.lists(_CELLS, min_size=n, max_size=n), min_size=n, max_size=n
            ),
        }
    )
)
_EXPONENT_MATRIX_JSON = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(_EXPONENT_CELLS, st.integers(0, 1)), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: {"n": n, "entries": rows})
)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "entries", "x"]), inner, max_size=3),
    max_leaves=10,
)
_CSV_CELLS = st.one_of(
    st.floats(min_value=-0.5, max_value=1.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["", "x", " 0.5", "1/2", "0"]),
)
_CSV_TEXT = st.lists(
    st.lists(_CSV_CELLS, min_size=1, max_size=3), min_size=1, max_size=3
).map(lambda rows: "\n".join(",".join(r) for r in rows))
_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.one_of(_MATRIX_JSON, _EXPONENT_MATRIX_JSON, _ANY_JSON).map(json.dumps).map(str.encode),
    _CSV_TEXT.map(str.encode),
)


@settings(max_examples=150, deadline=None)
@given(
    content=_FILE_BYTES,
    suffix=st.sampled_from([".json", ".csv", ""]),
    command=st.sampled_from(
        [
            ["check"],
            ["verify"],
            # a short cap bounds the walks of rows that sum to almost 1
            ["simulate", "--trials", "20", "--seed", "1", "--cap", "50"],
        ]
    ),
)
def test_cli_fuzz_exits_with_documented_codes(tmp_path_factory, content, suffix, command):
    path = tmp_path_factory.mktemp("fuzz") / f"input{suffix}"
    path.write_bytes(content)
    start = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) in {0, 1, 2, 3}
    # every example is at most 3x3 with bounded entries
    assert time.perf_counter() - start < 5.0


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(substoch.__file__))
    code = "import sys, substoch.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["--help"], []),
        (["falsify", "--identity", "all", "--n", "2..3", "--count", "3", "--seed", "1"], ["substoch.workers"]),
    ],
)
def test_falsify_loads_its_runner_but_no_numpy(argv, loaded):
    src = os.path.dirname(os.path.dirname(substoch.__file__))
    code = (
        "import sys, substoch.cli\n"
        "try:\n    substoch.cli.main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
        "print([m for m in ('numpy', 'substoch.workers') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert run.stdout.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize("identity", ["all", "thm1"])
def test_falsify_loads_generators_before_it_forks(identity):
    # so that no worker compiles generators.py after the fork
    src = os.path.dirname(os.path.dirname(substoch.__file__))
    code = (
        "import sys, substoch.cli, substoch.workers\n"
        "def forked_map(fn, jobs):\n"
        "    print('substoch.generators' in sys.modules, file=sys.stderr)\n"
        "    return [fn(jobs)]\n"
        "substoch.workers.forked_map = forked_map\n"
        "sys.exit(substoch.cli.main(sys.argv[1:]))\n"
    )
    argv = ["falsify", "--identity", identity, "--n", "2..3", "--count", "3", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr.splitlines()[0] == "True"


def _imports(argv, cwd, module="substoch"):
    """(the finished run, names of the modules loaded) of `python -m module
    argv` in cwd, run as -m runs it: for the package, the package, then its
    __main__.  The names, and the gc.get_freeze_count() that the run leaves
    as run.frozen, come as the last stderr line, which run.stderr leaves out."""
    code = (
        "import json, runpy, sys\n"
        f"try:\n    runpy.run_module({module!r}, run_name='__main__', alter_sys=True)\n"
        "finally:\n    import gc\n"
        "    print(json.dumps([list(sys.modules), gc.get_freeze_count()]), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(substoch.__file__))}
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, cwd=cwd, capture_output=True, text=True
    )
    *err, last = run.stderr.splitlines()
    run.stderr = "".join(f"{line}\n" for line in err)
    modules, run.frozen = json.loads(last)
    return run, set(modules)


@pytest.mark.parametrize(
    "module, argv",
    [
        ("substoch", ["--help"]),
        ("substoch", ["falsify", "--identity", "all", "--n", "2..3", "--count", "3", "--seed", "1"]),
        ("substoch.cli", ["--help"]),
    ],
)
def test_a_process_freezes_its_heap_before_it_exits(tmp_path, module, argv):
    # so that CPython's teardown leaves what is alive at exit uncollected
    run, _ = _imports(argv, tmp_path, module)
    assert run.returncode == 0 and run.frozen > 0


def test_main_in_process_freezes_nothing(capsys):
    frozen = gc.get_freeze_count()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.get_freeze_count() == frozen
    assert capsys.readouterr().out.startswith("usage: substoch")


def test_piped_gen_output_equals_its_out_file(tmp_path):
    # about 1.4 MB, far past a pipe's buffer: the frozen exit still flushes
    # all of stdout
    argv = [sys.executable, "-m", "substoch", "gen", "--kind", "substochastic", "--n", "300", "--seed", "7"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(substoch.__file__))}
    out = tmp_path / "p.json"
    written = subprocess.run([*argv, "--out", str(out)], env=env, capture_output=True)
    piped = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    assert written.returncode == piped.returncode == 0
    assert piped.stdout == out.read_bytes() and len(piped.stdout) > 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["check"],
        ["falsify", "--identity", "nope"],
        # one value outside each range the parser checks, the flag last but one
        *(argv.split() for argv in (
            "check p.json --iterations 0",
            "verify p.json --tol nan",
            "falsify --identity all --seed 1 --count 0",
            "falsify --identity all --seed 1 --count 1 --density 2",
            "simulate p.json --seed 1 --trials 0",
            "simulate p.json --seed 1 --trials 1000000001",
            "simulate p.json --seed 1 --trials 1 --sigma 0",
            "simulate p.json --seed 1 --trials 1 --cap 0",
            "gen --seed 1 --n 2..3",
        )),
    ],
)
def test_help_and_usage_errors_load_no_library_module(tmp_path, argv):
    (tmp_path / "p.json").write_text(P_JSON)
    run, loaded = _imports(argv, tmp_path)
    ours = {m for m in loaded if m == "substoch" or m.startswith("substoch.")}
    assert ours == {"substoch", "substoch.cli"}
    if argv == ["--help"]:
        assert run.returncode == 0
        return
    assert (run.returncode, run.stdout) == (2, "") and "Traceback" not in run.stderr
    if len(argv) > 2:  # a flag and its value
        assert run.stderr.splitlines()[-1].startswith(f"substoch {argv[0]}: error: argument {argv[-2]}: ")


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["check", "p.json"], "substoch.identities"),
        (["simulate", "p.json", "--trials", "2000", "--seed", "11"], "substoch.identities"),
        (["gen", "--kind", "substochastic", "--n", "3", "--seed", "1"], "substoch.identities"),
        (["verify", "p.json"], "numpy"),
        (["verify", "p.json", "--identity", "thm1"], "substoch.identities"),
        (["falsify", "--identity", "all", "--n", "2..3", "--count", "3", "--seed", "1"], "numpy"),
        (["gen", "--kind", "general", "--n", "3", "--seed", "1"], "numpy"),
        (["falsify", "--identity", "thm1", "--n", "2..3", "--count", "3", "--seed", "1"], "substoch.identities"),
    ],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, unloaded):
    (tmp_path / "p.json").write_text(P_JSON)
    run, loaded = _imports(argv, tmp_path)
    assert run.returncode == 0
    assert "substoch.matrix" in loaded and unloaded not in loaded
    # each command compiles its own module and none of the other four
    commands = {f"substoch.commands.{c}" for c in ("check", "verify", "falsify", "simulate", "gen")}
    assert commands & loaded == {f"substoch.commands.{argv[0]}"}
    # the records are named tuples and plain classes, so no command loads
    # dataclasses, nor its import of inspect; check and simulate get
    # inspect through numpy
    assert "dataclasses" not in loaded
    if argv[0] in ("verify", "falsify", "gen"):
        assert "inspect" not in loaded
    # the one file digest comes from CPython's own sha256, not OpenSSL's
    assert not {"hashlib", "_hashlib"} & loaded
    # falsify reads no file and writes a matrix only for a counterexample
    assert ("substoch.matrixio" in loaded) == (argv[0] != "falsify")


def test_cli_run_as_main_is_compiled_once(tmp_path):
    # python -m substoch.cli runs cli.py as __main__; the command it loads
    # imports substoch.cli, which must be that module, not a second copy
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(substoch.__file__))}
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "substoch.cli", "gen", "--n", "2", "--seed", "1"],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 0 and json.loads(run.stdout)["n"] == 2
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines() if "|" in line]
    assert "substoch.commands.gen" in imported and "substoch.cli" not in imported
