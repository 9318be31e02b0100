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
from substoch import IdentityId, IdentityReport, cli, gen_general, gen_substochastic
from substoch.cli import MAX_ENTRY_DIGITS, dump_jsonexact, main
from substoch.errors import GenerationExhausted, NegativeEntry
from substoch.generators import GenSpec
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


@pytest.mark.parametrize("iterations", ["0", "-3"])
def test_check_iterations_usage_error(write, capsys, iterations):
    code = main(["check", write("p.json", GOOD_JSON), "--iterations", iterations])
    captured = capsys.readouterr()
    assert code == 2
    assert "--iterations must be >= 1" in captured.err and captured.out == ""


def test_check_json_report_schema(write, capsys):
    code = main(["check", write("p.json", GOOD_JSON), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{") :])
    assert set(payload) == {
        "command",
        "input_digest",
        "backend",
        "overall_pass",
        "wall_time_s",
        "reports",
    }
    assert payload["overall_pass"] is True
    assert payload["reports"][0]["det_I_minus_Pt"] == "3/4"


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


# sha256 of `verify --identity all --json` stdout on the gen instances at
# n=8, seed 7, with the input path written as P.json and the wall_time_s line
# dropped: an elimination-kernel change that moves one exact byte fails here
GOLDEN_VERIFY = {
    "general": "c28822ce92b79212fe34fdb91e4fa42ee997a48dc62edcb046f060fd00737f02",
    "substochastic": "21475401dd0b5cf4906d71ff7f6938301b3d1b9c6e3a5fd3db0ef55755846a7a",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_VERIFY))
def test_verify_json_matches_golden_digest(tmp_path, capsys, kind):
    spec = GenSpec(n=8, seed=7)
    M = gen_substochastic(spec).P if kind == "substochastic" else gen_general(spec).B
    path = tmp_path / "P.json"
    path.write_text(dump_jsonexact(M))
    assert main(["verify", str(path), "--identity", "all", "--json"]) == 0
    assert _golden_digest(capsys.readouterr().out, path) == GOLDEN_VERIFY[kind]


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


def test_verify_thm1_runs_no_identity_sweep(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "verify_all", lambda *args: calls.append(args) or [])
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
    monkeypatch.setattr(cli, "check_diagonal_maximality",
                        lambda P: MaximalityReport(False, witness, None))
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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_bad_tol_usage_error(write, capsys, tol):
    code = main(["verify", write("p.json", P_JSON), "--backend", "float", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert "--tol must be finite and >= 0" in captured.err and captured.out == ""


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
                False, MaximalityWitness(2, 1, Fraction(1, 3), Fraction(1, 2)), None
            ),
            FALSIFY_THM1_COUNTEREXAMPLE,
        ),
        (
            "eq13",
            "verify_all",
            lambda G, tol=None: [
                IdentityReport(
                    IdentityId.EQ13, 1, None, Fraction(1), Fraction(1, 2), Fraction(1, 2),
                    False, "exact",
                )
            ],
            FALSIFY_EQ13_COUNTEREXAMPLE,
        ),
    ],
)
def test_falsify_counterexample_text(capsys, monkeypatch, identity, name, fake, text):
    # the theorems hold on every instance, so the failure is faked
    monkeypatch.setattr(cli, name, fake)
    argv = ["falsify", "--identity", identity, "--n", "2", "--count", "1", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().out == text


def test_falsify_count_must_be_positive(capsys):
    code = main(["falsify", "--identity", "thm1", "--n", "2", "--count", "0", "--seed", "1"])
    assert code == 2


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
    real = getattr(cli, name)
    failed = {
        "check_diagonal_maximality": lambda P: MaximalityReport(
            False, MaximalityWitness(2, 1, Fraction(1, 3), Fraction(1, 2)), None
        ),
        "verify_all": lambda G, tol=None: [
            IdentityReport(
                IdentityId.EQ13, 1, None, Fraction(1), Fraction(1, 2), Fraction(1, 2), False, "exact"
            )
        ],
    }[name]
    monkeypatch.setattr(cli, name, lambda M, *a: (failed if M.n == 3 else real)(M, *a))
    argv = f"--identity {identity} --n 2..4 --count 5 --seed 1 --json"
    runs = {cpus: _falsify_on_cpus(monkeypatch, capsys, cpus, argv) for cpus in (1, 2, 3)}
    code, out, _, _ = runs[1]
    assert code == 1 and "counterexamples: 2\n" in out
    report = json.loads(out[out.index('{\n  "command"') :])
    assert [r.get("instance") for r in report["reports"]] == [None, 1, 4]
    assert runs[2][:3] == runs[3][:3] == runs[1][:3]


@pytest.mark.parametrize(
    "error, message",
    [
        (lambda n: GenerationExhausted(f"no instance at n={n}"), "error: no instance at n={}\n"),
        (lambda n: NegativeEntry(n, 1, -1), "error: NegativeEntry: entry ({},1) = -1 is negative\n"),
    ],
    ids=["GenerationExhausted", "NegativeEntry"],
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
    real = cli.gen_substochastic

    def gen(spec):
        if spec.n in failing:
            raise error(spec.n)
        return real(spec)

    monkeypatch.setattr(cli, "gen_substochastic", gen)
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
        "density 1/0",
        "max-row-sum 0/0",
        "denominator-bound 1201 digits",
    ],
)
def test_bad_generator_flags_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "error: bad generator flags" in captured.err and captured.out == ""
    assert "cannot be read back" not in captured.err  # rejected before generating


# -- simulate -----------------------------------------------------------------


def test_simulate_passes(write, capsys):
    code = main(["simulate", write("p.json", P_JSON), "--trials", "20000", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "flags: 0" in out


def test_simulate_zero_trials_usage_error(write, capsys):
    code = main(["simulate", write("p.json", P_JSON), "--trials", "0", "--seed", "11"])
    assert code == 2


@pytest.mark.parametrize(
    "flags", [["--cap", "0"], ["--sigma", "nan"], ["--sigma", "inf"], ["--sigma", "0"]]
)
def test_simulate_bad_cap_or_sigma_usage_error(write, capsys, flags):
    code = main(["simulate", write("p.json", P_JSON), "--trials", "10", "--seed", "11", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{flags[0]} must be" in captured.err and captured.out == ""


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
    from substoch.cli import load_matrix

    parsed, _, fmt = load_matrix(out1, None)
    assert fmt == "JsonExact" and parsed == expected
    assert main(["check", out1]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-row-sum", f"1/{10**996 + 1}"],
        ["--denominator-bound", str(10**1200 + 7)],
    ],
    ids=["max-row-sum 999 characters", "denominator-bound 1201 digits"],
)
def test_gen_writes_only_what_reads_back(tmp_path, capsys, flags):
    # the entries these flags make are past the bound (a denominator bound
    # past it is already rejected before generating)
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
