import json

import pytest

from substoch import gen_substochastic
from substoch.cli import main
from substoch.generators import GenSpec

GOOD_JSON = '{"n": 2, "entries": [[0, "1/2"], ["1/2", 0]]}\n'
PERM_JSON = '{"n": 2, "entries": [[0, 1], [1, 0]]}\n'
P_JSON = '{"n": 2, "entries": [["1/2", "1/4"], ["1/3", "1/3"]]}\n'
ZERO_JSON = '{"n": 3, "entries": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}\n'
TRIDIAG_JSON = '{"n": 3, "entries": [[2, 1, 0], [1, 2, 1], [0, 1, 2]]}\n'
BAD_CSV = "0.5,0.6\n0.1,0.2\n"
GOOD_CSV = "0.25,0.5\n0.125,0.25\n"


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


def test_check_spectral_radius_failure(write, capsys):
    code = main(["check", write("p.json", PERM_JSON)])
    out = capsys.readouterr().out
    assert code == 1
    assert "SpectralRadiusNotLessThanOne" in out


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


def test_falsify_all_runs_both_families(capsys):
    code = main(["falsify", "--identity", "all", "--n", "2..3", "--count", "4", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "substochastic, general" in out


def test_falsify_count_must_be_positive(capsys):
    code = main(["falsify", "--identity", "thm1", "--n", "2", "--count", "0", "--seed", "1"])
    assert code == 2


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


def test_simulate_requires_substochastic(write, capsys):
    code = main(["simulate", write("b.json", PERM_JSON), "--trials", "10", "--seed", "1"])
    assert code == 2


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
