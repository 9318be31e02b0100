"""The help text of `substoch` and of each subcommand, pinned at 80 columns,
and the console script that pyproject.toml installs.  The goldens are
argparse's layout in CPython 3.11; a change to the parser's options, help
strings or order shows here as a diff."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import substoch
from substoch.cli import main

ROOT = Path(__file__).resolve().parents[1]

GOLDEN_HELP = {
    "": """\
usage: substoch [-h] {check,verify,falsify,simulate,gen} ...

Certify substochastic matrices and verify their fundamental-matrix, minor and
Schur-quotient identities.

positional arguments:
  {check,verify,falsify,simulate,gen}
    check               certify a matrix file as substochastic
    verify              evaluate identity residuals on a matrix file
    falsify             randomized counterexample search (exact backend)
    simulate            Monte-Carlo cross-check of (I-P)^-1
    gen                 write a reproducible instance as JsonExact

options:
  -h, --help            show this help message and exit
""",
    "check": """\
usage: substoch check [-h] [--backend {exact,float}] [--iterations ITERATIONS]
                      [--seed SEED] [--json]
                      path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --backend {exact,float}
                        force the scalar backend (default: exact for JSON,
                        float for CSV)
  --iterations ITERATIONS
                        power-iteration steps
  --seed SEED           start-vector seed for the estimate
  --json
""",
    "verify": """\
usage: substoch verify [-h]
                       [--identity {thm1,thm2,lemma1,lemma2,eq13,eq17,eq20,eq21,all}]
                       [--backend {exact,float}] [--tol TOL] [--m M] [--l L]
                       [--json]
                       path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --identity {thm1,thm2,lemma1,lemma2,eq13,eq17,eq20,eq21,all}
  --backend {exact,float}
                        force the scalar backend (default: exact for JSON,
                        float for CSV)
  --tol TOL             float-backend tolerance (default 1e-9)
  --m M                 restrict to this m index
  --l L                 restrict to this l index
  --json
""",
    "falsify": """\
usage: substoch falsify [-h] --identity
                        {thm1,thm2,lemma1,lemma2,eq13,eq17,eq20,eq21,all}
                        [--n N] --count COUNT --seed SEED [--density DENSITY]
                        [--max-row-sum MAX_ROW_SUM]
                        [--denominator-bound DENOMINATOR_BOUND] [--json]

options:
  -h, --help            show this help message and exit
  --identity {thm1,thm2,lemma1,lemma2,eq13,eq17,eq20,eq21,all}
  --n N                 dimension INT or range A..B
  --count COUNT         instances per family
  --seed SEED
  --density DENSITY     keep-probability per entry (fraction or decimal)
  --max-row-sum MAX_ROW_SUM
                        upper bound for row sums, in (0,1]
  --denominator-bound DENOMINATOR_BOUND
                        entry grid denominator
  --json
""",
    "simulate": """\
usage: substoch simulate [-h] [--backend {exact,float}] --trials TRIALS --seed
                         SEED [--sigma SIGMA] [--cap CAP] [--json]
                         path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --backend {exact,float}
                        force the scalar backend (default: exact for JSON,
                        float for CSV)
  --trials TRIALS
  --seed SEED
  --sigma SIGMA         flag threshold in half-widths
  --cap CAP             max moves per walk
  --json
""",
    "gen": """\
usage: substoch gen [-h] [--kind {substochastic,general}] --n N --seed SEED
                    [--density DENSITY] [--max-row-sum MAX_ROW_SUM]
                    [--denominator-bound DENOMINATOR_BOUND] [--out OUT]

options:
  -h, --help            show this help message and exit
  --kind {substochastic,general}
  --n N                 dimension
  --seed SEED
  --density DENSITY     keep-probability per entry (fraction or decimal)
  --max-row-sum MAX_ROW_SUM
                        upper bound for row sums, in (0,1]
  --denominator-bound DENOMINATOR_BOUND
                        entry grid denominator
  --out OUT             output path (default: stdout)
""",
}


def _help(main, command, monkeypatch, capsys) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*filter(None, [command]), "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(GOLDEN_HELP))
def test_help_matches_golden(command, monkeypatch, capsys):
    assert _help(main, command, monkeypatch, capsys) == GOLDEN_HELP[command]


def test_console_script_prints_the_help_of_python_m():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["substoch"]
    # the process entry, which freezes the heap before exit: called here it
    # would freeze this process's, so it runs as the installed script does,
    # sys.exit(entry()) in a process of its own
    assert target == "substoch.cli:entry"
    script = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "entry = EntryPoint(name='substoch', value=sys.argv.pop(1), group='console_scripts').load()\n"
        "sys.exit(entry())\n"
    )
    env = {
        **os.environ,
        "COLUMNS": "80",
        "PYTHONPATH": os.path.dirname(os.path.dirname(substoch.__file__)),
    }
    runs = [
        subprocess.run([sys.executable, *argv, "--help"], env=env, capture_output=True, text=True)
        for argv in (["-c", script, target], ["-m", "substoch"])
    ]
    assert [(run.returncode, run.stdout) for run in runs] == [(0, GOLDEN_HELP[""])] * 2
