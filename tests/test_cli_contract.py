"""The CLI contract as a seeded property test.

`qtoda.cli.main` runs in-process on seeded argv lists for every command.
Each option takes either a small valid value or one of the edge values
0, -1, nan, +-inf, 1e309, 5e-324 and "x" (malformed partitions for a
partition, 1/0 for a shift), and each run must exit 0 or 2 and raise
nothing.  On exit 2 it prints one `error:` line or argparse's usage and
error lines, and leaves no file; on exit 0 it prints nothing on stderr but
laxcheck's `note:` line for a flow above the first.  Sizes stay small
(--T <= 6, --deg <= 5, --t-end <= 0.05, --invariants <= 4).

Negative controls: a step count with its t_end / dt overflow test removed
lets an OverflowError out of `main`, and so does a command that raises one.
"""

import inspect
import random

import pytest

from qtoda import cli, volterra
from qtoda.cli import main

SEED = 20261022
RUNS = 200

EDGE = ["0", "-1", "nan", "inf", "-inf", "1e309", "5e-324", "x"]
MALFORMED = ["[1,2]", "[-1]", "[x]", "[1,,2]", "[3,0,1]", "[2.5]", "3;1"]
PARTITIONS = ["[]", "[1]", "[2]", "[1,1]", "[2,1]", "[3,1]", "[2,2]", "[1,1,1]"]
OUT = ["report.json"]
UNWRITABLE = ["missing/report.json"]

# per command: (option, valid values, edge values, required); a flag's
# valid value is None, and "=" joins every other option to its value
COMMANDS = {
    "schur": [
        ("--mu", PARTITIONS, EDGE + MALFORMED, True),
        ("--nu", PARTITIONS, EDGE + MALFORMED, False),
        ("--json", [None], [], False),
        ("--out", OUT, UNWRITABLE, False),
    ],
    "vertex": [
        ("--nu", PARTITIONS[:6], EDGE + MALFORMED, True),
        ("--nubar", PARTITIONS[:6], EDGE + MALFORMED, True),
        ("--json", [None], [], False),
        ("--out", OUT, UNWRITABLE, False),
    ],
    "tau": [
        ("--a", ["1", "2", "3"], EDGE, True),
        ("--b", ["1", "2", "3"], EDGE, True),
        ("--sign", ["1", "-1"], EDGE, False),
        ("--shift", ["0", "1/2", "-1/3", "2"], EDGE + ["1/0"], False),
        ("--deg", ["0", "1", "3", "5"], EDGE, False),
        ("--out", OUT, UNWRITABLE, False),
    ],
    "identities": [
        ("--weight", ["0", "1", "2", "3"], EDGE, True),
        ("--weight-sym", ["0", "1", "2", "3"], EDGE, True),
        ("--weight-schur", ["0", "1", "2", "4"], EDGE, True),
        ("--shift-check", [None], [], False),
        ("--out", OUT, UNWRITABLE, False),
    ],
    "laxcheck": [
        ("--a", ["1", "2", "3"], EDGE, True),
        ("--b", ["1", "2"], EDGE, True),
        ("--sign", ["1", "-1"], EDGE, False),
        ("--T", ["2", "4", "6"], EDGE + ["1"], True),
        ("--deg", ["0", "3", "4", "5"], EDGE, False),
        ("--flow", ["1", "1", "2", "3"], EDGE, False),
        ("--out", OUT, UNWRITABLE, False),
    ],
    "simulate": [
        ("--a", ["1", "2"], EDGE, False),
        ("--b", ["1", "2"], EDGE, False),
        ("--sites", ["4", "8", "12"], EDGE, False),
        ("--dt", ["0.01", "0.005"], EDGE, False),
        ("--t-end", ["0", "0.01", "0.05"], EDGE, True),
        ("--flows", ["1", "2"], EDGE, False),
        ("--invariants", ["1", "2", "4"], EDGE, True),
        ("--base", ["1.0", "0.5", "2.0"], EDGE, False),
        ("--amplitude", ["0", "0.1"], EDGE, False),
        ("--wavelength", ["1", "4", "12"], EDGE, False),
        ("--record-every", ["1", "10"], EDGE, False),
        ("--order-check", [None], [], False),
        ("--out-csv", ["traj.csv"], ["report.json", "missing/traj.csv"], True),
        ("--out", OUT, UNWRITABLE, False),
    ],
}

# each malformed partition, inputs once mended by hand, and the step count
# that overflows a float
FIXED = [["schur", f"--mu={text}"] for text in MALFORMED] + [
    ["simulate", "--base=1.3e153", "--amplitude=0", "--invariants=2", "--t-end=0.05",
     "--out-csv=traj.csv"],
    ["simulate", "--sites=8", "--base=0.03125", "--amplitude=0", "--invariants=2",
     "--t-end=0.05", "--out-csv=traj.csv"],
    ["simulate", "--dt=5e-324", "--t-end=0.05", "--invariants=2", "--out-csv=traj.csv"],
    ["tau", "--a=1", "--b=1", "--shift=1/0"],
    ["laxcheck", "--a=2", "--b=2", "--T=2"],
]


def seeded_argvs(seed: int = SEED, runs: int = RUNS) -> list[list[str]]:
    """The fixed inputs, then seeded ones, each command in turn: every
    required option and about half the others; in every other run about one
    value in three is an edge value, in the rest none is."""
    rng, names, argvs = random.Random(seed), sorted(COMMANDS), [list(a) for a in FIXED]
    while len(argvs) < runs:
        command, edgy = names[len(argvs) % len(names)], rng.random() < 0.5
        argv = [command]
        for option, valid, edge, required in COMMANDS[command]:
            if not required and rng.random() < 0.5:
                continue
            value = rng.choice(edge if edge and edgy and rng.random() < 0.3 else valid)
            argv.append(option if value is None else f"{option}={value}")
        argvs.append(argv)
    return argvs


def contract_violations(argvs, workdir, capsys) -> tuple[list[str], dict]:
    """Run every argv in workdir and return how each breaks the contract,
    and the exit codes seen per command."""
    bad, codes = [], {}
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape breaks the contract
            code = f"raised {type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        files = sorted(p.name for p in workdir.iterdir())
        for p in workdir.iterdir():
            p.unlink()
        codes.setdefault(argv[0], set()).add(code)
        lines = [line for line in err.splitlines() if not line.startswith("note: ")]
        notes = len(err.splitlines()) - len(lines)
        if code == 0:
            wrong = lines or (notes and argv[0] != "laxcheck")
        elif code == 2:
            one_error = len(lines) == 1 and lines[0].startswith("error: ")
            usage = bool(lines) and lines[0].startswith("usage: ") and ": error: " in lines[-1]
            wrong = files or not (one_error or usage)
        else:
            wrong = True
        if wrong:
            bad.append(f"{' '.join(argv)}: exit {code}, files {files}, stderr {err!r}")
    return bad, codes


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_command_exits_0_or_2_and_keeps_its_output_contract(workdir, capsys):
    argvs = seeded_argvs()
    bad, codes = contract_violations(argvs, workdir, capsys)
    assert bad == []
    # the runs reach both outcomes of every command, and every edge value
    assert sorted(codes) == sorted(COMMANDS)
    assert all(code_set == {0, 2} for code_set in codes.values()), codes
    used = {arg.split("=", 1)[1] for argv in argvs for arg in argv if "=" in arg}
    assert set(EDGE + MALFORMED + ["1/0"]) <= used


def test_the_contract_sees_a_step_count_that_overflows(workdir, capsys, monkeypatch):
    # negative control: the step count with its t_end / dt overflow test cut
    # out of its source, every other check kept
    lines = inspect.getsource(volterra._step_count).splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if "isfinite(t_end / dt)" in line)
    assert lines[at + 1].lstrip().startswith("raise ValueError")
    namespace = dict(vars(volterra))
    exec("".join(lines[:at] + lines[at + 2:]), namespace)
    monkeypatch.setattr(volterra, "_step_count", namespace["_step_count"])
    bad, _ = contract_violations(seeded_argvs(), workdir, capsys)
    assert any("--dt=5e-324" in b and "raised OverflowError" in b for b in bad), bad


def test_the_contract_sees_a_command_that_lets_an_overflow_out(workdir, capsys, monkeypatch):
    # negative control: a command whose arithmetic overflows past main's handler
    def overflows(args):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(cli, "cmd_tau", overflows)
    bad, _ = contract_violations(seeded_argvs(), workdir, capsys)
    assert bad and all(b.startswith("tau ") for b in bad)
