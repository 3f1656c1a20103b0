"""The example scripts under scripts/ run end to end."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="script")["main"]


def test_run_manufactured(capsys):
    _main("run_manufactured.py")()
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == [8, 16, 32, 64]
    assert all(int(row.split()[3]) > 0 for row in rows)  # Newton steps taken


def test_run_continuity(capsys):
    _main("run_continuity.py")()
    out = dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    assert float(out["residual_sup"]) <= 1e-11  # the script's solver tol
    assert int(out["gmres iterations"]) > 0
