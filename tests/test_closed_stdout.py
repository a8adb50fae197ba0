"""A closed stdout is an unwritable output: exit 2 and one ``error:`` line.

Each command runs with stdout on a pipe whose read end is closed before the
child starts, once with Python's default block buffering (the write fails
when ``run`` flushes) and once unbuffered (the first ``print`` fails).

Runs without pytest, so any interpreter can be checked:

    PYTHONPATH=src python tests/test_closed_stdout.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    ["extgcd", "240", "-46"],
    ["normalizer", "5", "7", "4"],
    ["verify", "--max", "5"],
    ["bench", "--bits", "8", "--count", "1", "--out", "{tmp}/r.csv"],
]


def _run_closed(argv: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        return subprocess.run(
            [sys.executable, "-m", "normgcd", *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(w)


def test_closed_stdout_exits_2_with_one_error_line():
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            argv = [arg.format(tmp=tmp) for arg in command]
            for unbuffered in (False, True):
                out = _run_closed(argv, unbuffered)
                lines = out.stderr.splitlines()
                where = (argv, unbuffered, out.stderr)
                assert out.returncode == 2, where
                assert len(lines) == 1 and lines[0].startswith("error: "), where
                assert "Traceback" not in out.stderr, where
                assert "Exception ignored" not in out.stderr, where


if __name__ == "__main__":
    test_closed_stdout_exits_2_with_one_error_line()
    print("ok")
