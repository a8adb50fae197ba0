"""An unwritable stdout exits 2 with one ``error: cannot write output:`` line.

Two kinds of unwritable stdout: a pipe whose read end is closed before the
child starts, and the full device ``/dev/full``, where every write fails
with ENOSPC (tested wherever it exists).  Each command runs on each, once
with Python's default block buffering (the write fails when ``run``
flushes) and once unbuffered (the first ``print`` fails).

Runs without pytest, so any interpreter can be checked:

    PYTHONPATH=src python tests/test_closed_stdout.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FULL_DEVICE = "/dev/full"

COMMANDS = [
    ["extgcd", "240", "-46"],
    ["normalizer", "5", "7", "4"],
    ["gcd", "4", "6"],
    ["verify", "--max", "5"],
    ["bench", "--bits", "8", "--count", "1", "--out", "{tmp}/r.csv"],
]


def _closed_pipe() -> int:
    r, w = os.pipe()
    os.close(r)
    return w


def _full_device() -> int:
    return os.open(FULL_DEVICE, os.O_WRONLY)


def _run(argv: list[str], open_stdout, unbuffered: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    fd = open_stdout()
    try:
        return subprocess.run(
            [sys.executable, "-m", "normgcd", *argv],
            stdout=fd,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(fd)


def _check_every_command(open_stdout) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            argv = [arg.format(tmp=tmp) for arg in command]
            for unbuffered in (False, True):
                out = _run(argv, open_stdout, unbuffered)
                lines = out.stderr.splitlines()
                where = (argv, unbuffered, out.returncode, out.stderr)
                assert out.returncode == 2, where
                assert len(lines) == 1, where
                assert lines[0].startswith("error: cannot write output: "), where
                assert "Traceback" not in out.stderr, where
                assert "Exception ignored" not in out.stderr, where


def test_closed_stdout_exits_2_with_one_error_line():
    _check_every_command(_closed_pipe)


if os.path.exists(FULL_DEVICE):

    def test_full_device_exits_2_with_one_error_line():
        _check_every_command(_full_device)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(name, "ok")
    print("ok")
