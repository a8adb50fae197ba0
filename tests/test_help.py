"""``normgcd --help`` and each command's ``--help``, pinned by one golden per
argparse layout.

CPython 3.13 lays out argparse help differently from 3.10-3.12 (the
column of the command list and of ``-h, --help``), so each layout has its
own golden, picked by ``sys.version_info``.  The width is fixed at 80
columns.  Runs without pytest, so any interpreter can be checked against
its golden; it exits 1 and prints a diff on a mismatch:

    PYTHONPATH=src python -S tests/test_help.py

A deliberate change of the help regenerates the running interpreter's
golden with ``--dump``:

    PYTHONPATH=src python tests/test_help.py --dump > tests/data/help-3.13.txt
"""

import difflib
import os
import sys
from pathlib import Path

import procs

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / ("help-3.13.txt" if sys.version_info >= (3, 13) else "help-3.10.txt")
COMMANDS = ["", "extgcd", "gcd", "normalizer", "verify", "bench"]


def dump():
    """The help of the CLI and of each command, each under a ``$`` line."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    text = []
    try:
        for command in COMMANDS:
            argv = [command, "--help"] if command else ["--help"]
            code, out, err = procs.run(argv)
            assert (code, err) == (0, ""), (argv, code, err)
            text.append(f"$ normgcd {' '.join(argv)}\n{out}")
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return "".join(text)


def test_help_matches_golden():
    assert dump() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        sys.stdout.write(dump())
        sys.exit(0)
    got, want = dump(), GOLDEN.read_text()
    sys.stdout.writelines(
        difflib.unified_diff(want.splitlines(True), got.splitlines(True), str(GOLDEN), "dump")
    )
    sys.exit(got != want)
