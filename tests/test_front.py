"""The CLI front's own ``extgcd`` reader and the argparse parser agree.

``cli.run`` reads ``extgcd A B`` followed only by ``--canonical`` and
``--conormalizer`` itself, and hands every other argv to the parser.  Each
argv below runs twice in process: through ``cli.run`` as it is, and
through ``cli.run`` with the reader switched off, which is the argparse
route (``build_parser().parse_args`` then ``args.func``) under the same
exception handling.  Exit code, stdout and stderr must match.
"""

import itertools

import pytest

from normgcd import cli

import procs

FLAGS = ["--canonical", "--conormalizer"]
BIG = "9" * 4999 + "7"

# flags in every order, repeated, abbreviated, and one before or between the
# operands, which sends the argv to the parser
FLAG_ARGVS = [
    ["extgcd", "5", "7", *flags]
    for n in range(4)
    for flags in itertools.product([*FLAGS, "--can", "--con"], repeat=n)
]
FLAG_ARGVS += [
    ["extgcd", *argv]
    for flag in [*FLAGS, "--can", "--c", "--canonical=1", "-h", "--", "--bogus"]
    for argv in ([flag, "5", "-7"], ["5", flag, "-7"], ["-5", "7", flag])
]

OPERANDS = [
    "5", "-5", "0", " 5", "5 ", "\t-5\n", "0x1f", "0X1F", "-0x1f", "+5", "+0x1F", "007",
    "1_0", "-1_0", "0x_1f", "٣", "-٣", "", " ", "0x", "++5", "+-5", "- 5", "5 5",
    "--5", "5.0", "1e3",
]
OPERAND_ARGVS = [["extgcd", x, "-12"] for x in OPERANDS]
OPERAND_ARGVS += [["extgcd", "18", x, "--canonical"] for x in OPERANDS]

EDGE_ARGVS = [
    ["extgcd", "0", "0", "--canonical"],
    ["extgcd", "0", "5", "--conormalizer"],
    ["extgcd", "0", "0"],
    ["extgcd", "6", "0", "--canonical", "--conormalizer"],
    ["extgcd", BIG, "-" + BIG[::-1]],
    ["extgcd", "-" + BIG, "3", "--canonical", "--conormalizer"],
    ["extgcd"],
    ["extgcd", "5"],
    ["extgcd", "5", "7", "8"],
    ["extgcd", "--help"],
    ["gcd", "4", "6"],
    ["normalizer", "5", "7", "4"],
    [],
]

ARGVS = FLAG_ARGVS + OPERAND_ARGVS + EDGE_ARGVS


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: repr(argv)[:60])
def test_reader_and_parser_agree(argv, monkeypatch):
    front = procs.run(argv)
    monkeypatch.setattr(cli, "_extgcd_args", lambda argv: None)
    assert front == procs.run(argv)


class ParserCalled(Exception):
    pass


def _parser_called():
    raise ParserCalled


def test_reader_takes_only_operands_then_flags(monkeypatch):
    # so the agreement above covers the front's own path, not two parser runs
    monkeypatch.setattr(cli, "build_parser", _parser_called)
    taken = []
    for argv in ARGVS:
        try:
            procs.run(argv)
        except ParserCalled:
            continue
        taken.append(argv)
    assert ["extgcd", "5", "7"] in taken
    assert ["extgcd", "5", "7", "--conormalizer", "--canonical", "--canonical"] in taken
    assert ["extgcd", "0", "0", "--canonical"] in taken
    assert ["extgcd", BIG, "-" + BIG[::-1]] in taken
    assert ["extgcd", "-0x1f", "-12"] in taken
    assert ["extgcd", "\t-5\n", "-12"] in taken
    for argv in taken:
        assert argv[0] == "extgcd" and set(argv[3:]) <= set(FLAGS), argv
    assert ["extgcd", "5", "7", "--can"] not in taken
    assert ["extgcd", "--", "5", "-7"] not in taken
    assert ["extgcd", "1_0", "-12"] not in taken
