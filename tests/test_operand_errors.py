"""The exact error each checked entry point gives for operands it rejects.

Four rule sets, each checked in this order and stopping at the first rule
broken: the odd-first solvers take a > 0, then a odd, then b > 0; ``div1``
and ``div2`` take a > 0, then a odd, and ignore b; ``normalizer_of`` takes
a > 0, then b > 0; ``normalize_solution`` takes a > 0 only.  The rows with
two broken rules pin that order.
"""

import pytest

from normgcd import cli
from normgcd.core import (
    NormalState,
    div1,
    div2,
    normalize_solution,
    normalizer_of,
    wwl1,
    wwl1_trace,
    wwl2,
    wwl2_trace,
)

# each entry point called on (a, b), with its other arguments fixed
ODD_FIRST = {
    "wwl1": wwl1,
    "wwl1_trace": wwl1_trace,
    "wwl2": wwl2,
    "wwl2_trace": wwl2_trace,
}
ODD_A = {
    "div1": lambda a, b: div1(a, 2, 1),
    "div2": lambda a, b: div2(a, b, NormalState(0, 1, 2)),
}
BOTH_POSITIVE = {"normalizer_of": lambda a, b: normalizer_of(a, b, 1)}
POSITIVE_A = {"normalize_solution": lambda a, b: normalize_solution(a, b, 1, 1)}

# (a, b): the message of each rule set, in the order above; None accepts
TABLE = {
    (4, 0): (
        "first operand must be odd, got 4",
        "first operand must be odd, got 4",
        "second operand must be positive, got 0",
        None,
    ),
    (0, 0): ("first operand must be positive, got 0",) * 4,
    (-2, -1): ("first operand must be positive, got -2",) * 4,
    (6, -3): (
        "first operand must be odd, got 6",
        "first operand must be odd, got 6",
        "second operand must be positive, got -3",
        None,
    ),
    (4, 7): (
        "first operand must be odd, got 4",
        "first operand must be odd, got 4",
        None,
        None,
    ),
    (0, 5): ("first operand must be positive, got 0",) * 4,
    (-3, 7): ("first operand must be positive, got -3",) * 4,
    (9, 0): (
        "second operand must be positive, got 0",
        None,
        "second operand must be positive, got 0",
        None,
    ),
    (9, -2): (
        "second operand must be positive, got -2",
        None,
        "second operand must be positive, got -2",
        None,
    ),
}

CASES = [
    pytest.param(fn, a, b, messages[i], id=f"{name}({a},{b})")
    for (a, b), messages in TABLE.items()
    for i, rules in enumerate((ODD_FIRST, ODD_A, BOTH_POSITIVE, POSITIVE_A))
    for name, fn in rules.items()
]


@pytest.mark.parametrize("fn,a,b,message", CASES)
def test_operand_error(fn, a, b, message):
    if message is None:
        fn(a, b)
        return
    with pytest.raises(ValueError) as exc:
        fn(a, b)
    assert exc.type is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "argv,option,value",
    [
        (["bench", "--out", "r.csv", "--count", "0x10"], "--count", "0x10"),
        (["bench", "--out", "r.csv", "--seed", "0X7"], "--seed", "0X7"),
        (["bench", "--out", "r.csv", "--bits", "8,0x10"], "--bits", "0x10"),
        (["verify", "--max", "1_0"], "--max", "1_0"),
    ],
)
def test_option_values_take_no_hex(capsys, argv, option, value):
    # operands take 0x-hex; option values take the same grammar without it
    assert cli.run(argv) == 64
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"error: argument {option}: not an integer: {value!r}")
