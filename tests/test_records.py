import inspect
import pickle

import pytest

from normgcd.baselines import Algorithm
from normgcd.core import BezoutTriple, NormalState, Normalizer
from normgcd.oracle import Failure

# (record, module, fields, one instance's values, its repr, inspect.getdoc text)
RECORDS = [
    (
        BezoutTriple,
        "normgcd.core",
        ("u", "v", "g"),
        (4, 3, 1),
        "BezoutTriple(u=4, v=3, g=1)",
        "Solution (u, v, g) of u*a + v*b = g = gcd(a, b) for some pair (a, b).",
    ),
    (
        NormalState,
        "normgcd.core",
        ("u", "v", "c"),
        (-4, 3, 1),
        "NormalState(u=-4, v=3, c=1)",
        "A solution (u, v) of u*a + v*b = c with v normalized into [0, a-1].",
    ),
    (
        Normalizer,
        "normgcd.core",
        ("value", "conormalizer"),
        (2, 3),
        "Normalizer(value=2, conormalizer=3)",
        "The two distinguished residues attached to u*a + v*b = c.\n"
        "\n"
        "``value`` is a v in [0, a-1] with a | (c - v*b), unique when\n"
        "gcd(a, b) = 1.  ``conormalizer`` is the t in [0, a-1] such that\n"
        "(x, -t) solves the same equation for some integer x, i.e.\n"
        "a | (c + t*b).",
    ),
    (
        Algorithm,
        "normgcd.baselines",
        ("timed", "steps"),
        (abs, divmod),
        "Algorithm(timed=<built-in function abs>, steps=<built-in function divmod>)",
        "One row of ALGORITHMS.\n"
        "\n"
        "``timed`` is the function the benchmark times; ``steps`` returns\n"
        "(gcd, main-loop iterations) for the same pair.",
    ),
    (
        Failure,
        "normgcd.oracle",
        ("a", "b", "c", "expected", "actual"),
        (6, 4, 2, "v in [0, 2]", 5),
        "Failure(a=6, b=4, c=2, expected='v in [0, 2]', actual=5)",
        "One failed check: the input pair, the c involved, and both sides.",
    ),
]


@pytest.mark.parametrize(
    "record, module, fields, values, text, doc",
    RECORDS,
    ids=[r[0].__name__ for r in RECORDS],
)
def test_record_surface(record, module, fields, values, text, doc):
    name = text.partition("(")[0]
    assert record.__name__ == record.__qualname__ == name
    assert record.__module__ == module
    assert record._fields == record.__match_args__ == fields
    assert inspect.getdoc(record) == doc
    instance = record(*values)
    assert repr(instance) == text
    assert instance == values
    copy = pickle.loads(pickle.dumps(instance))
    assert type(copy) is record and copy == instance
