import inspect
import pickle

import pytest

from normgcd.baselines import Algorithm
from normgcd.bench import BenchCell, BenchReport, Corpus, CorpusPair, CorpusSpec
from normgcd.core import BezoutTriple, NormalState, Normalizer
from normgcd.oracle import Failure, VerificationReport

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
    (
        VerificationReport,
        "normgcd.oracle",
        ("cases_checked", "failures", "elapsed"),
        (4, [Failure(1, 2, 1, 1, 0)], 0.25),
        "VerificationReport(cases_checked=4, "
        "failures=[Failure(a=1, b=2, c=1, expected=1, actual=0)], elapsed=0.25)",
        "Outcome of a verification sweep; passes iff ``failures`` is empty.",
    ),
    (
        CorpusSpec,
        "normgcd.bench",
        ("bit_sizes", "pairs_per_size", "seed"),
        ((8, 16), 3, 1),
        "CorpusSpec(bit_sizes=(8, 16), pairs_per_size=3, seed=1)",
        "What to generate: operand bit sizes, pairs per size, RNG seed.",
    ),
    (
        CorpusPair,
        "normgcd.bench",
        ("a", "b"),
        (7, 4),
        "CorpusPair(a=7, b=4)",
        "One workload pair; ``a`` is odd, so every algorithm takes it.",
    ),
    (
        Corpus,
        "normgcd.bench",
        ("seed", "pairs_by_size"),
        (1, {8: [CorpusPair(129, 200)]}),
        "Corpus(seed=1, pairs_by_size={8: [CorpusPair(a=129, b=200)]})",
        "Generated pairs grouped by bit size, in spec order.",
    ),
    (
        BenchCell,
        "normgcd.bench",
        (
            "algorithm",
            "bit_size",
            "pairs",
            "repetitions",
            "total_ns",
            "mean_ns",
            "median_ns",
            "mean_iterations",
        ),
        ("wwl2", 16, 10, 2, 34567, 1728, 1700, 8.1),
        "BenchCell(algorithm='wwl2', bit_size=16, pairs=10, repetitions=2, "
        "total_ns=34567, mean_ns=1728, median_ns=1700, mean_iterations=8.1)",
        "Aggregated timing for one (algorithm, bit size) combination.\n"
        "\n"
        "The fields, in this order, are the CSV columns and the JSON cell keys.",
    ),
    (
        BenchReport,
        "normgcd.bench",
        ("seed", "environment", "cells"),
        (42, "CPython 3.10 on testhost", []),
        "BenchReport(seed=42, environment='CPython 3.10 on testhost', cells=[])",
        "All cells of one run plus the corpus seed and an environment note.",
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
