"""Seeded workloads and a timing harness for the four gcd algorithms.

Corpus generation is a pure function of its spec: same spec, same pairs,
bit for bit.  Each k-bit operand lies in [2^(k-1), 2^k), and the first of
a pair is odd (its low bit is set), so every algorithm takes every pair.
Each run covers all four algorithms of the one table
``baselines.ALGORITHMS`` in one pass: per (algorithm, bit size) cell and
per pair, the ``steps`` function counts loop iterations and the ``timed``
function is timed single-threaded, and both outputs are checked against
``math.gcd`` outside the timed region.  Reports serialize to CSV or JSON;
the fields of ``BenchCell`` are the one schema of a cell in both.
"""

import json
import math
import platform
import random
import statistics
import time
from collections import namedtuple

from .baselines import ALGORITHMS

__all__ = [
    "BenchCell",
    "BenchReport",
    "Corpus",
    "CorpusPair",
    "CorpusSpec",
    "GcdDisagreement",
    "emit_report",
    "generate_corpus",
    "run_benchmark",
]


CorpusSpec = namedtuple("CorpusSpec", "bit_sizes pairs_per_size seed")
CorpusSpec.__doc__ = "What to generate: operand bit sizes, pairs per size, RNG seed."

CorpusPair = namedtuple("CorpusPair", "a b")
CorpusPair.__doc__ = "One workload pair; ``a`` is odd, so every algorithm takes it."

Corpus = namedtuple("Corpus", "seed pairs_by_size")
Corpus.__doc__ = "Generated pairs grouped by bit size, in spec order."


class GcdDisagreement(RuntimeError):
    """An algorithm's gcd for a pair was not ``math.gcd``, or a timed
    function's output failed its check against it."""

    def __init__(self, bit_size: int, pair: CorpusPair, results: dict[str, object]):
        self.bit_size = bit_size
        self.pair = pair
        self.results = results
        super().__init__(
            f"gcd disagreement on ({pair.a}, {pair.b}) at {bit_size} bits: {results}"
        )


BenchCell = namedtuple(
    "BenchCell",
    "algorithm bit_size pairs repetitions total_ns mean_ns median_ns mean_iterations",
)
BenchCell.__doc__ = """Aggregated timing for one (algorithm, bit size) combination.

The fields, in this order, are the CSV columns and the JSON cell keys.
"""


class BenchReport(namedtuple("BenchReport", "seed environment cells")):
    """All cells of one run plus the corpus seed and an environment note."""

    __slots__ = ()

    def cell(self, algorithm: str, bit_size: int) -> BenchCell:
        for c in self.cells:
            if c.algorithm == algorithm and c.bit_size == bit_size:
                return c
        raise KeyError(f"no cell for ({algorithm!r}, {bit_size})")


def _draw(rng: random.Random, bits: int) -> int:
    """Uniform in [2^(bits-1), 2^bits)."""
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically draw the corpus described by ``spec``.

    Operands are uniform in [2^(k-1), 2^k) for each requested bit size k,
    each size from a fresh generator seeded with ``spec.seed``, so a size's
    pairs depend only on k, the pair count and the seed, not on the other
    sizes.  The first operand is then made odd by setting its low bit, which
    keeps it in that range, so that one corpus feeds every algorithm,
    including the odd-first solver.
    """
    if not spec.bit_sizes:
        raise ValueError("bit_sizes must be non-empty")
    if len(set(spec.bit_sizes)) != len(spec.bit_sizes):
        raise ValueError(f"duplicate bit sizes in {spec.bit_sizes}")
    for k in spec.bit_sizes:
        if k < 2:
            raise ValueError(f"bit sizes must be >= 2, got {k}")
    if spec.pairs_per_size < 1:
        raise ValueError(f"pairs_per_size must be >= 1, got {spec.pairs_per_size}")
    if not 0 <= spec.seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {spec.seed}")

    pairs_by_size: dict[int, list[CorpusPair]] = {}
    for k in spec.bit_sizes:
        rng = random.Random(spec.seed)
        pairs_by_size[k] = [
            CorpusPair(_draw(rng, k) | 1, _draw(rng, k))
            for _ in range(spec.pairs_per_size)
        ]
    return Corpus(spec.seed, pairs_by_size)


def run_benchmark(corpus: Corpus) -> BenchReport:
    """Time every algorithm of ``ALGORITHMS`` on every corpus pair.

    One pass over (algorithm, bit size) cells.  Per pair, outside the timed
    region: the ``steps`` gcd must equal ``math.gcd``'s g, and its iteration
    count goes into the cell's mean; one warm-up call's output must have gcd
    g and, for wwl2, be a tuple (u, v, g) with u*a + v*b = g and 0 <= v < a.
    A mismatch raises GcdDisagreement, so earlier cells may already be timed.
    Then one timed call runs, single-threaded; ``repetitions`` is 1 per cell.
    """
    sizes = {k: len(pairs) for k, pairs in corpus.pairs_by_size.items()}
    if not sizes or 0 in sizes.values():
        raise ValueError(f"corpus needs pairs at every bit size, got {sizes}")

    cells = []
    for algo, (fn, steps) in ALGORITHMS.items():
        for k, pairs in corpus.pairs_by_size.items():
            per_pair_ns = []
            iterations = 0
            for pair in pairs:
                pa, pb = pair.a, pair.b
                g = math.gcd(pa, pb)
                h, n = steps(pa, pb)
                if h != g:
                    raise GcdDisagreement(k, pair, {algo: h, "gcd": g})
                iterations += n
                # warm-up: first calls run slow, wwl2's most, and would skew wwl2/mixed
                out = fn(pa, pb)
                if not _timed_output_ok(algo, pa, pb, out, g):
                    raise GcdDisagreement(k, pair, {algo: out, "gcd": g})
                t0 = time.perf_counter_ns()
                fn(pa, pb)
                per_pair_ns.append(time.perf_counter_ns() - t0)
            total = sum(per_pair_ns)
            cells.append(
                BenchCell(
                    algorithm=algo,
                    bit_size=k,
                    pairs=len(pairs),
                    repetitions=1,
                    total_ns=total,
                    mean_ns=round(total / len(pairs)),
                    median_ns=round(statistics.median(per_pair_ns)),
                    mean_iterations=iterations / len(pairs),
                )
            )
    return BenchReport(corpus.seed, _environment_note(), cells)


def _timed_output_ok(algo: str, a: int, b: int, out: object, g: int) -> bool:
    if algo != "wwl2":
        return out == g
    if not isinstance(out, tuple) or len(out) != 3:
        return False
    u, v, h = out
    return h == g and u * a + v * b == g and 0 <= v < a


def _environment_note() -> str:
    return (
        f"{platform.python_implementation()} {platform.python_version()} "
        f"on {platform.platform()}"
    )


def emit_report(report: BenchReport, fmt: str) -> bytes:
    """Serialize a report; ``fmt`` is "csv" or "json".

    CSV has a header of the ``BenchCell`` field names and one row of field
    values per cell.  JSON holds the corpus seed, the environment note and
    one object per cell with the same fields, in the same order.
    """
    if fmt == "csv":
        rows = [BenchCell._fields, *report.cells]
        return "".join(",".join(map(str, row)) + "\n" for row in rows).encode()
    if fmt == "json":
        doc = {
            "seed": report.seed,
            "environment": report.environment,
            "cells": [c._asdict() for c in report.cells],
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")
