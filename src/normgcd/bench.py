"""Seeded workloads and a timing harness for the four gcd algorithms.

Corpus generation is a pure function of its spec: same spec, same pairs,
bit for bit.  Each k-bit operand lies in [2^(k-1), 2^k), and the first of
a pair is odd (its low bit is set), so every algorithm takes every pair.
Each run covers all four algorithms of the one table
``baselines.ALGORITHMS``.  The harness first sweeps every pair through every
``steps`` function to force gcd agreement (and collect loop-iteration
counts), then times the ``timed`` functions single-threaded, per pair,
and checks their outputs outside the timed region.  Reports serialize to
CSV or JSON; the fields of ``BenchCell`` are the one schema of a cell in
both.
"""

import json
import platform
import random
import statistics
import time
from dataclasses import asdict, astuple, dataclass, fields

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


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: operand bit sizes, pairs per size, RNG seed."""

    bit_sizes: tuple[int, ...]
    pairs_per_size: int
    seed: int


@dataclass(frozen=True)
class CorpusPair:
    """One workload pair; ``a`` is odd, so every algorithm takes it."""

    a: int
    b: int


@dataclass
class Corpus:
    """Generated pairs grouped by bit size, in spec order."""

    seed: int
    pairs_by_size: dict[int, list[CorpusPair]]


class GcdDisagreement(RuntimeError):
    """Two algorithms returned different gcds for the same pair, or a timed
    function's output failed its check against the agreed gcd."""

    def __init__(self, bit_size: int, pair: CorpusPair, results: dict[str, object]):
        self.bit_size = bit_size
        self.pair = pair
        self.results = results
        super().__init__(
            f"gcd disagreement on ({pair.a}, {pair.b}) at {bit_size} bits: {results}"
        )


@dataclass(frozen=True)
class BenchCell:
    """Aggregated timing for one (algorithm, bit size) combination.

    The fields, in this order, are the CSV columns and the JSON cell keys.
    """

    algorithm: str
    bit_size: int
    pairs: int
    repetitions: int
    total_ns: int
    mean_ns: int
    median_ns: int
    mean_iterations: float


CSV_COLUMNS = tuple(f.name for f in fields(BenchCell))


@dataclass
class BenchReport:
    """All cells of one run plus the corpus seed and an environment note."""

    seed: int
    environment: str
    cells: list[BenchCell]

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

    Operands are uniform in [2^(k-1), 2^k) for each requested bit size k.
    The first operand is then made odd by setting its low bit, which keeps
    it in that range, so that one corpus feeds every algorithm, including
    the odd-first solver.
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

    rng = random.Random(spec.seed)
    pairs_by_size: dict[int, list[CorpusPair]] = {}
    for k in spec.bit_sizes:
        pairs_by_size[k] = [
            CorpusPair(_draw(rng, k) | 1, _draw(rng, k))
            for _ in range(spec.pairs_per_size)
        ]
    return Corpus(spec.seed, pairs_by_size)


def run_benchmark(corpus: Corpus, repetitions: int = 1) -> BenchReport:
    """Time every algorithm of ``ALGORITHMS`` on every corpus pair.

    A validation sweep runs first: each algorithm's ``steps`` gcd on each
    pair, with any disagreement raising GcdDisagreement before anything is
    timed; the sweep also collects mean loop-iteration counts.  Timing is
    then per pair, single-threaded, with one warm-up call per pair outside
    the timed region.  The warm-up output is checked: its gcd must be the
    agreed one and, for wwl2, u*a + v*b = g with 0 <= v < a must hold;
    a mismatch raises GcdDisagreement.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    sizes = {k: len(pairs) for k, pairs in corpus.pairs_by_size.items()}
    if not sizes or 0 in sizes.values():
        raise ValueError(f"corpus needs pairs at every bit size, got {sizes}")

    mean_steps: dict[tuple[str, int], float] = {}
    agreed: dict[int, list[int]] = {}
    for k, pairs in corpus.pairs_by_size.items():
        step_sums = dict.fromkeys(ALGORITHMS, 0)
        agreed[k] = []
        for pair in pairs:
            gcds: dict[str, int] = {}
            for algo, row in ALGORITHMS.items():
                g, n = row.steps(pair.a, pair.b)
                gcds[algo] = g
                step_sums[algo] += n
            if len(set(gcds.values())) > 1:
                raise GcdDisagreement(k, pair, gcds)
            agreed[k].append(g)
        for algo in ALGORITHMS:
            mean_steps[algo, k] = step_sums[algo] / len(pairs)

    cells = []
    for algo, (fn, _) in ALGORITHMS.items():
        for k, pairs in corpus.pairs_by_size.items():
            per_pair_ns = []
            for pair, g in zip(pairs, agreed[k]):
                pa, pb = pair.a, pair.b
                out = fn(pa, pb)  # warm-up: checked, not timed
                if not _timed_output_ok(algo, pa, pb, out, g):
                    raise GcdDisagreement(k, pair, {algo: out, "agreed": g})
                t0 = time.perf_counter_ns()
                for _ in range(repetitions):
                    fn(pa, pb)
                per_pair_ns.append(time.perf_counter_ns() - t0)
            total = sum(per_pair_ns)
            calls = len(pairs) * repetitions
            cells.append(
                BenchCell(
                    algorithm=algo,
                    bit_size=k,
                    pairs=len(pairs),
                    repetitions=repetitions,
                    total_ns=total,
                    mean_ns=round(total / calls),
                    median_ns=round(statistics.median(per_pair_ns) / repetitions),
                    mean_iterations=mean_steps[algo, k],
                )
            )
    return BenchReport(corpus.seed, _environment_note(), cells)


def _timed_output_ok(algo: str, a: int, b: int, out: object, g: int) -> bool:
    if algo == "wwl2":
        u, v, h = out
        return h == g and u * a + v * b == g and 0 <= v < a
    return out == g


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
        rows = [CSV_COLUMNS, *map(astuple, report.cells)]
        return "".join(",".join(map(str, row)) + "\n" for row in rows).encode()
    if fmt == "json":
        doc = {
            "seed": report.seed,
            "environment": report.environment,
            "cells": [asdict(c) for c in report.cells],
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")
