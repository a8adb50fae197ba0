"""Seeded workloads and a timing harness for the four gcd algorithms.

Corpus generation is a pure function of its spec: same spec, same pairs,
bit for bit.  The harness takes each algorithm's functions from the one
table ``baselines.ALGORITHMS``.  It first sweeps every pair through every
``steps`` function to force gcd agreement (and collect loop-iteration
counts), then times the ``timed`` functions single-threaded, per pair,
and checks their outputs outside the timed region.  Reports serialize to
CSV or JSON with a fixed schema.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import time
from dataclasses import dataclass
from typing import Sequence, Union

from .baselines import ALGORITHMS, GcdAlgorithmId

__all__ = [
    "BenchCell",
    "BenchReport",
    "Corpus",
    "CorpusPair",
    "CorpusSpec",
    "GcdDisagreement",
    "PARITY_MIXES",
    "cells_from_csv",
    "emit_report",
    "generate_corpus",
    "report_from_json",
    "run_benchmark",
]

PARITY_MIXES = ("any", "odd-odd", "odd-even")

CSV_COLUMNS = (
    "algorithm",
    "bit_size",
    "pairs",
    "repetitions",
    "total_ns",
    "mean_ns",
    "median_ns",
    "mean_iterations",
)


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: operand bit sizes, pairs per size, RNG seed, parity."""

    bit_sizes: tuple[int, ...]
    pairs_per_size: int
    seed: int
    parity_mix: str = "any"


@dataclass(frozen=True)
class CorpusPair:
    """One workload pair.

    ``forced_odd`` records that the first operand was decremented to make
    it odd, which keeps the same pair inside every algorithm's domain.
    """

    a: int
    b: int
    forced_odd: bool = False


@dataclass
class Corpus:
    """Generated pairs grouped by bit size, in spec order."""

    seed: int
    parity_mix: str
    pairs_by_size: dict[int, list[CorpusPair]]

    def total_pairs(self) -> int:
        return sum(len(pairs) for pairs in self.pairs_by_size.values())


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
    """Aggregated timing for one (algorithm, bit size) combination."""

    algorithm: str
    bit_size: int
    pairs: int
    repetitions: int
    total_ns: int
    mean_ns: int
    median_ns: int
    mean_iterations: float


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


def _draw(rng: random.Random, bits: int, want_parity: Union[int, None]) -> int:
    """Uniform in [2^(bits-1), 2^bits), redrawn until the parity matches."""
    top = 1 << (bits - 1)
    while True:
        x = top | rng.getrandbits(bits - 1)
        if want_parity is None or x & 1 == want_parity:
            return x


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically draw the corpus described by ``spec``.

    Operands are uniform in [2^(k-1), 2^k) for each requested bit size k
    and redrawn until the parity mix is met.  The first operand is then
    made odd (decrement, recorded per pair) so that one corpus feeds every
    algorithm, including the odd-first solver.
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
    if spec.parity_mix not in PARITY_MIXES:
        raise ValueError(f"unknown parity mix {spec.parity_mix!r}")

    want_a, want_b = {
        "any": (None, None),
        "odd-odd": (1, 1),
        "odd-even": (1, 0),
    }[spec.parity_mix]
    rng = random.Random(spec.seed)
    pairs_by_size: dict[int, list[CorpusPair]] = {}
    for k in spec.bit_sizes:
        pairs = []
        for _ in range(spec.pairs_per_size):
            a = _draw(rng, k, want_a)
            b = _draw(rng, k, want_b)
            forced = a & 1 == 0
            if forced:
                a -= 1
            pairs.append(CorpusPair(a, b, forced))
        pairs_by_size[k] = pairs
    return Corpus(spec.seed, spec.parity_mix, pairs_by_size)


def run_benchmark(
    corpus: Corpus,
    algorithms: Sequence[Union[GcdAlgorithmId, str]] = tuple(GcdAlgorithmId),
    repetitions: int = 1,
) -> BenchReport:
    """Time every requested algorithm on every corpus pair.

    A validation sweep runs first: each algorithm's ``steps`` gcd on each
    pair, with any disagreement raising GcdDisagreement before anything is
    timed; the sweep also collects mean loop-iteration counts.  Timing is
    then per pair, single-threaded, with one warm-up call per pair outside
    the timed region.  The warm-up output is checked: its gcd must be the
    agreed one and, for wwl2, u*a + v*b = g with 0 <= v < a must hold;
    a mismatch raises GcdDisagreement.
    """
    algos = [GcdAlgorithmId(x) for x in algorithms]
    if not algos:
        raise ValueError("no algorithms selected")
    if len(set(algos)) != len(algos):
        raise ValueError(f"duplicate algorithms in {algorithms!r}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if corpus.total_pairs() == 0:
        raise ValueError("corpus is empty")

    mean_steps: dict[tuple[GcdAlgorithmId, int], float] = {}
    agreed: dict[int, list[int]] = {}
    for k, pairs in corpus.pairs_by_size.items():
        step_sums = dict.fromkeys(algos, 0)
        agreed[k] = []
        for pair in pairs:
            gcds: dict[str, int] = {}
            for algo in algos:
                g, n = ALGORITHMS[algo].steps(pair.a, pair.b)
                gcds[algo.value] = g
                step_sums[algo] += n
            if len(set(gcds.values())) > 1:
                raise GcdDisagreement(k, pair, gcds)
            agreed[k].append(g)
        for algo in algos:
            mean_steps[algo, k] = step_sums[algo] / len(pairs)

    cells = []
    for algo in algos:
        fn = ALGORITHMS[algo].timed
        for k, pairs in corpus.pairs_by_size.items():
            per_pair_ns = []
            for pair, g in zip(pairs, agreed[k]):
                pa, pb = pair.a, pair.b
                out = fn(pa, pb)  # warm-up: checked, not timed
                if not _timed_output_ok(algo, pa, pb, out, g):
                    raise GcdDisagreement(k, pair, {algo.value: out, "agreed": g})
                t0 = time.perf_counter_ns()
                for _ in range(repetitions):
                    fn(pa, pb)
                per_pair_ns.append(time.perf_counter_ns() - t0)
            total = sum(per_pair_ns)
            calls = len(pairs) * repetitions
            cells.append(
                BenchCell(
                    algorithm=algo.value,
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


def _timed_output_ok(algo: GcdAlgorithmId, a: int, b: int, out: object, g: int) -> bool:
    if algo is GcdAlgorithmId.WWL2:
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

    CSV carries exactly the per-cell columns, one row per cell.  JSON
    mirrors the same cell fields and adds the corpus seed and environment
    note.  Key order is fixed in both.
    """
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for c in report.cells:
            lines.append(
                f"{c.algorithm},{c.bit_size},{c.pairs},{c.repetitions},"
                f"{c.total_ns},{c.mean_ns},{c.median_ns},{c.mean_iterations!r}"
            )
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        doc = {
            "seed": report.seed,
            "environment": report.environment,
            "cells": [
                {
                    "algorithm": c.algorithm,
                    "bit_size": c.bit_size,
                    "pairs": c.pairs,
                    "repetitions": c.repetitions,
                    "total_ns": c.total_ns,
                    "mean_ns": c.mean_ns,
                    "median_ns": c.median_ns,
                    "mean_iterations": c.mean_iterations,
                }
                for c in report.cells
            ],
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def cells_from_csv(data: bytes) -> list[BenchCell]:
    """Parse ``emit_report(..., "csv")`` output back into cells."""
    lines = data.decode().strip().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header: {lines[:1]!r}")
    cells = []
    for line in lines[1:]:
        alg, bits, pairs, reps, total, mean, median, iters = line.split(",")
        cells.append(
            BenchCell(
                alg,
                int(bits),
                int(pairs),
                int(reps),
                int(total),
                int(mean),
                int(median),
                float(iters),
            )
        )
    return cells


def report_from_json(data: bytes) -> BenchReport:
    """Parse ``emit_report(..., "json")`` output back into a report."""
    doc = json.loads(data)
    cells = [
        BenchCell(
            c["algorithm"],
            c["bit_size"],
            c["pairs"],
            c["repetitions"],
            c["total_ns"],
            c["mean_ns"],
            c["median_ns"],
            c["mean_iterations"],
        )
        for c in doc["cells"]
    ]
    return BenchReport(doc["seed"], doc["environment"], cells)
