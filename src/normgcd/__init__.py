"""Extended gcd with a normalized Bezout coordinate.

The solvers return the solution of u*a + v*b = gcd(a, b) whose v lies in
[0, a-1], descending by subtractions and halvings instead of Euclidean
divisions.  The package also ships the three classic gcd algorithms as
baselines, brute-force verification sweeps, and a seeded benchmark
harness with CSV/JSON reporting.
"""

from .baselines import (
    GcdAlgorithmId,
    binary_gcd,
    binary_gcd_steps,
    euclid_gcd,
    euclid_gcd_steps,
    mixed_euclid_gcd,
    mixed_euclid_gcd_steps,
)
from .bench import (
    BenchCell,
    BenchReport,
    Corpus,
    CorpusPair,
    CorpusSpec,
    GcdDisagreement,
    cells_from_csv,
    emit_report,
    generate_corpus,
    report_from_json,
    run_benchmark,
)
from .core import (
    BezoutTriple,
    NormalState,
    Normalizer,
    NotRepresentableError,
    canonical_min_v,
    div1,
    div2,
    ext_gcd,
    normalize_solution,
    normalizer_of,
    wwl1,
    wwl1_trace,
    wwl2,
    wwl2_trace,
)
from .oracle import (
    Failure,
    VerificationReport,
    brute_normalizer,
    exhaustive_verify,
    reference_ext_gcd,
)

__version__ = "0.1.0"

__all__ = [
    "BenchCell",
    "BenchReport",
    "BezoutTriple",
    "Corpus",
    "CorpusPair",
    "CorpusSpec",
    "Failure",
    "GcdAlgorithmId",
    "GcdDisagreement",
    "NormalState",
    "Normalizer",
    "NotRepresentableError",
    "VerificationReport",
    "binary_gcd",
    "binary_gcd_steps",
    "brute_normalizer",
    "canonical_min_v",
    "cells_from_csv",
    "div1",
    "div2",
    "emit_report",
    "euclid_gcd",
    "euclid_gcd_steps",
    "exhaustive_verify",
    "ext_gcd",
    "generate_corpus",
    "mixed_euclid_gcd",
    "mixed_euclid_gcd_steps",
    "normalize_solution",
    "normalizer_of",
    "reference_ext_gcd",
    "report_from_json",
    "run_benchmark",
    "wwl1",
    "wwl1_trace",
    "wwl2",
    "wwl2_trace",
]
