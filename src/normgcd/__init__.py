"""Extended gcd with a normalized Bezout coordinate.

The solvers return the solution of u*a + v*b = gcd(a, b) whose v lies in
[0, a-1], descending by subtractions and halvings instead of Euclidean
divisions.  The package also ships the three classic gcd algorithms as
baselines, brute-force verification sweeps, and a seeded benchmark
harness with CSV/JSON reporting.

``import normgcd`` loads only the solver (``core``) and the baselines.
The names from ``bench`` and ``oracle`` are served on first use, so a
one-shot solve does not pay for the benchmark harness or the oracle.
"""

import importlib

from .baselines import (
    binary_gcd,
    binary_gcd_steps,
    euclid_gcd,
    euclid_gcd_steps,
    mixed_euclid_gcd,
    mixed_euclid_gcd_steps,
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

__version__ = "0.1.0"

# name -> submodule that defines it, imported on first attribute access
_LAZY = {
    "bench": "bench",
    "BenchCell": "bench",
    "BenchReport": "bench",
    "Corpus": "bench",
    "CorpusPair": "bench",
    "CorpusSpec": "bench",
    "GcdDisagreement": "bench",
    "emit_report": "bench",
    "generate_corpus": "bench",
    "run_benchmark": "bench",
    "oracle": "oracle",
    "Failure": "oracle",
    "VerificationReport": "oracle",
    "brute_normalizer": "oracle",
    "exhaustive_verify": "oracle",
    "reference_ext_gcd": "oracle",
}


def __getattr__(name):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{submodule}")
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BenchCell",
    "BenchReport",
    "BezoutTriple",
    "Corpus",
    "CorpusPair",
    "CorpusSpec",
    "Failure",
    "GcdDisagreement",
    "NormalState",
    "Normalizer",
    "NotRepresentableError",
    "VerificationReport",
    "binary_gcd",
    "binary_gcd_steps",
    "brute_normalizer",
    "canonical_min_v",
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
    "run_benchmark",
    "wwl1",
    "wwl1_trace",
    "wwl2",
    "wwl2_trace",
]
