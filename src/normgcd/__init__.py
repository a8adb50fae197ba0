"""Extended gcd with a normalized Bezout coordinate.

The solvers return the solution of u*a + v*b = gcd(a, b) whose v lies in
[0, a-1], descending by subtractions and halvings instead of Euclidean
divisions.  The package also ships the three classic gcd algorithms as
baselines, brute-force verification sweeps, and a seeded benchmark
harness with CSV/JSON reporting.

``import normgcd`` loads only the solver (``core``), whose names it
republishes.  The names from ``baselines``, ``bench`` and ``oracle`` are
served on first use, so a one-shot solve pays for none of them.
"""

import importlib

from . import core
from .core import *

__version__ = "0.1.0"

# submodule -> the names served from it, imported on first attribute access
_LAZY = {
    "baselines": (
        "binary_gcd",
        "binary_gcd_steps",
        "euclid_gcd",
        "euclid_gcd_steps",
        "mixed_euclid_gcd",
        "mixed_euclid_gcd_steps",
    ),
    "bench": (
        "BenchCell",
        "BenchReport",
        "Corpus",
        "CorpusPair",
        "CorpusSpec",
        "GcdDisagreement",
        "emit_report",
        "generate_corpus",
        "run_benchmark",
    ),
    "oracle": (
        "Failure",
        "VerificationReport",
        "brute_normalizer",
        "exhaustive_verify",
        "reference_ext_gcd",
    ),
}
# each lazy name, and each submodule's own name, -> its submodule
_HOME = {name: sub for sub, names in _LAZY.items() for name in (sub, *names)}

__all__ = sorted([*core.__all__, *(name for names in _LAZY.values() for name in names)])


def __getattr__(name):
    submodule = _HOME.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{submodule}")
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
