"""Locate and import the package under test from the checkout's ``src``.

Kept free of other imports so that timing a fresh import of normgcd
(the benchmark's set-up) does not find modules already loaded by the
harness.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable normgcd under ``src``."""


def load_program() -> SimpleNamespace:
    """Import normgcd from ``src`` and return the entry points the benchmark times.

    Tests may replace any attribute of the result with a fake.
    """
    init = os.path.join(SRC, "normgcd", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no normgcd package at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import normgcd
    import normgcd.baselines
    import normgcd.cli
    import normgcd.core
    import normgcd.oracle

    if os.path.realpath(normgcd.__file__) != os.path.realpath(init):
        raise ProgramMissing(f"normgcd was imported from {normgcd.__file__}, not {init}")
    return SimpleNamespace(
        ext_gcd=normgcd.core.ext_gcd,
        wwl2=normgcd.core.wwl2,
        wwl2_trace=normgcd.core.wwl2_trace,
        reference_ext_gcd=normgcd.oracle.reference_ext_gcd,
        mixed_euclid_gcd=normgcd.baselines.mixed_euclid_gcd,
        mixed_euclid_gcd_steps=normgcd.baselines.mixed_euclid_gcd_steps,
        build_parser=normgcd.cli.build_parser,
        run=normgcd.cli.run,
    )
