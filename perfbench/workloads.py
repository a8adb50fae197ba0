"""Benchmark inputs, generated as a pure function of (workload, seed).

Nothing here imports normgcd: the inputs do not depend on the code under
test, so two versions of the package are always timed on the same pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("lib-small", "lib-large", "cli-oneshot")

SMALL_POOL = 4096
LARGE_POOL = 128
LARGE_BITS = 2048
CLI_POOL = 512
CLI_BITS = 64

# ext_gcd shapes: odd first operand (plain descent), even first operand
# (the swap), a shared power of two, an odd common factor (gcd > 1), and a
# zero operand.  Signs are drawn separately for every shape.
SHAPES = ("odd-first", "even-first", "shared-twos", "common-factor", "zero")
SMALL_WEIGHTS = (40, 20, 15, 20, 5)
CLI_WEIGHTS = (40, 20, 15, 25, 0)  # the CLI workload has no zero operand


@dataclass(frozen=True)
class Inputs:
    """The pairs of one workload and, aligned with them, CLI argument lists."""

    workload: str
    seed: int
    pairs: list[tuple[int, int]]
    argvs: list[list[str]]
    canonical: list[bool]


def _top(rng: random.Random, bits: int) -> int:
    """A random integer of exactly ``bits`` bits."""
    return rng.getrandbits(bits) | (1 << (bits - 1))


def _odd(rng: random.Random, bits: int) -> int:
    return _top(rng, bits) | 1


def _shaped_pair(rng: random.Random, shape: str, bits_a: int, bits_b: int) -> tuple[int, int]:
    if shape == "odd-first":
        a, b = _odd(rng, bits_a), _top(rng, bits_b)
    elif shape == "even-first":
        a, b = _top(rng, bits_a) & -2, _odd(rng, bits_b)
    elif shape == "shared-twos":
        k = rng.randint(1, 12)
        a, b = _top(rng, bits_a - k) << k, _top(rng, bits_b - k) << k
    elif shape == "common-factor":
        f = _odd(rng, rng.randint(2, 12))
        k = f.bit_length()
        a, b = f * _odd(rng, bits_a - k), f * _top(rng, bits_b - k)
    else:
        x = _top(rng, bits_a)
        a, b = (0, x) if rng.random() < 0.5 else (x, 0)
    if rng.random() < 0.5:
        a = -a
    if rng.random() < 0.5:
        b = -b
    return a, b


def _signed_hex(x: int) -> str:
    return f"-0x{-x:x}" if x < 0 else f"0x{x:x}"


def _cli_inputs(rng: random.Random, seed: int) -> Inputs:
    pairs, argvs, canonical = [], [], []
    for _ in range(CLI_POOL):
        a, b = _shaped_pair(rng, rng.choices(SHAPES, CLI_WEIGHTS)[0], CLI_BITS, CLI_BITS)
        argv = ["extgcd"] + [_signed_hex(x) if rng.random() < 0.5 else str(x) for x in (a, b)]
        canonical.append(rng.random() < 0.25)
        if canonical[-1]:
            argv.append("--canonical")
        pairs.append((a, b))
        argvs.append(argv)
    return Inputs("cli-oneshot", seed, pairs, argvs, canonical)


def make_inputs(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed``: same arguments, same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # seeding from a str hashes it with SHA-512, independent of PYTHONHASHSEED
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-oneshot":
        return _cli_inputs(rng, seed)
    if workload == "lib-small":
        pairs = [
            _shaped_pair(rng, rng.choices(SHAPES, SMALL_WEIGHTS)[0],
                         rng.randint(16, 64), rng.randint(16, 64))
            for _ in range(SMALL_POOL)
        ]
    else:
        pairs = []
        for _ in range(LARGE_POOL):
            a = _odd(rng, LARGE_BITS)
            pairs.append((a, rng.randrange(1, a)))
    argvs = [["extgcd", str(a), str(b)] for a, b in pairs]
    return Inputs(workload, seed, pairs, argvs, [False] * len(pairs))


def wwl2_operands(a: int, b: int) -> tuple[int, int] | None:
    """The (odd, positive) pair ext_gcd hands to wwl2, or None if it calls none.

    Mirrors ext_gcd's reduction: zeros return early, signs are dropped, the
    shared power of two is shifted out, and an even first operand swaps.
    """
    if a == 0 or b == 0:
        return None
    x, y = abs(a), abs(b)
    m = ((x | y) & -(x | y)).bit_length() - 1
    x >>= m
    y >>= m
    return (x, y) if x & 1 else (y, x)
