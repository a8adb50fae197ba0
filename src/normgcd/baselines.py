"""The three classic gcd algorithms the normalized solver is compared against.

Each algorithm has a plain form used for timing and a ``*_steps`` form that
also counts main-loop iterations, a hardware-independent work measure.
Inputs are nonnegative; gcd(x, 0) = x by convention.

``ALGORITHMS`` is the one table of algorithms, keyed by the names the CLI
takes and the reports print, with the normalized solver "wwl2" as its
fourth row; the benchmark and the CLI both look algorithms up in it.
"""

from collections import namedtuple

from .core import _TRAILING_ZEROS, wwl2, wwl2_trace

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "binary_gcd",
    "binary_gcd_steps",
    "euclid_gcd",
    "euclid_gcd_steps",
    "mixed_euclid_gcd",
    "mixed_euclid_gcd_steps",
]


def euclid_gcd(a: int, b: int) -> int:
    """gcd by repeated Euclidean division."""
    while a > 0:
        a, b = b % a, a
    return b


def euclid_gcd_steps(a: int, b: int) -> tuple[int, int]:
    """euclid_gcd plus the number of division steps taken."""
    n = 0
    while a > 0:
        a, b = b % a, a
        n += 1
    return b, n


def binary_gcd(a: int, b: int) -> int:
    """gcd by subtraction and halving only, no division.

    The shared power of two is noted first and restored at the end.  Each
    operand is stripped to its odd part (halving an even operand is free
    once the other is odd), so every subtraction in the loop produces an
    even value; each run of twos comes off in one shift, its length read
    from core's byte table of trailing zeros (the descent kernel's, so the
    two loops stay like for like), and the loop runs O(bits) times.
    """
    if a == 0:
        return b
    if b == 0:
        return a
    m = ((a | b) & -(a | b)).bit_length() - 1
    a >>= (a & -a).bit_length() - 1
    b >>= (b & -b).bit_length() - 1
    r1, r2 = (a, b) if a < b else (b, a)
    tz = _TRAILING_ZEROS
    while r1 > 0:
        r2 -= r1
        t = tz[r2 & 255]
        if not t:
            t = (r2 & -r2).bit_length() - 1 if r2 else 0
        r2 >>= t
        if r2 < r1:
            r1, r2 = r2, r1
    return r2 << m


def binary_gcd_steps(a: int, b: int) -> tuple[int, int]:
    """binary_gcd plus the number of subtract-and-halve iterations."""
    if a == 0:
        return b, 0
    if b == 0:
        return a, 0
    m = ((a | b) & -(a | b)).bit_length() - 1
    a >>= (a & -a).bit_length() - 1
    b >>= (b & -b).bit_length() - 1
    r1, r2 = (a, b) if a < b else (b, a)
    tz = _TRAILING_ZEROS
    n = 0
    while r1 > 0:
        r2 -= r1
        t = tz[r2 & 255]
        if not t:
            t = (r2 & -r2).bit_length() - 1 if r2 else 0
        r2 >>= t
        if r2 < r1:
            r1, r2 = r2, r1
        n += 1
    return r2 << m, n


def mixed_euclid_gcd(a: int, b: int) -> int:
    """One Euclidean division, then the binary algorithm.

    binary_gcd strips and restores the shared power of two of the
    remainder pair, which is that of (a, b).
    """
    if a == 0:
        return b
    if b == 0:
        return a
    r1, r2 = (a, b) if a < b else (b, a)
    return binary_gcd(r2 % r1, r1)


def mixed_euclid_gcd_steps(a: int, b: int) -> tuple[int, int]:
    """mixed_euclid_gcd plus the subtract-and-halve count of its binary phase."""
    if a == 0:
        return b, 0
    if b == 0:
        return a, 0
    r1, r2 = (a, b) if a < b else (b, a)
    return binary_gcd_steps(r2 % r1, r1)


def _wwl2_steps(a: int, b: int) -> tuple[int, int]:
    triple, trace = wwl2_trace(a, b)
    return triple.g, len(trace) - 1


Algorithm = namedtuple("Algorithm", "timed steps")
Algorithm.__doc__ = """One row of ALGORITHMS.

``timed`` is the function the benchmark times; ``steps`` returns
(gcd, main-loop iterations) for the same pair.
"""


# wwl2 is timed as the full extended solver, which is the comparison of
# interest: it returns the coefficients the baselines do not
ALGORITHMS: dict[str, Algorithm] = {
    "euclid": Algorithm(euclid_gcd, euclid_gcd_steps),
    "binary": Algorithm(binary_gcd, binary_gcd_steps),
    "mixed": Algorithm(mixed_euclid_gcd, mixed_euclid_gcd_steps),
    "wwl2": Algorithm(wwl2, _wwl2_steps),
}
