"""Brute-force and classical references for checking the normalized solver.

Everything here is deliberately naive.  The point is independence from the
descent machinery: ``reference_ext_gcd`` iterates the classical division
identity and ``brute_normalizer`` scans the whole residue range, so
agreement with the main solver is evidence rather than tautology.
"""

import time
from collections import namedtuple

from .core import BezoutTriple, _require_positive, ext_gcd, wwl1

__all__ = [
    "Failure",
    "VerificationReport",
    "brute_normalizer",
    "exhaustive_verify",
    "reference_ext_gcd",
]


Failure = namedtuple("Failure", "a b c expected actual")
Failure.__doc__ = "One failed check: the input pair, the c involved, and both sides."


class VerificationReport(namedtuple("VerificationReport", "cases_checked failures elapsed")):
    """Outcome of a verification sweep; passes iff ``failures`` is empty."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{state}: {self.cases_checked} cases checked in {self.elapsed:.2f}s"


def brute_normalizer(a: int, b: int, c: int) -> int | None:
    """Smallest v in [0, a-1] with a | (c - v*b), or None when no v works.

    Exhaustive scan; the match is unique when gcd(a, b) = 1, and None
    means gcd(a, b) does not divide c.
    """
    _require_positive(a)
    for v in range(a):
        if (c - v * b) % a == 0:
            return v
    return None


def reference_ext_gcd(a: int, b: int) -> BezoutTriple:
    """Classical iterative extended Euclid over any two integers.

    Shares no code with the descent solver.  Returns some valid triple
    with g = gcd(|a|, |b|) >= 0; callers should check g and the identity,
    not the specific coefficients.
    """
    if a == 0 and b == 0:
        return BezoutTriple(0, 0, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return BezoutTriple(-old_s, -old_t, -old_r)
    return BezoutTriple(old_s, old_t, old_r)


def exhaustive_verify(limit: int) -> VerificationReport:
    """Check every pair 1 <= a, b <= limit against the references.

    Per pair: the Bezout identity of ext_gcd, gcd agreement with
    reference_ext_gcd, the range of the normalized coordinate, and, for
    coprime pairs with odd a, equality of wwl1's v with the
    exhaustive-search normalizer of 1.  With m the shared twos of a and
    b, v lies in [0, (a >> m) - 1] when a >> m is odd; otherwise ext_gcd
    swaps the operands and u lies in [0, (b >> m) - 1].
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    failures: list[Failure] = []
    start = time.perf_counter()
    for a in range(1, limit + 1):
        a_odd = a % 2 == 1
        for b in range(1, limit + 1):
            u, v, g = ext_gcd(a, b)
            ref_g = reference_ext_gcd(a, b).g
            if u * a + v * b != g:
                failures.append(Failure(a, b, g, g, u * a + v * b))
            if g != ref_g:
                failures.append(Failure(a, b, ref_g, ref_g, g))
            low = (a | b) & -(a | b)
            a_stripped, b_stripped = a // low, b // low
            if a_stripped % 2 == 1:
                if not 0 <= v < a_stripped:
                    failures.append(Failure(a, b, g, f"v in [0, {a_stripped - 1}]", v))
            elif not 0 <= u < b_stripped:
                failures.append(Failure(a, b, g, f"u in [0, {b_stripped - 1}]", u))
            if a_odd and ref_g == 1:
                expected = brute_normalizer(a, b, 1)
                actual = wwl1(a, b)[1]
                if actual != expected:
                    failures.append(Failure(a, b, 1, expected, actual))
    return VerificationReport(limit * limit, failures, time.perf_counter() - start)
