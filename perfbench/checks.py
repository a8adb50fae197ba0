"""Output checks and exact work counts, independent of normgcd.

Every check returns None for a correct answer and a short description of
the problem otherwise.  They run outside the timed regions.
"""

from __future__ import annotations

import math


def check_bezout(a: int, b: int, t) -> str | None:
    """t is an integer triple (u, v, g) with u*a + v*b = g = gcd(|a|, |b|)."""
    try:
        u, v, g = t
    except (TypeError, ValueError):
        return f"not a (u, v, g) triple: {t!r}"
    if not (type(u) is int and type(v) is int and type(g) is int):
        return f"non-integer triple {t!r}"
    if g != math.gcd(a, b):
        return f"g = {g}, expected gcd = {math.gcd(a, b)}"
    if u * a + v * b != g:
        return f"u*a + v*b = {u * a + v * b} != g = {g}"
    return None


def check_ext_gcd(a: int, b: int, t, canonical: bool = False) -> str | None:
    """ext_gcd's contract for (a, b); with ``canonical``, the CLI's --canonical.

    Beyond the Bezout identity: when the first operand's odd part leads the
    descent, v (with b's sign folded out) lies in [0, a' - 1] for that odd
    part a', and equals pow(|b|, -1, |a|) when the pair is coprime.  The
    canonical form has the smallest nonnegative v, in [0, |a|/g - 1].
    """
    problem = check_bezout(a, b, t)
    if problem or a == 0 or b == 0:
        return problem
    u, v, g = t
    x, y = abs(a), abs(b)
    if canonical:
        if not 0 <= v < x // g:
            return f"canonical v = {v} outside [0, {x // g - 1}]"
        return None
    x //= (x | y) & -(x | y)
    if x & 1:
        vn = v if b > 0 else -v
        if not 0 <= vn < x:
            return f"v = {v} outside [0, {x - 1}] on the odd-first path"
        if g == 1 and vn != pow(y, -1, x):
            return f"v = {v} is not pow(|b|, -1, |a|) = {pow(y, -1, x)}"
    return None


def check_gcd(a: int, b: int, g) -> str | None:
    if g != math.gcd(a, b):
        return f"gcd = {g!r}, expected {math.gcd(a, b)}"
    return None


def check_pow_inverse(a: int, b: int, out) -> str | None:
    """(g, inv) from math.gcd + pow(b, -1, a): inv present iff g = 1 and a != 0."""
    g, inv = out
    if g != math.gcd(a, b):
        return f"gcd = {g!r}, expected {math.gcd(a, b)}"
    if (inv is not None) != (g == 1 and a != 0):
        return f"inverse {inv!r} present for g = {g}, a = {a}"
    if inv is not None and (inv * b - 1) % a != 0:
        return f"{inv} * {b} is not 1 mod {a}"
    return None


def check_cli(a: int, b: int, canonical: bool, returncode: int, stdout: str) -> str | None:
    """One `normgcd extgcd` run: exit code 0 and a stdout of 'u v g' that checks."""
    if returncode != 0:
        return f"exit code {returncode}: {stdout.strip()[:200]!r}"
    parts = stdout.split()
    if len(parts) != 3:
        return f"stdout is not 'u v g': {stdout[:200]!r}"
    try:
        t = tuple(int(p) for p in parts)
    except ValueError:
        return f"stdout is not integers: {stdout[:200]!r}"
    return check_ext_gcd(a, b, t, canonical)


def descent_counts(trace: list[tuple[int, int]]) -> tuple[int, int]:
    """(iterations, halvings) of a wwl2 descent, from wwl2_trace's (c1, c2) list.

    Each iteration replaces c2 by (c2 - c1) / 2**k and reorders the pair, so
    the new value is the entry of the next pair that is not the old c1, and k
    is read off the quotient.  The halvings of the two set-up values before
    the loop are not in the trace and are not counted.
    """
    halvings = 0
    for (c1, c2), (n1, n2) in zip(trace, trace[1:]):
        diff = c2 - c1
        new = n1 if n2 == c1 else n2
        if new == 0:
            if diff != 0:
                raise ValueError(f"trace step {(c1, c2)} -> {(n1, n2)} is not a descent")
            continue
        q, rem = divmod(diff, new)
        if rem or q < 1 or q & (q - 1):
            raise ValueError(f"trace step {(c1, c2)} -> {(n1, n2)} is not a descent")
        halvings += q.bit_length() - 1
    return len(trace) - 1, halvings
