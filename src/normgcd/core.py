"""Extended gcd by normalization of the Bezout v coordinate.

Every intermediate solution of u*a + v*b = c is kept "normal": its v
coordinate stays inside [0, a-1].  That pins down a single representative
per c (unique when gcd(a, b) = 1), bounds the stored values by the inputs
themselves, and lets the descent replace Euclidean divisions with
subtractions and halvings.

Since v determines u through u = (c - v*b) / a, the descent runs on the
pairs (c, v) alone.  One kernel, ``_descent``, serves ``wwl1``, ``wwl2``
and their ``_trace`` twins, and each recovers u once, by one exact
division, after the loop.  ``div1`` and ``div2`` are the paper's halving
steps on (c, v) and on (u, v, c); the kernel inlines the first, and the
tests check the kernel against both.

``wwl1`` solves the coprime case, ``wwl2`` any positive pair with odd
first operand, and ``ext_gcd`` is the total entry point covering signs,
zeros, and pairs with a shared power of two.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "BezoutTriple",
    "NormalState",
    "Normalizer",
    "NotRepresentableError",
    "canonical_min_v",
    "div1",
    "div2",
    "ext_gcd",
    "normalize_solution",
    "normalizer_of",
    "wwl1",
    "wwl1_trace",
    "wwl2",
    "wwl2_trace",
]


class BezoutTriple(NamedTuple):
    """Solution (u, v, g) of u*a + v*b = g = gcd(a, b) for some pair (a, b)."""

    u: int
    v: int
    g: int


class NormalState(NamedTuple):
    """A solution (u, v) of u*a + v*b = c with v normalized into [0, a-1]."""

    u: int
    v: int
    c: int


class Normalizer(NamedTuple):
    """The two distinguished residues attached to u*a + v*b = c.

    ``value`` is a v in [0, a-1] with a | (c - v*b), unique when
    gcd(a, b) = 1.  ``conormalizer`` is the t in [0, a-1] such that
    (x, -t) solves the same equation for some integer x, i.e.
    a | (c + t*b).
    """

    value: int
    conormalizer: int


class NotRepresentableError(ValueError):
    """u*a + v*b = c has no integer solution: gcd(a, b) does not divide c."""


def _require_odd_positive(a: int) -> None:
    if a < 1:
        raise ValueError(f"first operand must be positive, got {a}")
    if a % 2 == 0:
        raise ValueError(f"first operand must be odd, got {a}")


def _require_operands(a: int, b: int) -> None:
    _require_odd_positive(a)
    if b < 1:
        raise ValueError(f"second operand must be positive, got {b}")


def _require_coprime(a: int, b: int) -> None:
    _require_operands(a, b)
    g = math.gcd(a, b)
    if g != 1:
        raise ValueError(f"operands must be coprime, got gcd({a}, {b}) = {g}")


def normalize_solution(a: int, b: int, u: int, v: int) -> NormalState:
    """Shift (u, v) along the solution family until v lands in [0, a-1].

    The input solves u*a + v*b = c for whatever c it implies; the returned
    state solves the same equation.  Requires a >= 1.
    """
    if a < 1:
        raise ValueError(f"first operand must be positive, got {a}")
    vn = v % a
    return NormalState(u + (v - vn) // a * b, vn, u * a + v * b)


def div1(a: int, c: int, v: int) -> tuple[int, int]:
    """Halve c down to its odd part, updating v so it stays a normalizer of c.

    Each halving maps v to v/2 when v is even and to (v + a)/2 otherwise;
    a must be odd and positive.  c = 0 is returned untouched (it has no odd
    part, and halving the zero solution would loop forever).
    """
    _require_odd_positive(a)
    while c != 0 and c % 2 == 0:
        c //= 2
        v = v // 2 if v % 2 == 0 else (v + a) // 2
    return c, v


def div2(a: int, b: int, state: NormalState) -> NormalState:
    """Halve state.c down to its odd part, keeping u*a + v*b = c normal.

    Even v forces even u and the whole triple halves; odd v maps to
    ((u - b)/2, (v + a)/2).  a must be odd and positive; c = 0 is returned
    untouched.
    """
    _require_odd_positive(a)
    u, v, c = state
    while c != 0 and c % 2 == 0:
        if v % 2 == 0:
            u, v, c = u // 2, v // 2, c // 2
        else:
            u, v, c = (u - b) // 2, (v + a) // 2, c // 2
    return NormalState(u, v, c)


def _descent(
    a: int, b: int, stop: int, trace: list[tuple[int, int]] | None
) -> tuple[int, int]:
    """The subtract-and-halve descent on normal pairs (c, v); a >= 1 odd, b >= 1.

    Starts from c = b mod a with v = 1 and c = a - (b mod a) with v = a - 1,
    each halved to its odd part, and keeps c1 <= c2.  Each iteration
    replaces c2 by c2 - c1 and v2 by v2 - v1 mod a, then halves c2 to its
    odd part; a halving maps v to v/2 when v is even and to (v + a)/2
    otherwise, which is div1's step.  Runs while c1 > stop and returns the
    surviving (v, c): (v1, c1) when c1 is nonzero, else (v2, c2).  a = 1
    needs no special case: c1 = 0 from the start and (0, 1) survives.  When
    trace is a list, (c1, c2) is appended at loop entry and after every
    iteration.
    """
    r = b % a
    c1, v1 = r, 1
    c2, v2 = a - r, a - 1
    # c1 = 0 when a | b; it must skip the halving loop (0 stays even forever)
    while c1 and not c1 & 1:
        c1 >>= 1
        v1 = (v1 + a) >> 1 if v1 & 1 else v1 >> 1
    while not c2 & 1:
        c2 >>= 1
        v2 = (v2 + a) >> 1 if v2 & 1 else v2 >> 1
    if c2 < c1:
        c1, v1, c2, v2 = c2, v2, c1, v1
    if trace is not None:
        trace.append((c1, c2))
    while c1 > stop:
        c2 -= c1
        v2 = v2 - v1 if v2 >= v1 else v2 - v1 + a
        while c2 and not c2 & 1:
            c2 >>= 1
            v2 = (v2 + a) >> 1 if v2 & 1 else v2 >> 1
        if c2 < c1:
            c1, v1, c2, v2 = c2, v2, c1, v1
        if trace is not None:
            trace.append((c1, c2))
    return (v1, c1) if c1 else (v2, c2)


def wwl1(a: int, b: int) -> tuple[int, int]:
    """Solve u*a + v*b = 1 for coprime positive a, b with a odd.

    Returns the unique solution whose v lies in [0, a-1].  The descent
    tracks only normalized v values, seeded from the residues of b and -b
    modulo a, and stops when one c reaches 1; u is recovered once at the
    end as (1 - v*b) / a.
    """
    _require_coprime(a, b)
    v, _ = _descent(a, b, 1, None)
    return (1 - v * b) // a, v


def wwl1_trace(a: int, b: int) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """wwl1 plus the (c1, c2) pair at loop entry and after every iteration.

    The sum c1 + c2 strictly decreases along the returned list and
    gcd(c1, c2) = 1 holds at every index.
    """
    _require_coprime(a, b)
    trace: list[tuple[int, int]] = []
    v, _ = _descent(a, b, 1, trace)
    return ((1 - v * b) // a, v), trace


def wwl2(a: int, b: int) -> BezoutTriple:
    """Extended gcd for positive a, b with a odd: u*a + v*b = g, 0 <= v <= a-1.

    Descends on normalized v values alone, by one subtraction plus a run of
    halvings per iteration, until one c reaches 0; the other c is
    g = gcd(a, b), and u is recovered once at the end as (g - v*b) / a.

    For coprime inputs v is the unique normalizer of 1.  When g > 1, v is
    the normalizer of g that the descent leaves: a | (g - v*b) and v lies
    in [0, a-1], but of the g such values it need not be the smallest;
    canonical_min_v gives the smallest.
    """
    _require_operands(a, b)
    v, g = _descent(a, b, 0, None)
    return BezoutTriple((g - v * b) // a, v, g)


def wwl2_trace(a: int, b: int) -> tuple[BezoutTriple, list[tuple[int, int]]]:
    """wwl2 plus the (c1, c2) pair at loop entry and after every iteration.

    len(trace) - 1 is the number of descent iterations.  The sum c1 + c2
    strictly decreases along the list and gcd(c1, c2) = gcd(a, b) holds at
    every index.
    """
    _require_operands(a, b)
    trace: list[tuple[int, int]] = []
    v, g = _descent(a, b, 0, trace)
    return BezoutTriple((g - v * b) // a, v, g), trace


def ext_gcd(a: int, b: int) -> BezoutTriple:
    """Extended gcd of any two integers: u*a + v*b = g = gcd(|a|, |b|) >= 0.

    Total function.  Zeros yield the obvious triples, signs are folded into
    the returned coefficients, a shared power of two is split off by bit
    shifts and restored into g, and an even first operand is handled by
    swapping the pair through the odd-first solver.
    """
    if a == 0 and b == 0:
        return BezoutTriple(0, 0, 0)
    if a == 0:
        return BezoutTriple(0, 1 if b > 0 else -1, abs(b))
    if b == 0:
        return BezoutTriple(1 if a > 0 else -1, 0, abs(a))
    x, y = abs(a), abs(b)
    low = (x | y) & -(x | y)
    m = low.bit_length() - 1
    x >>= m
    y >>= m
    if x % 2 == 1:
        u, v, g = wwl2(x, y)
    else:
        # y is odd once the shared twos are out
        uy, vx, g = wwl2(y, x)
        u, v = vx, uy
    if a < 0:
        u = -u
    if b < 0:
        v = -v
    return BezoutTriple(u, v, g << m)


def normalizer_of(a: int, b: int, c: int) -> Normalizer:
    """Residues v, t in [0, a-1] with a | (c - v*b) and a | (c + t*b).

    Solvable only when g = gcd(a, b) divides c; raises
    NotRepresentableError otherwise.  Built as v = (c/g) * v_g mod a from
    the gcd-level solution, which makes the result additive and
    multiplicative in c (mod a) and compatible with exact halving of even
    c when a is odd.
    """
    if a < 1:
        raise ValueError(f"first operand must be positive, got {a}")
    if b < 1:
        raise ValueError(f"second operand must be positive, got {b}")
    _, vg, g = ext_gcd(a, b)
    if c % g != 0:
        raise NotRepresentableError(
            f"no solution: gcd({a}, {b}) = {g} does not divide c = {c}"
        )
    value = (c // g) * vg % a
    return Normalizer(value, (a - value) % a)


def canonical_min_v(a: int, b: int, t: BezoutTriple) -> BezoutTriple:
    """The Bezout solution for positive (a, b) with the smallest nonnegative v.

    Steps t along the solution family (u, v) -> (u + b/g, v - a/g).  For
    coprime inputs the normalized solver output is already canonical.
    Rejects g <= 0 and triples that do not solve the pair.
    """
    if a < 1 or b < 1:
        raise ValueError(f"operands must be positive, got ({a}, {b})")
    u, v, g = t
    if g <= 0:
        raise ValueError(f"g must be positive, got {g}")
    if u * a + v * b != g or a % g != 0 or b % g != 0:
        raise ValueError(f"{t!r} does not solve u*{a} + v*{b} = gcd")
    step = a // g
    vn = v % step
    return BezoutTriple(u + (v - vn) // step * (b // g), vn, g)
