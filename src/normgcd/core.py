"""Extended gcd by normalization of the Bezout v coordinate.

Every intermediate solution of u*a + v*b = c is kept "normal": its v
coordinate stays inside [0, a-1].  That pins down a single representative
per c (unique when gcd(a, b) = 1) and lets the descent replace Euclidean
divisions with subtractions and halvings.

Since v determines u through u = (c - v*b) / a, the descent runs on the
pairs (c, v) alone.  The one kernel, ``_descent``, carries each v as
x * 2**-E mod a (|x| <= a), takes a long first run as one 2-adic division,
puts v in [0, a-1] by 2-adic Montgomery reduction, _W = 256 twos a step,
and recovers u by one exact division.  ``div1`` and ``div2`` are the paper's
halving steps on (c, v) and (u, v, c); the tests check the kernel on both.

``wwl1``, ``wwl2`` and their ``_trace`` twins check their operands and
call the kernel once; ``ext_gcd``, the total entry point, reduces signs,
zeros and twos away first.  All but ``wwl2_trace``, which runs on to
(0, g), stop the descent once c1 reaches 1.
"""

from collections import namedtuple

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


BezoutTriple = namedtuple("BezoutTriple", "u v g")
BezoutTriple.__doc__ = (
    "Solution (u, v, g) of u*a + v*b = g = gcd(a, b) for some pair (a, b)."
)

NormalState = namedtuple("NormalState", "u v c")
NormalState.__doc__ = (
    "A solution (u, v) of u*a + v*b = c with v normalized into [0, a-1]."
)

Normalizer = namedtuple("Normalizer", "value conormalizer")
Normalizer.__doc__ = """The two distinguished residues attached to u*a + v*b = c.

``value`` is a v in [0, a-1] with a | (c - v*b), unique when
gcd(a, b) = 1.  ``conormalizer`` is the t in [0, a-1] such that
(x, -t) solves the same equation for some integer x, i.e.
a | (c + t*b).
"""


class NotRepresentableError(ValueError):
    """u*a + v*b = c has no integer solution: gcd(a, b) does not divide c."""


# trailing zero bits of each byte value; 0 for the zero byte, whose run
# (8 or more twos, or none left at all) the caller measures itself
_TRAILING_ZEROS = tuple((i & -i).bit_length() - 1 if i else 0 for i in range(256))

# i^-1 mod 256 for each odd byte i (0 at the even ones, which are never read)
_INVERSES = tuple(pow(i, -1, 256) if i & 1 else 0 for i in range(256))

# the width of the Montgomery tail's word: a power-of-two multiple of 8
_W = 256
_WORD = (1 << _W) - 1


def _require_positive(a: int, b: int = 1) -> None:
    if a < 1:
        raise ValueError(f"first operand must be positive, got {a}")
    if b < 1:
        raise ValueError(f"second operand must be positive, got {b}")


def _require_odd_first(a: int, b: int = 1) -> None:
    # order: a < 1, a even, b < 1; a < 1 is compared before a % 2 is taken
    if not a < 1 and a % 2 == 0:
        raise ValueError(f"first operand must be odd, got {a}")
    _require_positive(a, b)


def normalize_solution(a: int, b: int, u: int, v: int) -> NormalState:
    """Shift (u, v) along the solution family until v lands in [0, a-1].

    The input solves u*a + v*b = c for whatever c it implies; the returned
    state solves the same equation.  Requires a >= 1.
    """
    _require_positive(a)
    vn = v % a
    return NormalState(u + (v - vn) // a * b, vn, u * a + v * b)


def div1(a: int, c: int, v: int) -> tuple[int, int]:
    """Halve c down to its odd part, updating v so it stays a normalizer of c.

    Each halving maps v to v/2 when v is even and to (v + a)/2 otherwise;
    a must be odd and positive.  c = 0 is returned untouched (it has no odd
    part, and halving the zero solution would loop forever).
    """
    _require_odd_first(a)
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
    _require_odd_first(a)
    u, v, c = state
    while c != 0 and c % 2 == 0:
        if v % 2:
            u, v = u - b, v + a
        u, v, c = u // 2, v // 2, c // 2
    return NormalState(u, v, c)


def _inverse(a: int, k: int) -> int:
    """a^-1 mod 2**j for odd a, j >= k a power-of-two multiple of 8.

    The byte table gives 8 bits and each Newton step inv*(2 - a*inv), cut
    to j bits, doubles them.  Only a's low j bits matter; more only slows it.
    """
    inv, j = _INVERSES[a & 255], 8
    while j < k:
        j <<= 1
        inv = inv * (2 - a * inv) & (1 << j) - 1
    return inv


def _descent(
    a: int, b: int, stop: int, trace: list[tuple[int, int]] | None
) -> tuple[int, int, int]:
    """The subtract-and-halve descent on normal pairs (c, v); a >= 1 odd, b >= 1.

    Starts from c = b mod a with v = 1 and c = a - (b mod a) with v = a - 1,
    each halved to its odd part, and keeps c1 <= c2.  Each iteration
    replaces c2 by c2 - c1 and v2 by v2 - v1 mod a, then halves c2 to its
    odd part.  Runs while c1 > stop and returns (u, v, c), c the survivor:
    gcd(a, b), or 1 when stop = 1 and the pair is coprime.  A trace list
    gets (c1, c2) at loop entry and after every iteration.
    Only c decides a branch and v is linear mod a, so v_i is carried as
    x_i * 2**-E mod a, E the halvings so far: t halvings of c2 are one
    shift, x1 takes the 2**t, and |x1*c2 - x2*c1| = a keeps |x| <= a.
    Each run t is read from c2's low byte by _TRAILING_ZEROS; only a zero
    low byte (c2 = 0, or t >= 8, 1 in 128) measures all of c2.

    Three shortcuts skip states of the full descent; each is exact.
    - Stop at c1 = 1 (stop = 1).  Every c is a multiple of g = gcd(a, b),
      so a pair with g > 1 never reaches 1 and runs on to c1 = 0.  A
      coprime pair has one normalizer of 1 in [0, a-1]: the v of c1 = 1
      is the v of the survivor 1 that running on to c1 = 0 would leave.
    - The first run as one step (untraced; c2 12 or more bits longer than
      c1).  With c1 fixed, c2 after T halvings is (c2 - Q*c1) / 2**T with
      Q < 2**T the sum of 2**i, i the halvings made before each
      subtraction; that exceeds 2**(L2-1-T) - c1 > c1 for every
      T <= k = L2 - L1 - 2 (L the bit lengths), so no swap falls in the
      first k halvings.  Their subtractions are thus the set bits of the
      one Q < 2**k with c2 = Q*c1 mod 2**k: q = c2 * c1^-1 mod 2**k, odd
      since both c are.  c2 -= (q-1)*c1 and x2 -= (q-1)*x1 make all but
      the last, which the loop (c1 > stop, so it runs) makes with its own
      shift and swap.
    - Montgomery words in the tail.  v = x * 2**-E mod a with one
      inv = a^-1 mod 2**min(E, _W): each whole word adds m*a with
      m = -x*inv mod 2**_W, so x + m*a is a multiple of 2**_W and the shift
      is exact and multiplies x by 2**-_W mod a; the 0 to _W twos left go
      the same way, then % a.  The sign of x does not change the value
      (& reads two's complement), only the cost: & copies a negative int
      whole.  As m >= 0 and x >= -a, x is >= 0 from the first word with
      m > 0 on, and & then reads only x's low word.
    """
    tz = _TRAILING_ZEROS
    r = b % a
    c1, x1 = r, 1
    c2, x2 = a - r, -1
    # a is odd, so at most one seed is even; r = 0 (a | b, or a = 1) stays 0
    e = 0
    if r & 1:
        e = tz[c2 & 255] or (c2 & -c2).bit_length() - 1
        c2 >>= e
        x1 <<= e
    elif r:
        e = tz[r & 255] or (r & -r).bit_length() - 1
        c1 >>= e
        x2 <<= e
    if c2 < c1:
        c1, c2 = c2, c1
        x1, x2 = x2, x1
    if trace is not None:
        trace.append((c1, c2))
    elif c1 > stop and c2 >> 12 > c1:
        k = c2.bit_length() - c1.bit_length() - 2
        q = (c2 * _inverse(c1, k) & (1 << k) - 1) - 1
        c2 -= q * c1
        x2 -= q * x1
    while c1 > stop:
        c2 -= c1
        x2 -= x1
        t = tz[c2 & 255]
        if not t:
            t = (c2 & -c2).bit_length() - 1 if c2 else 0
        c2 >>= t
        x1 <<= t
        e += t
        if c2 < c1:
            c1, c2 = c2, c1
            x1, x2 = x2, x1
        if trace is not None:
            trace.append((c1, c2))
    x, c = (x1, c1) if c1 else (x2, c2)
    inv = _inverse(a, e) if e < _W else _inverse(a & _WORD, _W)
    while e > _W:
        x = (x + (-(x & _WORD) * inv & _WORD) * a) >> _W
        e -= _W
    v = (x - (x * inv & (1 << e) - 1) * a >> e) % a
    return (c - v * b) // a, v, c


def wwl1(a: int, b: int) -> tuple[int, int]:
    """Solve u*a + v*b = 1 for coprime positive a, b with a odd.

    Returns the unique solution whose v lies in [0, a-1].  The descent is
    seeded from the residues of b and -b modulo a and stops when one c
    reaches 1; a survivor other than 1 is gcd(a, b) and raises ValueError.
    """
    return _wwl1(a, b, None)


def wwl1_trace(a: int, b: int) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """wwl1 plus the (c1, c2) pair at loop entry and after every iteration.

    The sum c1 + c2 strictly decreases along the returned list and
    gcd(c1, c2) = 1 holds at every index.
    """
    trace: list[tuple[int, int]] = []
    return _wwl1(a, b, trace), trace


def _wwl1(a: int, b: int, trace: list[tuple[int, int]] | None) -> tuple[int, int]:
    _require_odd_first(a, b)
    u, v, c = _descent(a, b, 1, trace)
    if c != 1:
        raise ValueError(f"operands must be coprime, got gcd({a}, {b}) = {c}")
    return u, v


def wwl2(a: int, b: int) -> BezoutTriple:
    """Extended gcd for positive a, b with a odd: u*a + v*b = g, 0 <= v <= a-1.

    Descends by one subtraction plus a run of halvings per iteration, until
    one c reaches 1 (coprime) or 0, the other c then being g = gcd(a, b).
    v is normalized and u = (g - v*b) / a recovered once at the end.

    For coprime inputs v is the unique normalizer of 1.  When g > 1, with
    a = g*a1 and b = g*b1, the descent is that of (a1, b1) scaled by g and v
    is the same x * 2**-E (see _descent) reduced mod a instead of mod a1, so
    canonical_min_v(a, b, wwl2(a, b)) has the u and v of wwl2(a1, b1).
    """
    _require_odd_first(a, b)
    return tuple.__new__(BezoutTriple, _descent(a, b, 1, None))


def wwl2_trace(a: int, b: int) -> tuple[BezoutTriple, list[tuple[int, int]]]:
    """wwl2 plus the (c1, c2) pair at loop entry and after every iteration.

    Runs on past c1 = 1 to (0, g), so len(trace) - 1 counts the full
    descent's iterations.  The sum c1 + c2 strictly decreases along the list
    and gcd(c1, c2) = gcd(a, b) holds at every index.
    """
    _require_odd_first(a, b)
    trace: list[tuple[int, int]] = []
    return BezoutTriple(*_descent(a, b, 0, trace)), trace


def ext_gcd(a: int, b: int) -> BezoutTriple:
    """Extended gcd of any two integers: u*a + v*b = g = gcd(|a|, |b|) >= 0.

    Total function.  Zeros yield the obvious triples, signs are folded into
    the returned coefficients, a shared power of two is split off by bit
    shifts and restored into g, and an even first operand is swapped to
    second place.  The reduced pair meets the kernel's preconditions and
    goes to it directly, to stop as wwl2 does.  For positive a and b, with
    m the shared twos, v lies in [0, (a >> m) - 1] when a >> m is odd;
    otherwise u lies in [0, (b >> m) - 1].
    """
    if a == 0:
        return BezoutTriple(0, (b > 0) - (b < 0), abs(b))
    if b == 0:
        return BezoutTriple((a > 0) - (a < 0), 0, abs(a))
    x = -a if a < 0 else a
    y = -b if b < 0 else b
    m = 0 if (x | y) & 1 else ((x | y) & -(x | y)).bit_length() - 1
    if m:
        x >>= m
        y >>= m
    if x & 1:
        u, v, g = _descent(x, y, 1, None)
    else:
        # y is odd once the shared twos are out
        v, u, g = _descent(y, x, 1, None)
    if a < 0:
        u = -u
    if b < 0:
        v = -v
    return tuple.__new__(BezoutTriple, (u, v, g << m))


def normalizer_of(a: int, b: int, c: int) -> Normalizer:
    """Residues v, t in [0, a-1] with a | (c - v*b) and a | (c + t*b).

    Solvable only when g = gcd(a, b) divides c; raises
    NotRepresentableError otherwise.  Built as v = (c/g) * v_g mod a from
    the gcd-level solution, which makes the result additive and
    multiplicative in c (mod a) and compatible with exact halving of even
    c when a is odd.
    """
    _require_positive(a, b)
    _, vg, g = ext_gcd(a, b)
    if c % g != 0:
        raise NotRepresentableError(
            f"no solution: gcd({a}, {b}) = {g} does not divide c = {c}"
        )
    value = (c // g) * vg % a
    return Normalizer(value, (a - value) % a)


def canonical_min_v(a: int, b: int, t: BezoutTriple) -> BezoutTriple:
    """The Bezout solution for nonzero (a, b) with the smallest nonnegative v.

    Steps t along the solution family (u, v) -> (u + b/g, v - a/g) until v
    lies in [0, |a|/g - 1].  Either operand may be negative.  For positive
    coprime inputs with a odd the normalized solver output is already
    canonical.  Rejects zero operands, g <= 0 and triples that do not solve
    the pair.
    """
    if a == 0 or b == 0:
        raise ValueError(f"operands must be nonzero, got ({a}, {b})")
    u, v, g = t
    if g <= 0:
        raise ValueError(f"g must be positive, got {g}")
    if u * a + v * b != g or a % g != 0 or b % g != 0:
        raise ValueError(f"{t!r} does not solve u*{a} + v*{b} = gcd")
    step = abs(a) // g
    vn = v % step
    return BezoutTriple(u + (v - vn) // (a // g) * (b // g), vn, g)
