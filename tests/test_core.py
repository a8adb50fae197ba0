import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from normgcd.baselines import binary_gcd_steps
from normgcd.core import (
    BezoutTriple,
    NormalState,
    NotRepresentableError,
    _finish,
    _inverse,
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
from normgcd.oracle import brute_normalizer

odd_positive = st.integers(0, 10**9).map(lambda n: 2 * n + 1)
small_odd = st.integers(0, 400).map(lambda n: 2 * n + 1)
positive = st.integers(1, 10**12)
small_positive = st.integers(1, 800)
signed = st.integers(-(10**12), 10**12)
big_signed = st.integers(-(2**256), 2**256)


# --- normalize_solution ---------------------------------------------------


@pytest.mark.parametrize(
    "a,b,u,v,expected",
    [
        (5, 7, -4, 3, (-4, 3, 1)),
        (5, 7, 3, -2, (-4, 3, 1)),
        (1, 9, 2, 1, (11, 0, 11)),
    ],
)
def test_normalize_solution_examples(a, b, u, v, expected):
    assert normalize_solution(a, b, u, v) == expected


@given(a=positive, b=signed, u=signed, v=signed)
def test_normalize_solution_contract(a, b, u, v):
    state = normalize_solution(a, b, u, v)
    assert state.c == u * a + v * b
    assert state.u * a + state.v * b == state.c
    assert 0 <= state.v < a


# --- div1 / div2 ----------------------------------------------------------


@pytest.mark.parametrize(
    "a,c,v,expected",
    [
        (5, 4, 2, (1, 3)),
        (5, 3, 4, (3, 4)),
        (3, 0, 0, (0, 0)),
    ],
)
def test_div1_examples(a, c, v, expected):
    assert div1(a, c, v) == expected


def test_div1_zero_c_keeps_v():
    assert div1(7, 0, 5) == (0, 5)


@given(a=small_odd, b=small_positive, v=st.integers(0, 10**6), t=st.integers(0, 10**6))
def test_div1_keeps_v_a_normalizer(a, b, v, t):
    # build c with a | (c - v*b) directly, then check the halved pair
    v %= a
    c = v * b + t * a
    c2, v2 = div1(a, c, v)
    assert 0 <= v2 < a
    assert (c2 - v2 * b) % a == 0
    if c != 0:
        assert c2 % 2 == 1
        assert c % c2 == 0 and (c // c2) & (c // c2 - 1) == 0  # c / c2 is a power of 2


@pytest.mark.parametrize(
    "a,b,state,expected",
    [
        (5, 7, (-2, 2, 4), (-4, 3, 1)),
        (5, 7, (-4, 3, 1), (-4, 3, 1)),
        (3, 6, (-2, 1, 0), (-2, 1, 0)),
    ],
)
def test_div2_examples(a, b, state, expected):
    assert div2(a, b, NormalState(*state)) == expected


@given(a=small_odd, b=small_positive, u=st.integers(-(10**6), 10**6), v=st.integers(0, 10**9))
def test_div2_preserves_normal_state(a, b, u, v):
    v %= a
    c = u * a + v * b
    assume(c >= 0)
    out = div2(a, b, NormalState(u, v, c))
    assert out.u * a + out.v * b == out.c
    assert 0 <= out.v < a
    assert out.c == 0 or out.c % 2 == 1
    if c > 0:
        assert c % out.c == 0 and (c // out.c) & (c // out.c - 1) == 0


def test_div2_agrees_with_div1_on_v():
    for a in (3, 5, 9, 15):
        for b in range(1, 40):
            for v in range(a):
                for t in range(4):
                    c = v * b + t * a
                    u = (c - v * b) // a
                    state = div2(a, b, NormalState(u, v, c))
                    assert (state.c, state.v) == div1(a, c, v)


# --- wwl1 -----------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (5, 7, (-4, 3)),
        (1, 42, (1, 0)),
        (3, 2, (-1, 2)),
    ],
)
def test_wwl1_examples(a, b, expected):
    assert wwl1(a, b) == expected


def test_wwl1_rejections():
    for solve in (wwl1, wwl1_trace):
        # the gcd named is the survivor of the descent; (9, 27) and (15, 15)
        # have a | b, so it is the seed a - 0 that never moves
        for a, b, g in [(9, 6, 3), (9, 27, 9), (15, 15, 15), (57795, 34835, 5)]:
            message = rf"^operands must be coprime, got gcd\({a}, {b}\) = {g}$"
            with pytest.raises(ValueError, match=message):
                solve(a, b)


@given(a=small_odd, b=positive)
def test_wwl1_solves_uniquely(a, b):
    assume(math.gcd(a, b) == 1)
    u, v = wwl1(a, b)
    assert u * a + v * b == 1
    assert 0 <= v < a
    assert v == brute_normalizer(a, b, 1)


@given(a=small_odd, b=small_positive)
def test_wwl1_trace_descends(a, b):
    assume(math.gcd(a, b) == 1)
    (u, v), trace = wwl1_trace(a, b)
    assert (u, v) == wwl1(a, b)
    sums = [c1 + c2 for c1, c2 in trace]
    assert all(x > y for x, y in zip(sums, sums[1:]))
    assert all(math.gcd(c1, c2) == 1 for c1, c2 in trace)


@given(a=odd_positive, b=positive)
def test_wwl1_is_wwl2_on_coprime_pairs(a, b):
    g = math.gcd(a, b)
    if g == 1:
        assert wwl1(a, b) == tuple(wwl2(a, b))[:2]
    else:
        with pytest.raises(ValueError, match=rf"= {g}$"):
            wwl1(a, b)


# --- wwl2 -----------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (5, 7, (-4, 3, 1)),
        (3, 6, (-3, 2, 3)),
        (1, 1, (1, 0, 1)),
    ],
)
def test_wwl2_examples(a, b, expected):
    assert wwl2(a, b) == expected


@given(a=odd_positive, b=positive)
def test_wwl2_contract(a, b):
    u, v, g = wwl2(a, b)
    assert u * a + v * b == g
    assert g == math.gcd(a, b)
    assert 0 <= v < a


@given(a=small_odd, b=small_positive)
def test_wwl2_matches_trace_and_descends(a, b):
    triple, trace = wwl2_trace(a, b)
    assert triple == wwl2(a, b)
    sums = [c1 + c2 for c1, c2 in trace]
    assert all(x > y for x, y in zip(sums, sums[1:]))
    assert all(math.gcd(c1, c2) == triple.g for c1, c2 in trace)


def test_wwl2_when_a_divides_b():
    for a in (1, 3, 9, 15):
        for mult in (1, 2, 5):
            u, v, g = wwl2(a, a * mult)
            assert g == a
            assert u * a + v * (a * mult) == a
            assert 0 <= v < a


def test_wwl2_representative_when_gcd_exceeds_one():
    # the normalizer of g the descent leaves: in range, but not the smallest
    a, b = 57795, 34835
    t = wwl2(a, b)
    assert t == (-9745, 16168, 5)
    canonical = canonical_min_v(a, b, t)
    assert canonical.v == 4609
    assert (t.v - canonical.v) % (a // t.g) == 0


@given(a=odd_positive, b=positive, g=small_odd)
@example(a=11559, b=6967, g=5)  # (57795, 34835) of the test above
def test_wwl2_trace_scales_by_an_odd_gcd(a, b, g):
    # g*(a, b) runs the descent of (a, b) times g, with the same x and E, so
    # v is the coprime v lifted from [0, a-1] to [0, g*a-1]
    assume(math.gcd(a, b) == 1)
    t, trace = wwl2_trace(a, b)
    scaled, scaled_trace = wwl2_trace(g * a, g * b)
    assert scaled_trace == [(g * c1, g * c2) for c1, c2 in trace]
    assert scaled.g == g
    assert scaled.v % a == t.v
    assert canonical_min_v(g * a, g * b, scaled)[:2] == t[:2]


# --- the descent kernel against the paper's step functions -------------------
#
# Reference descents built from div1 and div2 step by step.  The div2 one
# carries u through every subtraction and halving; the div1 one rebuilds u
# from b = a*q + r.  Both check the kernel's single exact division for u.


def reference_wwl1_trace(a, b):
    if a == 1:
        return (1, 0), [(0, 1)]
    q, r = divmod(b, a)
    c1, v1 = div1(a, r, 1)
    c2, v2 = div1(a, a - r, a - 1)
    if c2 < c1:
        c1, v1, c2, v2 = c2, v2, c1, v1
    trace = [(c1, c2)]
    while c1 > 1:
        c2 -= c1
        v2 = v2 - v1 if v2 >= v1 else v2 - v1 + a
        c2, v2 = div1(a, c2, v2)
        if c2 < c1:
            c1, v1, c2, v2 = c2, v2, c1, v1
        trace.append((c1, c2))
    return (-v1 * q + (1 - v1 * r) // a, v1), trace


def reference_wwl2_trace(a, b):
    if a == 1:
        return BezoutTriple(1, 0, 1), [(0, 1)]
    q, r = divmod(b, a)
    s1 = div2(a, b, NormalState(-q, 1, r))
    s2 = div2(a, b, NormalState(1 + q - b, a - 1, a - r))
    if s2.c < s1.c:
        s1, s2 = s2, s1
    trace = [(s1.c, s2.c)]
    while s1.c > 0:
        u2, v2, c2 = s2
        c2 -= s1.c
        if v2 < s1.v:
            v2 += a - s1.v
            u2 -= s1.u + b
        else:
            v2 -= s1.v
            u2 -= s1.u
        s2 = div2(a, b, NormalState(u2, v2, c2))
        if s2.c < s1.c:
            s1, s2 = s2, s1
        trace.append((s1.c, s2.c))
    return BezoutTriple(s2.u, s2.v, s2.c), trace


def assert_descents_match_reference(a, b):
    triple, trace = reference_wwl2_trace(a, b)
    assert wwl2_trace(a, b) == (triple, trace)
    out = wwl2(a, b)
    assert out == triple and type(out) is BezoutTriple
    if math.gcd(a, b) == 1:
        pair, trace1 = reference_wwl1_trace(a, b)
        assert wwl1_trace(a, b) == (pair, trace1)
        assert wwl1(a, b) == pair


def _odd_pairs(bits, shared, count):
    rng = random.Random(bits + shared)
    for _ in range(count):
        a = rng.getrandbits(bits) | (1 << bits - 1) | 1
        yield a * shared, rng.randrange(1, a) * shared


@pytest.mark.parametrize(
    "a,b",
    [
        (1, 1),
        (1, 42),
        (1, 2**2048 + 5),
        (3, 6),
        (9, 27),
        (15, 15),
        (21, 147),
        (57795, 34835),
        (9, 6),
        (45, 75),
        *_odd_pairs(2048, 1, 3),
        *_odd_pairs(2048, 105, 3),
        # E is about 5700 here: the tail takes 22 whole words and a last
        # partial one
        *_odd_pairs(4096, 1, 1),
        *_odd_pairs(4096, 105, 1),
    ],
)
def test_descents_match_reference_fixed_cases(a, b):
    assert_descents_match_reference(a, b)


@given(a=odd_positive, b=positive, k=st.integers(0, 50).map(lambda n: 2 * n + 1))
def test_descents_match_reference_sweep(a, b, k):
    assert_descents_match_reference(a * k, b * k)


def _run_pairs(t, shared):
    """Pairs whose first loop iteration strips a run of exactly t twos.

    With r and y odd, a = 3r + 2**(t+1)*y and b = r + q*a seed the descent
    with c1 = r and c2 = (a - r)/2 = r + 2**t*y, so c2 - c1 = 2**t * y.
    An odd shared factor scales every c and keeps the runs.
    """
    rng = random.Random(1000 * t + shared)
    for r_bits, y_bits in ((3, 1), (400, 300), (1500, 900)):
        r = rng.getrandbits(r_bits) | 1
        y = rng.getrandbits(y_bits) | 1
        a = 3 * r + (y << t + 1)
        yield a * shared, (r + rng.randrange(3) * a) * shared


def _runs(trace):
    """The run of twos each descent iteration strips, from its (c1, c2) trace."""
    diffs = (c2 - c1 for c1, c2 in trace[:-1])
    return [(d & -d).bit_length() - 1 for d in diffs]


@pytest.mark.parametrize("t", [7, 8, 9, 64, 300])
@pytest.mark.parametrize("shared", [1, 105])
def test_long_runs_of_twos_match_reference(t, shared):
    # runs of 8 or more twos leave c2's low byte zero, past the byte table
    for a, b in _run_pairs(t, shared):
        _, trace = reference_wwl2_trace(a, b)
        assert t in _runs(trace)
        assert_descents_match_reference(a, b)
        # from its loop-entry pair the binary gcd walks the same c path
        g = math.gcd(a, b)
        assert binary_gcd_steps(*trace[0]) == (g, len(trace) - 1)
        assert binary_gcd_steps(a, b)[0] == g


# --- ext_gcd ----------------------------------------------------------------


def test_ext_gcd_zero_conventions():
    assert ext_gcd(0, 0) == (0, 0, 0)
    assert ext_gcd(0, 9) == (0, 1, 9)
    assert ext_gcd(9, 0) == (1, 0, 9)
    assert ext_gcd(0, -9) == (0, -1, 9)
    assert ext_gcd(-9, 0) == (-1, 0, 9)
    # == alone would let a bool through (True == 1)
    for a, b in [(0, 0), (0, 7), (0, -7), (7, 0), (-7, 0)]:
        assert [type(x) for x in ext_gcd(a, b)] == [int, int, int], (a, b)


def test_ext_gcd_examples():
    assert ext_gcd(-5, 7) == (4, 3, 1)
    u, v, g = ext_gcd(12, 18)
    assert g == 6 and 12 * u + 18 * v == 6
    assert ext_gcd(240, -46) == (14, 73, 2)  # even first: swap, sign fold
    assert ext_gcd(18, -12) == (-3, -5, 6)  # shared twos


@given(a=big_signed, b=big_signed)
def test_ext_gcd_total_contract(a, b):
    u, v, g = ext_gcd(a, b)
    assert u * a + v * b == g
    assert g == math.gcd(a, b)
    assert g >= 0


def _via_wwl2(a, b):
    """ext_gcd's reduction written out around wwl2_trace, the full descent.

    The untraced entry points stop once c1 reaches 1; wwl2_trace runs every
    iteration down to (0, g), so it is the oracle they are checked against.
    """
    if a == 0 and b == 0:
        return BezoutTriple(0, 0, 0)
    if a == 0:
        return BezoutTriple(0, 1 if b > 0 else -1, abs(b))
    if b == 0:
        return BezoutTriple(1 if a > 0 else -1, 0, abs(a))
    x, y, m = abs(a), abs(b), 0
    while x % 2 == 0 and y % 2 == 0:
        x, y, m = x // 2, y // 2, m + 1
    if x % 2 == 1:
        u, v, g = wwl2_trace(x, y)[0]
    else:
        v, u, g = wwl2_trace(y, x)[0]
    return BezoutTriple(-u if a < 0 else u, -v if b < 0 else v, g << m)


@st.composite
def ext_gcd_shapes(draw):
    """Signed pairs with zeros, shared twos 2^0..2^12, shared odd factors
    and an even first operand after the shared twos are out."""
    a = draw(st.one_of(st.just(0), signed))
    b = draw(st.one_of(st.just(0), signed))
    a <<= draw(st.integers(0, 3))  # extra twos on a give the even-first swap
    k = draw(st.sampled_from([1, 3, 5, 15, 105])) << draw(st.integers(0, 12))
    return a * k, b * k


@given(ext_gcd_shapes())
@example((240, -46))
@example((18, -12))
@example((-12, 18))
@example((0, -7))
@example((-7, 0))
def test_ext_gcd_is_wwl2_behind_its_reduction(pair):
    # pins the exact representative on every path, not only the identity
    a, b = pair
    t = ext_gcd(a, b)
    assert type(t) is BezoutTriple
    assert t == _via_wwl2(a, b)


@given(a=positive, b=positive)
def test_ext_gcd_v_range_when_first_operand_leads(a, b):
    # once shared twos are stripped, an odd first operand bounds v
    u, v, g = ext_gcd(a, b)
    low = (a | b) & -(a | b)
    a_stripped = a // low
    if a_stripped % 2 == 1:
        assert 0 <= v < a_stripped


# --- the traced descent as the oracle of the untraced one -------------------


def _sized(draw, bits, odd=False):
    n = draw(st.integers(1 << bits - 1, (1 << bits) - 1))
    return n | 1 if odd else n


def _first_run_pair(c1, c2, s):
    """An odd-first pair whose descent is seeded with (c1, c2), for odd
    1 <= c1 < c2: b = c1 * 2**s, and a = b + c2 when s > 0 (the seed halves
    b), a = b + 2*c2 when s = 0 (it halves a - b once)."""
    b = c1 << s
    return b + (c2 if s else 2 * c2), b


@st.composite
def first_run_seeds(draw):
    """(c1, c2) seeds for the untraced long first-run step: c2 >> 12 just
    above or just below c1 (the step's threshold), c2 up to 600 bits
    longer, or c2 = q*c1 + y*2**(k+d) with y < c1, so that the step's
    run of twos overshoots its k bits and the swap must follow it."""
    c1 = _sized(draw, draw(st.integers(2, 64)), odd=True)
    kind = draw(st.sampled_from(["above", "below", "long", "overshoot"]))
    low = draw(st.integers(0, 2047)) * 2 + 1
    if kind == "above":
        return c1, (c1 + 1 << 12) + low
    if kind == "below":
        return c1, (c1 << 12) + low
    if kind == "long":
        return c1, _sized(draw, c1.bit_length() + draw(st.integers(12, 600)), odd=True)
    k, d = draw(st.integers(12, 600)), draw(st.integers(3, 8))
    q = _sized(draw, draw(st.integers(1, k)), odd=True)
    y = _sized(draw, c1.bit_length() - 1, odd=True)
    return c1, q * c1 + (y << k + d)


@st.composite
def descent_shapes(draw):
    """Signed pairs of every lib-small shape (odd first, even first, shared
    twos 1..12, an odd common factor, a zero), with balanced sizes up to 64
    bits or one operand up to 600 bits against the other's 64 or fewer; and
    pairs seeded by first_run_seeds, scaled by 1, 3 or 105 and put either
    way round (an even second operand then comes first)."""
    short, long = st.integers(2, 64), st.integers(65, 600)
    bits_a, bits_b = draw(
        st.one_of(st.tuples(short, short), st.tuples(long, short), st.tuples(short, long))
    )
    shape = draw(st.sampled_from(["odd", "even", "twos", "factor", "zero", "first run"]))
    if shape == "odd":
        a, b = _sized(draw, bits_a, odd=True), _sized(draw, bits_b)
    elif shape == "even":
        a, b = _sized(draw, bits_a) & -2, _sized(draw, bits_b, odd=True)
    elif shape == "twos":
        k = draw(st.integers(1, 12))
        a, b = _sized(draw, bits_a) << k, _sized(draw, bits_b) << k
    elif shape == "factor":
        f = draw(st.integers(1, 2047)) * 2 + 1
        a, b = f * _sized(draw, bits_a, odd=True), f * _sized(draw, bits_b)
    elif shape == "first run":
        a, b = _first_run_pair(*draw(first_run_seeds()), draw(st.integers(0, 5)))
        f = draw(st.sampled_from([1, 3, 105]))
        a, b = draw(st.sampled_from([(f * a, f * b), (f * b, f * a)]))
    else:
        a, b = draw(st.sampled_from([(0, _sized(draw, bits_b)), (_sized(draw, bits_a), 0)]))
    return a * draw(st.sampled_from([1, -1])), b * draw(st.sampled_from([1, -1]))


# seeds of the first-run step's edge cases: (c1, c2) just above and just
# below its threshold, and a run of k + 3 twos that leaves c2 = 5 < c1 = 13
_ABOVE, _BELOW = (5, (6 << 12) + 1), (5, (5 << 12) + 1)
_OVERSHOOT = (13, ((1 << 73) + 1) * 13 + (5 << 77))


@given(descent_shapes())
@example((1, 5))
@example((3 * 7, 3 * 11))
@example(((1 << 300) + 1, 7))
@example((7, (1 << 300) + 1))
@example(_first_run_pair(*_ABOVE, 0))
@example(_first_run_pair(*_BELOW, 0))
@example(_first_run_pair(*_OVERSHOOT, 0))
@example(tuple(105 * n for n in _first_run_pair(*_OVERSHOOT, 0)))
@example(_first_run_pair(*_ABOVE, 3)[::-1])
@example(_first_run_pair(*_OVERSHOOT, 1)[::-1])
@example(tuple(-3 * n for n in _first_run_pair(*_ABOVE, 2)[::-1]))
def test_untraced_paths_return_what_the_full_descent_returns(pair):
    a, b = pair
    t = ext_gcd(a, b)
    assert type(t) is BezoutTriple and [type(n) for n in t] == [int, int, int]
    assert t == _via_wwl2(a, b)
    if a == 0 or b == 0:
        return
    # the odd-first pair ext_gcd hands the kernel
    x, y = abs(a) // (t.g & -t.g), abs(b) // (t.g & -t.g)
    if x % 2 == 0:
        x, y = y, x
    triple, trace = wwl2_trace(x, y)
    out = wwl2(x, y)
    assert out == triple
    assert type(out) is BezoutTriple and [type(n) for n in out] == [int, int, int]
    # the traced descent never stops early: it ends at (0, g), g > 1 included,
    # and each iteration at least halves c1*c2, which starts below 2**(n_x + n_y)
    assert trace[-1] == (0, triple.g)
    assert len(trace) - 1 <= x.bit_length() + y.bit_length()
    if triple.g == 1:
        uv, trace1 = wwl1_trace(x, y)
        assert wwl1(x, y) == uv == triple[:2]
        # wwl1's trace is wwl2's up to the first state with c1 <= 1
        cut = next(i for i, (c1, _) in enumerate(trace) if c1 <= 1)
        assert trace1 == trace[: cut + 1]
    else:
        for solve in (wwl1, lambda a, b: wwl1_trace(a, b)[0]):
            with pytest.raises(ValueError, match=rf"= {triple.g}$"):
                solve(x, y)


def test_first_run_step_on_every_small_pair():
    # every odd a in [2**13, 2**17) against every b < 16: the untraced
    # first-run step fires on about a third of these pairs, with k from 10
    # to 13.  Each iteration at least halves c1*c2, which starts below
    # 2**(bitlen(a) + bitlen(b)): that bounds the full descent's work
    for a in range(2**13 + 1, 2**17, 2):
        n = a.bit_length()
        for b in range(1, 16):
            triple, trace = wwl2_trace(a, b)
            assert wwl2(a, b) == ext_gcd(a, b) == triple
            assert len(trace) - 1 <= n + b.bit_length()


def test_every_small_pair_solves_within_the_work_bound():
    # every odd a < 2**10 against every b < 2**10: wwl2 and wwl2_trace agree
    # on a normal Bezout triple of gcd(a, b), within the work bound of
    # test_first_run_step_on_every_small_pair
    for a in range(1, 2**10, 2):
        n = a.bit_length()
        for b in range(1, 2**10):
            triple, trace = wwl2_trace(a, b)
            assert wwl2(a, b) == triple
            u, v, g = triple
            assert u * a + v * b == g == math.gcd(a, b) and 0 <= v < a
            assert len(trace) - 1 <= n + b.bit_length()


def test_first_run_step_fires_only_untraced_and_on_long_runs(monkeypatch):
    rng = random.Random(2048)
    a = rng.getrandbits(2048) | 1 << 2047 | 1
    short, balanced = rng.getrandbits(64) | 1 << 63, rng.randrange(1, a)
    tail = (a & (1 << 256) - 1, 256)  # E > 256: the tail lifts a's low word
    calls = []

    def spy(n, k):
        calls.append((n, k))
        return _inverse(n, k)

    def inverses(solve, b):
        calls.clear()
        solve(a, b)
        return list(calls)

    monkeypatch.setattr("normgcd.core._inverse", spy)
    assert inverses(wwl2_trace, short) == [tail]
    assert inverses(wwl2, balanced) == [tail]
    # the 64-bit c1, lifted across the roughly 1980-bit run, then the tail
    (c1, k), last = inverses(wwl2, short)
    assert c1 < 2**64 and k > 1900 and last == tail


# --- the tail: v = x * 2**-E mod a, by Montgomery words of 256 twos -------


def _scaled_survivor(a, b):
    """The (x, E) that wwl2's descent of (a, b) hands its tail, by the plain
    loop: one subtraction and one halving at a time, no table and no long
    first-run step, stopping when c1 reaches 1 or 0.

    Checks what README and _descent state on the way: every row keeps
    x*b = c*2**E mod a, so its v is x * 2**-E mod a; the rows keep
    |x1*c2 - x2*c1| = a through every step; and the survivor has |x| <= a.
    """

    def step(c1, x1, c2, x2, e):
        assert (x1 * b - (c1 << e)) % a == 0 and (x2 * b - (c2 << e)) % a == 0
        assert abs(x1 * c2 - x2 * c1) == a
        return c1, x1, c2, x2, e

    r = b % a
    c1, x1, c2, x2, e = step(r, 1, a - r, -1, 0)
    while c1 and c1 % 2 == 0:
        c1, x1, c2, x2, e = step(c1 // 2, x1, c2, 2 * x2, e + 1)
    while c2 % 2 == 0:
        c1, x1, c2, x2, e = step(c1, 2 * x1, c2 // 2, x2, e + 1)
    if c2 < c1:
        c1, x1, c2, x2, e = step(c2, x2, c1, x1, e)
    while c1 > 1:
        c1, x1, c2, x2, e = step(c1, x1, c2 - c1, x2 - x1, e)
        while c2 and c2 % 2 == 0:
            c1, x1, c2, x2, e = step(c1, 2 * x1, c2 // 2, x2, e + 1)
        if c2 < c1:
            c1, x1, c2, x2, e = step(c2, x2, c1, x1, e)
    x = x1 if c1 else x2
    assert abs(x) <= a
    return x, e


def assert_tail(a, b):
    """wwl2's v is x * 2**-E mod a for the plain loop's (x, E); ext_gcd and
    wwl1 agree.  Returns E."""
    x, e = _scaled_survivor(a, b)
    t = wwl2(a, b)
    assert t.v == x * pow(2, -e, a) % a
    assert ext_gcd(a, b) == t and type(t) is BezoutTriple
    assert [type(n) for n in t] == [int, int, int]
    if t.g == 1:
        assert wwl1(a, b) == t[:2]
    return e


@pytest.mark.parametrize(
    "a,b,g,e",
    [
        (3270856494209250859942496680698003450449019768054870259311,
         1695505876636901427015783346983123156477113591231974303028, 1, 256),
        (270571852942144967258561781768929313691147196035331212515773,
         100345437293581869357498212972436994995528200173807714381710, 1, 257),
        (66435413401108460582411368658881612573438108177920134895705,
         8726075242532253957070729043470495342044130521216456105735, 105, 256),
        (56911236255434040762817877672509381863794135636585536096155,
         17329440095040198561881049525774365830552495208595043183620, 105, 257),
        # unbalanced: the first run is one step, and E lands on the boundary
        (8391293733955447096900797834807327992234303706119228318241577538167355147619,
         852808, 1, 256),
        (20291501527746561571986310434196625831570374986402475110508125453961709863469,
         690834, 1, 257),
    ],
)
def test_tail_on_each_side_of_the_word(a, b, g, e):
    assert math.gcd(a, b) == g
    assert assert_tail(a, b) == e
    assert_descents_match_reference(a, b)


# E for _finish with a word of w twos and an a of n bits: below, at and past
# one word, at and past two, past three, and at, past and twice a's width
_FINISH_E = {
    "0": lambda w, n: 0,
    "1": lambda w, n: 1,
    "w-1": lambda w, n: w - 1,
    "w": lambda w, n: w,
    "w+1": lambda w, n: w + 1,
    "2w": lambda w, n: 2 * w,
    "2w+1": lambda w, n: 2 * w + 1,
    "3w+1": lambda w, n: 3 * w + 1,
    "n": lambda w, n: n,
    "n+w+1": lambda w, n: n + w + 1,
    "2n": lambda w, n: 2 * n,
}


@pytest.mark.parametrize("rule", _FINISH_E, ids=lambda rule: f"E={rule}")
@pytest.mark.parametrize("w", [8, 256])
def test_finish_is_x_times_inverse_power_of_two(w, rule, monkeypatch):
    # _finish on chosen (a, x, E), one id for each word width and rule for E;
    # a of one word or several, or with a low word of all ones or 1.
    # b = 2**E mod a and c = x satisfy the descent's x*b = c*2**E mod a, so
    # u*a + v*b = c holds exactly
    monkeypatch.setattr("normgcd.core._W", w)
    wide = random.Random(w)
    seeded = [wide.getrandbits(n) | 1 << n - 1 | 1 for n in (64, 255, 256, 257, 600, 2048, 8192)]
    small = range(1, 2**10, 2) if w == 8 else ()
    rng = random.Random(f"{w} {rule}")
    for a in (*small, 1, 3, 2**256 - 1, 2**256 + 1, 2**512 + 1, *seeded):
        e = _FINISH_E[rule](w, a.bit_length())
        b = pow(2, e, a)
        for x in (-a, 1 - a, -1, 0, 1, a, rng.randint(-a, a)):
            u, v, c = _finish(a, b, x, e, x)
            assert v == x * pow(2, -e, a) % a and u * a + v * b == c == x


@pytest.mark.parametrize("g", [1, 105])
@pytest.mark.parametrize("bits", [2048, 8192])
def test_tail_on_wide_a(bits, g):
    # balanced and 64-bit b: E passes the bits of a, so the loop takes
    # bits / 256 or more whole words
    rng = random.Random(bits + g)
    a = rng.getrandbits(bits) | 1 << bits - 1 | 1
    for b in (rng.randrange(1, a), rng.getrandbits(64) | 1 << 63):
        assert assert_tail(g * a, g * b) > bits


@given(
    a=st.integers(2**255, 2**1600).map(lambda n: 2 * n + 1),
    b=st.integers(1, 2**1600),
    k=st.sampled_from([1, 3, 105]),
)
def test_tail_over_many_words_is_x_times_inverse_power_of_two(a, b, k):
    assert_tail(a * k, b * k)


@pytest.mark.parametrize("b", [1, 2, 7, 2**64 + 3, 2**300])
def test_tail_when_a_is_one(b):
    # b mod 1 = 0: no halving at all, so E = 0 and the word is empty
    assert assert_tail(1, b) == 0
    assert wwl2(1, b) == (1, 0, 1)


@pytest.mark.parametrize("low", range(1, 256, 2))
def test_inverse_for_every_odd_low_byte(low):
    rng = random.Random(low)
    for a in (low, low + (rng.getrandbits(120) << 8), low + (rng.getrandbits(3000) << 8)):
        # each table row's width, one below it and one above it, and the
        # doubling past 256 bits
        for k in (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128,
                  129, 255, 256, 257, 511, 512, 513, 2048, 5000):
            j = max(8, 1 << (k - 1).bit_length())
            assert _inverse(a, k) == pow(a, -1, 1 << j)


@given(
    a=st.one_of(st.just(1), st.integers(0, 2**200).map(lambda n: 2 * n + 1)),
    b=st.integers(1, 2**200),
    k=st.sampled_from([1, 3, 105, 2**61 - 1]),
)
def test_tail_is_x_times_inverse_power_of_two(a, b, k):
    assert_tail(a * k, b * k)


# --- normalizer_of ----------------------------------------------------------


def test_normalizer_examples():
    assert normalizer_of(5, 7, 4) == (2, 3)
    assert normalizer_of(5, 7, 0) == (0, 0)
    with pytest.raises(NotRepresentableError):
        normalizer_of(4, 6, 3)


@given(a=small_positive, b=small_positive, k=st.integers(-500, 500))
def test_normalizer_contract(a, b, k):
    c = math.gcd(a, b) * k
    value, conorm = normalizer_of(a, b, c)
    assert 0 <= value < a
    assert 0 <= conorm < a
    assert (c - value * b) % a == 0
    assert (c + conorm * b) % a == 0


@given(a=small_positive, b=small_positive, c=st.integers(-400, 400))
def test_normalizer_agrees_with_brute_force(a, b, c):
    g = math.gcd(a, b)
    brute = brute_normalizer(a, b, c)
    if c % g != 0:
        assert brute is None
        with pytest.raises(NotRepresentableError):
            normalizer_of(a, b, c)
        return
    value = normalizer_of(a, b, c).value
    # both must solve; they are equal outright in the coprime case and
    # congruent modulo a/g (the spacing of valid residues) otherwise
    assert brute is not None
    assert (c - value * b) % a == 0
    assert (value - brute) % (a // g) == 0
    if g == 1:
        assert value == brute


# --- normalizer algebra -----------------------------------------------------


@given(a=small_odd, b=small_positive, j=st.integers(-300, 300), k=st.integers(-300, 300))
def test_normalizer_additive_and_subtractive(a, b, j, k):
    g = math.gcd(a, b)
    c, d = g * j, g * k
    v = lambda x: normalizer_of(a, b, x).value
    assert (v(c + d) - v(c) - v(d)) % a == 0
    assert (v(c - d) - (v(c) - v(d))) % a == 0


@given(a=small_odd, b=small_positive, x=st.integers(-300, 300), k=st.integers(-300, 300))
def test_normalizer_multiplicative(a, b, x, k):
    c = math.gcd(a, b) * k
    v = lambda y: normalizer_of(a, b, y).value
    assert (v(x * c) - x * v(c)) % a == 0


@given(a=small_odd, b=small_positive, k=st.integers(-300, 300))
def test_normalizer_halving(a, b, k):
    # gcd(a, b) is odd because a is, so 2*g*k covers the even multiples
    c = 2 * math.gcd(a, b) * k
    vc = normalizer_of(a, b, c).value
    expected = vc // 2 if vc % 2 == 0 else (vc + a) // 2
    assert normalizer_of(a, b, c // 2).value == expected


@given(a=st.integers(1, 400).map(lambda n: 2 * n + 1), b=positive)
def test_normalizer_initial_values(a, b):
    assume(math.gcd(a, b) == 1)
    assert normalizer_of(a, b, b % a).value == 1
    assert normalizer_of(a, b, -b % a).value == a - 1


@given(a=small_positive, b=small_positive, c=st.integers(0, 800 * 800))
def test_normal_u_bounds(a, b, c):
    assume(math.gcd(a, b) == 1)
    assume(c < a * b)
    vc = normalizer_of(a, b, c).value
    uc = (c - vc * b) // a
    assert -b + 1 <= uc <= b - 1
    if c == 1 and b > 1 and a > 1:
        assert -b + 1 <= uc <= -1


# --- canonical_min_v --------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,t,expected",
    [
        (3, 6, (-3, 2, 3), (1, 0, 3)),
        (5, 7, (-4, 3, 1), (-4, 3, 1)),
        (9, 6, (1, -1, 3), (-1, 2, 3)),
    ],
)
def test_canonical_examples(a, b, t, expected):
    assert canonical_min_v(a, b, BezoutTriple(*t)) == expected


def test_canonical_rejections():
    with pytest.raises(ValueError):
        canonical_min_v(3, 6, BezoutTriple(0, 0, 0))
    with pytest.raises(ValueError):
        canonical_min_v(3, 6, BezoutTriple(1, 1, 3))  # identity fails
    with pytest.raises(ValueError):
        canonical_min_v(0, 6, BezoutTriple(1, 0, 3))


@given(a=small_positive, b=small_positive, k=st.integers(-50, 50))
def test_canonical_is_minimal(a, b, k):
    g = math.gcd(a, b)
    u0, v0, _ = ext_gcd(a, b)
    shifted = BezoutTriple(u0 + k * (b // g), v0 - k * (a // g), g)
    out = canonical_min_v(a, b, shifted)
    assert out.u * a + out.v * b == g
    # the smallest nonnegative v solving a | (g - v*b), found by scan
    smallest = next(v for v in range(a) if (g - v * b) % a == 0)
    assert out.v == smallest


def test_canonical_exhaustive_small_grid():
    nonzero = [x for x in range(-24, 25) if x != 0]
    for a in nonzero:
        for b in nonzero:
            out = canonical_min_v(a, b, ext_gcd(a, b))
            g = math.gcd(a, b)
            assert out.g == g
            assert out.u * a + out.v * b == g
            assert 0 <= out.v < abs(a) // g
            assert out.v == next(v for v in range(abs(a)) if (g - v * b) % a == 0)


def test_ext_gcd_handles_very_large_operands():
    rng = random.Random(0xC0FFEE)
    a = rng.getrandbits(4096) | (1 << 4095) | 1
    b = rng.getrandbits(4096) | (1 << 4095)
    u, v, g = ext_gcd(a, b)
    assert u * a + v * b == g == math.gcd(a, b)
    assert 0 <= v < a
