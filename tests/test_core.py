import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normgcd.core import (
    BezoutTriple,
    NormalState,
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


def test_normalize_solution_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        normalize_solution(0, 7, 1, 1)
    with pytest.raises(ValueError):
        normalize_solution(-3, 7, 1, 1)


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


def test_div1_rejects_even_or_nonpositive_a():
    with pytest.raises(ValueError):
        div1(4, 2, 1)
    with pytest.raises(ValueError):
        div1(0, 2, 1)


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
    with pytest.raises(ValueError):
        wwl1(4, 7)  # even a
    with pytest.raises(ValueError):
        wwl1(9, 6)  # gcd 3
    with pytest.raises(ValueError):
        wwl1(-5, 7)
    with pytest.raises(ValueError):
        wwl1(5, 0)


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


def test_wwl2_rejections():
    with pytest.raises(ValueError):
        wwl2(6, 9)
    with pytest.raises(ValueError):
        wwl2(0, 9)
    with pytest.raises(ValueError):
        wwl2(9, 0)
    with pytest.raises(ValueError):
        wwl2(9, -3)


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


def _odd_2048_pairs(shared):
    rng = random.Random(2048 + shared)
    for _ in range(3):
        a = rng.getrandbits(2048) | (1 << 2047) | 1
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
        *_odd_2048_pairs(1),
        *_odd_2048_pairs(105),
    ],
)
def test_descents_match_reference_fixed_cases(a, b):
    assert_descents_match_reference(a, b)


@given(a=odd_positive, b=positive, k=st.integers(0, 50).map(lambda n: 2 * n + 1))
def test_descents_match_reference_sweep(a, b, k):
    assert_descents_match_reference(a * k, b * k)


# --- ext_gcd ----------------------------------------------------------------


def test_ext_gcd_zero_conventions():
    assert ext_gcd(0, 0) == (0, 0, 0)
    assert ext_gcd(0, 9) == (0, 1, 9)
    assert ext_gcd(9, 0) == (1, 0, 9)
    assert ext_gcd(0, -9) == (0, -1, 9)
    assert ext_gcd(-9, 0) == (-1, 0, 9)


def test_ext_gcd_examples():
    assert ext_gcd(-5, 7) == (4, 3, 1)
    u, v, g = ext_gcd(12, 18)
    assert g == 6 and 12 * u + 18 * v == 6


@given(a=big_signed, b=big_signed)
def test_ext_gcd_total_contract(a, b):
    u, v, g = ext_gcd(a, b)
    assert u * a + v * b == g
    assert g == math.gcd(a, b)
    assert g >= 0


@given(a=positive, b=positive)
def test_ext_gcd_v_range_when_first_operand_leads(a, b):
    # once shared twos are stripped, an odd first operand bounds v
    u, v, g = ext_gcd(a, b)
    low = (a | b) & -(a | b)
    a_stripped = a // low
    if a_stripped % 2 == 1:
        assert 0 <= v < a_stripped


# --- normalizer_of ----------------------------------------------------------


def test_normalizer_examples():
    assert normalizer_of(5, 7, 4) == (2, 3)
    assert normalizer_of(5, 7, 0) == (0, 0)
    with pytest.raises(NotRepresentableError):
        normalizer_of(4, 6, 3)


def test_normalizer_rejects_bad_operands():
    with pytest.raises(ValueError):
        normalizer_of(0, 6, 2)
    with pytest.raises(ValueError):
        normalizer_of(4, 0, 2)


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
    for a in range(1, 25):
        for b in range(1, 25):
            out = canonical_min_v(a, b, ext_gcd(a, b))
            g = math.gcd(a, b)
            assert out.g == g
            assert out.u * a + out.v * b == g
            assert out.v == next(v for v in range(a) if (g - v * b) % a == 0)


def test_ext_gcd_handles_very_large_operands():
    rng = random.Random(0xC0FFEE)
    a = rng.getrandbits(4096) | (1 << 4095) | 1
    b = rng.getrandbits(4096) | (1 << 4095)
    u, v, g = ext_gcd(a, b)
    assert u * a + v * b == g == math.gcd(a, b)
    assert 0 <= v < a
