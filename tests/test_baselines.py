import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from normgcd.baselines import (
    ALGORITHMS,
    binary_gcd,
    binary_gcd_steps,
    euclid_gcd,
    euclid_gcd_steps,
    mixed_euclid_gcd,
    mixed_euclid_gcd_steps,
)
from normgcd.core import ext_gcd

GCDS = (euclid_gcd, binary_gcd, mixed_euclid_gcd)
STEP_VARIANTS = (
    (euclid_gcd, euclid_gcd_steps),
    (binary_gcd, binary_gcd_steps),
    (mixed_euclid_gcd, mixed_euclid_gcd_steps),
)

nonneg = st.integers(0, 2**64)


def test_algorithm_ids_are_stable():
    assert list(ALGORITHMS) == ["euclid", "binary", "mixed", "wwl2"]


@pytest.mark.parametrize("gcd", GCDS)
def test_textbook_cases(gcd):
    assert gcd(48, 18) == 6
    assert gcd(12, 18) == 6
    assert gcd(7, 0) == 7
    assert gcd(0, 7) == 7
    assert gcd(0, 0) == 0
    assert gcd(1, 1) == 1
    assert gcd(1, 10**6 + 1) == 1


@pytest.mark.parametrize("gcd", GCDS)
def test_equal_and_power_of_two_inputs(gcd):
    assert gcd(64, 64) == 64
    assert gcd(2**20, 2**13) == 2**13
    assert gcd(3 * 2**10, 5 * 2**10) == 2**10


@given(a=nonneg, b=nonneg)
def test_agreement_with_math_gcd(a, b):
    expected = math.gcd(a, b)
    assert euclid_gcd(a, b) == expected
    assert binary_gcd(a, b) == expected
    assert mixed_euclid_gcd(a, b) == expected


@given(a=nonneg, b=nonneg)
def test_four_way_agreement_with_ext_gcd(a, b):
    g = ext_gcd(a, b).g
    assert euclid_gcd(a, b) == binary_gcd(a, b) == mixed_euclid_gcd(a, b) == g


def test_lopsided_operands_stay_fast():
    # a tiny even operand against a huge odd one must not degenerate
    for a, b in ((2, 2**64 - 1), (4, 2**1024 - 1), (2**512, 3), (6, 2**256 + 1)):
        _, n = binary_gcd_steps(a, b)
        assert n < 4 * 1100
        assert binary_gcd(a, b) == mixed_euclid_gcd(a, b) == math.gcd(a, b)


@given(a=st.integers(0, 2**1024), b=st.integers(0, 2**1024))
def test_agreement_on_large_operands(a, b):
    expected = math.gcd(a, b)
    assert euclid_gcd(a, b) == expected
    assert binary_gcd(a, b) == expected
    assert mixed_euclid_gcd(a, b) == expected


@pytest.mark.parametrize("plain,steps", STEP_VARIANTS)
@given(a=nonneg, b=nonneg)
def test_step_variants_match_plain(plain, steps, a, b):
    g, n = steps(a, b)
    assert g == plain(a, b)
    assert n >= 0


def test_step_counts_on_known_cases():
    # euclid on (48, 18): 18%48, 48%18, 18%12, 12%6 -> remainder 0 stops after 4
    assert euclid_gcd_steps(48, 18) == (6, 4)
    assert euclid_gcd_steps(7, 0) == (7, 1)
    assert euclid_gcd_steps(0, 7) == (7, 0)
    assert binary_gcd_steps(0, 7) == (7, 0)
    assert mixed_euclid_gcd_steps(1, 10**6 + 1) == (1, 0)
    # the shared power of two rides through the remainder pair into
    # binary_gcd_steps, which strips it without counting an iteration
    assert mixed_euclid_gcd_steps(12, 18) == (6, 1)
    assert mixed_euclid_gcd_steps(3 * 2**10, 5 * 2**10) == (1024, 2)
    assert mixed_euclid_gcd_steps(2**20, 2**13) == (8192, 0)
    assert mixed_euclid_gcd_steps(6, 2**256 + 1) == (1, 3)
    assert mixed_euclid_gcd_steps(7, 7) == (7, 0)
    assert mixed_euclid_gcd_steps(0, 12) == (12, 0)
