import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import normgcd.oracle
from normgcd.core import BezoutTriple, ext_gcd
from normgcd.oracle import (
    Failure,
    VerificationReport,
    brute_normalizer,
    exhaustive_verify,
    reference_ext_gcd,
)


def test_brute_normalizer_examples():
    assert brute_normalizer(5, 7, 1) == 3
    assert brute_normalizer(5, 7, 0) == 0
    assert brute_normalizer(4, 6, 3) is None


def test_brute_normalizer_is_smallest():
    # a=4, b=6, c=4: both 0 and 2 solve; the scan must return 0
    assert brute_normalizer(4, 6, 4) == 0


def test_reference_ext_gcd_basics():
    assert reference_ext_gcd(0, 0) == (0, 0, 0)
    u, v, g = reference_ext_gcd(5, 7)
    assert g == 1 and 5 * u + 7 * v == 1
    assert reference_ext_gcd(5, 0).g == 5
    assert reference_ext_gcd(0, 5).g == 5


def test_reference_ext_gcd_large_pair():
    rng = random.Random(20260808)
    a = rng.getrandbits(1024) | (1 << 1023)
    b = rng.getrandbits(1024) | (1 << 1023)
    u, v, g = reference_ext_gcd(a, b)
    assert u * a + v * b == g == math.gcd(a, b)


@given(a=st.integers(-(2**96), 2**96), b=st.integers(-(2**96), 2**96))
def test_reference_ext_gcd_contract(a, b):
    u, v, g = reference_ext_gcd(a, b)
    assert u * a + v * b == g
    assert g == math.gcd(a, b)
    assert g >= 0


def test_exhaustive_verify_small_limits():
    report = exhaustive_verify(10)
    assert report.cases_checked == 100
    assert report.failures == []
    assert report.passed
    assert report.elapsed >= 0
    assert "PASS" in report.summary()

    report = exhaustive_verify(1)
    assert report.cases_checked == 1
    assert report.passed


def test_exhaustive_verify_rejects_bad_limit():
    with pytest.raises(ValueError):
        exhaustive_verify(0)


def test_report_fails_iff_failures_present():
    bad = VerificationReport(3, [Failure(2, 2, 2, 2, 3)], 0.0)
    assert not bad.passed
    assert "FAIL" in bad.summary()


def test_exhaustive_verify_checks_u_on_the_swap_path(monkeypatch):
    # Moving the swapped solution one step along its family, (u, v) ->
    # (u + b', v - a') with the shared twos m out (a' = a >> m, b' = b >> m),
    # keeps u*a + v*b = g and every gcd; only u's range [0, b' - 1] shows it.
    def shifted(a, b):
        u, v, g = ext_gcd(a, b)
        low = (a | b) & -(a | b)
        if a // low % 2 == 0:
            u, v = u + b // low, v - a // low
        return BezoutTriple(u, v, g)

    monkeypatch.setattr(normgcd.oracle, "ext_gcd", shifted)
    report = exhaustive_verify(60)
    assert not report.passed
    assert all(f.expected.startswith("u in [0, ") for f in report.failures)
    assert Failure(2, 1, 1, "u in [0, 0]", 1) in report.failures
