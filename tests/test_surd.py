"""Exact quadratic-field arithmetic properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfdim.surd import Surd, is_square

NON_SQUARES = [2, 3, 5, 7, 8, 10, 13]

rats = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
radicands = st.sampled_from(NON_SQUARES)


def surds(draw_d=None):
    return st.builds(Surd, rats, rats, radicands if draw_d is None else st.just(draw_d))


def test_rejects_square_radicand():
    with pytest.raises(ValueError):
        Surd(1, 1, 9)
    assert is_square(49) and not is_square(50)


@given(rats, rats, rats, rats, radicands)
def test_field_operations_match_floats(a1, b1, a2, b2, d):
    x = Surd(a1, b1, d)
    y = Surd(a2, b2, d)
    r = math.sqrt(d)
    fx, fy = float(a1) + float(b1) * r, float(a2) + float(b2) * r
    assert float(x + y) == pytest.approx(fx + fy, abs=1e-7)
    assert float(x * y) == pytest.approx(fx * fy, abs=1e-5)
    if not (a2 == 0 and b2 == 0):
        assert float(x - y) == pytest.approx(fx - fy, abs=1e-7)


@given(rats, rats, radicands)
def test_inverse_and_conjugate(a, b, d):
    x = Surd(a, b, d)
    if a == 0 and b == 0:
        return
    assert x * x.inverse() == 1
    norm = x * Surd(x.a, -x.b, x.D)  # times its conjugate
    assert norm.b == 0  # rational


@given(rats, rats, radicands, st.integers(min_value=0, max_value=8))
def test_powers(a, b, d, k):
    x = Surd(a, b, d)
    expected = Surd(1, 0, d)
    for _ in range(k):
        expected = expected * x
    assert x**k == expected


@given(rats, rats, radicands)
def test_floor_is_exact(a, b, d):
    x = Surd(a, b, d)
    f = x.floor()
    assert (x - f).sign() >= 0
    assert (x - (f + 1)).sign() < 0


def test_floor_huge_coefficients():
    # far beyond float range; the integer estimate plus correction stays exact
    big = 10**400
    x = Surd(Fraction(big), Fraction(1), 2)
    assert x.floor() == big + 1
    y = Surd(Fraction(-big), Fraction(big), 2)  # big (sqrt(2) - 1)
    f = y.floor()
    assert (y - f).sign() >= 0 and (y - (f + 1)).sign() < 0


@given(rats, rats, rats, rats, radicands)
def test_order_consistency(a1, b1, a2, b2, d):
    x = Surd(a1, b1, d)
    y = Surd(a2, b2, d)
    assert (x < y) == ((y - x).sign() > 0)
    assert (x == y) == ((y - x).sign() == 0)


def test_sign_near_ties():
    # sqrt(8) < 3 and sqrt(8) > 2
    assert Surd(-3, 1, 8).sign() < 0
    assert Surd(-2, 1, 8).sign() > 0
    assert Surd(Fraction(17, 12), -1, 2).sign() > 0  # 17/12 > sqrt(2)
    assert Surd(Fraction(-17, 12), 1, 2).sign() < 0
