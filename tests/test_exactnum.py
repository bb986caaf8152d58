"""Exact scalar arithmetic over nested square-root extensions of the rationals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kusuoka.exactnum import Radical, format_exact, parse_exact, sqrt_fraction

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


@given(rationals, rationals, rationals)
def test_field_axioms_on_rationals(a, b, c):
    x, y, z = Radical(a), Radical(b), Radical(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


@given(rationals)
def test_rational_roundtrip(a):
    x = Radical(a)
    assert x.is_rational()
    assert x.as_fraction() == a
    assert parse_exact(format_exact(x)) == x


def test_sqrt_of_perfect_square_in_extension():
    # (1 + sqrt(2))^2 = 3 + 2*sqrt(2)
    x = Radical(3) + Radical(2) * Radical.root(2)
    r = x.sqrt()
    assert r * r == x
    assert r == Radical(1) + Radical.root(2)


def test_sqrt_adjoins_new_root():
    x = Radical(Fraction(3, 5))
    r = x.sqrt()
    assert r * r == x
    assert not r.is_rational()


def test_sqrt_fraction_matches_root():
    assert sqrt_fraction(Fraction(8, 25)) == Radical(Fraction(2, 5)) * Radical.root(2)


# primes just above the trial-division limit of Radical.root
_P, _Q, _R = 10000019, 10000079, 10000103


def test_root_settles_cofactors_past_the_trial_limit():
    assert Radical.root(12 * _P * _P) == Radical(2 * _P) * Radical.root(3)
    assert Radical.root(12 * _P * _Q).terms() == ((3 * _P * _Q, Fraction(2)),)
    with pytest.raises(ValueError, match="large prime factors"):
        Radical.root(_P * _Q * _R)


def test_inverse_of_a_surd_with_large_prime_radicand():
    # 1 / (1 + sqrt(pq)) = (1 - sqrt(pq)) / (1 - pq), with no factoring of pq
    x = Radical.from_terms({1: Fraction(1), _P * _Q: Fraction(1)})
    inv = 1 / x
    assert x * inv == 1
    assert inv == (1 - Radical.from_terms({_P * _Q: Fraction(1)})) / (1 - _P * _Q)


_RADICANDS = (2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 105)


@given(st.dictionaries(st.sampled_from((1,) + _RADICANDS), rationals, min_size=1)
       .filter(lambda terms: any(terms.values())))
def test_inverse_is_a_two_sided_inverse(terms):
    x = Radical.from_terms(terms)
    assert x * (1 / x) == 1
    assert (1 / x) * x == 1


def test_sign_orders_nearby_radicals():
    # sqrt(2) + sqrt(3) vs sqrt(10): squares are 5 + 2*sqrt(6) ~ 9.899 vs 10.
    lhs = Radical.root(2) + Radical.root(3)
    rhs = Radical.root(10)
    assert lhs < rhs
    assert (rhs - lhs).sign() == 1
    assert (lhs - rhs).sign() == -1
    assert abs(lhs - rhs) == rhs - lhs


def test_sign_zero():
    x = Radical.root(2) * Radical.root(3) - Radical.root(6)
    assert x.is_zero()
    assert x.sign() == 0
    assert not x


def test_division_in_extension():
    x = Radical(1) + Radical.root(5)
    assert x / x == Radical(1)
    inv = Radical(1) / x
    assert inv * x == Radical(1)


def test_pow():
    x = Radical(1) + Radical.root(2)
    assert x**0 == Radical(1)
    assert x**3 == x * x * x
    assert x**-2 == Radical(1) / (x * x)


def test_float_conversion():
    x = Radical(Fraction(4, 5)).sqrt()
    assert math.isclose(float(x), math.sqrt(0.8), rel_tol=1e-15)


def test_parse_format_roundtrip_multiterm():
    x = Radical(Fraction(1, 3)) + Radical(Fraction(-2, 7)) * Radical.root(15)
    s = format_exact(x)
    assert parse_exact(s) == x


def test_parse_simple_forms():
    assert parse_exact("3/5") == Radical(Fraction(3, 5))
    assert parse_exact("-1/2*sqrt(3)") == Radical(Fraction(-1, 2)) * Radical.root(3)
    assert parse_exact("0") == Radical(0)


@pytest.mark.parametrize("text", ["1/0", "sqrt(2)/0", "3/00", "1/2*sqrt(3)/0", "0.5/0", "1 + 2/0"])
def test_parse_exact_rejects_zero_denominators(text):
    with pytest.raises(ValueError, match="malformed exact scalar"):
        parse_exact(text)


def test_float_input_rejected():
    with pytest.raises(TypeError):
        Radical(0.5)


def test_comparisons_against_plain_numbers():
    x = Radical(Fraction(4, 5))
    assert x < 1
    assert x > Fraction(3, 5)
    assert x == Fraction(4, 5)


def test_hash_consistent_with_eq():
    a = Radical.root(2) * Radical.root(2)
    b = Radical(2)
    assert a == b
    assert hash(a) == hash(b)


_ints = st.one_of(st.integers(min_value=-50, max_value=50), st.integers(min_value=-10**30, max_value=10**30))


@given(rationals, rationals, _ints)
def test_int_operands_agree_with_fraction_lift(a, b, n):
    x = Radical(a) + Radical(b) * Radical.root(3)
    y = Radical(Fraction(n))
    assert (x == n) == (x == y) and (n == x) == (y == x)
    assert (x != n) == (x != y) and (n != x) == (y != x)
    assert (x < n, x <= n, x > n, x >= n) == (x < y, x <= y, x > y, x >= y)
    assert x + n == x + y and n + x == y + x
    assert x - n == x - y and n - x == y - x
    assert x * n == x * y and n * x == y * x
    if n:
        assert x / n == x / y
    if not x.is_zero():
        assert n / x == y / x
    assert Radical(n) == n and hash(Radical(n)) == hash(n)


def test_non_int_operands_keep_their_rules():
    half = Radical(Fraction(1, 2))
    assert Radical(1) == True and Radical(0) == False and Radical(1) != False  # noqa: E712
    assert half * True == half and half + False == half
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    for op in (lambda: half == 0.5, lambda: half != 0.5, lambda: half * 2.0, lambda: 2.0 + half):
        with pytest.raises(TypeError):
            op()
