"""Exact algebra layer: polynomials, rational functions, truncated series."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit.algebra import (
    NEG_INF,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    geometric_rewrite,
    one_minus_power,
    poly_gcd,
    ratfun_sum,
)
from tests.conftest import fractions_st, nonzero_polynomials_st, polynomials_st


def P(*coeffs):
    """Polynomial from ascending coefficients."""
    return Polynomial(Fraction(c) for c in coeffs)


T = Polynomial.monomial(1)


# -- Polynomial --------------------------------------------------------------


class TestPolynomialBasics:
    def test_zero_and_one(self):
        assert Polynomial.zero().is_zero
        assert Polynomial.zero().degree == NEG_INF
        assert math.isinf(Polynomial.zero().degree)
        assert Polynomial.one().degree == 0
        assert Polynomial.one().constant_term == 1

    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0) == Polynomial.zero()

    def test_monomial(self):
        assert Polynomial.monomial(3) == P(0, 0, 0, 1)
        assert Polynomial.monomial(2, Fraction(1, 2)) == P(0, 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            Polynomial.monomial(-1)

    def test_from_terms(self):
        assert Polynomial.from_terms({0: 1, 2: -3}) == P(1, 0, -3)
        assert Polynomial.from_terms({}) == Polynomial.zero()

    def test_coefficient_access(self):
        p = P(5, 0, 7)
        assert p.coefficient(0) == 5
        assert p.coefficient(2) == 7
        assert p.coefficient(9) == 0
        assert p.coefficient(-1) == 0
        assert p.leading_coefficient == 7
        assert p.constant_term == 5
        assert list(p.terms()) == [(0, Fraction(5)), (2, Fraction(7))]

    def test_leading_coefficient_of_zero(self):
        with pytest.raises(ValueError):
            _ = Polynomial.zero().leading_coefficient

    def test_equality_and_hash(self):
        assert P(1, 2) == P(1, 2)
        assert P(1, 2) != P(1, 3)
        assert hash(P(1, 2)) == hash(P(1, 2))
        assert P(1) != 1  # no cross-type equality

    def test_str_forms(self):
        assert str(Polynomial.zero()) == "0"
        assert str(Polynomial.one()) == "1"
        assert str(T) == "t"
        assert str(-T) == "-t"
        assert str(P(-1, 0, 1)) == "-1 + t^2"
        assert str(P(1, -1)) == "1 - t"
        assert str(P(-3, 0, Fraction(1, 2))) == "-3 + 1/2*t^2"
        assert str(P(0, 0, -2)) == "-2*t^2"


class TestPolynomialArithmetic:
    def test_add_sub(self):
        assert P(1, 1) + P(0, -1, 2) == P(1, 0, 2)
        assert P(1, 1) - P(1, 1) == Polynomial.zero()

    def test_mul(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)  # (1+t)(t-1) = t^2-1
        assert P(1, 1) * Polynomial.zero() == Polynomial.zero()

    def test_scalar_mul(self):
        assert P(1, 2) * 3 == P(3, 6)
        assert 3 * P(1, 2) == P(3, 6)
        assert P(2, 4).scaled(Fraction(1, 2)) == P(1, 2)

    def test_pow(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(1, 1) ** 0 == Polynomial.one()
        with pytest.raises(ValueError):
            P(1, 1) ** -1

    def test_divmod(self):
        q, r = divmod(P(-1, 0, 0, 1), P(-1, 1))  # t^3-1 over t-1
        assert q == P(1, 1, 1)
        assert r == Polynomial.zero()
        q, r = divmod(P(1, 0, 1), P(0, 1))  # t^2+1 over t
        assert q == P(0, 1)
        assert r == Polynomial.one()
        assert P(-1, 0, 0, 1) // P(-1, 1) == P(1, 1, 1)
        assert P(1, 0, 1) % P(0, 1) == Polynomial.one()

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1, 1), Polynomial.zero())

    def test_shifted(self):
        assert P(1, 2).shifted(2) == P(0, 0, 1, 2)
        assert P(1, 2).shifted(0) == P(1, 2)
        assert Polynomial.zero().shifted(3) == Polynomial.zero()
        with pytest.raises(ValueError):
            P(1, 1).shifted(-1)

    def test_monic(self):
        assert P(2, 4).monic() == P(Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            Polynomial.zero().monic()

    def test_call_horner(self):
        p = P(1, -2, 1)  # (t-1)^2
        assert p(Fraction(3)) == 4
        assert p(1) == 0
        assert Polynomial.zero()(5) == 0

    def test_to_series(self):
        s = P(1, 2, 3).to_series(4)
        assert s.coefficients() == (1, 2, 3, 0, 0)
        assert P(1, 2, 3).to_series(1).coefficients() == (1, 2)

    @given(polynomials_st, polynomials_st, polynomials_st)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(polynomials_st, nonzero_polynomials_st)
    @settings(max_examples=60)
    def test_divmod_reconstructs(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_one_minus_power():
    assert one_minus_power(1) == P(1, -1)
    assert one_minus_power(3) == P(1, 0, 0, -1)
    with pytest.raises(ValueError):
        one_minus_power(0)


class TestPolyGcd:
    def test_hand_oracles(self):
        assert poly_gcd(P(-1, 0, 1), P(1, -2, 1)) == P(-1, 1)  # t^2-1, (t-1)^2
        assert poly_gcd(P(-1, 0, 0, 1), P(-1, 1)) == P(-1, 1)
        assert poly_gcd(P(1, 1), P(1, 0, 1)) == Polynomial.one()

    def test_zero_cases(self):
        assert poly_gcd(Polynomial.zero(), P(2, 4)) == P(Fraction(1, 2), 1)
        assert poly_gcd(P(2, 4), Polynomial.zero()) == P(Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            poly_gcd(Polynomial.zero(), Polynomial.zero())

    def test_result_is_monic(self):
        g = poly_gcd(P(0, 2), P(0, 0, 4))
        assert g == P(0, 1)
        assert g.leading_coefficient == 1

    def test_fractional_coefficients(self):
        # gcd is insensitive to scaling by constants
        a = P(-1, 0, 1).scaled(Fraction(3, 7))
        b = P(1, -2, 1).scaled(Fraction(5, 2))
        assert poly_gcd(a, b) == P(-1, 1)

    @given(nonzero_polynomials_st, nonzero_polynomials_st, nonzero_polynomials_st)
    @settings(max_examples=40)
    def test_common_factor_detected(self, a, b, g):
        d = poly_gcd(a * g, b * g)
        assert d % g.monic() == Polynomial.zero()

    @given(polynomials_st, nonzero_polynomials_st)
    @settings(max_examples=40)
    def test_gcd_divides_both(self, a, b):
        d = poly_gcd(a, b)
        assert a % d == Polynomial.zero()
        assert b % d == Polynomial.zero()


# -- RationalFunction --------------------------------------------------------


class TestRationalFunctionCanonicalForm:
    def test_reduction(self):
        r = RationalFunction(P(-1, 0, 1), P(-1, 1))  # (t^2-1)/(t-1)
        assert r.numerator == P(1, 1)
        assert r.denominator == Polynomial.one()

    def test_monic_denominator(self):
        r = RationalFunction(Polynomial.one(), P(-2, 2))
        assert r.denominator == P(-1, 1)
        assert r.numerator == P(Fraction(1, 2))

    def test_zero_canonical(self):
        r = RationalFunction(Polynomial.zero(), P(5, 3))
        assert r.is_zero
        assert r == RationalFunction.zero()
        assert r.denominator == Polynomial.one()

    def test_scalar_coercion(self):
        assert RationalFunction(3).constant_value == 3
        assert RationalFunction(1, 2).constant_value == Fraction(1, 2)
        with pytest.raises(TypeError):
            RationalFunction("t")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P(1), Polynomial.zero())

    def test_equality_independent_of_presentation(self):
        a = RationalFunction(P(0, 2), P(-2, 2))  # 2t/(2t-2)
        b = RationalFunction(P(0, 1), P(-1, 1))  # t/(t-1)
        assert a == b
        assert hash(a) == hash(b)


class TestRationalFunctionArithmetic:
    def test_add_cancels_to_constant(self):
        # t/(t-1) + 1/(1-t) = (t-1)/(t-1) = 1
        a = RationalFunction(T, P(-1, 1))
        b = RationalFunction(Polynomial.one(), P(1, -1))
        assert (a + b) == RationalFunction.one()

    def test_add_cancels_to_minus_one(self):
        # t/(1-t) + 1/(t-1) = -(t-1)/(t-1) = -1
        a = RationalFunction(T, P(1, -1))
        b = RationalFunction(Polynomial.one(), P(-1, 1))
        total = a + b
        assert total.is_constant
        assert total.constant_value == -1

    def test_add_generic(self):
        # 1/(t-1) + 1/(t+1) = 2t/(t^2-1)
        a = RationalFunction(Polynomial.one(), P(-1, 1))
        b = RationalFunction(Polynomial.one(), P(1, 1))
        assert a + b == RationalFunction(P(0, 2), P(-1, 0, 1))

    def test_sub_self_is_zero(self):
        a = RationalFunction(P(1, 2), P(-1, 0, 3))
        assert (a - a).is_zero

    def test_mul_cross_cancel(self):
        a = RationalFunction(T, P(-1, 1))
        b = RationalFunction(P(-1, 1), T)
        assert a * b == RationalFunction.one()

    def test_reciprocal_and_div(self):
        a = RationalFunction(T, P(-1, 1))
        assert a.reciprocal() == RationalFunction(P(-1, 1), T)
        assert a / a == RationalFunction.one()
        with pytest.raises(ZeroDivisionError):
            RationalFunction.zero().reciprocal()
        with pytest.raises(ZeroDivisionError):
            a / RationalFunction.zero()

    def test_is_constant(self):
        assert RationalFunction(P(7)).is_constant
        assert RationalFunction.zero().is_constant
        assert not RationalFunction(P(1, 1)).is_constant
        assert not RationalFunction(T, P(-1, 1)).is_constant
        with pytest.raises(ValueError):
            _ = RationalFunction(P(1, 1)).constant_value

    def test_ratfun_sum(self):
        parts = [
            RationalFunction(Polynomial.one(), P(-1, 1)),
            RationalFunction(Polynomial.one(), P(1, 1)),
            RationalFunction(P(0, -2), P(-1, 0, 1)),
        ]
        assert ratfun_sum(parts).is_zero
        assert ratfun_sum([]).is_zero

    ratfun_st = st.tuples(polynomials_st, nonzero_polynomials_st).map(
        lambda pair: RationalFunction(pair[0], pair[1])
    )

    @given(ratfun_st, ratfun_st, ratfun_st)
    @settings(max_examples=40, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(ratfun_st, ratfun_st)
    @settings(max_examples=40, deadline=None)
    def test_canonical_invariant(self, a, b):
        for r in (a + b, a * b, a - b):
            if r.is_zero:
                assert r.denominator == Polynomial.one()
                continue
            assert r.denominator.leading_coefficient == 1
            assert poly_gcd(r.numerator, r.denominator) == Polynomial.one()


class TestRationalFunctionSeries:
    def test_geometric(self):
        r = RationalFunction(Polynomial.one(), P(1, -1))  # 1/(1-t)
        assert r.series(5).coefficients() == (1, 1, 1, 1, 1, 1)

    def test_polynomial_series(self):
        r = RationalFunction(P(1, 2, 3))
        assert r.series(2).coefficients() == (1, 2, 3)

    def test_pole_at_zero(self):
        r = RationalFunction(Polynomial.one(), T)
        with pytest.raises(ValueError, match="pole at t = 0"):
            r.series(3)

    def test_rational_oracle(self):
        # 1/(1-t)^2 = sum (k+1) t^k
        r = RationalFunction(Polynomial.one(), P(1, -1) * P(1, -1))
        assert r.series(4).coefficients() == (1, 2, 3, 4, 5)

    @given(polynomials_st, nonzero_polynomials_st, st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_series_times_denominator(self, num, den, order):
        if den.constant_term == 0:
            den = den + Polynomial.one()
        r = RationalFunction(num, den)
        lhs = r.series(order) * r.denominator.to_series(order)
        assert lhs == r.numerator.to_series(order)


# -- TruncatedSeries ---------------------------------------------------------


class TestTruncatedSeries:
    def test_construction(self):
        s = TruncatedSeries([1, 2, 3])
        assert s.order == 2
        assert s.constant_term == 1
        assert s.coefficient(1) == 2
        with pytest.raises(IndexError):
            s.coefficient(7)
        assert TruncatedSeries.zero(3).coefficients() == (0, 0, 0, 0)
        assert TruncatedSeries.one(2).coefficients() == (1, 0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_from_polynomial_truncates(self):
        s = TruncatedSeries.from_polynomial(P(1, 1, 1, 1), 2)
        assert s.coefficients() == (1, 1, 1)

    def test_add_mul(self):
        a = TruncatedSeries([1, 1])
        assert (a * a).coefficients() == (1, 2)  # t^2 falls off
        assert (a + a).coefficients() == (2, 2)
        assert (a - a).coefficients() == (0, 0)
        assert (-a).coefficients() == (-1, -1)
        assert (a * 3).coefficients() == (3, 3)
        assert (a * Fraction(1, 2)).coefficients() == (Fraction(1, 2), Fraction(1, 2))

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            TruncatedSeries([1, 1]) + TruncatedSeries([1, 1, 1])

    def test_truncate(self):
        s = TruncatedSeries([1, 2, 3]).truncate(1)
        assert s.coefficients() == (1, 2)
        with pytest.raises(ValueError):
            TruncatedSeries([1]).truncate(2)

    def test_equality(self):
        assert TruncatedSeries([1, 2]) == TruncatedSeries([1, 2])
        assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])
        assert hash(TruncatedSeries([1, 2])) == hash(TruncatedSeries([1, 2]))

    @given(st.lists(fractions_st, min_size=1, max_size=5), st.integers(0, 8))
    @settings(max_examples=40)
    def test_matches_polynomial_product(self, coeffs, order):
        p = Polynomial(coeffs)
        lhs = p.to_series(order) * p.to_series(order)
        assert lhs == (p * p).to_series(order)


class TestGeometricRewrite:
    def test_positive_weight(self):
        s = geometric_rewrite(2, 7)
        assert s.coefficients() == (1, 0, 1, 0, 1, 0, 1, 0)

    def test_negative_weight(self):
        s = geometric_rewrite(-2, 7)
        assert s.coefficients() == (0, 0, -1, 0, -1, 0, -1, 0)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            geometric_rewrite(0, 3)

    @given(st.integers(-5, 5).filter(bool), st.integers(0, 12))
    @settings(max_examples=60)
    def test_inverts_one_minus_power(self, w, order):
        # (1 - t^|w|) * rewrite(w) is 1 for w > 0 and -t^|w| for w < 0;
        # both statements say the rewrite expands 1/(1 - t^w) after clearing
        # the negative exponent.
        product = one_minus_power(abs(w)).to_series(order) * geometric_rewrite(w, order)
        if w > 0:
            expected = TruncatedSeries.one(order)
        else:
            expected = TruncatedSeries.from_polynomial(
                Polynomial.monomial(abs(w), -1), order
            )
        assert product == expected
