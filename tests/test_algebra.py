"""Integer algebra layer: polynomials, rational functions, truncated series."""

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
    _cyclotomic_product,
    _div_cyclotomic,
    _div_one_minus_power,
    _divisors,
    _exact_div,
    _mul_one_minus_power,
    cyclotomic_sum,
    geometric_rewrite,
    one_minus_power,
    poly_gcd,
    ratfun_sum,
)
from tests.conftest import (
    coefficients_st,
    cyclotomic,
    nonzero_polynomials_st,
    polynomials_st,
)


def P(*coeffs):
    """Polynomial from ascending coefficients."""
    return Polynomial(coeffs)


T = P(0, 1)
ONE = RationalFunction(Polynomial.one())


def series_of(p: Polynomial, order: int) -> TruncatedSeries:
    """The polynomial's coefficients through the given order."""
    return TruncatedSeries(p.coefficient(k) for k in range(order + 1))


def divides(d: Polynomial, p: Polynomial) -> bool:
    try:
        _exact_div(p, d)
    except ArithmeticError:
        return False
    return True


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

    def test_coefficient_access(self):
        p = P(5, 0, 7)
        assert p.coefficient(0) == 5
        assert p.coefficient(2) == 7
        assert p.coefficient(9) == 0
        assert p.coefficient(-1) == 0
        assert p.leading_coefficient == 7
        assert p.constant_term == 5
        assert Polynomial.zero().constant_term == 0

    def test_leading_coefficient_of_zero(self):
        with pytest.raises(ValueError):
            _ = Polynomial.zero().leading_coefficient

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 1.0, True, "1"])
    def test_rejects_non_integer_coefficients(self, bad):
        with pytest.raises(TypeError, match="integer coefficient"):
            Polynomial([1, bad])
        with pytest.raises(TypeError, match="integer coefficient"):
            TruncatedSeries([bad, 1])

    def test_equality_and_hash(self):
        assert P(1, 2) == P(1, 2)
        assert P(1, 2) != P(1, 3)
        assert hash(P(1, 2)) == hash(P(1, 2))
        assert P(1) != 1  # no cross-type equality

    def test_str_forms(self):
        assert str(Polynomial.zero()) == "0"
        assert str(Polynomial.one()) == "1"
        assert str(T) == "t"
        assert str(P(0, -1)) == "-t"
        assert str(P(-1, 0, 1)) == "-1 + t^2"
        assert str(P(1, -1)) == "1 - t"
        assert str(P(-3, 0, 2)) == "-3 + 2*t^2"
        assert str(P(0, 0, -2)) == "-2*t^2"


class TestPolynomialArithmetic:
    def test_add(self):
        assert P(1, 1) + P(0, -1, 2) == P(1, 0, 2)
        assert P(1, 1) + P(-1, -1) == Polynomial.zero()

    def test_mul(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)  # (1+t)(t-1) = t^2-1
        assert P(1, 1) * Polynomial.zero() == Polynomial.zero()

    @given(polynomials_st, polynomials_st, polynomials_st)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


class TestExactDiv:
    def test_hand_oracles(self):
        assert _exact_div(P(-1, 0, 0, 1), P(-1, 1)) == P(1, 1, 1)  # t^3-1 over t-1
        assert _exact_div(P(2, 4), P(1, 2)) == P(2)
        assert _exact_div(Polynomial.zero(), P(1, 1)) == Polynomial.zero()

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            _exact_div(P(1, 0, 1), P(0, 1))  # t^2+1 over t leaves 1
        with pytest.raises(ArithmeticError):
            _exact_div(P(1, 1), P(2))  # exact over Q, not over Z

    @given(polynomials_st, nonzero_polynomials_st)
    @settings(max_examples=60)
    def test_inverts_multiplication(self, a, b):
        assert _exact_div(a * b, b) == a


def test_one_minus_power():
    assert one_minus_power(1) == P(1, -1)
    assert one_minus_power(3) == P(1, 0, 0, -1)
    with pytest.raises(ValueError):
        one_minus_power(0)


def t_power_minus_one(m: int) -> list[int]:
    return [-1] + [0] * (m - 1) + [1]


@st.composite
def localization_terms_st(draw):
    """(J, magnitudes) pairs with deg J <= sum of the magnitudes."""
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        magnitudes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
        numerator = draw(
            st.lists(coefficients_st, max_size=1 + sum(magnitudes))
        )
        terms.append((numerator, magnitudes))
    return terms


class TestCyclotomic:
    def test_divisors(self):
        for m in range(1, 200):
            assert _divisors(m) == tuple(d for d in range(1, m + 1) if m % d == 0)

    def test_factors_of_t_power_minus_one(self):
        # t^m - 1 = prod_{d | m} Phi_d
        for m in range(1, 61):
            product = _cyclotomic_product({d: 1 for d in _divisors(m)})
            assert product == t_power_minus_one(m)

    def test_moebius_passes_match_reference_factors(self):
        for d in range(1, 61):
            assert Polynomial(_cyclotomic_product({d: 1})) == cyclotomic(d)
        expected = cyclotomic(1) * cyclotomic(1) * cyclotomic(6)
        assert Polynomial(_cyclotomic_product({1: 2, 6: 1})) == expected

    def test_division_by_one_minus_power(self):
        assert _div_one_minus_power([1, 0, -1], 2) == [1]
        assert _div_one_minus_power([1, 1, 0, -1, -1], 3) == [1, 1]
        assert _div_one_minus_power([], 3) == []

    def test_inexact_division_rejected(self):
        for coeffs, m in (([1], 1), ([1, 0, 1], 2), ([1, 0, 0, 0, -1], 3), ([2, -1], 1)):
            with pytest.raises(ArithmeticError):
                _div_one_minus_power(coeffs, m)

    @given(polynomials_st, st.integers(1, 12))
    @settings(max_examples=60)
    def test_division_inverts_multiplication(self, p, m):
        coeffs = list(p._coeffs)
        assert _div_one_minus_power(_mul_one_minus_power(coeffs, m), m) == coeffs

    @given(polynomials_st, st.integers(1, 12), st.data())
    @settings(max_examples=60)
    def test_division_rejects_a_remainder(self, p, m, data):
        # p * (1 - t^m) + c * t^k with k < m leaves the remainder c * t^k
        coeffs = _mul_one_minus_power(list(p._coeffs), m) + [0] * m
        coeffs[data.draw(st.integers(0, m - 1))] += data.draw(
            coefficients_st.filter(bool)
        )
        with pytest.raises(ArithmeticError):
            _div_one_minus_power(coeffs, m)

    def test_cyclotomic_division_exact_only_on_divisors(self):
        for m in range(1, 25):
            for d in range(1, 25):
                if m % d == 0:
                    quotient = Polynomial(_div_cyclotomic(t_power_minus_one(m), d))
                    assert quotient * cyclotomic(d) == Polynomial(t_power_minus_one(m))
                else:
                    with pytest.raises(ArithmeticError):
                        _div_cyclotomic(t_power_minus_one(m), d)

    @given(localization_terms_st())
    @settings(max_examples=80)
    def test_sum_matches_gcd_route(self, terms):
        reference = ratfun_sum(
            RationalFunction(
                Polynomial(numerator),
                math.prod((one_minus_power(m) for m in magnitudes), start=Polynomial.one()),
            )
            for numerator, magnitudes in terms
        )
        assert cyclotomic_sum(terms) == reference

    def test_empty_sum_and_improper_terms(self):
        assert cyclotomic_sum([]) == RationalFunction.zero()
        with pytest.raises(ValueError, match="outgrows"):
            cyclotomic_sum([([1, 2, 3], [1])])


class TestPolyGcd:
    def test_hand_oracles(self):
        assert poly_gcd(P(-1, 0, 1), P(1, -2, 1)) == P(-1, 1)  # t^2-1, (t-1)^2
        assert poly_gcd(P(-1, 0, 0, 1), P(-1, 1)) == P(-1, 1)
        assert poly_gcd(P(1, 1), P(1, 0, 1)) == Polynomial.one()

    def test_zero_cases(self):
        assert poly_gcd(Polynomial.zero(), P(2, 4)) == P(1, 2)
        assert poly_gcd(P(-2, -4), Polynomial.zero()) == P(1, 2)
        with pytest.raises(ValueError):
            poly_gcd(Polynomial.zero(), Polynomial.zero())

    def test_result_is_primitive_with_positive_lead(self):
        assert poly_gcd(P(0, 2), P(0, 0, 4)) == P(0, 1)
        assert poly_gcd(P(3, -3), P(-6, 6)) == P(-1, 1)
        assert poly_gcd(P(4), P(6)) == Polynomial.one()

    def test_insensitive_to_integer_scaling(self):
        a = P(-3, 0, 3)  # 3(t^2 - 1)
        b = P(-5, 10, -5)  # -5(t - 1)^2
        assert poly_gcd(a, b) == P(-1, 1)

    @given(nonzero_polynomials_st, nonzero_polynomials_st, nonzero_polynomials_st)
    @settings(max_examples=40)
    def test_common_factor_detected(self, a, b, g):
        d = poly_gcd(a * g, b * g)
        assert divides(poly_gcd(g, Polynomial.zero()), d)

    @given(polynomials_st, nonzero_polynomials_st)
    @settings(max_examples=40)
    def test_gcd_divides_both(self, a, b):
        d = poly_gcd(a, b)
        assert d.leading_coefficient > 0
        assert math.gcd(*d._coeffs) == 1
        assert divides(d, a)
        assert divides(d, b)


# -- RationalFunction --------------------------------------------------------


class TestRationalFunctionCanonicalForm:
    def test_reduction(self):
        r = RationalFunction(P(-1, 0, 1), P(-1, 1))  # (t^2-1)/(t-1)
        assert r.numerator == P(1, 1)
        assert r.denominator == Polynomial.one()

    def test_content_and_sign_normalized(self):
        r = RationalFunction(P(2), P(4, -4))  # 2/(4 - 4t) = -1/(2t - 2)
        assert r.numerator == P(-1)
        assert r.denominator == P(-2, 2)
        r = RationalFunction(P(0, 6), P(-3, 0, 3))  # 6t/(3t^2 - 3) = 2t/(t^2 - 1)
        assert r.numerator == P(0, 2)
        assert r.denominator == P(-1, 0, 1)

    def test_zero_canonical(self):
        r = RationalFunction(Polynomial.zero(), P(5, 3))
        assert r.is_zero
        assert r == RationalFunction.zero()
        assert r.denominator == Polynomial.one()

    def test_polynomials_only(self):
        with pytest.raises(TypeError):
            RationalFunction(3)
        with pytest.raises(TypeError):
            RationalFunction(P(1), 2)

    def test_constant_value(self):
        assert RationalFunction(P(3)).constant_value == 3
        assert RationalFunction(P(-6), P(-2)).constant_value == 3
        with pytest.raises(ValueError, match="not an integer"):
            _ = RationalFunction(P(1), P(2)).constant_value

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
        assert (a + b) == ONE

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

    def test_add_negation_is_zero(self):
        a = RationalFunction(P(1, 2), P(-1, 0, 3))
        assert (a + RationalFunction(P(-1, -2), P(-1, 0, 3))).is_zero

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
    def test_group_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + RationalFunction.zero() == a

    @given(ratfun_st, ratfun_st)
    @settings(max_examples=40, deadline=None)
    def test_canonical_invariant(self, a, b):
        r = a + b
        if r.is_zero:
            assert r.denominator == Polynomial.one()
            return
        assert r.denominator.leading_coefficient > 0
        assert math.gcd(*r.numerator._coeffs, *r.denominator._coeffs) == 1
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

    def test_needs_unit_constant_term(self):
        r = RationalFunction(Polynomial.one(), P(2, 1))
        with pytest.raises(ValueError, match="constant term"):
            r.series(3)

    def test_rational_oracle(self):
        # 1/(1-t)^2 = sum (k+1) t^k
        r = RationalFunction(Polynomial.one(), P(1, -1) * P(1, -1))
        assert r.series(4).coefficients() == (1, 2, 3, 4, 5)

    @given(
        polynomials_st,
        st.sampled_from((1, -1)),
        st.lists(coefficients_st, max_size=4),
        st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_series_times_denominator(self, num, d0, tail, order):
        r = RationalFunction(num, Polynomial([d0] + tail))
        lhs = r.series(order) * series_of(r.denominator, order)
        assert lhs == series_of(r.numerator, order)


# -- TruncatedSeries ---------------------------------------------------------


class TestTruncatedSeries:
    def test_construction(self):
        s = TruncatedSeries([1, 2, 3])
        assert s.order == 2
        assert s.constant_term == 1
        assert s.coefficient(1) == 2
        with pytest.raises(IndexError):
            s.coefficient(7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_mul(self):
        a = TruncatedSeries([1, 1])
        assert (a * a).coefficients() == (1, 2)  # t^2 falls off

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            TruncatedSeries([1, 1]) * TruncatedSeries([1, 1, 1])

    def test_equality(self):
        assert TruncatedSeries([1, 2]) == TruncatedSeries([1, 2])
        assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])
        assert hash(TruncatedSeries([1, 2])) == hash(TruncatedSeries([1, 2]))

    @given(st.lists(coefficients_st, min_size=1, max_size=5), st.integers(0, 8))
    @settings(max_examples=40)
    def test_matches_polynomial_product(self, coeffs, order):
        p = Polynomial(coeffs)
        lhs = series_of(p, order) * series_of(p, order)
        assert lhs == series_of(p * p, order)


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
        product = series_of(one_minus_power(abs(w)), order) * geometric_rewrite(w, order)
        expected = P(1) if w > 0 else Polynomial([0] * abs(w) + [-1])
        assert product == series_of(expected, order)
