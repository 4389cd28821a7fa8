"""Genus computations: counting route, symbolic route, series cross-checks."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit.algebra import (
    Polynomial,
    RationalFunction,
    _exact_div,
    cyclotomic_sum,
    one_minus_power,
    ratfun_sum,
)
from fpkit.classify import random_graph_data
from fpkit.data import load_data
from fpkit.genus import (
    GenusReport,
    chi_counting,
    chi_series,
    chi_symbolic,
    default_series_order,
    semifree_report,
    signed_index_counts,
    txy_evaluate,
)
from tests.conftest import (
    ALL_FIXTURES,
    cyclotomic,
    data_st,
    dim6,
    fixture_path,
    flipped,
    make_data,
)


class TestSignedIndexCounts:
    def test_two_sphere(self, s2_a3):
        assert signed_index_counts(s2_a3) == (1, 1)

    def test_six_sphere(self, s6):
        assert signed_index_counts(s6) == (0, 1, 1, 0)

    def test_mirror_pair(self, s2n):
        assert signed_index_counts(s2n) == (0, 0, 0, 0, 0)

    def test_signs_cancel(self):
        data = make_data(1, [("p", 1, (1,)), ("q", -1, (1,))])
        assert signed_index_counts(data) == (0, 0)


class TestCountingRoute:
    def test_two_sphere_chi(self, s2_a3):
        report = chi_counting(s2_a3)
        assert report.chi == (1, -1)  # chi_y = 1 - y
        assert report.todd == 1
        assert report.txy == (1, -1)
        assert report.symbolic_constant

    def test_six_sphere_chi(self, s6):
        report = chi_counting(s6)
        assert report.chi == (0, -1, 1, 0)  # chi_y = -y + y^2
        assert report.todd == 0
        assert report.symbolic_constant

    def test_mirror_chi_vanishes(self, s2n, s8):
        for data in (s2n, s8):
            report = chi_counting(data)
            assert report.chi == (0, 0, 0, 0, 0)
            assert report.symbolic_constant

    def test_report_dict(self, s2_a3):
        assert chi_counting(s2_a3).to_dict() == {
            "chi": [1, -1],
            "N": [1, 1],
            "todd": 1,
            "symbolic_constant": True,
            "txy": [1, -1],
        }


class TestGenusReportInvariants:
    def test_sign_pattern_enforced(self):
        report = GenusReport(N=(-2, -3, 1), symbolic_constant=True)
        assert report.chi == report.txy == (-2, 3, 1)
        assert report.todd == -2

    def test_todd_enforced(self):
        assert GenusReport(N=(3, 0, -1), symbolic_constant=True).todd == 3

    def test_txy_enforced(self):
        report = GenusReport(N=(1, 1), symbolic_constant=False)
        assert report.txy == report.chi == (1, -1)

    def test_length_enforced(self):
        report = GenusReport(N=(1, 0, 2, -1), symbolic_constant=True)
        payload = report.to_dict()
        assert len(payload["chi"]) == len(payload["txy"]) == len(payload["N"]) == 4


class TestSymbolicRoute:
    def test_two_sphere_components(self, s2_a3):
        top = chi_symbolic(s2_a3, 0)
        assert top.constant
        assert top.function == RationalFunction(Polynomial.one())
        assert top.constant_term == 1
        other = chi_symbolic(s2_a3, 1)
        assert other.constant
        assert other.function == RationalFunction(Polynomial((-1,)))
        assert other.constant_term == -1

    def test_six_sphere_components(self, s6):
        values = (0, -1, 1, 0)
        for i, expected in enumerate(values):
            part = chi_symbolic(s6, i)
            assert part.constant
            assert part.function == RationalFunction(Polynomial((expected,)))
            assert part.constant_term == expected

    def test_component_range_checked(self, s2_a3):
        with pytest.raises(ValueError):
            chi_symbolic(s2_a3, 2)
        with pytest.raises(ValueError):
            chi_symbolic(s2_a3, -1)
        with pytest.raises(ValueError):
            chi_series(s2_a3, 5, 3)

    def test_single_point_not_constant(self):
        data = make_data(1, [("p", 1, (1,))])
        part = chi_symbolic(data, 0)
        assert not part.constant
        # 1/(1-t) has constant term 1 even though the function is not constant
        assert part.constant_term == 1
        assert part.function == RationalFunction(
            Polynomial((-1,)), Polynomial((-1, 1))
        )

    def test_series_agrees_with_symbolic(self, s6):
        order = default_series_order(s6)
        for i in range(4):
            series = chi_series(s6, i, order)
            assert series == chi_symbolic(s6, i).function.series(order)

    def test_series_of_nonconstant_term(self):
        data = make_data(1, [("p", 1, (2,))])
        # single positive weight 2: chi^0 term is 1/(1-t^2)
        assert chi_series(data, 0, 5).coefficients() == (1, 0, 1, 0, 1, 0)


class TestCrossRoute:
    def test_fixture_txy(self, s2_a3, s6, s2n, s8):
        assert txy_evaluate(s2_a3) == (1, -1)
        assert txy_evaluate(s6) == (0, -1, 1, 0)
        assert txy_evaluate(s2n) == (0, 0, 0, 0, 0)
        assert txy_evaluate(s8) == (0, 0, 0, 0, 0)

    @given(data_st())
    @settings(max_examples=50, deadline=None)
    def test_constant_term_identity_random(self, data):
        # (-1)^i N_i equals the order-0 series for any data whatsoever
        counts = signed_index_counts(data)
        assert txy_evaluate(data) == tuple(
            (-1) ** i * c for i, c in enumerate(counts)
        )

    @given(data_st(max_points=3, max_half_dim=2))
    @settings(max_examples=30, deadline=None)
    def test_symbolic_constant_term_matches_series(self, data):
        order = default_series_order(data)
        for i in range(data.n + 1):
            part = chi_symbolic(data, i)
            series = chi_series(data, i, order)
            assert part.constant_term == series.constant_term
            assert series == part.function.series(order)
            if part.constant:
                assert part.function.constant_value == part.constant_term

    @given(data_st())
    @settings(max_examples=50, deadline=None)
    def test_reduced_denominator_is_monic(self, data):
        # The reduced denominator divides the common denominator L, a product
        # of cyclotomic polynomials, so its leading coefficient is 1 and its
        # constant term +-1: the integer canonical form is the monic one, and
        # the constant term is an integer.
        common = common_denominator(data)
        for i in range(data.n + 1):
            part = chi_symbolic(data, i)
            assert part.function.denominator.leading_coefficient == 1
            assert part.function.denominator.constant_term in (1, -1)
            assert type(part.constant_term) is int
            _exact_div(common, part.function.denominator)  # raises unless exact

    @given(data_st(max_points=3, max_half_dim=2))
    @settings(max_examples=30, deadline=None)
    def test_reversal_flips_index_counts(self, data):
        counts = signed_index_counts(data)
        reversed_counts = signed_index_counts(data.reversed())
        assert reversed_counts == counts[::-1]


def common_denominator(data):
    """L = prod_d Phi_d^e_d, e_d the most weights of one point that d divides."""
    exponents: dict[int, int] = {}
    for point in data.points:
        for d in range(1, max(abs(w) for w in point.weights) + 1):
            count = sum(abs(w) % d == 0 for w in point.weights)
            exponents[d] = max(exponents.get(d, 0), count)
    common = Polynomial.one()
    for d, exponent in exponents.items():
        for _ in range(exponent):
            common = common * cyclotomic(d)
    return common


def brute_numerator(point, i):
    """+-J_p with sigma_i summed over every i-subset of the weights.

    Each subset contributes t^(its weight sum + sum of |negative weights|),
    with sign eps(p) * (-1)^(number of negative weights).
    """
    shift = sum(-w for w in point.weights if w < 0)
    sign = point.sign * (-1) ** sum(w < 0 for w in point.weights)
    coefficients = [0] * (1 + sum(abs(w) for w in point.weights))
    for subset in itertools.combinations(point.weights, i):
        coefficients[sum(subset) + shift] += sign
    return coefficients


def gcd_route(data, i):
    """The localization sum as reduced per-point terms, Henrici-summed."""
    terms = []
    for point in data.points:
        denominator = Polynomial.one()
        for w in point.weights:
            denominator = denominator * one_minus_power(abs(w))
        terms.append(RationalFunction(Polynomial(brute_numerator(point, i)), denominator))
    return ratfun_sum(terms)


REFERENCE_DATA = [load_data(fixture_path(name)) for name in ALL_FIXTURES] + [
    dim6(b) for b in (5, 50, 200)
]


class TestGcdReference:
    """The cyclotomic reduction agrees with the polynomial-gcd route."""

    def _check(self, data):
        for i in range(data.n + 1):
            part = chi_symbolic(data, i)
            reference = gcd_route(data, i)
            assert part.function == reference
            assert part.constant == reference.is_constant
            assert part.constant_term == (
                reference.numerator.constant_term // reference.denominator.constant_term
            )

    @pytest.mark.parametrize("flip", [False, True], ids=["plain", "flipped"])
    @pytest.mark.parametrize("data", REFERENCE_DATA, ids=lambda data: data.name)
    def test_named_data(self, data, flip):
        self._check(flipped(data) if flip else data)

    @given(data_st())
    @settings(max_examples=50, deadline=None)
    def test_random(self, data):
        self._check(data)

    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 1), (4, 2), (5, 2)]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_flipped_graph_data(self, seed, shape, draw):
        """Realizable data with one sign flipped: non-constant components."""
        data = random_graph_data(seed, *shape, 5)
        data = flipped(data, draw.draw(st.integers(0, len(data.points) - 1)))
        for i in range(data.n + 1):
            terms = [
                (brute_numerator(point, i), [abs(w) for w in point.weights])
                for point in data.points
            ]
            assert cyclotomic_sum(terms) == gcd_route(data, i)
        self._check(data)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_reduced(sympy, data, i):
    """The localization sum built and cancelled by sympy, as (num, den, t)."""
    t = sympy.Symbol("t")
    total = sympy.Integer(0)
    for point in data.points:
        monomials = [t**w for w in point.weights]
        sigma = sum(sympy.Mul(*c) for c in itertools.combinations(monomials, i))
        total += point.sign * sigma / sympy.Mul(*(1 - m for m in monomials))
    num, den = sympy.fraction(sympy.cancel(total))
    return sympy.Poly(num, t), sympy.Poly(den, t), t


def _integer_pair(num, den):
    """Ascending integer coefficients of num/den in fpkit's canonical form.

    Denominators are cleared, the joint content taken out, and the sign
    chosen so that the denominator's leading coefficient is positive.
    """
    coeffs = [list(reversed(p.all_coeffs())) for p in (num, den)]
    scale = math.lcm(*(int(c.q) for part in coeffs for c in part))
    ints = [[int(c.p) * (scale // int(c.q)) for c in part] for part in coeffs]
    content = math.gcd(*ints[0], *ints[1])
    if ints[1][-1] < 0:
        content = -content
    return tuple(tuple(c // content for c in part) for part in ints)


class TestSympyDifferential:
    """sympy's cancel and series agree with the symbolic and series routes."""

    def _check(self, sympy, data):
        order = default_series_order(data)
        for i in range(data.n + 1):
            num, den, t = _sympy_reduced(sympy, data, i)
            numerator, denominator = _integer_pair(num, den)
            reduced = chi_symbolic(data, i).function
            assert reduced.numerator == Polynomial(numerator)
            assert reduced.denominator == Polynomial(denominator)
            # num / den mod t^(order + 1), through sympy's inverse of den
            modulus = sympy.Poly(t ** (order + 1), t)
            expansion = (num * den.invert(modulus)).rem(modulus)
            coefficients = list(reversed(expansion.all_coeffs()))
            assert all(c.is_integer for c in coefficients)
            coefficients = [int(c) for c in coefficients] + [0] * (order + 1)
            assert chi_series(data, i, order).coefficients() == tuple(
                coefficients[: order + 1]
            )

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, sympy, name):
        self._check(sympy, load_data(fixture_path(name)))

    @given(data_st(max_points=3, max_half_dim=2))
    @settings(max_examples=30, deadline=None)
    def test_random(self, sympy, data):
        self._check(sympy, data)


class TestSemifree:
    def test_two_sphere(self, s2_a1):
        report = semifree_report(s2_a1)
        assert report.todd == 1
        assert report.counts == (1, 1)
        assert report.expected_counts == (1, 1)
        assert report.binomial_identity
        assert report.bound == 2
        assert report.bound_met

    def test_mirror_all_ones(self, semifree):
        report = semifree_report(semifree)
        assert report.todd == 0
        assert report.counts == (0, 0, 0, 0, 0)
        assert report.expected_counts == (0, 0, 0, 0, 0)
        assert report.binomial_identity
        assert report.bound == 0
        assert report.bound_met

    def test_rejects_big_weights(self, s2_a3):
        with pytest.raises(ValueError, match="not semi-free: weight 3 at 'p'"):
            semifree_report(s2_a3)

    def test_binomial_violation_detected(self):
        # two points, both positive sign, indices 0 and 0: counts (2, 0)
        data = make_data(1, [("p", 1, (1,)), ("q", 1, (1,))])
        report = semifree_report(data)
        assert report.todd == 2
        assert not report.binomial_identity
        assert report.bound == 4
        assert not report.bound_met

    def test_dict_shape(self, s2_a1):
        payload = semifree_report(s2_a1).to_dict()
        assert payload == {
            "todd": 1,
            "counts": [1, 1],
            "expected_counts": [1, 1],
            "binomial_identity": True,
            "bound": 2,
            "bound_met": True,
        }
