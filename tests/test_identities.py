"""Identity checkers: balance, parity, localization sums, Chern map."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit.classify import random_graph_data
from fpkit.data import load_data
from fpkit.identities import (
    CheckOutcome,
    abbv_c1_power,
    all_passed,
    check_abbv_vanishing,
    check_c1_sum,
    check_chern_classes,
    check_hattori_parity,
    check_min_weight_balance,
    check_odd_count_even_n,
    check_weight_balance,
    chern_map_analysis,
    evaluate_filters,
    validate_all,
)
from fpkit.multigraph import induced_data
from tests.conftest import (
    ALL_FIXTURES,
    data_st,
    fixture_path,
    flipped,
    make_data,
    paired_shape_st,
    reference_abbv_c1_power,
    reference_chern_map_analysis,
    reference_check_abbv_vanishing,
    reference_check_chern_classes,
    sample_multigraph,
)

FIXTURE_NAMES = ["s2_a1", "s2_a3", "s6", "s2n", "s8", "semifree"]

#: Arbitrary data, on which a check's premise rarely holds, mixed with
#: realizable data, on which every premise holds.
premise_data_st = st.one_of(
    data_st(max_points=5),
    st.builds(
        lambda seed, shape: random_graph_data(seed, *shape, 5),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 1), (4, 3), (5, 2), (6, 2)]),
    ),
)


def assert_implication(premise, conclusion) -> None:
    """premise(data) => conclusion(data), reached by at least one example."""
    reached = []

    @given(premise_data_st)
    @settings(max_examples=200, deadline=None)
    def implication(data):
        if premise(data):
            reached.append(data)
            assert conclusion(data)

    implication()
    assert reached


@pytest.fixture
def all_fixture_data(s2_a1, s2_a3, s6, s2n, s8, semifree):
    return [s2_a1, s2_a3, s6, s2n, s8, semifree]


def test_outcome_truthiness_and_dict():
    good = CheckOutcome("x", True)
    bad = CheckOutcome("x", False, {"w": 1})
    assert good and not bad
    assert good.to_dict() == {"name": "x", "passed": True}
    assert bad.to_dict() == {"name": "x", "passed": False, "witness": {"w": 1}}


class TestWeightBalance:
    def test_fixtures_pass(self, all_fixture_data):
        for data in all_fixture_data:
            assert check_weight_balance(data)

    def test_violation_witness(self):
        data = make_data(1, [("p", 1, (1,))])
        outcome = check_weight_balance(data)
        assert not outcome
        assert outcome.witness == {
            "w": 1,
            "signed_count_positive": 1,
            "signed_count_negative": 0,
        }

    def test_cancelling_signs_balance(self):
        # +p and -q with identical weights cancel in the signed counts
        data = make_data(2, [("p", 1, (1, -2)), ("q", -1, (1, -2))])
        assert check_weight_balance(data)

    def test_empty_data(self):
        assert check_weight_balance(make_data(1, []))


class TestHattoriParity:
    def test_violation(self):
        outcome = check_hattori_parity(make_data(1, [("p", 1, (1,))]))
        assert not outcome
        assert outcome.witness == {"w": 1, "total": 1}

    def test_pass(self):
        assert check_hattori_parity(make_data(1, [("p", 1, (1,)), ("q", 1, (1,))]))

    @given(data_st())
    @settings(max_examples=60)
    def test_balance_implies_parity(self, data):
        # arbitrary data: whenever signed counts balance, totals are even
        if check_weight_balance(data).passed:
            assert check_hattori_parity(data).passed


class TestOddCountEvenDim:
    def test_odd_points_odd_half_dim_fails(self):
        data = make_data(1, [("p", 1, (1,)), ("q", 1, (1,)), ("r", 1, (-1,))])
        outcome = check_odd_count_even_n(data)
        assert not outcome
        assert outcome.witness == {"points": 3, "half_dimension": 1}

    def test_other_combinations_pass(self):
        assert check_odd_count_even_n(
            make_data(2, [("p", 1, (1, 1)), ("q", 1, (1, 1)), ("r", 1, (1, 1))])
        )
        assert check_odd_count_even_n(make_data(1, [("p", 1, (1,)), ("q", 1, (1,))]))
        assert check_odd_count_even_n(make_data(1, []))

    def test_parity_implies_odd_points_even_dim(self):
        # the k * n weight slots split into even totals, so k * n is even
        assert_implication(
            lambda data: check_hattori_parity(data).passed,
            lambda data: check_odd_count_even_n(data).passed,
        )


class TestC1Sum:
    def test_violation_witness(self):
        outcome = check_c1_sum(make_data(1, [("p", 1, (1,))]))
        assert not outcome
        assert outcome.witness == {"sum": 1}

    def test_fixtures_pass(self, all_fixture_data):
        for data in all_fixture_data:
            assert check_c1_sum(data)

    def test_balance_implies_chern_sum(self):
        # sum of sign * c1 = sum over w > 0 of w * (signed count of w minus
        # signed count of -w)
        assert_implication(
            lambda data: check_weight_balance(data).passed,
            lambda data: check_c1_sum(data).passed,
        )


class TestMinWeightBalance:
    def test_fixtures_pass(self, all_fixture_data):
        for data in all_fixture_data:
            assert check_min_weight_balance(data)

    def test_per_index_violation(self):
        # single point: weight +1 at index 0 has no -1 partner at index 1
        outcome = check_min_weight_balance(make_data(1, [("p", 1, (1,))]))
        assert not outcome
        assert outcome.witness == {
            "a": 1,
            "i": 0,
            "identity": "per-index",
            "lhs": 1,
            "rhs": 0,
        }

    def test_only_larger_magnitudes_involved(self):
        # minimal magnitude is 2; the illegal weight 1 never appears
        data = make_data(1, [("p", 1, (2,)), ("q", 1, (-2,))])
        assert check_min_weight_balance(data)

    def test_empty_data_raises(self):
        with pytest.raises(ValueError, match="without points"):
            check_min_weight_balance(make_data(1, []))

    def test_per_index_implies_three_term(self):
        def three_term_holds(data) -> bool:
            a = min(abs(w) for p in data.points for w in p.weights)
            n = data.n

            def level(i: int, w: int) -> int:
                return sum(
                    p.sign * p.multiplicity(w) for p in data.points if p.index == i
                )

            return all(
                level(i, a) + level(i, -a)
                == (level(i - 1, a) if i > 0 else 0) + (level(i + 1, -a) if i < n else 0)
                for i in range(n + 1)
            )

        assert_implication(
            lambda data: check_min_weight_balance(data).passed, three_term_holds
        )

    def test_empty_data_vacuous_in_suite(self):
        outcomes = validate_all(make_data(1, []))
        by_name = {o.name: o for o in outcomes}
        assert by_name["min_weight_index_balance"].passed


class TestAbbv:
    def test_fixture_values(self, all_fixture_data):
        for data in all_fixture_data:
            for j in range(data.n):
                assert abbv_c1_power(data, j).value == 0

    def test_two_sphere_power_one(self, s2_a1, s2_a3):
        # both poles contribute c1/prod = 1, for any rotation speed
        assert abbv_c1_power(s2_a1, 1).value == 2
        assert abbv_c1_power(s2_a3, 1).value == 2

    def test_negative_power_rejected(self, s2_a1):
        with pytest.raises(ValueError):
            abbv_c1_power(s2_a1, -1)

    def test_value_is_exact_fraction(self):
        data = make_data(2, [("p", 1, (2, 3))])
        assert abbv_c1_power(data, 0).value == Fraction(1, 6)

    def test_dict_stringifies_value(self):
        data = make_data(2, [("p", 1, (2, 3))])
        assert abbv_c1_power(data, 0).to_dict() == {"power": 0, "value": "1/6"}

    def test_check_abbv_witness(self):
        outcome = check_abbv_vanishing(make_data(1, [("p", 1, (1,))]))
        assert not outcome
        assert outcome.witness == {"power": 0, "value": "1"}

    def test_dim4_equal_sign_pair_rejected(self):
        # two positive-sign points in dimension 4: the j=0 sum cannot vanish
        # when the weight products have the same sign
        data = make_data(2, [("p", 1, (1, 2)), ("q", 1, (-1, -2))])
        assert not check_abbv_vanishing(data)


class TestChernMap:
    def test_two_sphere_classes(self, s2_a3):
        analysis = chern_map_analysis(s2_a3)
        assert analysis.distinct_values == 2
        assert not analysis.zero_required
        assert analysis.violations == ()
        assert analysis.somewhere_injective
        assert analysis.lower_bound == 2
        assert analysis.bound_met

    def test_mirror_pair_classes(self, s2n):
        analysis = chern_map_analysis(s2n)
        assert analysis.distinct_values == 1
        assert analysis.zero_required  # 1 <= n = 4
        assert analysis.violations == ()
        assert not analysis.somewhere_injective
        assert analysis.lower_bound is None
        assert analysis.bound_met is None

    def test_class_sum_violation(self):
        data = make_data(1, [("p", 1, (1,))])
        analysis = chern_map_analysis(data)
        assert analysis.zero_required
        assert analysis.violations == (1,)
        outcome = check_chern_classes(data)
        assert not outcome
        assert outcome.witness["reason"] == "class sum must vanish"

    def test_point_count_bound_reported(self):
        # singleton classes force the n + 1 lower bound; with only two points
        # in dimension 4 the bound fails, and the nonzero singleton sums are
        # already violations in their own right
        data = make_data(2, [("p", 1, (1, 2)), ("q", -1, (1, 1))])
        analysis = chern_map_analysis(data)
        assert analysis.zero_required
        assert analysis.violations == (2, 3)
        assert analysis.somewhere_injective
        assert analysis.lower_bound == 3
        assert not analysis.bound_met
        outcome = check_chern_classes(data)
        assert not outcome
        assert outcome.witness["reason"] == "class sum must vanish"

    def test_empty_data(self):
        analysis = chern_map_analysis(make_data(1, []))
        assert analysis.distinct_values == 0
        assert not analysis.zero_required
        assert check_chern_classes(make_data(1, []))

    def test_dict_shape(self, s2_a3):
        payload = chern_map_analysis(s2_a3).to_dict()
        assert payload["classes"] == [
            {"value": -3, "ids": ["q"], "sum": "-1/3"},
            {"value": 3, "ids": ["p"], "sum": "1/3"},
        ]


class TestSuiteDrivers:
    def test_fixed_order(self, s2_a3):
        names = [o.name for o in validate_all(s2_a3)]
        assert names == [
            "weight_balance",
            "hattori_parity",
            "odd_points_even_dim",
            "chern_sum",
            "min_weight_index_balance",
            "abbv_vanishing",
            "chern_class_map",
        ]

    def test_strict_appends_two_checks(self, s8):
        names = [o.name for o in validate_all(s8, strict=True)]
        assert names[-2:] == ["isotropy_congruence", "symbolic_constancy"]
        assert all_passed(validate_all(s8, strict=True))

    def test_fixtures_pass_strict(self, all_fixture_data):
        for data in all_fixture_data:
            assert all_passed(validate_all(data, strict=True))

    def test_congruence_check_catches_bad_partition(self):
        data = make_data(
            1,
            [("p", 1, (1,)), ("q", 1, (-2,)), ("r", 1, (2,)), ("s", 1, (-1,))],
            isotropy={2: (("p", "q"), ("r", "s"))},
        )
        outcomes = validate_all(data, strict=True)
        by_name = {o.name: o for o in outcomes}
        assert not by_name["isotropy_congruence"].passed
        assert by_name["isotropy_congruence"].witness == {
            "modulus": 2,
            "pair": ["p", "q"],
        }

    def test_symbolic_constancy_fails_on_unbalanced_data(self):
        outcomes = validate_all(make_data(1, [("p", 1, (1,))]), strict=True)
        by_name = {o.name: o for o in outcomes}
        assert not by_name["symbolic_constancy"].passed
        assert by_name["symbolic_constancy"].witness["component"] == 0

    def test_evaluate_filters_stops_early(self):
        outcomes, verdict = evaluate_filters(make_data(1, [("p", 1, (1,))]))
        assert not verdict
        assert outcomes[-1].name == "weight_balance"
        assert len(outcomes) == 1

    def test_evaluate_filters_full_pass(self, s6):
        outcomes, verdict = evaluate_filters(s6)
        assert verdict
        assert len(outcomes) == 7

    def test_all_passed(self):
        assert all_passed([CheckOutcome("a", True)])
        assert not all_passed([CheckOutcome("a", True), CheckOutcome("b", False)])
        assert all_passed([])


class TestGraphInducedInvariants:
    """Arbitrary graphs: balance, parity and the c1 sum hold structurally."""

    @pytest.mark.parametrize("points,degree", [(2, 2), (3, 2), (4, 3), (5, 2), (6, 4)])
    def test_unfiltered_graphs(self, points, degree):
        produced = 0
        for seed in range(200):
            graph = sample_multigraph(random.Random(seed), points, degree, 5)
            if graph is None:
                continue
            data = induced_data(graph, degree)
            assert check_weight_balance(data).passed
            assert check_hattori_parity(data).passed
            assert check_c1_sum(data).passed
            produced += 1
            if produced >= 25:
                break
        assert produced >= 10  # the configuration model does produce graphs


#: Weights up to 10**6 in magnitude, where the common denominator is large.
large_weight_st = st.integers(min_value=-(10**6), max_value=10**6).filter(bool)


def assert_matches_fraction_reference(data) -> None:
    """The integer route equals the direct Fraction sums: every AbbvValue,
    the Chern-map analysis with its class sums, and both checks' outcomes
    with their witnesses."""
    for j in range(data.n + 2):
        value = abbv_c1_power(data, j)
        assert value == reference_abbv_c1_power(data, j)
        assert value.to_dict() == reference_abbv_c1_power(data, j).to_dict()
    analysis = chern_map_analysis(data)
    assert analysis == reference_chern_map_analysis(data)
    assert analysis.to_dict() == reference_chern_map_analysis(data).to_dict()
    assert check_abbv_vanishing(data) == reference_check_abbv_vanishing(data)
    assert check_chern_classes(data) == reference_check_chern_classes(data)


class TestIntegerLocalizationAgainstFractions:
    """The localization sums are integers over a common denominator; the
    test-only Fraction sums are their independent reference."""

    @given(data_st(min_points=0, max_points=6, max_half_dim=4))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_data(self, data):
        assert_matches_fraction_reference(data)

    @given(data_st(max_points=5, max_half_dim=4, weights=large_weight_st))
    @settings(max_examples=150, deadline=None)
    def test_weights_up_to_a_million(self, data):
        assert_matches_fraction_reference(data)

    @given(paired_shape_st(max_weight=6))
    @settings(max_examples=150, deadline=None)
    def test_balanced_data(self, data):
        # here the sums often vanish, and the witnesses come from later powers
        assert_matches_fraction_reference(data)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures_and_flipped_copies(self, name):
        data = load_data(fixture_path(name))
        assert_matches_fraction_reference(data)
        assert_matches_fraction_reference(flipped(data))


class TestFilterImplications:
    """Implications between the non-strict checks, each proved in its
    docstring and pinned on arbitrary data mixed with data that meets the
    premise by construction.  They are why the survey's weight-balance join
    leaves nothing for `hattori_parity`, `odd_points_even_dim` and
    `chern_sum` to reject.

    Notation: eps_p is the sign of point p, #_p(w) its multiplicity of the
    weight w, and c1(p) the sum of its weights.
    """

    @given(
        st.one_of(
            data_st(max_points=6, max_half_dim=4),
            data_st(max_points=6, max_half_dim=4, weights=large_weight_st),
            paired_shape_st(max_weight=10**6),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_balance_implies_hattori_parity(self, data):
        """Weight balance => hattori_parity.

        Proof: balance says S_m = sum_p eps_p * (#_p(m) - #_p(-m)) = 0 for
        every m > 0.  As eps_p = +-1 is odd, eps_p * x = x (mod 2), so
        S_m = sum_p (#_p(m) - #_p(-m)) = sum_p (#_p(m) + #_p(-m)) (mod 2),
        and the right-hand side is the parity total of m.  It is therefore
        even.
        """
        if check_weight_balance(data):
            assert check_hattori_parity(data)

    @given(
        st.one_of(
            data_st(max_points=6, max_half_dim=4),
            data_st(max_points=6, max_half_dim=4, weights=large_weight_st),
            paired_shape_st(max_weight=10**6),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_balance_implies_chern_sum(self, data):
        """Weight balance => chern_sum.

        Proof: group the weights of each point by magnitude.  Then
        sum_p eps_p * c1(p) = sum_p eps_p * sum_{m > 0} m * (#_p(m) - #_p(-m))
        = sum_{m > 0} m * S_m with S_m as above, and every S_m is 0.
        """
        if check_weight_balance(data):
            assert check_c1_sum(data)

    @given(
        st.one_of(
            data_st(max_points=7, max_half_dim=5),
            paired_shape_st(max_points=7, max_half_dim=5, balanced=False),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_hattori_parity_implies_odd_points_even_dim(self, data):
        """hattori_parity => odd_points_even_dim.

        Proof: each of the k points has n weights, so summing the parity
        totals over all magnitudes counts every weight once:
        sum_{m > 0} sum_p (#_p(m) + #_p(-m)) = k * n.  Every total is even,
        so k * n is even, and k and n are not both odd.
        """
        if check_hattori_parity(data):
            assert check_odd_count_even_n(data)

    @given(
        paired_shape_st(max_points=7, max_half_dim=5, max_weight=10**6),
        paired_shape_st(max_points=7, max_half_dim=5, balanced=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_premises_are_reached(self, balanced, paired):
        # the paired strategies meet the premises the tests above need
        assert check_weight_balance(balanced)
        assert check_hattori_parity(paired)
