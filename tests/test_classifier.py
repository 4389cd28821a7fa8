"""Bounded survey, two-point shape matching, random data generation."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpkit.classify
import fpkit.identities
from fpkit.classify import (
    FILTER_NAMES,
    FLAG_TEXT,
    SearchBounds,
    TrichotomyVerdict,
    _candidate,
    _feasible,
    _point_universe,
    random_graph_data,
    random_multigraph,
    survey,
    trichotomy_match,
)
from fpkit.cli import main
from fpkit.data import FixedPointData, serialize_data
from fpkit.identities import (
    all_passed,
    check_weight_balance,
    evaluate_filters,
    spec_filters,
    validate_all,
)
from fpkit.multigraph import build_multigraph, describes, induced_data
from tests.conftest import make_data, paired_data_st

# (points, half_dim) shapes the generator covers at max label 5
FEASIBLE_SHAPES = [
    (k, n)
    for k in range(2, 7)
    for n in range(1, 5)
    if (k * n) % 2 == 0 and (k, n) != (3, 4)
]


class TestSearchBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBounds(0, 1, 1)
        with pytest.raises(ValueError):
            SearchBounds(2, 0, 1)
        with pytest.raises(ValueError):
            SearchBounds(2, 1, 0)

    def test_dict(self):
        assert SearchBounds(2, 3, 4).to_dict() == {
            "points": 2,
            "dimension": 6,
            "max_weight": 4,
        }


class TestTrichotomyVerdict:
    def test_parameter_counts_enforced(self):
        TrichotomyVerdict("dim2-samesign", (2,))
        TrichotomyVerdict("dim6-samesign", (1, 2))
        TrichotomyVerdict("mirror-oppositesign")
        TrichotomyVerdict("none")
        with pytest.raises(ValueError):
            TrichotomyVerdict("dim2-samesign")
        with pytest.raises(ValueError):
            TrichotomyVerdict("mirror-oppositesign", (1,))
        with pytest.raises(ValueError):
            TrichotomyVerdict("unknown")

    def test_dict(self):
        assert TrichotomyVerdict("dim6-samesign", (1, 2)).to_dict() == {
            "case": "dim6-samesign",
            "parameters": [1, 2],
        }
        assert TrichotomyVerdict("none").to_dict() == {
            "case": "none",
            "parameters": None,
        }


class TestTrichotomyMatch:
    def test_rotation_sphere(self, s2_a3):
        verdict = trichotomy_match(s2_a3)
        assert verdict.case == "dim2-samesign"
        assert verdict.parameters == (3,)

    def test_rotation_sphere_reversed_points(self):
        data = make_data(1, [("p", 1, (-2,)), ("q", 1, (2,))])
        verdict = trichotomy_match(data)
        assert verdict.case == "dim2-samesign"
        assert verdict.parameters == (2,)

    def test_negative_signs_accepted(self):
        data = make_data(1, [("p", -1, (1,)), ("q", -1, (-1,))])
        assert trichotomy_match(data).case == "dim2-samesign"

    def test_dim6(self, s6):
        verdict = trichotomy_match(s6)
        assert verdict.case == "dim6-samesign"
        assert verdict.parameters == (1, 2)

    def test_mirror(self, s2n):
        assert trichotomy_match(s2n).case == "mirror-oppositesign"

    def test_none_case(self):
        data = make_data(2, [("p", 1, (1, 2)), ("q", -1, (1, 1))])
        verdict = trichotomy_match(data)
        assert verdict.case == "none"
        assert verdict.parameters is None

    def test_same_sign_wrong_shape(self):
        data = make_data(1, [("p", 1, (1,)), ("q", 1, (2,))])
        assert trichotomy_match(data).case == "none"

    def test_requires_two_points(self, s2_a3):
        with pytest.raises(ValueError, match="exactly two"):
            trichotomy_match(make_data(1, [("p", 1, (1,))]))


def brute_force_survey(bounds: SearchBounds) -> dict:
    """Reference report: every candidate is built and runs every filter."""
    combos = list(
        itertools.combinations_with_replacement(_point_universe(bounds), bounds.points)
    )
    rejects = {name: 0 for name in FILTER_NAMES}
    survivors, flagged = [], []
    pairs = bounds.points == 2
    tallies = (
        {case: 0 for case in ("dim2-samesign", "dim6-samesign", "mirror-oppositesign", "none")}
        if pairs
        else None
    )
    for specs in combos:
        data = _candidate(specs, bounds.half_dim)
        outcomes, passed = evaluate_filters(data)
        if not passed:
            rejects[outcomes[-1].name] += 1
            continue
        entry = {
            "points": [
                {"id": p.id, "sign": p.sign, "weights": list(p.weights)}
                for p in data.points
            ]
        }
        if pairs:
            verdict = trichotomy_match(data)
            tallies[verdict.case] += 1
            entry["verdict"] = verdict.case
            entry["parameters"] = list(verdict.parameters) if verdict.parameters else None
            if verdict.case == "none":
                flagged.append({**entry, "flag": FLAG_TEXT})
        survivors.append(entry)
    return {
        "bounds": bounds.to_dict(),
        "candidates": len(combos),
        "rejects": rejects,
        "survivors": survivors,
        "trichotomy": tallies,
        "flagged": flagged,
    }


class TestEnumeration:
    def test_candidate_count(self):
        # n=1, W=1: two weight choices and two signs make 4 point specs;
        # unordered pairs with repetition: 4*5/2 = 10
        report = survey(SearchBounds(2, 1, 1))
        assert report.candidates == 10
        assert [p["id"] for p in report.survivors[0]["points"]] == ["p1", "p2"]

    def test_deterministic_order(self):
        assert survey(SearchBounds(2, 1, 1)) == survey(SearchBounds(2, 1, 1))

    # k = 1..5; (1,2,2) has min_weight_index_balance rejections, (2,3,3),
    # (3,2,3) and (4,2,2) also abbv_vanishing ones
    @pytest.mark.parametrize(
        "bounds",
        [(1, 2, 2), (2, 2, 2), (2, 3, 3), (3, 2, 3), (4, 2, 2), (4, 1, 5), (5, 1, 3)],
    )
    def test_join_matches_brute_force(self, bounds):
        bounds = SearchBounds(*bounds)
        assert survey(bounds).to_dict() == brute_force_survey(bounds)

    def test_only_survivors_built(self, monkeypatch):
        calls = []

        def counting(specs, n):
            calls.append(specs)
            return _candidate(specs, n)

        monkeypatch.setattr(fpkit.classify, "_candidate", counting)
        report = survey(SearchBounds(2, 3, 3))
        assert len(calls) == len(report.survivors)
        assert len(calls) == 60

    def test_rejected_candidates_make_no_data_or_fraction(self, monkeypatch):
        # (4,2,2): 503 balanced candidates, 426 of them rejected by
        # min_weight_index_balance or abbv_vanishing
        built, fractions = [], []
        original_init = FixedPointData.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original_init(self, *args, **kwargs)

        class CountingFraction(fpkit.identities.Fraction):
            def __new__(cls, *args, **kwargs):
                fractions.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(FixedPointData, "__init__", counting_init)
        monkeypatch.setattr(fpkit.identities, "Fraction", CountingFraction)
        report = survey(SearchBounds(4, 2, 2))
        assert report.candidates - report.rejects["weight_balance"] == 503
        assert len(built) == len(report.survivors) == 77
        assert fractions == []

    def test_oversized_bounds_refused(self):
        with pytest.raises(ValueError, match="survey too large"):
            survey(SearchBounds(4, 5, 9))
        # one point, but too many point specs to list
        with pytest.raises(ValueError, match="survey too large"):
            survey(SearchBounds(1, 20, 9))


class TestSurvey:
    def test_dim2(self):
        report = survey(SearchBounds(2, 1, 2))
        assert report.candidates == 36
        assert len(report.survivors) == 8
        assert report.tallies == {
            "dim2-samesign": 4,
            "dim6-samesign": 0,
            "mirror-oppositesign": 4,
            "none": 0,
        }
        assert report.flagged == ()
        # every rejected candidate is tallied under the first failing filter
        assert sum(report.rejects.values()) + len(report.survivors) == 36
        assert set(report.rejects) == set(FILTER_NAMES)

    def test_dim2_expected_parameters(self):
        report = survey(SearchBounds(2, 1, 2))
        params = sorted(
            tuple(entry["parameters"])
            for entry in report.survivors
            if entry["verdict"] == "dim2-samesign"
        )
        # both speeds, each with both global signs
        assert params == [(1,), (1,), (2,), (2,)]

    def test_dim4_no_equal_sign_survivors(self):
        report = survey(SearchBounds(2, 2, 2))
        assert report.candidates == 210
        assert len(report.survivors) == 10
        assert report.tallies["mirror-oppositesign"] == 10
        assert report.tallies["dim2-samesign"] == 0
        assert report.tallies["dim6-samesign"] == 0
        assert report.tallies["none"] == 0
        for entry in report.survivors:
            signs = [point["sign"] for point in entry["points"]]
            assert sorted(signs) == [-1, 1]

    def test_dim6(self):
        report = survey(SearchBounds(2, 3, 3))
        assert report.candidates == 6328
        assert len(report.survivors) == 60
        assert report.tallies == {
            "dim2-samesign": 0,
            "dim6-samesign": 4,
            "mirror-oppositesign": 56,
            "none": 0,
        }
        found = sorted(
            tuple(entry["parameters"])
            for entry in report.survivors
            if entry["verdict"] == "dim6-samesign"
        )
        assert found == [(1, 1), (1, 1), (1, 2), (1, 2)]

    def test_three_point_survey_has_no_tallies(self):
        report = survey(SearchBounds(3, 1, 1))
        assert report.tallies is None
        assert report.flagged == ()
        for entry in report.survivors:
            assert "verdict" not in entry

    def test_deterministic(self):
        a = survey(SearchBounds(2, 1, 2)).to_dict()
        b = survey(SearchBounds(2, 1, 2)).to_dict()
        assert a == b

    def test_thread_count_invariance(self, monkeypatch):
        # the survey runs one serial path: FPKIT_THREADS is not read
        monkeypatch.delenv("FPKIT_THREADS", raising=False)
        serial = survey(SearchBounds(2, 2, 2)).to_dict()
        for value in ("4", "zero"):
            monkeypatch.setenv("FPKIT_THREADS", value)
            assert survey(SearchBounds(2, 2, 2)).to_dict() == serial

    def test_report_dict_shape(self):
        payload = survey(SearchBounds(2, 1, 1)).to_dict()
        assert set(payload) == {
            "bounds",
            "candidates",
            "rejects",
            "survivors",
            "trichotomy",
            "flagged",
        }
        assert payload["bounds"] == {"points": 2, "dimension": 2, "max_weight": 1}

    def test_flag_text_value(self):
        assert FLAG_TEXT == "outside the two-fixed-point classification"


class TestRandomGeneration:
    @pytest.mark.parametrize("points,half_dim", FEASIBLE_SHAPES)
    def test_shapes_and_round_trip(self, points, half_dim):
        for seed in (0, 1, 2):
            graph = random_multigraph(seed, points, half_dim, 5)
            assert len(graph.vertices) == points
            for vertex_id in graph.vertex_ids:
                assert graph.degree(vertex_id) == half_dim
            assert all(1 <= e.label <= 5 for e in graph.edges)
            data = induced_data(graph, half_dim)
            assert describes(build_multigraph(data), data)

    @pytest.mark.parametrize("points,half_dim", FEASIBLE_SHAPES)
    def test_data_passes_identities(self, points, half_dim):
        data = random_graph_data(7, points, half_dim, 5)
        assert all_passed(validate_all(data))

    def test_deterministic(self):
        assert random_graph_data(3, 4, 2, 5) == random_graph_data(3, 4, 2, 5)
        assert random_multigraph(3, 4, 2, 5) == random_multigraph(3, 4, 2, 5)

    def test_seed_changes_output(self):
        outputs = {
            serialize_data(random_graph_data(seed, 6, 2, 5)) for seed in range(6)
        }
        assert len(outputs) > 1

    def test_name_records_parameters(self):
        data = random_graph_data(9, 4, 2, 5)
        assert data.name == "random-k4-n2-w5-seed9"

    def test_invalid_shapes(self):
        with pytest.raises(ValueError, match="single vertex"):
            random_multigraph(0, 1, 2, 5)
        with pytest.raises(ValueError, match="must be even"):
            random_multigraph(0, 3, 1, 5)
        with pytest.raises(ValueError, match="at least one vertex"):
            random_multigraph(0, 0, 2, 5)
        with pytest.raises(ValueError, match="half-dimension"):
            random_multigraph(0, 2, 0, 5)
        with pytest.raises(ValueError, match="label"):
            random_multigraph(0, 2, 2, 0)

    def test_infeasible_compositions(self):
        with pytest.raises(ValueError, match="no realizable composition"):
            random_multigraph(0, 3, 4, 5)
        with pytest.raises(ValueError, match="no realizable composition"):
            random_multigraph(0, 5, 4, 3)  # needs labels up to 4
        # the same shape is fine once the label bound allows it
        assert random_multigraph(0, 5, 4, 4) is not None

    @pytest.mark.parametrize("max_label", [1, 2, 3, 5, 10, 25, 40])
    def test_every_feasible_shape_builds(self, max_label):
        # the generator's output is realizable, so its graph always exists
        # and describes it; infeasible shapes are refused
        feasible = 0
        for points, half_dim in itertools.product(range(1, 9), range(1, 5)):
            if not _feasible(points, half_dim, max_label):
                with pytest.raises(ValueError):
                    random_graph_data(0, points, half_dim, max_label)
                continue
            feasible += 1
            for seed in range(4):
                data = random_graph_data(seed, points, half_dim, max_label)
                assert describes(build_multigraph(data), data)
        assert feasible >= 16

    def test_max_label_respected_small(self):
        for seed in range(10):
            graph = random_multigraph(seed, 2, 3, 1)
            assert all(e.label == 1 for e in graph.edges)


@functools.cache
def _survey_filter(bounds: SearchBounds):
    universe = _point_universe(bounds)
    return universe, {spec: index for index, spec in enumerate(universe)}, spec_filters(
        universe, bounds.half_dim
    )


class TestSurveyVerdict:
    """The survey's verdict on summed per-spec terms is `evaluate_filters`'."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_evaluate_filters(self, draw):
        n = draw.draw(st.integers(1, 4), label="n")
        k = draw.draw(
            st.sampled_from([k for k in range(1, 7) if k * n % 2 == 0]), label="k"
        )
        bounds = SearchBounds(k, n, draw.draw(st.integers(1, 5), label="W"))
        universe, position, first_failure = _survey_filter(bounds)
        data = draw.draw(paired_data_st(k, n, bounds.max_weight))
        assert check_weight_balance(data)
        positions = tuple(sorted(position[(p.sign, p.weights)] for p in data.points))
        specs = tuple(universe[i] for i in positions)
        outcomes, passed = evaluate_filters(_candidate(specs, n))
        assert first_failure(positions) == (None if passed else outcomes[-1].name)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_multiset_gets_first_failure_after_weight_balance(self, draw):
        # arbitrary positions, and paired data that passes hattori_parity but
        # rarely weight balance, reach hattori_parity and chern_sum too;
        # chern_class_map is never a first failure, as abbv_vanishing implies
        # it (Vandermonde), so its branch is checked on the passes
        n = draw.draw(st.integers(1, 4), label="n")
        k = draw.draw(st.integers(1, 6), label="k")
        bounds = SearchBounds(k, n, draw.draw(st.integers(1, 5), label="W"))
        universe, position, first_failure = _survey_filter(bounds)
        if k * n % 2 == 0 and draw.draw(st.booleans(), label="paired"):
            data = draw.draw(paired_data_st(k, n, bounds.max_weight, balanced=False))
            chosen = [position[(p.sign, p.weights)] for p in data.points]
        else:
            chosen = draw.draw(
                st.lists(st.integers(0, len(universe) - 1), min_size=k, max_size=k),
                label="positions",
            )
        positions = tuple(sorted(chosen))
        outcomes = validate_all(_candidate(tuple(universe[i] for i in positions), n))
        failed = [outcome.name for outcome in outcomes[1:] if not outcome.passed]
        assert first_failure(positions) == (failed[0] if failed else None)


def semifree_survivor_count(points: int, half_dim: int) -> int:
    """sum over integers T with |T| * 2^n <= k and k - |T| * 2^n even of
    C(n + (k - |T| * 2^n) / 2, n).

    At W = 1 a point is fixed by its sign and index.  The survivors are the
    multisets of (k - |T| * 2^n) / 2 mirror pairs, one of n + 1 weight sets
    each, joined with |T| copies of the binomial pattern (C(n, i) points of
    index i) of sign sign(T).
    """
    block = 2**half_dim
    total = 0
    for copies in range(-(points // block), points // block + 1):
        rest = points - abs(copies) * block
        if rest % 2 == 0:
            total += math.comb(half_dim + rest // 2, half_dim)
    return total


@pytest.mark.parametrize(
    "points,half_dim,expected",
    [
        (2, 1, 4),
        (4, 1, 9),
        (4, 2, 8),
        (6, 2, 16),
        (8, 2, 29),
        (6, 3, 20),
        (8, 3, 37),
        (4, 4, 15),
        (3, 1, 0),
        (5, 2, 0),
        (3, 3, 0),
        (7, 1, 0),
    ],
)
def test_semifree_closed_form(points, half_dim, expected):
    # the semi-free theorem's count, a certificate sharing no code with the
    # survey
    assert semifree_survivor_count(points, half_dim) == expected
    assert len(survey(SearchBounds(points, half_dim, 1)).survivors) == expected


#: sha256 of `fpkit classify` stdout on the benchmark's survey ladder.
LADDER_DIGESTS = {
    ((2, 2, 4), "json"): "fae4e827669471a392bd2f12db7cde440e7bb329e0836796740da466f2460b20",
    ((2, 2, 4), "text"): "6385b72dc558613a4296fda680b13027326d14fb4c0ff507e014559d349ae21b",
    ((2, 3, 3), "json"): "eae8423b040ec7d2da4e68ab8400a58d4a536cba5152fec522f70adc88995ad7",
    ((2, 3, 3), "text"): "f80d35b931e8d2789e03f930492ff9cb9dddc4cee4f2e8790d6ad31265b725e9",
    ((4, 2, 2), "json"): "209dc9838d7e2cf7905ae90120d7e66e8dd1f52a89b3219c112a5dc76a0b7c6f",
    ((4, 2, 2), "text"): "9c751903c6cd51e9a7dd35519865f85f721eb8c65c4cb693067b7bf892d35f9b",
    ((4, 1, 5), "json"): "63971de3c4d38b8a0cc11d540fffd9cdd851ad2b0e4aa80225ce684228c1ed18",
    ((4, 1, 5), "text"): "0888ed2d6e39f7fd8a8ac19475be2dda99aabea7f165df320ca8cc8ec8e1873b",
    ((3, 2, 3), "json"): "5e38a7521cb59da97d15ebcb574c6a12928563cd3876a7cec458c27b74df41aa",
    ((3, 2, 3), "text"): "cdade5009c9fd9effb9ed43c57d9aabba99fdb8ce46005e9892d7953a8dcc562",
    ((2, 3, 4), "json"): "16daaebeca6178bc83c943d19e4fcd393cbc33c141f14c073b2c41a25c7be5f0",
    ((2, 3, 4), "text"): "ad42f8db65b5e77cf32a24f3145d7e393806b7565e5ff24306e0dd11f82b459d",
    ((2, 4, 3), "json"): "16fa0d7049ea109e4328f47e68db30a78cf8d85eaf60ddbb65e81ef19958bd3f",
    ((2, 4, 3), "text"): "d7cc2461e7b0a4b4649b189449ea51c13835840bf9f3e89f8ec05bd4fda1d6ed",
}


@pytest.mark.parametrize("bounds,fmt", sorted(LADDER_DIGESTS))
def test_ladder_stdout_digest(bounds, fmt):
    k, n, w = bounds
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            ["classify", "--points", str(k), "--dim", str(2 * n),
             "--max-weight", str(w), "--format", fmt]
        )
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == LADDER_DIGESTS[bounds, fmt]
