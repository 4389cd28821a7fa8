"""Bounded survey, two-point shape matching, random data generation."""

from __future__ import annotations

import itertools

import pytest

import fpkit.classify
from fpkit.classify import (
    FILTER_NAMES,
    FLAG_TEXT,
    SearchBounds,
    TrichotomyVerdict,
    _candidate,
    _point_universe,
    random_graph_data,
    random_multigraph,
    survey,
    trichotomy_match,
)
from fpkit.data import serialize_data
from fpkit.identities import all_passed, evaluate_filters, validate_all
from fpkit.multigraph import build_multigraph, describes, induced_data
from tests.conftest import make_data

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

    def test_unbalanced_candidates_never_built(self, monkeypatch):
        calls = []

        def counting(specs, n):
            calls.append(specs)
            return _candidate(specs, n)

        monkeypatch.setattr(fpkit.classify, "_candidate", counting)
        report = survey(SearchBounds(2, 3, 3))
        assert len(calls) == report.candidates - report.rejects["weight_balance"]
        assert len(calls) == 184

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
        monkeypatch.delenv("FPKIT_THREADS", raising=False)
        serial = survey(SearchBounds(2, 2, 2)).to_dict()
        monkeypatch.setenv("FPKIT_THREADS", "4")
        threaded = survey(SearchBounds(2, 2, 2)).to_dict()
        assert serial == threaded

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

    def test_max_label_respected_small(self):
        for seed in range(10):
            graph = random_multigraph(seed, 2, 3, 1)
            assert all(e.label == 1 for e in graph.edges)
