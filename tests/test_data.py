"""Data model: points, collections, JSON round trips, partitions."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from fpkit.classify import random_graph_data
from fpkit.data import (
    CongruenceResult,
    DataFormatError,
    FixedPointData,
    FixedPointDatum,
    check_congruence,
    default_isotropy_partition,
    load_data,
    parse_data,
    residue_signature,
    serialize_data,
)
from tests.conftest import ALL_FIXTURES, data_st, fixture_path, make_data


class TestFixedPointDatum:
    def test_weights_sorted_on_construction(self):
        p = FixedPointDatum("p", 1, (3, -1, 2))
        assert p.weights == (-1, 2, 3)

    def test_index_counts_negatives(self):
        assert FixedPointDatum("p", 1, (1, 2)).index == 0
        assert FixedPointDatum("p", 1, (-3, -1, 2)).index == 2

    def test_chern_value(self):
        assert FixedPointDatum("p", -1, (-3, 1, 2)).chern_value == 0

    def test_multiplicity(self):
        p = FixedPointDatum("p", 1, (2, 2, -2))
        assert p.multiplicity(2) == 2
        assert p.multiplicity(-2) == 1
        assert p.multiplicity(5) == 0
        with pytest.raises(ValueError):
            p.multiplicity(0)

    def test_invalid_sign(self):
        with pytest.raises(DataFormatError, match="sign"):
            FixedPointDatum("p", 2, (1,))

    def test_zero_weight(self):
        with pytest.raises(DataFormatError, match="zero weight"):
            FixedPointDatum("p", 1, (1, 0))


class TestFixedPointData:
    def test_accessors(self, s6):
        assert s6.n == 3
        assert s6.half_dim == 3
        assert s6.ids == ("p", "q")
        assert len(s6) == 2
        assert [p.id for p in s6] == ["p", "q"]
        assert s6.point("q").weights == (-2, -1, 3)
        with pytest.raises(KeyError):
            s6.point("r")

    def test_duplicate_id(self):
        with pytest.raises(DataFormatError, match="duplicate id"):
            make_data(1, [("p", 1, (1,)), ("p", 1, (-1,))])

    def test_dimension_mismatch(self):
        with pytest.raises(DataFormatError, match="expected 2 weights"):
            make_data(2, [("p", 1, (1,))])

    def test_bad_half_dim(self):
        with pytest.raises(DataFormatError, match="dimension"):
            make_data(0, [])

    def test_empty_data_allowed(self):
        data = make_data(2, [])
        assert len(data) == 0
        assert data.ids == ()

    def test_partition_shape_checked(self):
        with pytest.raises(DataFormatError, match="cover"):
            make_data(1, [("p", 1, (1,))], isotropy={1: (("p", "q"),)})

    def test_reversed(self, s6):
        rev = s6.reversed()
        assert rev.point("p").weights == (-2, -1, 3)
        assert rev.point("q").weights == (-3, 1, 2)
        assert rev.reversed() == s6

    def test_reversed_keeps_partitions(self, s8):
        assert s8.reversed().isotropy_components == s8.isotropy_components


class TestParsing:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_serialize_round_trip(self, name):
        path = fixture_path(name)
        text = path.read_text()
        data = parse_data(text)
        assert serialize_data(data) == text  # fixtures are stored canonically
        assert parse_data(serialize_data(data)) == data

    def test_load_data(self, s2_a3):
        assert load_data(fixture_path("s2_a3")) == s2_a3

    def test_minimal_document(self):
        data = parse_data('{"dimension": 2, "fixed_points": []}')
        assert data.name == ""
        assert data.half_dim == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[]", "top-level"),
            ('{"name": 3, "dimension": 2, "fixed_points": []}', "name"),
            ('{"dimension": "2", "fixed_points": []}', "dimension must be an integer"),
            ('{"dimension": true, "fixed_points": []}', "dimension must be an integer"),
            ('{"dimension": 3, "fixed_points": []}', "positive even"),
            ('{"dimension": 0, "fixed_points": []}', "positive even"),
            ('{"dimension": -2, "fixed_points": []}', "positive even"),
            ('{"dimension": 2}', "fixed_points must be a list"),
            ('{"dimension": 2, "fixed_points": [3]}', "must be an object"),
            (
                '{"dimension": 2, "fixed_points": [{"sign": 1, "weights": [1]}]}',
                "string id",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 0, "weights": [1]}]}',
                "sign",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": true, "weights": [1]}]}',
                "sign",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1.5]}]}',
                "list of integers",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [0]}]}',
                "zero weight",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1, 2]}]}',
                "expected 1 weights",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1]},'
                ' {"id": "p", "sign": 1, "weights": [-1]}]}',
                "duplicate id",
            ),
            (
                '{"dimension": 2, "fixed_points": [], "isotropy_components": []}',
                "isotropy_components",
            ),
            (
                '{"dimension": 2, "fixed_points": [], '
                '"isotropy_components": {"x": []}}',
                "not an integer",
            ),
            (
                '{"dimension": 2, "fixed_points": [], '
                '"isotropy_components": {"0": []}}',
                "not positive",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1]}], '
                '"isotropy_components": {"2": [["p", "q"]]}}',
                "cover",
            ),
            (
                '{"dimension": 2, "fixed_points": [], '
                '"isotropy_components": {"2": [3]}}',
                "list of lists",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1]},'
                ' {"id": "q", "sign": 1, "weights": [-1]}], '
                '"isotropy_components": {"3": [["p", "q"], []]}}',
                "empty block",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1]},'
                ' {"id": "q", "sign": 1, "weights": [-1]}], '
                '"isotropy_components": {"1": [["p"], ["q"]], "01": [["p", "q"]]}}',
                "modulus key '01' is not in plain decimal form",
            ),
            (
                '{"dimension": 2, "fixed_points": [], '
                '"isotropy_components": {"1_0": []}}',
                "modulus key '1_0' is not in plain decimal form",
            ),
            (
                '{"dimension": 2, "fixed_points": [], '
                '"isotropy_components": {" 3": []}}',
                "modulus key ' 3' is not in plain decimal form",
            ),
            (
                '{"dimension": 2, "fixed_points": [], '
                '"isotropy_components": {"+3": []}}',
                "modulus key '\\+3' is not in plain decimal form",
            ),
            (
                '{"dimension": 2, "dimension": 4, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1, 2]}]}',
                "repeated key 'dimension'",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1], "weights": [2]}]}',
                "repeated key 'weights'",
            ),
            (
                '{"dimension": 2, "fixed_points": [], '
                '"isotropy_component": {"1": []}}',
                "unknown key 'isotropy_component'",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "wieghts": [1]}]}',
                "unknown key 'wieghts' at 'p'",
            ),
        ],
    )
    def test_malformed_documents(self, doc, message):
        with pytest.raises(DataFormatError, match=message):
            parse_data(doc)

    def test_unparseable_json(self):
        with pytest.raises(json.JSONDecodeError):
            parse_data("{not json")

    def test_serialization_is_stable(self, s8):
        assert serialize_data(s8) == serialize_data(s8)

    @given(data_st())
    @settings(max_examples=40)
    def test_round_trip_random(self, data):
        assert parse_data(serialize_data(data)) == data

    @pytest.mark.parametrize(
        "data",
        [
            random_graph_data(7, 4, 2, 5),
            random_graph_data(3, 8, 4, 40),
            random_graph_data(1, 2, 1, 1),
            load_data(fixture_path("s8")),
            make_data(
                2,
                [("a", 1, (1, 2)), ("b", -1, (1, 2)), ("c\u00e9", 1, (-3, 3))],
                name='stored "blocks"',
                isotropy={2: (("a", "c\u00e9"), ("b",)), 10: (("a", "b", "c\u00e9"),)},
            ),
            make_data(1, [], name="no points"),
        ],
        ids=["generated-4-2", "generated-8-4", "generated-2-1", "s8", "stored", "empty"],
    )
    def test_serialize_matches_indented_dumps(self, data):
        doc = {
            "name": data.name,
            "dimension": 2 * data.n,
            "fixed_points": [
                {"id": p.id, "sign": p.sign, "weights": list(p.weights)}
                for p in data.points
            ],
        }
        if data.isotropy_components:
            doc["isotropy_components"] = {
                str(modulus): [list(block) for block in blocks]
                for modulus, blocks in sorted(data.isotropy_components.items())
            }
        assert serialize_data(data) == json.dumps(doc, indent=2) + "\n"


class TestPartitions:
    def test_residue_signature(self):
        p = FixedPointDatum("p", 1, (-3, 1, 2))
        assert residue_signature(p, 3) == (0, 1, 2)
        assert residue_signature(p, 1) == (0, 0, 0)

    def test_default_partition_groups_by_residue(self, s2n):
        # mirror pair: identical weights, so every modulus groups p with q
        assert default_isotropy_partition(s2n, 2) == (("p", "q"),)
        assert default_isotropy_partition(s2n, 5) == (("p", "q"),)

    def test_default_partition_splits_distinct_residues(self):
        data = make_data(2, [("p", 1, (1, 2)), ("q", 1, (1, 3))])
        assert default_isotropy_partition(data, 2) == (("p",), ("q",))
        assert default_isotropy_partition(data, 1) == (("p", "q"),)

    def test_stored_partition_wins(self, s8):
        assert default_isotropy_partition(s8, 3) == (("p", "q"),)

    def test_modulus_validation(self, s2n):
        with pytest.raises(ValueError):
            default_isotropy_partition(s2n, 0)
        with pytest.raises(ValueError):
            check_congruence(s2n, 0, (("p", "q"),))

    def test_check_congruence_pass(self, s8):
        result = check_congruence(s8, 3, (("p", "q"),))
        assert result
        assert result.passed
        assert result.offending is None

    def test_check_congruence_failure(self):
        data = make_data(1, [("p", 1, (1,)), ("q", 1, (2,))])
        result = check_congruence(data, 3, (("p", "q"),))
        assert not result
        assert result.offending == ("p", "q")
        assert result.modulus == 3

    def test_check_congruence_partition_shape(self, s2n):
        with pytest.raises(DataFormatError, match="cover"):
            check_congruence(s2n, 2, (("p",),))

    def test_congruence_result_truthiness(self):
        assert CongruenceResult(True, 2)
        assert not CongruenceResult(False, 2, ("a", "b"))
