"""Multigraph construction, description checking, sub-multigraphs, DOT."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit.classify import random_graph_data
from fpkit.data import FixedPointData, FixedPointDatum, default_isotropy_partition
from fpkit.multigraph import (
    BalanceError,
    Edge,
    SignedMultigraph,
    build_multigraph,
    describes,
    export_dot,
    induced_data,
    sub_multigraph,
)
from tests.conftest import (
    GOLDEN,
    data_st,
    make_data,
    partitioned_st,
    reference_multigraph,
)

#: Arbitrary data, which seldom builds, mixed with realizable data, which
#: always does.
graph_data_st = st.one_of(
    data_st(max_points=5),
    st.builds(
        lambda seed, shape: random_graph_data(seed, *shape, 5),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 1), (4, 3), (5, 2), (6, 2)]),
    ),
)


def edge_triples(graph):
    return sorted((e.source, e.target, e.label) for e in graph.edges)


def with_components(data, components):
    return FixedPointData(data.name, data.half_dim, data.points, components)


def build_outcome(builder, data):
    """The graph a builder returns, or the fields of its BalanceError."""
    try:
        graph = builder(data)
    except BalanceError as exc:
        fields = (exc.modulus, exc.block, exc.level, exc.source_count, exc.target_count)
        return ("unbalanced",) + fields
    return ("graph", graph.vertices, graph.edges)


def sign_flipped(data):
    """Every sign negated, weights and partitions kept."""
    points = tuple(FixedPointDatum(p.id, -p.sign, p.weights) for p in data.points)
    return FixedPointData(data.name, data.n, points, data.isotropy_components)


def sign_pairs(graph):
    return {(graph.sign_of(e.source), graph.sign_of(e.target)) for e in graph.edges}


class TestBuildFixtures:
    def test_two_sphere(self, s2_a3):
        graph = build_multigraph(s2_a3)
        assert graph.vertices == (("p", 1), ("q", 1))
        assert edge_triples(graph) == [("p", "q", 3)]
        assert describes(graph, s2_a3)

    def test_six_sphere(self, s6):
        graph = build_multigraph(s6)
        assert edge_triples(graph) == [("p", "q", 1), ("p", "q", 2), ("q", "p", 3)]
        assert describes(graph, s6)

    def test_mirror_pair(self, s2n):
        graph = build_multigraph(s2n)
        assert graph.vertices == (("p", 1), ("q", -1))
        assert edge_triples(graph) == [
            ("p", "q", 2),
            ("p", "q", 3),
            ("p", "q", 5),
            ("p", "q", 6),
        ]
        assert describes(graph, s2n)

    def test_stored_partition_used(self, s8, s2n):
        # the stored mod-3 partition groups p with q, which the residue
        # default would do as well here: the graphs agree
        assert edge_triples(build_multigraph(s8)) == edge_triples(build_multigraph(s2n))
        assert describes(build_multigraph(s8), s8)

    def test_explicit_partitions_override(self, s2n):
        stored = with_components(s2n, {3: (("p", "q"),)})
        graph = build_multigraph(stored)
        assert describes(graph, stored)

    def test_edge_ids_sequential(self, s2n):
        graph = build_multigraph(s2n)
        assert [e.edge_id for e in graph.edges] == [0, 1, 2, 3]
        assert [e.label for e in graph.edges] == [2, 3, 5, 6]  # ascending rounds

    def test_deterministic(self, s6):
        assert build_multigraph(s6) == build_multigraph(s6)


class TestCaseTags:
    """The four sign cases of an edge, read off its endpoints' signs."""

    def test_opposite_signs_source_positive(self, s2n):
        # + source to - target
        graph = build_multigraph(s2n)
        assert sign_pairs(graph) == {(1, -1)}

    def test_equal_positive_signs(self, s6):
        graph = build_multigraph(s6)
        assert sign_pairs(graph) == {(1, 1)}

    def test_equal_negative_signs(self):
        data = make_data(1, [("p", -1, (1,)), ("q", -1, (-1,))])
        graph = build_multigraph(data)
        assert edge_triples(graph) == [("q", "p", 1)]
        assert sign_pairs(graph) == {(-1, -1)}

    def test_opposite_signs_source_negative(self):
        data = make_data(1, [("p", 1, (-1,)), ("q", -1, (-1,))])
        graph = build_multigraph(data)
        assert edge_triples(graph) == [("q", "p", 1)]
        assert sign_pairs(graph) == {(-1, 1)}

    def test_block_provenance_recorded(self, s8):
        # every edge joins two members of one stored block for its label
        graph = build_multigraph(s8)
        assert graph.edges
        for edge in graph.edges:
            blocks = default_isotropy_partition(s8, edge.label)
            assert any(edge.source in b and edge.target in b for b in blocks)


class TestBalanceError:
    def test_parallel_same_sign_pair(self):
        # both points positive with weights {1,1} / {-1,-1}: the +1 slots sit
        # at level 0 on the source side, the -1 slots at level 1 on the
        # target side; no level balances
        data = make_data(2, [("p", 1, (1, 1)), ("q", 1, (-1, -1))])
        with pytest.raises(BalanceError) as excinfo:
            build_multigraph(data)
        err = excinfo.value
        assert err.modulus == 1
        assert err.level in (0, 1)
        assert {err.source_count, err.target_count} == {2, 0}
        assert "per-index balance violated" in str(err)
        payload = err.to_dict()
        assert payload["error"] == "per-index balance violated"
        assert payload["modulus"] == 1
        assert sorted(payload["block"]) == ["p", "q"]

    def test_first_unbalanced_key_reported(self):
        # both moduli are unbalanced; the smallest (modulus, block, level)
        # is reported, here modulus 1 with one unmatched source slot
        data = make_data(1, [("p", 1, (1,)), ("q", 1, (2,))])
        with pytest.raises(BalanceError) as excinfo:
            build_multigraph(data)
        err = excinfo.value
        assert (err.modulus, err.block, err.level) == (1, ("p", "q"), 0)
        assert (err.source_count, err.target_count) == (1, 0)

    def test_balance_error_is_value_error(self):
        assert issubclass(BalanceError, ValueError)

    def test_partition_can_induce_failure(self, s2n):
        # store p and q in separate mod-2 blocks: each block is one point
        # with an unpaired weight
        split = with_components(s2n, {2: (("p",), ("q",))})
        with pytest.raises(BalanceError):
            build_multigraph(split)


class TestAgainstReference:
    """The one-pass builder against the nested-loop reference in conftest."""

    @staticmethod
    def agree(strategy) -> set:
        kinds = set()

        @given(strategy)
        @settings(max_examples=300, deadline=None)
        def compare(data):
            outcome = build_outcome(build_multigraph, data)
            assert outcome == build_outcome(reference_multigraph, data)
            kinds.add(outcome[0])

        compare()
        return kinds

    def test_residue_partitions(self):
        assert self.agree(graph_data_st) == {"graph", "unbalanced"}

    def test_stored_partitions(self):
        assert self.agree(graph_data_st.flatmap(partitioned_st)) == {
            "graph",
            "unbalanced",
        }

    def test_induced_data_gives_the_data_back(self):
        # what lets `random_graph_data` skip the graph: whenever the build
        # succeeds, every slot is on exactly one edge and reads back as its
        # own weight
        built = []

        @given(st.one_of(graph_data_st, graph_data_st.flatmap(partitioned_st)))
        @settings(max_examples=300, deadline=None)
        def round_trip(data):
            try:
                graph = build_multigraph(data)
            except BalanceError:
                return
            induced = induced_data(graph, data.n, data.name)
            assert induced.ids == data.ids
            assert [p.sign for p in induced.points] == [p.sign for p in data.points]
            assert [p.weights for p in induced.points] == [
                p.weights for p in data.points
            ]
            built.append(bool(data.isotropy_components))

        round_trip()
        assert set(built) == {True, False}

    def test_build_invariant_under_sign_flip_and_negation(self):
        """On data without stored partitions, the build succeeds on d exactly
        when it succeeds on the global sign flip of d and on ``d.reversed()``.

        Proof.  Fix a modulus m and a residue block B of d.  The sign flip
        keeps every weight, so it keeps B and every slot's level, and it moves
        each slot to the other side: at each level the side counts (s, t)
        become (t, s).  Negation maps residues r to -r, so two points agree
        mod m before exactly when they agree after, and B is again a block.
        Let c be the number of weights divisible by m; it is the count of
        residue 0, so it is the same for every member of B.  Negation turns a
        member's F-index F into c - F, so a +m slot at level F becomes a -m
        slot at level c - F - 1, a -m slot at level F - 1 becomes a +m slot at
        level c - F, and each changes side.  Levels map by l -> c - 1 - l, a
        bijection, and the side counts at l become the swapped counts at the
        image level.  Either way every level balances after exactly when it
        balanced before.
        """
        seen = set()

        @given(graph_data_st)
        @settings(max_examples=300, deadline=None)
        def invariant(data):
            builds = {
                build_outcome(build_multigraph, image)[0]
                for image in (data, sign_flipped(data), data.reversed())
            }
            assert len(builds) == 1
            seen.update(builds)

        invariant()
        assert seen == {"graph", "unbalanced"}


class TestDescribes:
    def test_witness_vertex_set(self, s2_a3):
        graph = build_multigraph(s2_a3)
        other = make_data(1, [("x", 1, (3,)), ("y", 1, (-3,))])
        result = describes(graph, other)
        assert not result
        assert result.witness["reason"] == "vertex set mismatch"

    def test_witness_sign(self, s2_a3):
        graph = build_multigraph(s2_a3)
        flipped = make_data(1, [("p", 1, (3,)), ("q", -1, (-3,))])
        result = describes(graph, flipped)
        assert not result
        assert result.witness == {
            "reason": "sign mismatch",
            "id": "q",
            "graph": 1,
            "data": -1,
        }

    def test_witness_weights(self, s2_a3):
        graph = build_multigraph(s2_a3)
        other = make_data(1, [("p", 1, (2,)), ("q", 1, (-2,))])
        result = describes(graph, other)
        assert not result
        assert result.witness["reason"] == "weight mismatch"
        assert result.witness["id"] == "p"

    def test_witness_partition_blocks(self, s2n):
        graph = build_multigraph(s2n)
        split = with_components(s2n, {2: (("p",), ("q",))})
        result = describes(graph, split)
        assert not result
        assert result.witness["reason"] == "edge endpoints in different isotropy blocks"
        assert result.witness["label"] == 2

    def test_partitions_not_checked_by_default(self, s2n):
        # s2n stores no isotropy components, so no block is checked
        assert describes(build_multigraph(s2n), s2n)


class TestInducedData:
    def test_round_trip_fixture(self, s6):
        graph = build_multigraph(s6)
        data = induced_data(graph, 3, name=s6.name)
        assert data == s6

    def test_degree_mismatch(self, s6):
        graph = build_multigraph(s6)
        with pytest.raises(ValueError, match="degree 3, expected 2"):
            induced_data(graph, 2)

    def test_weight_reconstruction_rule(self):
        vertices = (("a", 1), ("b", -1))
        graph = SignedMultigraph(vertices, (Edge(0, "a", "b", 5),))
        data = induced_data(graph, 1)
        assert data.point("a").weights == (5,)   # sign(a) * 5
        assert data.point("b").weights == (5,)   # -sign(b) * 5


class TestSubMultigraph:
    def test_modulus_three(self, s8):
        graph = build_multigraph(s8)
        sub = sub_multigraph(graph, 3)
        assert edge_triples(sub) == [("p", "q", 3), ("p", "q", 6)]
        assert sub.vertices == graph.vertices
        assert [e.edge_id for e in sub.edges] == [1, 3]  # original ids kept

    def test_modulus_one_keeps_all(self, s8):
        graph = build_multigraph(s8)
        assert sub_multigraph(graph, 1) == graph

    def test_no_matching_labels(self, s8):
        sub = sub_multigraph(build_multigraph(s8), 7)
        assert sub.edges == ()
        assert sub.vertices == build_multigraph(s8).vertices

    def test_invalid_modulus(self, s8):
        with pytest.raises(ValueError):
            sub_multigraph(build_multigraph(s8), 0)


class TestGraphValidation:
    def test_duplicate_vertex(self):
        with pytest.raises(ValueError, match="duplicate vertex"):
            SignedMultigraph((("p", 1), ("p", -1)), ())

    def test_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            SignedMultigraph((("p", 2),), ())

    def test_missing_endpoint(self):
        with pytest.raises(ValueError, match="missing vertex"):
            SignedMultigraph((("p", 1),), (Edge(0, "p", "q", 1),))

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SignedMultigraph((("p", 1),), (Edge(0, "p", "p", 1),))

    def test_nonpositive_label(self):
        with pytest.raises(ValueError, match="non-positive label"):
            SignedMultigraph((("p", 1), ("q", 1)), (Edge(0, "p", "q", 0),))

    def test_accessors(self, s6):
        graph = build_multigraph(s6)
        assert graph.vertex_ids == ("p", "q")
        assert graph.sign_of("q") == 1
        assert graph.degree("p") == 3
        with pytest.raises(KeyError):
            graph.sign_of("z")
        with pytest.raises(KeyError):
            graph.degree("z")

    def test_to_dict_canonical_order(self, s6):
        payload = build_multigraph(s6).to_dict()
        assert payload["vertices"] == [
            {"id": "p", "sign": 1},
            {"id": "q", "sign": 1},
        ]
        assert payload["edges"] == [
            {"from": "p", "to": "q", "label": 1},
            {"from": "p", "to": "q", "label": 2},
            {"from": "q", "to": "p", "label": 3},
        ]


class TestDotExport:
    @pytest.mark.parametrize(
        "fixture_name, golden_name, modulus",
        [
            ("s2_a3", "s2_a3", None),
            ("s6", "s6_a1_b2", None),
            ("s2n", "s2n_n4", None),
            ("s8", "s8", None),
            ("s8", "s8_mod3", 3),
        ],
    )
    def test_golden_files(self, request, fixture_name, golden_name, modulus):
        data = request.getfixturevalue(fixture_name)
        graph = build_multigraph(data)
        if modulus is not None:
            graph = sub_multigraph(graph, modulus)
        assert export_dot(graph) == (GOLDEN / f"{golden_name}.dot").read_text()

    def test_byte_stable(self, s6):
        assert export_dot(build_multigraph(s6)) == export_dot(build_multigraph(s6))

    def test_negative_sign_marker(self):
        graph = SignedMultigraph((("v", -1),), ())
        assert export_dot(graph) == 'digraph G {\n  "v" [label="v,-"];\n}\n'
