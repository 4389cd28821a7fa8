"""Signed directed labeled multigraphs encoding fixed-point data.

A graph vertex is a fixed point with its sign; an edge carries a positive
integer label w.  An edge e from r to s encodes one weight at each endpoint:

    r (initial) gets  sign(r) * w(e),      s (terminal) gets  -sign(s) * w(e).

A graph *describes* a data set when vertices, signs, and the reconstructed
weight multisets all match (and, when partitions are supplied, each edge's
endpoints share an isotropy block for the edge's label).

`build_multigraph` constructs such a graph from data by a deterministic
matching.  For every weight magnitude w and every partition block F, each
member's F-index is its number of negative weights divisible by w.  The +-w
weight slots are then split into two sides per level i:

    source side:  +w slots at sign=+1 points of F-index i,
                  -w slots at sign=-1 points of F-index i+1;
    target side:  +w slots at sign=-1 points of F-index i,
                  -w slots at sign=+1 points of F-index i+1.

Both sides must have equal cardinality (else the data is unrealizable or the
partition is wrong, reported as :class:`BalanceError`); sorting each side by
(point id, slot ordinal) and zipping gives the edges, labeled w.  A point
never occupies both sides of one level, so self-loops cannot arise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from fpkit.data import (
    FixedPointData,
    FixedPointDatum,
    Partition,
    default_isotropy_partition,
)


class BalanceError(ValueError):
    """Per-index balance violated at some (modulus, block, level)."""

    def __init__(
        self,
        modulus: int,
        block: tuple[str, ...],
        level: int,
        source_count: int,
        target_count: int,
    ):
        self.modulus = modulus
        self.block = block
        self.level = level
        self.source_count = source_count
        self.target_count = target_count
        super().__init__(
            f"per-index balance violated at modulus {modulus}, "
            f"block {list(block)}, level {level}: {source_count} source "
            f"slot(s) vs {target_count} target slot(s)"
        )

    def to_dict(self) -> dict:
        return {
            "error": "per-index balance violated",
            "modulus": self.modulus,
            "block": list(self.block),
            "level": self.level,
            "source_slots": self.source_count,
            "target_slots": self.target_count,
        }


#: Pairing patterns by (source sign, target sign): a source vertex always
#: contributes weight sign(source) * w, a target always -sign(target) * w.
_CASE_TAGS = {(1, -1): "a", (1, 1): "b", (-1, -1): "c", (-1, 1): "d"}


@dataclass(frozen=True, order=True)
class MatchingSlot:
    """One weight occurrence entering the matching.

    Sorting is by (point id, slot index); the slot index is the weight's
    position in the point's sorted weight tuple, which makes ties
    deterministic.
    """

    point_id: str
    slot_index: int


@dataclass(frozen=True)
class Edge:
    """A directed labeled edge; ids are sequential in construction order.

    ``block`` and ``case_tag`` record which isotropy block and which pairing
    pattern produced the edge; they are construction provenance and take no
    part in comparison or serialization.
    """

    edge_id: int
    source: str
    target: str
    label: int
    block: tuple[str, ...] = field(default=(), compare=False, repr=False)
    case_tag: str = field(default="", compare=False, repr=False)

    def to_dict(self) -> dict:
        return {"from": self.source, "to": self.target, "label": self.label}


def _canonical_edge_order(edge: Edge) -> tuple[str, str, int, int]:
    return (edge.source, edge.target, edge.label, edge.edge_id)


@dataclass(frozen=True)
class SignedMultigraph:
    """A directed labeled multigraph with signed vertices and no self-loops."""

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for vertex_id, sign in self.vertices:
            if vertex_id in seen:
                raise ValueError(f"duplicate vertex id {vertex_id!r}")
            seen.add(vertex_id)
            if sign not in (1, -1):
                raise ValueError(f"vertex {vertex_id!r} must have sign +1 or -1")
        for edge in self.edges:
            if edge.label < 1:
                raise ValueError(f"edge {edge.edge_id} has non-positive label")
            if edge.source not in seen or edge.target not in seen:
                raise ValueError(f"edge {edge.edge_id} references a missing vertex")
            if edge.source == edge.target:
                raise ValueError(f"edge {edge.edge_id} is a self-loop")

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(vertex_id for vertex_id, _ in self.vertices)

    def sign_of(self, vertex_id: str) -> int:
        for vid, sign in self.vertices:
            if vid == vertex_id:
                return sign
        raise KeyError(f"no vertex with id {vertex_id!r}")

    def degree(self, vertex_id: str) -> int:
        if vertex_id not in self.vertex_ids:
            raise KeyError(f"no vertex with id {vertex_id!r}")
        return sum(
            (edge.source == vertex_id) + (edge.target == vertex_id)
            for edge in self.edges
        )

    def to_dict(self) -> dict:
        return {
            "vertices": [
                {"id": vertex_id, "sign": sign} for vertex_id, sign in self.vertices
            ],
            "edges": [
                edge.to_dict()
                for edge in sorted(self.edges, key=_canonical_edge_order)
            ],
        }


def _f_index(point: FixedPointDatum, modulus: int) -> int:
    """Number of negative weights divisible by the modulus."""
    return sum(1 for w in point.weights if w < 0 and w % modulus == 0)


def _resolve_partition(
    data: FixedPointData,
    modulus: int,
    partitions: "Mapping[int, Partition] | None",
) -> Partition:
    if partitions is not None and modulus in partitions:
        return tuple(tuple(block) for block in partitions[modulus])
    return default_isotropy_partition(data, modulus)


def build_multigraph(
    data: FixedPointData,
    partitions: "Mapping[int, Partition] | None" = None,
) -> SignedMultigraph:
    """Construct a describing multigraph by the per-level matching.

    ``partitions`` overrides the isotropy partition per modulus; otherwise
    partitions stored in the data win, then residue-class grouping.  Raises
    :class:`BalanceError` when some (modulus, block, level) has unequal slot
    sides — the data cannot be realized with the given partitions.
    """
    vertices = tuple((p.id, p.sign) for p in data.points)
    edges: list[Edge] = []
    edge_id = 0
    for modulus in sorted({abs(w) for p in data.points for w in p.weights}):
        partition = _resolve_partition(data, modulus, partitions)
        for block in partition:
            members = [data.point(pid) for pid in block]
            sources: dict[int, list[MatchingSlot]] = {}
            targets: dict[int, list[MatchingSlot]] = {}
            for member in members:
                f_index = _f_index(member, modulus)
                for slot_index, w in enumerate(member.weights):
                    if w == modulus:
                        onto = sources if member.sign == 1 else targets
                        level = f_index
                    elif w == -modulus:
                        onto = sources if member.sign == -1 else targets
                        level = f_index - 1
                    else:
                        continue
                    onto.setdefault(level, []).append(MatchingSlot(member.id, slot_index))
            for level in sorted(set(sources) | set(targets)):
                source_side = sorted(sources.get(level, []))
                target_side = sorted(targets.get(level, []))
                if len(source_side) != len(target_side):
                    raise BalanceError(
                        modulus,
                        tuple(block),
                        level,
                        len(source_side),
                        len(target_side),
                    )
                for src, dst in zip(source_side, target_side):
                    # A point's slots on the two sides of a round always sit
                    # at different levels, so this cannot pair a point with
                    # itself.
                    assert src.point_id != dst.point_id
                    tag = _CASE_TAGS[
                        (data.point(src.point_id).sign, data.point(dst.point_id).sign)
                    ]
                    edges.append(
                        Edge(
                            edge_id,
                            src.point_id,
                            dst.point_id,
                            modulus,
                            tuple(block),
                            tag,
                        )
                    )
                    edge_id += 1
    return SignedMultigraph(vertices, tuple(edges))


@dataclass(frozen=True)
class DescribesResult:
    """Whether a graph describes a data set; witness explains a failure."""

    ok: bool
    witness: "dict | None" = None

    def __bool__(self) -> bool:
        return self.ok


def describes(
    graph: SignedMultigraph,
    data: FixedPointData,
    partitions: "Mapping[int, Partition] | None" = None,
) -> DescribesResult:
    """Check vertices, signs, and reconstructed weights against the data.

    When ``partitions`` is given, additionally require each edge's endpoints
    to share a block of the partition for the edge's label (moduli missing
    from the mapping fall back to the data's default partition).
    """
    graph_ids = graph.vertex_ids
    if sorted(graph_ids) != sorted(data.ids) or len(graph_ids) != len(data.ids):
        return DescribesResult(
            False,
            {
                "reason": "vertex set mismatch",
                "graph": sorted(graph_ids),
                "data": sorted(data.ids),
            },
        )
    for vertex_id, sign in graph.vertices:
        if sign != data.point(vertex_id).sign:
            return DescribesResult(
                False,
                {
                    "reason": "sign mismatch",
                    "id": vertex_id,
                    "graph": sign,
                    "data": data.point(vertex_id).sign,
                },
            )
    reconstructed: dict[str, list[int]] = {vertex_id: [] for vertex_id in graph_ids}
    for edge in graph.edges:
        reconstructed[edge.source].append(graph.sign_of(edge.source) * edge.label)
        reconstructed[edge.target].append(-graph.sign_of(edge.target) * edge.label)
    for point in data.points:
        rebuilt = tuple(sorted(reconstructed[point.id]))
        if rebuilt != point.weights:
            return DescribesResult(
                False,
                {
                    "reason": "weight mismatch",
                    "id": point.id,
                    "graph": list(rebuilt),
                    "data": list(point.weights),
                },
            )
    if partitions is not None:
        block_of: dict[int, dict[str, int]] = {}
        for edge in graph.edges:
            if edge.label not in block_of:
                partition = _resolve_partition(data, edge.label, partitions)
                block_of[edge.label] = {
                    pid: index
                    for index, block in enumerate(partition)
                    for pid in block
                }
            lookup = block_of[edge.label]
            if lookup[edge.source] != lookup[edge.target]:
                return DescribesResult(
                    False,
                    {
                        "reason": "edge endpoints in different isotropy blocks",
                        "edge": edge.edge_id,
                        "label": edge.label,
                        "endpoints": [edge.source, edge.target],
                    },
                )
    return DescribesResult(True)


def induced_data(
    graph: SignedMultigraph, n: int, name: str = ""
) -> FixedPointData:
    """Read fixed-point data off a graph (every vertex must have degree n)."""
    weights: dict[str, list[int]] = {vertex_id: [] for vertex_id in graph.vertex_ids}
    for edge in graph.edges:
        weights[edge.source].append(graph.sign_of(edge.source) * edge.label)
        weights[edge.target].append(-graph.sign_of(edge.target) * edge.label)
    for vertex_id, collected in weights.items():
        if len(collected) != n:
            raise ValueError(
                f"vertex {vertex_id!r} has degree {len(collected)}, expected {n}"
            )
    points = tuple(
        FixedPointDatum(vertex_id, sign, tuple(weights[vertex_id]))
        for vertex_id, sign in graph.vertices
    )
    return FixedPointData(name, n, points)


def sub_multigraph(graph: SignedMultigraph, modulus: int) -> SignedMultigraph:
    """Keep all vertices but only edges whose label is divisible by the modulus.

    The result encodes, per vertex, the weights divisible by the modulus;
    original edge ids are preserved.
    """
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    kept = tuple(edge for edge in graph.edges if edge.label % modulus == 0)
    return SignedMultigraph(graph.vertices, kept)


def export_dot(graph: SignedMultigraph) -> str:
    """Render as DOT with a pinned byte-stable layout.

    Vertices appear in input order as `"id" [label="id,+"];` (or `-`);
    edges are sorted by (source, target, label, edge id) and rendered as
    `"a" -> "b" [label="w"];`.
    """
    lines = ["digraph G {"]
    for vertex_id, sign in graph.vertices:
        marker = "+" if sign == 1 else "-"
        lines.append(f'  "{vertex_id}" [label="{vertex_id},{marker}"];')
    for edge in sorted(graph.edges, key=_canonical_edge_order):
        lines.append(f'  "{edge.source}" -> "{edge.target}" [label="{edge.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
