"""Signed directed labeled multigraphs encoding fixed-point data.

A graph vertex is a fixed point with its sign; an edge carries a positive
integer label w.  An edge e from r to s encodes one weight at each endpoint:

    r (initial) gets  sign(r) * w(e),      s (terminal) gets  -sign(s) * w(e).

A graph *describes* a data set when vertices, signs, and the reconstructed
weight multisets all match (and, when the data stores isotropy components,
each edge's endpoints share an isotropy block for the edge's label).

`build_multigraph` constructs such a graph from data by a deterministic
matching.  For every weight magnitude w and every block F of the isotropy
partition (`default_isotropy_partition`), each member's F-index is its number
of negative weights divisible by w.  The +-w weight slots are then split into
two sides per level i:

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

from collections import namedtuple
from typing import NamedTuple

from fpkit.data import (
    FixedPointData,
    FixedPointDatum,
    default_isotropy_partition,
    residue_signature,
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


class Edge(NamedTuple):
    """A directed labeled edge; ids are sequential in construction order."""

    edge_id: int
    source: str
    target: str
    label: int

    def to_dict(self) -> dict:
        return {"from": self.source, "to": self.target, "label": self.label}


def _canonical_edge_order(edge: Edge) -> tuple[str, str, int, int]:
    return (edge.source, edge.target, edge.label, edge.edge_id)


class SignedMultigraph(namedtuple("SignedMultigraph", "vertices edges")):
    """A directed labeled multigraph with signed vertices and no self-loops."""

    __slots__ = ()

    def __new__(
        cls, vertices: tuple[tuple[str, int], ...], edges: tuple[Edge, ...]
    ):
        seen: set[str] = set()
        for vertex_id, sign in vertices:
            if vertex_id in seen:
                raise ValueError(f"duplicate vertex id {vertex_id!r}")
            seen.add(vertex_id)
            if sign not in (1, -1):
                raise ValueError(f"vertex {vertex_id!r} must have sign +1 or -1")
        for edge in edges:
            if edge.label < 1:
                raise ValueError(f"edge {edge.edge_id} has non-positive label")
            if edge.source not in seen or edge.target not in seen:
                raise ValueError(f"edge {edge.edge_id} references a missing vertex")
            if edge.source == edge.target:
                raise ValueError(f"edge {edge.edge_id} is a self-loop")
        return tuple.__new__(cls, (vertices, edges))

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


def _block_ordinals(partition: tuple) -> dict[str, int]:
    """Point id -> ordinal of its block in the partition."""
    return {pid: ordinal for ordinal, block in enumerate(partition) for pid in block}


def _residue_ordinals(data: FixedPointData, modulus: int) -> dict[str, int]:
    """Point id -> ordinal of its residue block, for the points with a weight
    divisible by the modulus.

    A point with a weight +-modulus has the residue 0, so only such points
    share its block: numbering the blocks by first appearance among them
    keeps the order of `default_isotropy_partition`'s blocks that hold a
    +-modulus slot.
    """
    ordinals: dict[tuple[int, ...], int] = {}
    block_of: dict[str, int] = {}
    for p in data.points:
        signature = residue_signature(p, modulus)
        if signature[0] == 0:
            block_of[p.id] = ordinals.setdefault(signature, len(ordinals))
    return block_of


def build_multigraph(data: FixedPointData) -> SignedMultigraph:
    """Construct a describing multigraph by the per-level matching.

    Magnitudes are matched in ascending order.  Each weight slot of a
    magnitude is filed under (block ordinal, level), and the keys are
    matched in sorted order.  Raises :class:`BalanceError` at the first key
    with unequal slot sides, without looking at later magnitudes: the data
    cannot be realized with those partitions.  A residue partition is built
    in full only for a block that is reported.
    """
    # modulus -> [(point, slot index, weight)], points in data order
    slots: dict[int, list[tuple[FixedPointDatum, int, int]]] = {}
    for point in data.points:
        for slot_index, w in enumerate(point.weights):
            slots.setdefault(abs(w), []).append((point, slot_index, w))
    edges: list[Edge] = []
    for modulus in sorted(slots):
        stored = data.isotropy_components.get(modulus)
        block_of = (
            _block_ordinals(stored)
            if stored is not None
            else _residue_ordinals(data, modulus)
        )
        # (block ordinal, level) -> (source slots, target slots); a slot is
        # (point id, position in the point's sorted weights), so ties sort
        # stably
        sides: dict[tuple[int, int], tuple[list, list]] = {}
        for point, slot_index, w in slots[modulus]:
            key = (block_of[point.id], _f_index(point, modulus) - (w < 0))
            on_target = (w > 0) != (point.sign == 1)
            sides.setdefault(key, ([], []))[on_target].append((point.id, slot_index))
        for key in sorted(sides):
            source_side, target_side = map(sorted, sides[key])
            if len(source_side) != len(target_side):
                member = (source_side or target_side)[0][0]
                block = next(
                    block
                    for block in default_isotropy_partition(data, modulus)
                    if member in block
                )
                raise BalanceError(
                    modulus, tuple(block), key[1], len(source_side), len(target_side)
                )
            for (src, _), (dst, _) in zip(source_side, target_side):
                edges.append(Edge(len(edges), src, dst, modulus))
    return SignedMultigraph(tuple((p.id, p.sign) for p in data.points), tuple(edges))


class DescribesResult(NamedTuple):
    """Whether a graph describes a data set; witness explains a failure."""

    ok: bool
    witness: "dict | None" = None

    def __bool__(self) -> bool:
        return self.ok


def _endpoint_weights(graph: SignedMultigraph) -> dict[str, list[int]]:
    """Per-vertex weights read off the edges, in edge order."""
    signs = dict(graph.vertices)
    weights: dict[str, list[int]] = {vertex_id: [] for vertex_id in signs}
    for edge in graph.edges:
        weights[edge.source].append(signs[edge.source] * edge.label)
        weights[edge.target].append(-signs[edge.target] * edge.label)
    return weights


def describes(graph: SignedMultigraph, data: FixedPointData) -> DescribesResult:
    """Check vertices, signs, and reconstructed weights against the data.

    When the data stores isotropy components, additionally require each
    edge's endpoints to share a block of `default_isotropy_partition` for
    the edge's label.
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
    reconstructed = _endpoint_weights(graph)
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
    if data.isotropy_components:
        block_of = {
            label: _block_ordinals(default_isotropy_partition(data, label))
            for label in {edge.label for edge in graph.edges}
        }
        for edge in graph.edges:
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
    weights = _endpoint_weights(graph)
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
