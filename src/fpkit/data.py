"""Data model for signed fixed-point data and its pinned JSON format.

A datum is a fixed point with a sign (+1 or -1) and exactly n nonzero integer
weights, where 2n is the ambient dimension.  A data set bundles finitely many
such points, and may additionally record, per modulus w, a partition of the
point ids into "isotropy components": groups of points expected to lie on a
common component of the w-torsion fixed locus.

The JSON format (canonical serialization is byte-stable):

    {
      "name": "...",
      "dimension": 2n,
      "fixed_points": [
        {"id": "p", "sign": 1, "weights": [-3, 1, 2]},
        ...
      ],
      "isotropy_components": {"3": [["p", "q"]]}
    }

Keys appear in exactly that order, weights are sorted ascending, and the
optional ``isotropy_components`` object is omitted when empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence


class DataFormatError(ValueError):
    """Raised when a JSON document does not satisfy the data format."""


Partition = tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class FixedPointDatum:
    """One fixed point: an id, a sign, and its sorted nonzero weights."""

    id: str
    sign: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise DataFormatError(f"sign must be +1 or -1 at {self.id!r}")
        if any(w == 0 for w in self.weights):
            raise DataFormatError(f"zero weight at {self.id!r}")
        object.__setattr__(self, "weights", tuple(sorted(self.weights)))

    @property
    def index(self) -> int:
        """Number of negative weights."""
        return sum(1 for w in self.weights if w < 0)

    @property
    def chern_value(self) -> int:
        """Sum of the weights."""
        return sum(self.weights)

    def multiplicity(self, w: int) -> int:
        """How many times the (signed) weight w occurs."""
        if w == 0:
            raise ValueError("weight multiplicity is only defined for nonzero w")
        return self.weights.count(w)


@dataclass(frozen=True)
class FixedPointData:
    """A named collection of fixed points in a common dimension 2n."""

    name: str
    half_dim: int
    points: tuple[FixedPointDatum, ...]
    isotropy_components: Mapping[int, Partition] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.half_dim < 1:
            raise DataFormatError("dimension must be a positive even integer")
        seen: set[str] = set()
        for point in self.points:
            if point.id in seen:
                raise DataFormatError(f"duplicate id {point.id!r}")
            seen.add(point.id)
            if len(point.weights) != self.half_dim:
                raise DataFormatError(
                    f"dimension mismatch at {point.id!r}: expected "
                    f"{self.half_dim} weights, got {len(point.weights)}"
                )
        for modulus, partition in self.isotropy_components.items():
            _check_partition_shape(modulus, partition, seen)

    @property
    def n(self) -> int:
        """Half the dimension; every point has exactly n weights."""
        return self.half_dim

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.points)

    @cached_property
    def _by_id(self) -> dict[str, FixedPointDatum]:
        return {p.id: p for p in self.points}

    def point(self, point_id: str) -> FixedPointDatum:
        try:
            return self._by_id[point_id]
        except KeyError:
            raise KeyError(f"no fixed point with id {point_id!r}") from None

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def reversed(self) -> "FixedPointData":
        """The same data with every weight negated.

        Residues mod w are negated along with the weights, so congruence of
        isotropy components is preserved and the partitions are kept.
        """
        flipped = tuple(
            FixedPointDatum(p.id, p.sign, tuple(-w for w in p.weights))
            for p in self.points
        )
        return FixedPointData(
            self.name, self.half_dim, flipped, dict(self.isotropy_components)
        )


def _check_partition_shape(
    modulus: int, partition: Sequence[Sequence[str]], ids: set[str]
) -> None:
    if modulus < 1:
        raise DataFormatError(f"malformed partition: modulus {modulus} is not positive")
    if not all(partition):
        raise DataFormatError(f"malformed partition for modulus {modulus}: empty block")
    covered: list[str] = [pid for block in partition for pid in block]
    if sorted(covered) != sorted(ids):
        raise DataFormatError(
            f"malformed partition for modulus {modulus}: blocks must cover "
            "every id exactly once"
        )


# -- parsing ---------------------------------------------------------------


def _reject_unknown_keys(entry: dict, known: tuple[str, ...], where: str) -> None:
    for key in entry:
        if key not in known:
            raise DataFormatError(f"unknown key {key!r}{where}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` object hook: a key repeated in one object is an error."""
    entry: dict = {}
    for key, value in pairs:
        if key in entry:
            raise DataFormatError(f"repeated key {key!r}")
        entry[key] = value
    return entry


def parse_data(text: "str | bytes") -> FixedPointData:
    """Parse a JSON document into a :class:`FixedPointData`.

    Raises :class:`DataFormatError` for structural problems (unknown or
    repeated keys, non-even dimension, zero weights, duplicate ids,
    weight-count mismatches, malformed partitions, modulus keys not in plain
    decimal form) and ``json.JSONDecodeError`` for unparseable text.
    """
    raw = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(raw, dict):
        raise DataFormatError("top-level JSON value must be an object")
    _reject_unknown_keys(
        raw, ("name", "dimension", "fixed_points", "isotropy_components"), ""
    )

    name = raw.get("name", "")
    if not isinstance(name, str):
        raise DataFormatError("name must be a string")

    dimension = raw.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise DataFormatError("dimension must be an integer")
    if dimension < 2 or dimension % 2 != 0:
        raise DataFormatError("dimension must be a positive even integer")
    n = dimension // 2

    raw_points = raw.get("fixed_points")
    if not isinstance(raw_points, list):
        raise DataFormatError("fixed_points must be a list")
    points = []
    for entry in raw_points:
        if not isinstance(entry, dict):
            raise DataFormatError("each fixed point must be an object")
        pid = entry.get("id")
        if not isinstance(pid, str) or not pid:
            raise DataFormatError("each fixed point needs a nonempty string id")
        _reject_unknown_keys(entry, ("id", "sign", "weights"), f" at {pid!r}")
        sign = entry.get("sign")
        if sign not in (1, -1) or isinstance(sign, bool):
            raise DataFormatError(f"sign must be +1 or -1 at {pid!r}")
        weights = entry.get("weights")
        if not isinstance(weights, list) or not all(
            isinstance(w, int) and not isinstance(w, bool) for w in weights
        ):
            raise DataFormatError(f"weights must be a list of integers at {pid!r}")
        points.append(FixedPointDatum(pid, sign, tuple(weights)))

    components: dict[int, Partition] = {}
    raw_components = raw.get("isotropy_components", {})
    if not isinstance(raw_components, dict):
        raise DataFormatError("isotropy_components must be an object")
    for key, blocks in raw_components.items():
        try:
            modulus = int(key)
        except ValueError:
            raise DataFormatError(
                f"malformed partition: modulus key {key!r} is not an integer"
            ) from None
        if key != str(modulus):
            raise DataFormatError(
                f"malformed partition: modulus key {key!r} is not in plain "
                "decimal form"
            )
        if not isinstance(blocks, list) or not all(
            isinstance(block, list) and all(isinstance(pid, str) for pid in block)
            for block in blocks
        ):
            raise DataFormatError(
                f"malformed partition for modulus {modulus}: expected a list "
                "of lists of ids"
            )
        components[modulus] = tuple(tuple(block) for block in blocks)

    return FixedPointData(name, n, tuple(points), components)


def load_data(path) -> FixedPointData:
    """Read and parse a data file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_data(handle.read())


def serialize_data(data: FixedPointData) -> str:
    """Canonical JSON serialization (stable bytes for equal data)."""
    doc: dict = {
        "name": data.name,
        "dimension": 2 * data.half_dim,
        "fixed_points": [
            {"id": p.id, "sign": p.sign, "weights": list(p.weights)}
            for p in data.points
        ],
    }
    if data.isotropy_components:
        doc["isotropy_components"] = {
            str(modulus): [list(block) for block in data.isotropy_components[modulus]]
            for modulus in sorted(data.isotropy_components)
        }
    return json.dumps(doc, indent=2) + "\n"


# -- isotropy partitions ---------------------------------------------------


def residue_signature(point: FixedPointDatum, modulus: int) -> tuple[int, ...]:
    """Sorted multiset of the point's weights reduced mod the modulus."""
    return tuple(sorted(w % modulus for w in point.weights))


def default_isotropy_partition(data: FixedPointData, modulus: int) -> Partition:
    """Partition of the ids used for the modulus-w matching.

    A partition stored in the data file wins; otherwise points are grouped by
    the multiset of their weights mod w (two points on a common w-torsion
    component must agree there, so the residue classes are the coarsest safe
    default).  Blocks appear in order of first appearance.
    """
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    stored = data.isotropy_components.get(modulus)
    if stored is not None:
        return stored
    blocks: dict[tuple[int, ...], list[str]] = {}
    for point in data.points:
        blocks.setdefault(residue_signature(point, modulus), []).append(point.id)
    return tuple(tuple(block) for block in blocks.values())


@dataclass(frozen=True)
class CongruenceResult:
    """Outcome of checking one partition for residue congruence."""

    passed: bool
    modulus: int
    offending: "tuple[str, str] | None" = None

    def __bool__(self) -> bool:
        return self.passed


def check_congruence(
    data: FixedPointData, modulus: int, partition: Sequence[Sequence[str]]
) -> CongruenceResult:
    """Check that every block's members have congruent weights mod the modulus.

    Two points are congruent when their weight multisets agree after reduction
    mod w.  Returns the first offending pair if any block mixes residues.
    """
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    _check_partition_shape(modulus, partition, set(data.ids))
    for block in partition:
        first = data.point(block[0])
        expected = residue_signature(first, modulus)
        for pid in block[1:]:
            if residue_signature(data.point(pid), modulus) != expected:
                return CongruenceResult(False, modulus, (first.id, pid))
    return CongruenceResult(True, modulus)
