"""Bounded survey of small fixed-point data sets, and random graph data.

`survey` covers every data set within given bounds (k points, half-dimension
n, weight magnitudes up to W) in a deterministic order, tallies which checker
rejects each candidate and classifies the two-point survivors against the
three realizable shapes:

* ``dim2-samesign``  — n = 1, equal signs, weights {a} and {-a};
* ``dim6-samesign``  — n = 3, equal signs, weights {-a-b, a, b} and
  {-a, -b, a+b};
* ``mirror-oppositesign`` — opposite signs, identical weight multisets.

Two-point survivors that fit none of the shapes are flagged; within the
exercised bounds the flagged list is expected to stay empty, and its being
emitted (and stable run-to-run) is part of the survey's contract.

The weight-balance check is linear in the points, so the survey never lists
the unbalanced candidates: it joins (k-1)-point prefixes against an index of
point specs by balance vector, and counts the rest as ``weight_balance``
rejections.  Every other check is a sum of per-point integer terms too
(`fpkit.identities.spec_filters`), computed once per point spec; a balanced
candidate is a tuple of spec positions whose terms are summed, and only the
survivors are built as data.

`random_graph_data` produces seed-deterministic realizable data for
property tests and the benchmark; `random_multigraph` is its graph, a random
n-regular signed multigraph.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import namedtuple
from typing import Iterator, NamedTuple

from fpkit.data import FixedPointData, FixedPointDatum
from fpkit.identities import balance_term, spec_filters
from fpkit.multigraph import SignedMultigraph, build_multigraph
from fpkit.parallel import parallel_map

#: Checker names in evaluation order, used to key rejection tallies.
FILTER_NAMES = (
    "weight_balance",
    "hattori_parity",
    "odd_points_even_dim",
    "chern_sum",
    "min_weight_index_balance",
    "abbv_vanishing",
    "chern_class_map",
)

FLAG_TEXT = "outside the two-fixed-point classification"

#: Largest number of (k-1)-point prefixes, or of point specs, a survey may
#: walk: bounds beyond it are refused before any enumeration.  A survey walks
#: C(|U|+k-2, k-1) prefixes, where U is the set of point specs, at a few
#: microseconds each.
MAX_SURVEY_PREFIXES = 2_000_000


class SearchBounds(namedtuple("SearchBounds", "points half_dim max_weight")):
    """Enumeration bounds: k points, half-dimension n, weights up to W."""

    __slots__ = ()

    def __new__(cls, points: int, half_dim: int, max_weight: int):
        if points < 1:
            raise ValueError("need at least one point")
        if half_dim < 1:
            raise ValueError("half-dimension must be positive")
        if max_weight < 1:
            raise ValueError("maximum weight magnitude must be positive")
        return tuple.__new__(cls, (points, half_dim, max_weight))

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "dimension": 2 * self.half_dim,
            "max_weight": self.max_weight,
        }


class TrichotomyVerdict(namedtuple("TrichotomyVerdict", "case parameters")):
    """Classification of a two-point data set against the realizable shapes."""

    __slots__ = ()

    def __new__(cls, case: str, parameters: "tuple[int, ...] | None" = None):
        expected = {
            "dim2-samesign": 1,
            "dim6-samesign": 2,
            "mirror-oppositesign": 0,
            "none": 0,
        }
        if case not in expected:
            raise ValueError(f"unknown case {case!r}")
        count = len(parameters or ())
        if count != expected[case]:
            raise ValueError(f"case {case!r} takes {expected[case]} parameter(s)")
        return tuple.__new__(cls, (case, parameters))

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "parameters": list(self.parameters) if self.parameters else None,
        }


def _weight_multisets(n: int, max_weight: int) -> list[tuple[int, ...]]:
    values = [w for w in range(-max_weight, max_weight + 1) if w != 0]
    return list(itertools.combinations_with_replacement(values, n))


def _point_universe(bounds: SearchBounds) -> list[tuple[int, tuple[int, ...]]]:
    """All (sign, weights) specs a point may take, in canonical order."""
    multisets = _weight_multisets(bounds.half_dim, bounds.max_weight)
    return [(sign, weights) for sign in (-1, 1) for weights in multisets]


def _balance_vector(
    sign: int, weights: tuple[int, ...], max_weight: int
) -> tuple[int, ...]:
    """v[m - 1] = sign * (#m - #(-m)) for m = 1..W, the difference of the
    weight-balance term.

    A multiset of points passes ``weight_balance`` exactly when its vectors
    sum to zero.
    """
    term = balance_term(sign, weights, range(1, max_weight + 1))
    return tuple(plus - minus for plus, minus in zip(term[0::2], term[1::2]))


def _balanced_combinations(
    universe: list[tuple[int, tuple[int, ...]]], points: int, max_weight: int
) -> Iterator[tuple[int, ...]]:
    """The balanced `points`-multisets of `universe`, as position tuples.

    They come in the order of ``combinations_with_replacement(universe,
    points)``: the (k-1)-point prefixes of positions are walked in that
    order, and each is completed by the positions, not below its last one,
    whose vector cancels the prefix sum.
    """
    vectors = [_balance_vector(sign, weights, max_weight) for sign, weights in universe]
    positions: dict[tuple[int, ...], list[int]] = {}
    for index, vector in enumerate(vectors):
        positions.setdefault(vector, []).append(index)
    # zipping with `zero` keeps W columns when the prefix is empty (k = 1)
    zero = (0,) * max_weight
    prefixes = itertools.combinations_with_replacement(range(len(universe)), points - 1)
    for prefix in prefixes:
        summed = zip(zero, *(vectors[i] for i in prefix))
        wanted = tuple(-sum(column) for column in summed)
        matches = positions.get(wanted, ())
        start = bisect.bisect_left(matches, prefix[-1]) if prefix else 0
        for last in matches[start:]:
            yield prefix + (last,)


def _candidate(specs: tuple[tuple[int, tuple[int, ...]], ...], n: int) -> FixedPointData:
    points = tuple(
        FixedPointDatum(f"p{index + 1}", sign, weights)
        for index, (sign, weights) in enumerate(specs)
    )
    return FixedPointData("", n, points)


def trichotomy_match(data: FixedPointData) -> TrichotomyVerdict:
    """Match two-point data against the three realizable shapes."""
    if len(data.points) != 2:
        raise ValueError("classification applies to exactly two points")
    first, second = data.points
    if first.sign == second.sign:
        if data.n == 1:
            for x, y in ((first, second), (second, first)):
                a = x.weights[0]
                if a >= 1 and y.weights == (-a,):
                    return TrichotomyVerdict("dim2-samesign", (a,))
        if data.n == 3:
            for x, y in ((first, second), (second, first)):
                positives = sorted(w for w in x.weights if w > 0)
                if len(positives) != 2:
                    continue
                a, b = positives
                if x.weights == tuple(sorted((-a - b, a, b))) and y.weights == tuple(
                    sorted((-a, -b, a + b))
                ):
                    return TrichotomyVerdict("dim6-samesign", (a, b))
    elif first.weights == second.weights:
        return TrichotomyVerdict("mirror-oppositesign")
    return TrichotomyVerdict("none")


class SurveyReport(NamedTuple):
    """Aggregated outcome of a bounded survey."""

    bounds: SearchBounds
    candidates: int
    rejects: dict
    survivors: tuple[dict, ...]
    tallies: "dict | None"
    flagged: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "bounds": self.bounds.to_dict(),
            "candidates": self.candidates,
            "rejects": dict(self.rejects),
            "survivors": [dict(entry) for entry in self.survivors],
            "trichotomy": dict(self.tallies) if self.tallies is not None else None,
            "flagged": [dict(entry) for entry in self.flagged],
        }


def _survivor_entry(data: FixedPointData) -> dict:
    return {
        "points": [
            {"id": p.id, "sign": p.sign, "weights": list(p.weights)}
            for p in data.points
        ]
    }


def survey(bounds: SearchBounds) -> SurveyReport:
    """Run the identity suite over every candidate and classify survivors.

    Rejections are tallied by the first failing checker.  Unbalanced
    candidates are counted, not listed; the balanced ones are tested against
    every other check on their summed per-spec terms, and only the survivors
    are built as data.  For two-point bounds, survivors additionally get a shape
    verdict; survivors with verdict ``none`` are flagged.  The report is
    deterministic for given bounds.
    Raises ``ValueError`` when the bounds need more than
    ``MAX_SURVEY_PREFIXES`` prefixes or point specs.
    """
    # |U| = 2 * C(2W + n - 1, n), known before the universe is listed
    n, w = bounds.half_dim, bounds.max_weight
    size = 2 * math.comb(2 * w + n - 1, n)
    prefixes = math.comb(size + bounds.points - 2, bounds.points - 1)
    if max(size, prefixes) > MAX_SURVEY_PREFIXES:
        raise ValueError(
            f"survey too large: {size} point specs and {prefixes} prefixes "
            f"exceed the limit of {MAX_SURVEY_PREFIXES}"
        )
    universe = _point_universe(bounds)
    balanced = _balanced_combinations(universe, bounds.points, w)
    first_failure = spec_filters(universe, n)

    def evaluate(positions):
        return first_failure(positions), positions

    results = parallel_map(evaluate, balanced)

    candidates = math.comb(size + bounds.points - 1, bounds.points)
    rejects = {name: 0 for name in FILTER_NAMES}
    rejects["weight_balance"] = candidates - len(results)
    survivors: list[dict] = []
    flagged: list[dict] = []
    classify_pairs = bounds.points == 2
    tallies = (
        {case: 0 for case in ("dim2-samesign", "dim6-samesign", "mirror-oppositesign", "none")}
        if classify_pairs
        else None
    )
    for name, positions in results:
        if name is not None:
            rejects[name] += 1
            continue
        data = _candidate(tuple(universe[i] for i in positions), n)
        entry = _survivor_entry(data)
        if classify_pairs:
            verdict = trichotomy_match(data)
            tallies[verdict.case] += 1
            entry["verdict"] = verdict.case
            entry["parameters"] = (
                list(verdict.parameters) if verdict.parameters else None
            )
            if verdict.case == "none":
                flagged_entry = dict(entry)
                flagged_entry["flag"] = FLAG_TEXT
                flagged.append(flagged_entry)
        survivors.append(entry)
    return SurveyReport(
        bounds=bounds,
        candidates=candidates,
        rejects=rejects,
        survivors=tuple(survivors),
        tallies=tallies,
        flagged=tuple(flagged),
    )


# -- random graph data -----------------------------------------------------
#
# Random data is sampled from the realizable family: it is composed out of
# building blocks that actual manifolds exhibit (mirror pairs, rotation
# spheres, the dim-6 two-point shape, projective-space weight systems) glued
# by disjoint union and cartesian product.  Realizable data balances its
# slots on each isotropy component, hence on each residue block (a union of
# components), so `build_multigraph` always succeeds on it; tests pin that and
# the graph round trip.  A uniform configuration-model draw would almost never
# balance beyond the smallest shapes.

#: (sign, sorted weights) for one point; a block is a tuple of such specs.
_Block = tuple[tuple[int, tuple[int, ...]], ...]


def _nonzero(rng: random.Random, max_weight: int) -> int:
    magnitude = rng.randint(1, max_weight)
    return magnitude if rng.random() < 0.5 else -magnitude


def _mirror_block(rng: random.Random, n: int, max_weight: int) -> _Block:
    """Two points, opposite signs, identical weights: always realizable."""
    weights = tuple(sorted(_nonzero(rng, max_weight) for _ in range(n)))
    first = rng.choice((1, -1))
    return ((first, weights), (-first, weights))


def _sphere_block(rng: random.Random, max_weight: int) -> _Block:
    """A rotation two-sphere: weights {a} and {-a}, equal signs."""
    a = rng.randint(1, max_weight)
    sign = rng.choice((1, -1))
    return ((sign, (a,)), (sign, (-a,)))


def _dim6_block(rng: random.Random, max_weight: int) -> _Block:
    """The six-dimensional two-point shape {-a-b,a,b} / {-a,-b,a+b}."""
    a = rng.randint(1, max_weight - 1)
    b = rng.randint(1, max_weight - a)
    sign = rng.choice((1, -1))
    left = (sign, tuple(sorted((-a - b, a, b))))
    right = (sign, tuple(sorted((-a, -b, a + b))))
    return (left, right) if rng.random() < 0.5 else (right, left)


def _projective_block(rng: random.Random, m: int, max_weight: int) -> _Block:
    """The m+1 fixed points of a linear circle action on projective m-space.

    With pairwise distinct exponents a_0..a_m, point i has weights
    {a_j - a_i : j != i}; magnitudes stay within max_weight because the
    exponents are drawn from [0, max_weight].
    """
    exponents = rng.sample(range(max_weight + 1), m + 1)
    return tuple(
        (1, tuple(sorted(b - a for b in exponents if b != a)))
        for a in exponents
    )


def _union(left: _Block, right: _Block) -> _Block:
    return left + right


def _product(left: _Block, right: _Block) -> _Block:
    return tuple(
        (ls * rs, tuple(sorted(lw + rw)))
        for ls, lw in left
        for rs, rw in right
    )


def _shape_options(points: int, half_dim: int, max_weight: int) -> list:
    """Concrete composition plans for a (points, half_dim) shape, if any."""
    options: list = []
    if points == 2:
        options.append(("mirror", half_dim))
        if half_dim == 1:
            options.append(("sphere",))
        if half_dim == 3 and max_weight >= 2:
            options.append(("dim6",))
    if points == half_dim + 1 and half_dim >= 2 and max_weight >= half_dim:
        options.append(("projective", half_dim))
    for left_points in range(2, points - 1):
        right_points = points - left_points
        if _feasible(left_points, half_dim, max_weight) and _feasible(
            right_points, half_dim, max_weight
        ):
            options.append(("union", left_points, right_points))
    for left_points in range(2, points):
        if points % left_points != 0:
            continue
        right_points = points // left_points
        if right_points < 2:
            continue
        for left_dim in range(1, half_dim):
            right_dim = half_dim - left_dim
            if _feasible(left_points, left_dim, max_weight) and _feasible(
                right_points, right_dim, max_weight
            ):
                options.append(
                    ("product", left_points, left_dim, right_points, right_dim)
                )
    return options


def _feasible(points: int, half_dim: int, max_weight: int) -> bool:
    if points < 2 or half_dim < 1 or (points * half_dim) % 2 != 0:
        return False
    return bool(_shape_options(points, half_dim, max_weight))


def _compose(
    rng: random.Random, points: int, half_dim: int, max_weight: int
) -> _Block:
    plans = _shape_options(points, half_dim, max_weight)
    if not plans:
        raise ValueError(
            f"no realizable composition for {points} points in dimension "
            f"{2 * half_dim} with weights up to {max_weight}"
        )
    plan = rng.choice(plans)
    kind = plan[0]
    if kind == "mirror":
        return _mirror_block(rng, plan[1], max_weight)
    if kind == "sphere":
        return _sphere_block(rng, max_weight)
    if kind == "dim6":
        return _dim6_block(rng, max_weight)
    if kind == "projective":
        return _projective_block(rng, plan[1], max_weight)
    if kind == "union":
        left = _compose(rng, plan[1], half_dim, max_weight)
        right = _compose(rng, plan[2], half_dim, max_weight)
        return _union(left, right)
    left = _compose(rng, plan[1], plan[2], max_weight)
    right = _compose(rng, plan[3], plan[4], max_weight)
    return _product(left, right)


def random_graph_data(
    seed: int, points: int, half_dim: int, max_label: int
) -> FixedPointData:
    """Seed-deterministic realizable data, composed as the comment above says.

    Raises ``ValueError`` for impossible shapes: points * half_dim odd, a
    single vertex, or no composition within the label bound (3 points in
    dimension 4 need labels up to 2, 5 points in dimension 8 up to 4).
    """
    if half_dim < 1:
        raise ValueError("half-dimension must be positive")
    if max_label < 1:
        raise ValueError("maximum label must be positive")
    if points == 1:
        raise ValueError("a single vertex cannot carry loop-free edges")
    if points < 1:
        raise ValueError("need at least one vertex")
    if (points * half_dim) % 2 != 0:
        raise ValueError("points * half_dim must be even to pair all weight slots")
    rng = random.Random(seed)
    specs = list(_compose(rng, points, half_dim, max_label))
    rng.shuffle(specs)
    return FixedPointData(
        f"random-k{points}-n{half_dim}-w{max_label}-seed{seed}",
        half_dim,
        tuple(
            FixedPointDatum(f"p{index + 1}", sign, weights)
            for index, (sign, weights) in enumerate(specs)
        ),
    )


def random_multigraph(
    seed: int, points: int, half_dim: int, max_label: int
) -> SignedMultigraph:
    """The graph of `random_graph_data`, an n-regular signed multigraph."""
    return build_multigraph(random_graph_data(seed, points, half_dim, max_label))
