"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from fpkit.algebra import Polynomial, _exact_div
from fpkit.data import (
    FixedPointData,
    FixedPointDatum,
    default_isotropy_partition,
    load_data,
)
from fpkit.identities import AbbvValue, ChernAnalysis, CheckOutcome
from fpkit.multigraph import BalanceError, Edge, SignedMultigraph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
ALL_FIXTURES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


def make_data(half_dim, points, name="test", isotropy=None):
    """Build FixedPointData from (id, sign, weights) triples."""
    return FixedPointData(
        name,
        half_dim,
        tuple(FixedPointDatum(i, s, tuple(w)) for i, s, w in points),
        isotropy or {},
    )


@functools.cache
def cyclotomic(d: int) -> Polynomial:
    """Phi_d, by exact division of t^d - 1 by Phi_e for every proper divisor e."""
    poly = Polynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            poly = _exact_div(poly, cyclotomic(e))
    return poly


def dim6(b: int) -> FixedPointData:
    """The six-dimensional two-point datum {-1-b, 1, b} / {-1, -b, 1+b}."""
    return make_data(3, [("p", 1, (-1 - b, 1, b)), ("q", 1, (-1, -b, 1 + b))], f"dim6-b{b}")


def flipped(data: FixedPointData, index: int = 0) -> FixedPointData:
    """A copy with one point's sign flipped: its genus sum is not constant."""
    points = tuple(
        FixedPointDatum(p.id, -p.sign if k == index else p.sign, p.weights)
        for k, p in enumerate(data.points)
    )
    return FixedPointData(f"{data.name}-flip{index}", data.n, points)


def sample_multigraph(
    rng: random.Random, points: int, degree: int, max_label: int
) -> "SignedMultigraph | None":
    """One unfiltered configuration-model draw; None on a self-loop.

    Such graphs satisfy the balance and Chern-sum identities but usually
    cannot be rebuilt by the per-level matching.
    """
    vertices = tuple(
        (f"p{index + 1}", rng.choice((1, -1))) for index in range(points)
    )
    stubs = [index for index in range(points) for _ in range(degree)]
    rng.shuffle(stubs)
    edges: list[Edge] = []
    for edge_id, position in enumerate(range(0, len(stubs), 2)):
        left, right = stubs[position], stubs[position + 1]
        if left == right:
            return None
        label = rng.randint(1, max_label)
        if rng.random() < 0.5:
            left, right = right, left
        edges.append(Edge(edge_id, vertices[left][0], vertices[right][0], label))
    return SignedMultigraph(vertices, tuple(edges))


def reference_multigraph(data: FixedPointData) -> SignedMultigraph:
    """The per-level matching as nested loops: moduli ascending, then blocks
    of each modulus's isotropy partition, then members, then weights.

    `fpkit.multigraph.build_multigraph` must agree with it edge for edge,
    and on which unbalanced (modulus, block, level) it reports.
    """
    edges: list[Edge] = []
    for modulus in sorted({abs(w) for p in data.points for w in p.weights}):
        for block in default_isotropy_partition(data, modulus):
            sources: dict[int, list[tuple[str, int]]] = {}
            targets: dict[int, list[tuple[str, int]]] = {}
            for member in (data.point(pid) for pid in block):
                f_index = sum(1 for w in member.weights if w < 0 and w % modulus == 0)
                for slot_index, w in enumerate(member.weights):
                    if w == modulus:
                        onto = sources if member.sign == 1 else targets
                        level = f_index
                    elif w == -modulus:
                        onto = sources if member.sign == -1 else targets
                        level = f_index - 1
                    else:
                        continue
                    onto.setdefault(level, []).append((member.id, slot_index))
            for level in sorted(set(sources) | set(targets)):
                source_side = sorted(sources.get(level, []))
                target_side = sorted(targets.get(level, []))
                if len(source_side) != len(target_side):
                    raise BalanceError(
                        modulus, tuple(block), level, len(source_side), len(target_side)
                    )
                for (src, _), (dst, _) in zip(source_side, target_side):
                    edges.append(Edge(len(edges), src, dst, modulus))
    return SignedMultigraph(tuple((p.id, p.sign) for p in data.points), tuple(edges))


# -- Fraction references for the localization sums --------------------------
#
# fpkit sums the localization terms as integers over a common denominator;
# these are the direct `Fraction` sums it replaced, kept as an independent
# cross-check.


def _weight_product(point: FixedPointDatum) -> int:
    product = 1
    for w in point.weights:
        product *= w
    return product


def reference_abbv_c1_power(data: FixedPointData, power: int) -> AbbvValue:
    """sum_p eps(p) * c1(p)^power / prod(weights), summed as Fractions."""
    total = Fraction(0)
    for p in data.points:
        total += Fraction(p.sign * p.chern_value**power, _weight_product(p))
    return AbbvValue(power, total)


def reference_chern_map_analysis(data: FixedPointData) -> ChernAnalysis:
    """The Chern-map classes and their Fraction localization sums."""
    groups: dict[int, list[str]] = {}
    sums: dict[int, Fraction] = {}
    for p in data.points:
        value = p.chern_value
        groups.setdefault(value, []).append(p.id)
        sums[value] = sums.get(value, Fraction(0)) + Fraction(p.sign, _weight_product(p))
    classes = tuple(
        (value, tuple(groups[value]), sums[value]) for value in sorted(groups)
    )
    distinct = len(classes)
    zero_required = 0 < distinct <= data.n
    violations = (
        tuple(value for value, _, total in classes if total != 0)
        if zero_required
        else ()
    )
    somewhere_injective = any(len(ids) == 1 for _, ids, _ in classes)
    lower_bound = data.n + 1 if somewhere_injective else None
    bound_met = len(data.points) >= lower_bound if somewhere_injective else None
    return ChernAnalysis(
        classes=classes,
        distinct_values=distinct,
        zero_required=zero_required,
        violations=violations,
        somewhere_injective=somewhere_injective,
        lower_bound=lower_bound,
        bound_met=bound_met,
    )


def reference_check_abbv_vanishing(data: FixedPointData) -> CheckOutcome:
    for j in range(data.n):
        value = reference_abbv_c1_power(data, j).value
        if value != 0:
            return CheckOutcome("abbv_vanishing", False, {"power": j, "value": str(value)})
    return CheckOutcome("abbv_vanishing", True)


def reference_check_chern_classes(data: FixedPointData) -> CheckOutcome:
    analysis = reference_chern_map_analysis(data)
    if analysis.zero_required and analysis.violations:
        return CheckOutcome(
            "chern_class_map",
            False,
            {
                "reason": "class sum must vanish",
                "values": list(analysis.violations),
                "distinct_values": analysis.distinct_values,
            },
        )
    if analysis.somewhere_injective and not analysis.bound_met:
        return CheckOutcome(
            "chern_class_map",
            False,
            {
                "reason": "somewhere-injective map needs at least n + 1 points",
                "lower_bound": analysis.lower_bound,
                "points": len(data.points),
            },
        )
    return CheckOutcome("chern_class_map", True)


@pytest.fixture(scope="session")
def s2_a1():
    return load_data(fixture_path("s2_a1"))


@pytest.fixture(scope="session")
def s2_a3():
    return load_data(fixture_path("s2_a3"))


@pytest.fixture(scope="session")
def s6():
    return load_data(fixture_path("s6_a1_b2"))


@pytest.fixture(scope="session")
def s2n():
    return load_data(fixture_path("s2n_n4"))


@pytest.fixture(scope="session")
def s8():
    return load_data(fixture_path("s8"))


@pytest.fixture(scope="session")
def semifree():
    return load_data(fixture_path("s2n_semifree_n4"))


# -- hypothesis strategies ---------------------------------------------------

coefficients_st = st.integers(min_value=-8, max_value=8)

polynomials_st = st.lists(coefficients_st, min_size=0, max_size=5).map(Polynomial)

nonzero_polynomials_st = polynomials_st.filter(lambda p: not p.is_zero)

nonzero_weight_st = st.integers(min_value=-4, max_value=4).filter(bool)


@st.composite
def data_st(draw, min_points=1, max_points=4, max_half_dim=3, weights=nonzero_weight_st):
    """Arbitrary fixed-point data; satisfies no identity by construction."""
    n = draw(st.integers(min_value=1, max_value=max_half_dim))
    k = draw(st.integers(min_value=min_points, max_value=max_points))
    points = tuple(
        FixedPointDatum(
            f"p{index + 1}",
            draw(st.sampled_from((1, -1))),
            tuple(draw(weights) for _ in range(n)),
        )
        for index in range(k)
    )
    return FixedPointData("random", n, points)


@st.composite
def paired_data_st(draw, points, half_dim, max_weight, balanced=True):
    """Data whose k * n weight slots are matched in pairs of equal magnitude.

    Every pair adds 2 to the total of its magnitude, so the data passes
    `hattori_parity`.  With ``balanced`` the second slot's weight is chosen
    so that the pair's signed counts cancel (sign(q) * sign(w_q) =
    -sign(p) * sign(w_p)), so the data passes `weight_balance`.  Every datum
    passing the respective check arises this way: match the slots of each
    magnitude that cancel (for balance) or just pair them up (for parity).
    ``points * half_dim`` must be even.
    """
    signs = [draw(st.sampled_from((1, -1))) for _ in range(points)]
    slots = draw(st.permutations([p for p in range(points) for _ in range(half_dim)]))
    weights: list[list[int]] = [[] for _ in range(points)]
    for first, second in zip(slots[0::2], slots[1::2]):
        w = draw(st.integers(1, max_weight)) * draw(st.sampled_from((1, -1)))
        weights[first].append(w)
        if balanced:
            # contributions sign * sign(w) must cancel: choose the sign of
            # the second weight accordingly
            weights[second].append(-w * signs[first] * signs[second])
        else:
            weights[second].append(w * draw(st.sampled_from((1, -1))))
    return FixedPointData(
        "paired",
        half_dim,
        tuple(
            FixedPointDatum(f"p{index + 1}", signs[index], tuple(weights[index]))
            for index in range(points)
        ),
    )


@st.composite
def paired_shape_st(draw, max_points=6, max_half_dim=4, max_weight=5, balanced=True):
    """`paired_data_st` at a drawn shape (k, n) with k * n even."""
    n = draw(st.integers(1, max_half_dim))
    k = draw(st.sampled_from([k for k in range(1, max_points + 1) if k * n % 2 == 0]))
    return draw(paired_data_st(k, n, max_weight, balanced))


@st.composite
def partitioned_st(draw, data):
    """`data` with random valid isotropy partitions stored for some of its
    weight magnitudes (and one modulus no weight has): every id in exactly
    one nonempty block, blocks in random order, residues ignored."""
    ids = list(data.ids)
    magnitudes = sorted({abs(w) for p in data.points for w in p.weights} | {7})
    components = {}
    for modulus in draw(st.lists(st.sampled_from(magnitudes), unique=True)):
        most = draw(st.integers(0, len(ids) - 1))
        labels = [draw(st.integers(0, most)) for _ in ids]
        order = draw(st.permutations(sorted(set(labels))))
        components[modulus] = tuple(
            tuple(pid for pid, label in zip(ids, labels) if label == wanted)
            for wanted in order
        )
    return FixedPointData(data.name, data.n, data.points, components)
