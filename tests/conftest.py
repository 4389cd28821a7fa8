"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import functools
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from fpkit.algebra import Polynomial, _exact_div
from fpkit.data import FixedPointData, FixedPointDatum, load_data
from fpkit.multigraph import Edge, SignedMultigraph

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
def data_st(draw, min_points=1, max_points=4, max_half_dim=3):
    """Arbitrary fixed-point data; satisfies no identity by construction."""
    n = draw(st.integers(min_value=1, max_value=max_half_dim))
    k = draw(st.integers(min_value=min_points, max_value=max_points))
    points = tuple(
        FixedPointDatum(
            f"p{index + 1}",
            draw(st.sampled_from((1, -1))),
            tuple(draw(nonzero_weight_st) for _ in range(n)),
        )
        for index in range(k)
    )
    return FixedPointData("random", n, points)
