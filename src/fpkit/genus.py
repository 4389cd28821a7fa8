"""Genus computation for signed fixed-point data, by two independent routes.

For data with points p carrying sign eps(p) and n nonzero weights w_{p,1..n},
the i-th genus component is the localization sum

    chi_i  =  sum_p  eps(p) * sigma_i(t^{w_p,1}, ..., t^{w_p,n})
                       / prod_j (1 - t^{w_p,j}),

with sigma_i the i-th elementary symmetric polynomial.  Rewriting each
negative-weight factor through 1/(1 - t^w) = -t^|w|/(1 - t^|w|) turns every
term into +-J_p(t) / prod_j (1 - t^|w_j|) with J_p a true polynomial, and the
constant term of the sum's expansion at t = 0 is (-1)^i * N_i, where N_i is
the signed number of points with exactly i negative weights.  That identity is
pure algebra and holds for arbitrary data; for data of an actual manifold the
sum is moreover a constant.

Three computations are kept independent so they can certify each other:

* the counting route reads N_i straight off the signs and indices;
* the symbolic route reduces the sum of rational functions over one
  cyclotomic common denominator (`chi_symbolic`, through
  `fpkit.algebra.cyclotomic_sum`, with no polynomial gcd) and reads the
  constant term off the reduced function;
* the series route (`chi_series`) expands every term as an integer power
  series and never forms the reduced function.

Both non-counting routes run on Python ints: every J_p and every factor
1 - t^|w| has integer coefficients, and the reduced denominator is a product
of cyclotomic polynomials dividing +-prod (1 - t^|w|), hence monic with
constant term +-1, so the symbolic constant term is an integer too.  The
symbolic route costs O(deg L) integer additions per cyclotomic factor step,
where L is the common denominator and deg L <= sum |w| over all points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from fpkit.algebra import RationalFunction, TruncatedSeries, cyclotomic_sum
from fpkit.data import FixedPointData, FixedPointDatum


def signed_index_counts(data: FixedPointData) -> tuple[int, ...]:
    """N_0..N_n, where N_i sums the signs of the points with i negative weights."""
    counts = [0] * (data.n + 1)
    for point in data.points:
        counts[point.index] += point.sign
    return tuple(counts)


@dataclass(frozen=True)
class GenusReport:
    """Genus values read off the signed index counts.

    N[i] is the signed index count and ``symbolic_constant`` records whether
    the symbolic route produced a constant rational function for every i.
    The rest follows from N: chi[i] = (-1)^i * N[i] is the i-th genus
    component, todd the 0-th one, and txy the genus polynomial coefficients
    (equal to chi).
    """

    N: tuple[int, ...]
    symbolic_constant: bool

    @property
    def chi(self) -> tuple[int, ...]:
        return tuple((-1) ** i * count for i, count in enumerate(self.N))

    @property
    def todd(self) -> int:
        return self.N[0]

    @property
    def txy(self) -> tuple[int, ...]:
        return self.chi

    def to_dict(self) -> dict:
        return {
            "chi": list(self.chi),
            "N": list(self.N),
            "todd": self.todd,
            "symbolic_constant": self.symbolic_constant,
            "txy": list(self.txy),
        }


@dataclass(frozen=True)
class SymbolicChi:
    """One genus component from the symbolic route.

    ``function`` is the reduced rational function; ``constant`` says whether
    it reduced to a constant; ``constant_term`` is the function's (integer)
    value at t = 0, which is defined even when the function is not constant.
    """

    function: RationalFunction
    constant: bool
    constant_term: int


def _numerator(point: FixedPointDatum, i: int) -> list[int]:
    """Integer coefficients of +-J_p, the numerator of one localization term.

    Multiplying the term by prod_{w<0} (-t^|w|)/(-t^|w|) clears all negative
    exponents: J_p is t^(sum of |negative weights|) times sigma_i at the weight
    monomials, with sign eps(p) * (-1)^(number of negative weights).
    """
    shift = sum(-w for w in point.weights if w < 0)
    # Elementary symmetric polynomials in the monomials t^w, one weight at a
    # time, as exponent -> coefficient maps (negative until shifted).
    elementary: list[dict[int, int]] = [{} for _ in range(i + 1)]
    elementary[0][0] = point.sign * (-1 if point.index % 2 else 1)
    for w in point.weights:
        for k in range(i, 0, -1):
            lower = elementary[k - 1]
            if not lower:
                continue
            target = elementary[k]
            for exponent, coefficient in lower.items():
                key = exponent + w
                target[key] = target.get(key, 0) + coefficient
    top = elementary[i]
    # Allocated whole, so that an absurd weight fails at once with
    # MemoryError instead of growing a list until memory runs out.
    coefficients = [0] * (max(top) + shift + 1)
    for exponent, coefficient in top.items():
        coefficients[exponent + shift] = coefficient
    return coefficients


def chi_symbolic(data: FixedPointData, i: int) -> SymbolicChi:
    """The i-th genus component as an exact reduced rational function."""
    if not 0 <= i <= data.n:
        raise ValueError(f"genus component index must lie in 0..{data.n}")
    total = cyclotomic_sum(
        (_numerator(point, i), [abs(w) for w in point.weights]) for point in data.points
    )
    # The reduced denominator is a product of cyclotomic polynomials, so its
    # value at 0 is +-1 and the division is exact.
    constant_term = total.numerator.constant_term // total.denominator.constant_term
    return SymbolicChi(total, total.is_constant, constant_term)


def chi_series(data: FixedPointData, i: int, order: int) -> TruncatedSeries:
    """The i-th genus component expanded as a truncated series.

    Every term J_p / prod (1 - t^|w|) is expanded in Python ints: dividing by
    one factor 1 - t^m is the running sum c[k] += c[k - m], k = m..order.
    This route never forms the reduced rational function, so it is the
    independent cross-check for `chi_symbolic`.
    """
    if not 0 <= i <= data.n:
        raise ValueError(f"genus component index must lie in 0..{data.n}")
    if order < 0:
        raise ValueError("series order must be nonnegative")
    total = [0] * (order + 1)
    for point in data.points:
        term = (_numerator(point, i) + [0] * (order + 1))[: order + 1]
        for w in point.weights:
            m = abs(w)
            for k in range(m, order + 1):
                term[k] += term[k - m]
        total = [a + b for a, b in zip(total, term)]
    return TruncatedSeries(total)


def default_series_order(data: FixedPointData) -> int:
    """A truncation order large enough to expose non-constancy in practice."""
    return 1 + sum(abs(w) for point in data.points for w in point.weights)


def counting_report(data: FixedPointData, symbolic_constant: bool) -> GenusReport:
    """The genus report read off signs and indices, with the given flag."""
    return GenusReport(signed_index_counts(data), symbolic_constant)


def chi_counting(data: FixedPointData) -> GenusReport:
    """The full genus report from the counting route.

    All numeric fields come from signs and indices alone; the symbolic route
    is probed only for the ``symbolic_constant`` flag, which reports whether
    every component reduced to a constant rational function.
    """
    constant = all(chi_symbolic(data, i).constant for i in range(data.n + 1))
    return counting_report(data, constant)


def txy_evaluate(data: FixedPointData) -> tuple[int, ...]:
    """Genus polynomial coefficients T_0..T_n, cross-certified.

    Values are computed by counting and verified against the series-route
    constant terms; a mismatch would mean a bookkeeping bug and raises
    ``ArithmeticError`` rather than returning a wrong value.
    """
    counts = signed_index_counts(data)
    values = tuple((-1) ** i * c for i, c in enumerate(counts))
    for i, value in enumerate(values):
        term = chi_series(data, i, 0).constant_term
        if term != value:
            raise ArithmeticError(
                f"genus cross-check failed at component {i}: "
                f"counting gives {value}, series gives {term}"
            )
    return values


@dataclass(frozen=True)
class SemifreeReport:
    """Genus statistics specific to data whose weights are all +-1."""

    todd: int
    counts: tuple[int, ...]
    expected_counts: tuple[int, ...]
    binomial_identity: bool
    bound: int
    bound_met: bool

    def to_dict(self) -> dict:
        return {
            "todd": self.todd,
            "counts": list(self.counts),
            "expected_counts": list(self.expected_counts),
            "binomial_identity": self.binomial_identity,
            "bound": self.bound,
            "bound_met": self.bound_met,
        }


def semifree_report(data: FixedPointData) -> SemifreeReport:
    """Report for semi-free data: every weight must be +1 or -1.

    Checks the binomial pattern N_i = Todd * C(n, i) and the resulting lower
    bound |Todd| * 2^n on the number of points.  Raises ``ValueError`` when a
    weight of magnitude > 1 is present.
    """
    for point in data.points:
        for w in point.weights:
            if abs(w) != 1:
                raise ValueError(
                    f"action not semi-free: weight {w} at {point.id!r}"
                )
    counts = signed_index_counts(data)
    todd = counts[0]
    expected = tuple(todd * math.comb(data.n, i) for i in range(data.n + 1))
    bound = abs(todd) * 2**data.n
    return SemifreeReport(
        todd=todd,
        counts=counts,
        expected_counts=expected,
        binomial_identity=counts == expected,
        bound=bound,
        bound_met=len(data.points) >= bound,
    )
