"""Necessary-condition checkers for signed fixed-point data.

Data coming from an actual manifold satisfies a stack of arithmetic
identities.  Each checker here tests one of them and reports a
:class:`CheckOutcome` with a witness for the first violation found, so the
suite doubles as a realizability filter for the survey classifier:

* signed weight balance — for every w, the signed count of weight w equals
  the signed count of weight -w;
* parity — for every w > 0, the total number of weights equal to +-w is even;
* an odd number of points forces even n;
* the signed sum of the weight sums (first Chern values) vanishes;
* per-index balance for the minimal weight magnitude a (which implies the
  three-term identity linking indices i-1, i, i+1);
* localization sums: sum_p eps(p) * c1(p)^j / prod(weights) = 0 for
  0 <= j < n;
* Chern-map structure: with at most n distinct weight sums, each value
  class's localization sum vanishes individually, and a somewhere-injective
  Chern map forces at least n + 1 points.

`validate_all` runs the full suite in a fixed order; strict mode adds the
congruence audit of user-supplied isotropy components and constancy of the
symbolic genus route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from fpkit.data import FixedPointData, check_congruence
from fpkit.genus import chi_symbolic


@dataclass(frozen=True)
class CheckOutcome:
    """Result of a single named check; witness explains the first failure."""

    name: str
    passed: bool
    witness: "dict | None" = None

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _signed_count(data: FixedPointData, w: int) -> int:
    return sum(p.sign * p.multiplicity(w) for p in data.points)


def _magnitudes(data: FixedPointData) -> list[int]:
    return sorted({abs(w) for p in data.points for w in p.weights})


def check_weight_balance(data: FixedPointData) -> CheckOutcome:
    """Signed multiplicity of w must equal the signed multiplicity of -w."""
    for w in _magnitudes(data):
        plus = _signed_count(data, w)
        minus = _signed_count(data, -w)
        if plus != minus:
            return CheckOutcome(
                "weight_balance",
                False,
                {"w": w, "signed_count_positive": plus, "signed_count_negative": minus},
            )
    return CheckOutcome("weight_balance", True)


def check_hattori_parity(data: FixedPointData) -> CheckOutcome:
    """The total number of weights equal to +-w must be even, for each w > 0."""
    for w in _magnitudes(data):
        total = sum(p.multiplicity(w) + p.multiplicity(-w) for p in data.points)
        if total % 2 != 0:
            return CheckOutcome("hattori_parity", False, {"w": w, "total": total})
    return CheckOutcome("hattori_parity", True)


def check_odd_count_even_n(data: FixedPointData) -> CheckOutcome:
    """An odd number of fixed points forces an even half-dimension."""
    k = len(data.points)
    if k % 2 == 1 and data.n % 2 == 1:
        return CheckOutcome(
            "odd_points_even_dim", False, {"points": k, "half_dimension": data.n}
        )
    return CheckOutcome("odd_points_even_dim", True)


def check_c1_sum(data: FixedPointData) -> CheckOutcome:
    """The signed sum of the per-point weight sums must vanish."""
    total = sum(p.sign * p.chern_value for p in data.points)
    if total != 0:
        return CheckOutcome("chern_sum", False, {"sum": total})
    return CheckOutcome("chern_sum", True)


def check_min_weight_balance(data: FixedPointData) -> CheckOutcome:
    """Per-index balance for the minimal weight magnitude.

    With a the smallest |weight| over all points, the weight a at index-i
    points must balance the weight -a at index-(i+1) points, sign-weighted,
    for every i.  This implies the three-term identity tying indices i-1, i,
    i+1, because index-0 points carry no -a and index-n points no +a.
    Raises ``ValueError`` on empty data (no minimum exists).
    """
    if not data.points:
        raise ValueError("minimal weight magnitude is undefined without points")
    a = min(abs(w) for p in data.points for w in p.weights)

    def level(i: int, w: int) -> int:
        return sum(p.sign * p.multiplicity(w) for p in data.points if p.index == i)

    for i in range(data.n):
        lhs = level(i, a)
        rhs = level(i + 1, -a)
        if lhs != rhs:
            return CheckOutcome(
                "min_weight_index_balance",
                False,
                {"a": a, "i": i, "identity": "per-index", "lhs": lhs, "rhs": rhs},
            )
    return CheckOutcome("min_weight_index_balance", True)


@dataclass(frozen=True)
class AbbvValue:
    """One localization sum: sum_p eps(p) * c1(p)^power / prod(weights)."""

    power: int
    value: Fraction

    def to_dict(self) -> dict:
        return {"power": self.power, "value": str(self.value)}


def abbv_c1_power(data: FixedPointData, power: int) -> AbbvValue:
    """Exact localization sum of c1^power over the fixed points."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    total = Fraction(0)
    for p in data.points:
        product = 1
        for w in p.weights:
            product *= w
        total += Fraction(p.sign * p.chern_value**power, product)
    return AbbvValue(power, total)


def check_abbv_vanishing(data: FixedPointData) -> CheckOutcome:
    """The localization sums of c1^j must vanish for every 0 <= j < n."""
    for j in range(data.n):
        value = abbv_c1_power(data, j)
        if value.value != 0:
            return CheckOutcome(
                "abbv_vanishing", False, {"power": j, "value": str(value.value)}
            )
    return CheckOutcome("abbv_vanishing", True)


@dataclass(frozen=True)
class ChernAnalysis:
    """Structure of the Chern map: value classes and their localization sums.

    ``classes`` lists (value, ids, localization sum) per distinct weight sum,
    ascending by value.  When there are at most n distinct values, every
    class sum must vanish individually (``zero_required``); a class
    containing exactly one point makes the map somewhere injective, which
    forces at least n + 1 points.
    """

    classes: tuple[tuple[int, tuple[str, ...], Fraction], ...]
    distinct_values: int
    zero_required: bool
    violations: tuple[int, ...]
    somewhere_injective: bool
    lower_bound: "int | None"
    bound_met: "bool | None"

    def to_dict(self) -> dict:
        return {
            "classes": [
                {"value": value, "ids": list(ids), "sum": str(total)}
                for value, ids, total in self.classes
            ],
            "distinct_values": self.distinct_values,
            "zero_required": self.zero_required,
            "violations": list(self.violations),
            "somewhere_injective": self.somewhere_injective,
            "lower_bound": self.lower_bound,
            "bound_met": self.bound_met,
        }


def chern_map_analysis(data: FixedPointData) -> ChernAnalysis:
    """Group points by weight sum and evaluate each class's localization sum."""
    groups: dict[int, list[str]] = {}
    sums: dict[int, Fraction] = {}
    for p in data.points:
        value = p.chern_value
        groups.setdefault(value, []).append(p.id)
        product = 1
        for w in p.weights:
            product *= w
        sums[value] = sums.get(value, Fraction(0)) + Fraction(p.sign, product)
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


def check_chern_classes(data: FixedPointData) -> CheckOutcome:
    """Aggregate Chern-map outcome: class sums and the point-count bound."""
    analysis = chern_map_analysis(data)
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


def _check_partition_congruence(data: FixedPointData) -> CheckOutcome:
    """Audit the user-supplied isotropy components for residue congruence."""
    for modulus in sorted(data.isotropy_components):
        result = check_congruence(data, modulus, data.isotropy_components[modulus])
        if not result.passed:
            return CheckOutcome(
                "isotropy_congruence",
                False,
                {"modulus": result.modulus, "pair": list(result.offending or ())},
            )
    return CheckOutcome("isotropy_congruence", True)


def _check_symbolic_constancy(data: FixedPointData) -> CheckOutcome:
    """Every symbolic genus component must reduce to a constant."""
    for i in range(data.n + 1):
        result = chi_symbolic(data, i)
        if not result.constant:
            return CheckOutcome(
                "symbolic_constancy",
                False,
                {"component": i, "function": str(result.function)},
            )
    return CheckOutcome("symbolic_constancy", True)


def _iter_checks(data: FixedPointData, strict: bool) -> Iterator[CheckOutcome]:
    """All checks in the fixed evaluation order, cheapest first."""
    yield check_weight_balance(data)
    yield check_hattori_parity(data)
    yield check_odd_count_even_n(data)
    yield check_c1_sum(data)
    if data.points:
        yield check_min_weight_balance(data)
    else:
        # No points means no minimal magnitude; the identity holds vacuously.
        yield CheckOutcome("min_weight_index_balance", True)
    yield check_abbv_vanishing(data)
    yield check_chern_classes(data)
    if strict:
        yield _check_partition_congruence(data)
        yield _check_symbolic_constancy(data)


def validate_all(data: FixedPointData, strict: bool = False) -> list[CheckOutcome]:
    """Run the whole suite and return every outcome in its fixed order."""
    return list(_iter_checks(data, strict))


def evaluate_filters(
    data: FixedPointData, strict: bool = False
) -> tuple[list[CheckOutcome], bool]:
    """Run checks but stop at the first failure (for enumeration loops).

    Returns the outcomes produced up to and including the first failing one,
    plus an overall verdict.
    """
    outcomes: list[CheckOutcome] = []
    for outcome in _iter_checks(data, strict):
        outcomes.append(outcome)
        if not outcome.passed:
            return outcomes, False
    return outcomes, True


def all_passed(outcomes: list[CheckOutcome]) -> bool:
    return all(outcome.passed for outcome in outcomes)
