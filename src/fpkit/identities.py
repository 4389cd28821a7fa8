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

The checkers sum per-point integer terms.  Each ``*_term`` function gives
one point's term from its (sign, weights) alone; a checker sums the terms
over the points and reads its witness off the sums.  The localization terms
are scaled by a common denominator D, a positive multiple of every
|prod(weights)| (`common_denominator`), so each sum is an integer that
vanishes exactly when the rational sum does, and a `Fraction` is made only
for a value that is reported.  `spec_filters` sums the same terms for the
survey, where they are computed once per point spec.

`validate_all` runs the full suite in a fixed order; strict mode adds the
congruence audit of user-supplied isotropy components and constancy of the
symbolic genus route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from fpkit.data import FixedPointData, check_congruence
from fpkit.genus import chi_symbolic

Weights = tuple[int, ...]


class CheckOutcome(NamedTuple):
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


def _sums(rows: Iterable[Sequence[int]], width: int) -> list[int]:
    """Column sums of integer rows of the given width (zeros for no rows)."""
    return list(map(sum, zip(*rows))) or [0] * width


def _first(flags: Iterable) -> "int | None":
    """Position of the first truthy flag, or None."""
    for i, flag in enumerate(flags):
        if flag:
            return i
    return None


def _magnitudes(data: FixedPointData) -> list[int]:
    return sorted({abs(w) for p in data.points for w in p.weights})


def common_denominator(weight_sets: Iterable[Weights]) -> int:
    """D = lcm of |prod(weights)| over the weight sets (1 for none)."""
    return math.lcm(*(abs(math.prod(weights)) for weights in weight_sets))


def balance_term(
    sign: int, weights: Weights, magnitudes: Sequence[int]
) -> tuple[int, ...]:
    """Weight balance: eps * #m and eps * #(-m) for each magnitude m, flattened."""
    return tuple(sign * weights.count(w) for m in magnitudes for w in (m, -m))


def check_weight_balance(data: FixedPointData) -> CheckOutcome:
    """Signed multiplicity of w must equal the signed multiplicity of -w."""
    magnitudes = _magnitudes(data)
    sums = _sums(
        (balance_term(p.sign, p.weights, magnitudes) for p in data.points),
        2 * len(magnitudes),
    )
    for w, plus, minus in zip(magnitudes, sums[0::2], sums[1::2]):
        if plus != minus:
            return CheckOutcome(
                "weight_balance",
                False,
                {"w": w, "signed_count_positive": plus, "signed_count_negative": minus},
            )
    return CheckOutcome("weight_balance", True)


def parity_term(
    sign: int, weights: Weights, magnitudes: Sequence[int]
) -> tuple[int, ...]:
    """Hattori parity: #m + #(-m) for each magnitude m (the sign does not enter)."""
    return tuple(weights.count(m) + weights.count(-m) for m in magnitudes)


def _first_odd(totals: Sequence[int]) -> "int | None":
    return _first(total % 2 for total in totals)


def check_hattori_parity(data: FixedPointData) -> CheckOutcome:
    """The total number of weights equal to +-w must be even, for each w > 0."""
    magnitudes = _magnitudes(data)
    totals = _sums(
        (parity_term(p.sign, p.weights, magnitudes) for p in data.points),
        len(magnitudes),
    )
    odd = _first_odd(totals)
    if odd is not None:
        return CheckOutcome(
            "hattori_parity", False, {"w": magnitudes[odd], "total": totals[odd]}
        )
    return CheckOutcome("hattori_parity", True)


def _odd_count_odd_n(points: int, n: int) -> bool:
    return points % 2 == 1 and n % 2 == 1


def check_odd_count_even_n(data: FixedPointData) -> CheckOutcome:
    """An odd number of fixed points forces an even half-dimension."""
    k = len(data.points)
    if _odd_count_odd_n(k, data.n):
        return CheckOutcome(
            "odd_points_even_dim", False, {"points": k, "half_dimension": data.n}
        )
    return CheckOutcome("odd_points_even_dim", True)


def chern_sum_term(sign: int, weights: Weights) -> int:
    """Chern sum: eps * c1, with c1 the sum of the weights."""
    return sign * sum(weights)


def check_c1_sum(data: FixedPointData) -> CheckOutcome:
    """The signed sum of the per-point weight sums must vanish."""
    total = sum(chern_sum_term(p.sign, p.weights) for p in data.points)
    if total != 0:
        return CheckOutcome("chern_sum", False, {"sum": total})
    return CheckOutcome("chern_sum", True)


def min_weight_term(
    sign: int, weights: Weights, a: int, n: int
) -> tuple[int, ...]:
    """Minimal-weight balance at magnitude a, for each index i < n: the pair
    (eps * #a if the point has index i, eps * #(-a) if it has index i + 1),
    flattened.  The index is the number of negative weights."""
    index = sum(1 for w in weights if w < 0)
    row = [0] * (2 * n)
    if index < n:
        row[2 * index] = sign * weights.count(a)
    if index > 0:
        row[2 * index - 1] = sign * weights.count(-a)
    return tuple(row)


def _first_unequal(pairs: Sequence[int]) -> "int | None":
    """The first i with pairs[2i] != pairs[2i + 1], or None."""
    return _first(lhs != rhs for lhs, rhs in zip(pairs[0::2], pairs[1::2]))


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
    sums = _sums(
        (min_weight_term(p.sign, p.weights, a, data.n) for p in data.points),
        2 * data.n,
    )
    i = _first_unequal(sums)
    if i is not None:
        return CheckOutcome(
            "min_weight_index_balance",
            False,
            {
                "a": a,
                "i": i,
                "identity": "per-index",
                "lhs": sums[2 * i],
                "rhs": sums[2 * i + 1],
            },
        )
    return CheckOutcome("min_weight_index_balance", True)


class AbbvValue(NamedTuple):
    """One localization sum: sum_p eps(p) * c1(p)^power / prod(weights)."""

    power: int
    value: Fraction

    def to_dict(self) -> dict:
        return {"power": self.power, "value": str(self.value)}


def abbv_term(
    sign: int, weights: Weights, denominator: int, powers: Iterable[int]
) -> tuple[int, ...]:
    """Localization: eps * c1^j * (D / prod(weights)) for each power j, where
    the denominator D is a multiple of |prod(weights)|."""
    scaled = sign * denominator // math.prod(weights)
    c1 = sum(weights)
    return tuple(scaled * c1**j for j in powers)


def abbv_c1_power(data: FixedPointData, power: int) -> AbbvValue:
    """Exact localization sum of c1^power over the fixed points."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    denominator = common_denominator(p.weights for p in data.points)
    total = sum(
        abbv_term(p.sign, p.weights, denominator, (power,))[0] for p in data.points
    )
    return AbbvValue(power, Fraction(total, denominator))


def check_abbv_vanishing(data: FixedPointData) -> CheckOutcome:
    """The localization sums of c1^j must vanish for every 0 <= j < n."""
    denominator = common_denominator(p.weights for p in data.points)
    powers = range(data.n)
    sums = _sums(
        (abbv_term(p.sign, p.weights, denominator, powers) for p in data.points),
        data.n,
    )
    j = _first(sums)
    if j is not None:
        value = Fraction(sums[j], denominator)
        return CheckOutcome("abbv_vanishing", False, {"power": j, "value": str(value)})
    return CheckOutcome("abbv_vanishing", True)


def chern_class_term(sign: int, weights: Weights, denominator: int) -> tuple[int, int]:
    """Chern-map class sums: the key c1 and the term eps * D / prod(weights),
    summed per key."""
    return sum(weights), sign * denominator // math.prod(weights)


class _ClassStructure(NamedTuple):
    distinct_values: int
    zero_required: bool
    violations: tuple[int, ...]
    somewhere_injective: bool


def _class_structure(
    classes: Mapping[int, tuple[int, int]], n: int
) -> _ClassStructure:
    """Read the Chern-map structure off {c1 value: (point count, class sum)}."""
    distinct = len(classes)
    zero_required = 0 < distinct <= n
    violations = (
        tuple(value for value in sorted(classes) if classes[value][1])
        if zero_required
        else ()
    )
    somewhere_injective = any(count == 1 for count, _ in classes.values())
    return _ClassStructure(distinct, zero_required, violations, somewhere_injective)


def _class_failure(structure: _ClassStructure, n: int, points: int) -> "str | None":
    """Why the Chern map rules the data out, or None."""
    if structure.violations:
        return "class sum must vanish"
    if structure.somewhere_injective and points < n + 1:
        return "somewhere-injective map needs at least n + 1 points"
    return None


def _class_sums(terms: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """{c1 value: (point count, class sum)} from the points' Chern-class terms."""
    classes: dict[int, tuple[int, int]] = {}
    for value, term in terms:
        count, total = classes.get(value, (0, 0))
        classes[value] = (count + 1, total + term)
    return classes


class ChernAnalysis(NamedTuple):
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
    denominator = common_denominator(p.weights for p in data.points)
    sums = _class_sums(
        chern_class_term(p.sign, p.weights, denominator) for p in data.points
    )
    ids: dict[int, list[str]] = {}
    for p in data.points:
        ids.setdefault(p.chern_value, []).append(p.id)
    structure = _class_structure(sums, data.n)
    injective = structure.somewhere_injective
    lower_bound = data.n + 1 if injective else None
    return ChernAnalysis(
        classes=tuple(
            (value, tuple(ids[value]), Fraction(sums[value][1], denominator))
            for value in sorted(sums)
        ),
        distinct_values=structure.distinct_values,
        zero_required=structure.zero_required,
        violations=structure.violations,
        somewhere_injective=injective,
        lower_bound=lower_bound,
        bound_met=len(data.points) >= lower_bound if injective else None,
    )


def check_chern_classes(data: FixedPointData) -> CheckOutcome:
    """Aggregate Chern-map outcome: class sums and the point-count bound."""
    denominator = common_denominator(p.weights for p in data.points)
    sums = _class_sums(
        chern_class_term(p.sign, p.weights, denominator) for p in data.points
    )
    structure = _class_structure(sums, data.n)
    reason = _class_failure(structure, data.n, len(data.points))
    if reason is None:
        return CheckOutcome("chern_class_map", True)
    if structure.violations:
        witness = {
            "reason": reason,
            "values": list(structure.violations),
            "distinct_values": structure.distinct_values,
        }
    else:
        witness = {
            "reason": reason,
            "lower_bound": data.n + 1,
            "points": len(data.points),
        }
    return CheckOutcome("chern_class_map", False, witness)


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


def evaluate_filters(data: FixedPointData) -> tuple[list[CheckOutcome], bool]:
    """Run the non-strict checks but stop at the first failure (for
    enumeration loops).

    Returns the outcomes produced up to and including the first failing one,
    plus an overall verdict.
    """
    outcomes: list[CheckOutcome] = []
    for outcome in _iter_checks(data, strict=False):
        outcomes.append(outcome)
        if not outcome.passed:
            return outcomes, False
    return outcomes, True


def spec_filters(
    specs: Sequence[tuple[int, Weights]], n: int
) -> Callable[[Sequence[int]], "str | None"]:
    """The non-strict checks after weight balance, over a fixed list of
    (sign, weights) point specs.

    Every spec's terms are computed here once, over the magnitudes of all
    specs and their common denominator.  The returned function takes the
    positions of a weight-balanced multiset of specs, sums their terms and
    returns the name of the first check after weight balance that fails,
    in evaluation order, or None.  Weight balance itself is not tested (the
    survey's join is that test), so on balanced positions this is what
    `evaluate_filters` reports for the data made of those specs.  No data
    and no `Fraction` is made.
    """
    magnitudes = sorted({abs(w) for _, weights in specs for w in weights})
    denominator = common_denominator(weights for _, weights in specs)
    powers = range(n)
    terms = []
    for sign, weights in specs:
        # a spec's minimal-weight term is nonzero only at its own minimal
        # magnitude, the only one that can be a multiset's minimum with it
        a = min(map(abs, weights))
        terms.append((
            parity_term(sign, weights, magnitudes),
            chern_sum_term(sign, weights),
            a,
            min_weight_term(sign, weights, a, n),
            abbv_term(sign, weights, denominator, powers),
            chern_class_term(sign, weights, denominator),
        ))

    def first_failure(positions: Sequence[int]) -> "str | None":
        parity, c1, minima, min_weight, abbv, classes = zip(*[terms[i] for i in positions])
        if _first_odd(_sums(parity, len(magnitudes))) is not None:
            return "hattori_parity"
        points = len(positions)
        if _odd_count_odd_n(points, n):
            return "odd_points_even_dim"
        if sum(c1):
            return "chern_sum"
        a = min(minima)
        rows = [row for row, least in zip(min_weight, minima) if least == a]
        if _first_unequal(_sums(rows, 2 * n)) is not None:
            return "min_weight_index_balance"
        if _first(_sums(abbv, n)) is not None:
            return "abbv_vanishing"
        structure = _class_structure(_class_sums(classes), n)
        if _class_failure(structure, n, points) is not None:
            return "chern_class_map"
        return None

    return first_failure


def all_passed(outcomes: list[CheckOutcome]) -> bool:
    return all(outcome.passed for outcome in outcomes)
