"""Exact univariate arithmetic over the integers.

Every polynomial the genus computation builds has integer coefficients, so
all three layers hold Python ints, and their constructors raise
``TypeError`` on any other coefficient type:

* `Polynomial` — immutable dense coefficient tuple over Z.  The zero
  polynomial has degree ``float("-inf")``, so degree comparisons behave
  sensibly without special cases.
* `RationalFunction` — a quotient of integer polynomials kept in reduced
  canonical form (coprime numerator and denominator, joint content 1,
  positive leading denominator coefficient), which makes equality a plain
  structural comparison.
* `TruncatedSeries` — power-series coefficients through a fixed order K.

`cyclotomic_sum` reduces a sum of terms J / prod (1 - t^m), the shape of
every genus localization sum, over one common denominator built from
cyclotomic polynomials Phi_d, and divides the numerator by each Phi_d while
the division is exact.  It takes no polynomial gcd: every pass is a linear
sweep over a coefficient list, and the reduced denominators it returns are
products of cyclotomic polynomials.

The gcd code stays as the reference the tests compare against, and because
the benchmark's tracer (``perfbench/tracing.py``) wraps `poly_gcd` and
`ratfun_sum` by name; no command calls it, nor `one_minus_power`, which
builds the reference's denominators.  `poly_gcd` is a primitive
pseudo-remainder loop, `RationalFunction` reduces with it on construction
and adds by Henrici's algorithm, and dividing by a primitive gcd stays in Z
by Gauss's lemma, so `_exact_div` raises instead of ever leaving the
integers.

`geometric_rewrite` expands 1/(1 - t^w) as a truncated series for positive or
negative integer w.  A negative w is first rewritten through

    1/(1 - t^w)  =  -t^|w| / (1 - t^|w|)  =  -t^|w| * (1 + t^|w| + t^2|w| + ...)

so that only nonnegative exponents ever appear.  No fpkit module calls it or
multiplies series; both stay because the tests use them and the benchmark's
tracer (``perfbench/tracing.py``) wraps them by name.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate
from typing import Iterable

#: Degree of the zero polynomial.
NEG_INF = float("-inf")


def _integers(coefficients: Iterable[int]) -> list[int]:
    coeffs = list(coefficients)
    for c in coeffs:
        if type(c) is not int:
            raise TypeError(f"expected an integer coefficient, got {type(c).__name__}")
    return coeffs


class Polynomial:
    """A univariate polynomial with integer coefficients.

    Coefficients are stored densely in ascending order with trailing zeros
    trimmed, so two equal polynomials always have identical tuples.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = _integers(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[int, ...] = tuple(coeffs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    # -- inspection --------------------------------------------------------

    @property
    def degree(self) -> "int | float":
        """Degree, or -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @property
    def constant_term(self) -> int:
        return self._coeffs[0] if self._coeffs else 0

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self._coeffs):
            return self._coeffs[degree]
        return 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Polynomial(out)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Polynomial", self._coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for degree, coefficient in enumerate(self._coeffs):
            if coefficient == 0:
                continue
            if degree == 0:
                body = str(coefficient)
            else:
                t = "t" if degree == 1 else f"t^{degree}"
                if coefficient == 1:
                    body = t
                elif coefficient == -1:
                    body = f"-{t}"
                else:
                    body = f"{coefficient}*{t}"
            parts.append(body)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def one_minus_power(exponent: int) -> Polynomial:
    """The polynomial 1 - t^exponent (exponent >= 1)."""
    if exponent < 1:
        raise ValueError("exponent must be positive")
    return Polynomial([1] + [0] * (exponent - 1) + [-1])


# -- greatest common divisor ----------------------------------------------
#
# The gcd runs on primitive integer coefficient lists with a pseudo-remainder
# loop, taking contents out after every step.  That keeps intermediate
# coefficients small enough for the randomized workloads where denominators
# such as prod(1 - t^|w|) are repeatedly combined and reduced.


def _primitive(coeffs: list[int]) -> list[int]:
    """Divide out the content, leaving a positive leading coefficient."""
    if not coeffs:
        return coeffs
    content = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    return [c // content for c in coeffs]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Integer pseudo-remainder of a by b (b nonzero), ascending coefficients."""
    remainder = list(a)
    db = len(b) - 1
    lead_b = b[-1]
    while remainder and len(remainder) - 1 >= db:
        dr = len(remainder) - 1
        lead_r = remainder[-1]
        remainder = [lead_b * c for c in remainder]
        offset = dr - db
        for i, c in enumerate(b):
            remainder[offset + i] -= lead_r * c
        while remainder and remainder[-1] == 0:
            remainder.pop()
    return remainder


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Primitive gcd with positive leading coefficient (a, b not both zero)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    u = _primitive(list(a._coeffs))
    v = _primitive(list(b._coeffs))
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _primitive(_pseudo_remainder(u, v))
    return Polynomial(u)


def _exact_div(p: Polynomial, divisor: Polynomial) -> Polynomial:
    """The quotient p / divisor over Z; ``ArithmeticError`` if it is inexact."""
    remainder = list(p._coeffs)
    dcoeffs = divisor._coeffs
    dd = len(dcoeffs) - 1
    lead = dcoeffs[-1]
    quotient = [0] * max(len(remainder) - dd, 0)
    for top in range(len(remainder) - 1, dd - 1, -1):
        coefficient = remainder[top]
        if coefficient == 0:
            continue
        q, r = divmod(coefficient, lead)
        if r:
            raise ArithmeticError("expected an exact polynomial division over Z")
        quotient[top - dd] = q
        for i, c in enumerate(dcoeffs):
            remainder[top - dd + i] -= q * c
    if any(remainder[:dd]):
        raise ArithmeticError("expected an exact polynomial division over Z")
    return Polynomial(quotient)


# -- cyclotomic reduction ---------------------------------------------------
#
# Every denominator the genus sums is prod (1 - t^m), and
#
#     1 - t^m  =  -prod_{d | m} Phi_d,
#
# with Phi_d the d-th cyclotomic polynomial: Phi_1 = t - 1 and, for d > 1,
# Phi_d = prod_{e | d} (1 - t^e)^mu(d/e).  So multiplying or dividing by Phi_d
# is 2^omega(d) linear passes over an ascending coefficient list, each one a
# product with, or an exact quotient by, some 1 - t^e.  Since the Phi_d are
# irreducible, dividing a numerator by each of them while the division is
# exact reduces a sum over such denominators with no polynomial gcd.


def _mul_one_minus_power(coeffs: list[int], m: int) -> list[int]:
    """coeffs * (1 - t^m)."""
    out = coeffs + [0] * m
    out[m:] = [a - b for a, b in zip(out[m:], coeffs)]
    return out


def _div_one_minus_power(coeffs: list[int], m: int) -> list[int]:
    """coeffs / (1 - t^m) over Z; ``ArithmeticError`` if it is inexact.

    The quotient is the stride-m running sum q[k] = c[k] + q[k - m]; the
    division is exact when the top m terms of that sum vanish.
    """
    sums = list(coeffs)
    size = len(sums)
    if m * m < size:
        # few long strides: one C-level running sum per residue class
        for r in range(m):
            sums[r::m] = accumulate(sums[r::m])
    else:
        # few long blocks: each block adds the block before it
        for start in range(m, size, m):
            sums[start : start + m] = [
                a + b for a, b in zip(sums[start : start + m], sums[start - m : start])
            ]
    quotient = max(size - m, 0)
    if any(sums[quotient:]):
        raise ArithmeticError("expected an exact division by 1 - t^m over Z")
    del sums[quotient:]
    return sums


# Both caches pay because every component of every command asks again about
# the same few weight magnitudes and their divisors.
@functools.lru_cache(maxsize=1024)
def _divisors(m: int) -> tuple[int, ...]:
    """The positive divisors of m >= 1, ascending."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return tuple(small + [m // d for d in reversed(small) if d * d != m])


@functools.lru_cache(maxsize=1024)
def _cyclotomic_passes(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The e | d with mu(d/e) = +1 and those with mu(d/e) = -1."""
    squarefree = [(1, 1)]  # (s, mu(s)) over the squarefree divisors s of d
    rest, p = d, 2
    while p * p <= rest:
        if rest % p == 0:
            squarefree += [(s * p, -mu) for s, mu in squarefree]
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        squarefree += [(s * rest, -mu) for s, mu in squarefree]
    ups = tuple(d // s for s, mu in squarefree if mu == 1)
    downs = tuple(d // s for s, mu in squarefree if mu == -1)
    return ups, downs


def _div_cyclotomic(coeffs: list[int], d: int) -> list[int]:
    """coeffs / Phi_d over Z; ``ArithmeticError`` if it is inexact.

    The factors divided out multiply to Phi_d times those multiplied in, so
    when Phi_d divides coeffs every division pass is exact; otherwise the
    result is no polynomial and some pass fails.
    """
    ups, downs = _cyclotomic_passes(d)
    for e in downs:
        coeffs = _mul_one_minus_power(coeffs, e)
    for e in ups:
        coeffs = _div_one_minus_power(coeffs, e)
    return [-c for c in coeffs] if d == 1 else coeffs


def _cyclotomic_product(exponents: dict[int, int]) -> list[int]:
    """prod_d Phi_d^exponents[d]: monic, with constant term +-1.

    The product is written as +-prod_e (1 - t^e)^k_e, with k_e the sum of
    exponents[d] * mu(d/e) over the multiples d of e; most of those Moebius
    terms cancel, so this takes far fewer passes than one Phi_d at a time.
    """
    net: dict[int, int] = {}
    for d, exponent in exponents.items():
        ups, downs = _cyclotomic_passes(d)
        for e in ups:
            net[e] = net.get(e, 0) + exponent
        for e in downs:
            net[e] = net.get(e, 0) - exponent
    coeffs = [1]
    for e, k in sorted(net.items()):
        for _ in range(k):
            coeffs = _mul_one_minus_power(coeffs, e)
    for e, k in sorted(net.items()):
        for _ in range(-k):
            coeffs = _div_one_minus_power(coeffs, e)
    return [-c for c in coeffs] if exponents.get(1, 0) % 2 else coeffs


def cyclotomic_sum(terms: Iterable[tuple[list[int], list[int]]]) -> "RationalFunction":
    """sum J / prod_m (1 - t^m) over (J, magnitudes) pairs, reduced, no gcd.

    Each J is an ascending coefficient list of degree at most the sum of its
    magnitudes (a longer one raises ``ValueError``), as every localization
    numerator is.

    With c_d the number of magnitudes of one term that d divides, and e_d its
    maximum over the terms, L = prod_d Phi_d^e_d is a common denominator.  The
    numerator N = sum J * L / prod (1 - t^m) is divided by each Phi_d while
    the division is exact, at most e_d times.  What is left over the
    remaining product of distinct irreducible Phi_d is coprime, and that
    product is monic, so the pair is the canonical form.  Each step costs
    O(deg L) integer additions per pass, and deg L <= the sum of all m.
    """
    terms = [(numerator, magnitudes) for numerator, magnitudes in terms]
    if any(len(numerator) > 1 + sum(magnitudes) for numerator, magnitudes in terms):
        raise ValueError("a numerator outgrows its denominator")
    # deg N <= deg L <= sum of all m.  Sizing N first also makes absurd
    # magnitudes fail fast, before any divisor search.
    total = [0] * (1 + sum(sum(magnitudes) for _, magnitudes in terms))
    exponents: dict[int, int] = {}
    for _, magnitudes in terms:
        counts: dict[int, int] = {}
        for m in magnitudes:
            for d in _divisors(m):
                counts[d] = counts.get(d, 0) + 1
        for d, count in counts.items():
            if count > exponents.get(d, 0):
                exponents[d] = count
    common = _cyclotomic_product(exponents)
    del total[len(common) :]
    for numerator, magnitudes in terms:
        quotient = common
        for m in magnitudes:
            quotient = _div_one_minus_power(quotient, m)
        for shift, c in enumerate(numerator):
            if c:
                end = shift + len(quotient)
                total[shift:end] = [a + c * b for a, b in zip(total[shift:end], quotient)]
    while total and total[-1] == 0:
        total.pop()
    if not total or total == [total[-1] * c for c in common]:
        # N = c * L: the sum is the constant c, as it is for realizable data
        return RationalFunction._from_coprime(Polynomial(total[-1:]), Polynomial.one())
    remaining: dict[int, int] = {}
    for d, exponent in exponents.items():
        while exponent:
            try:
                total = _div_cyclotomic(total, d)
            except ArithmeticError:
                break
            exponent -= 1
        remaining[d] = exponent
    return RationalFunction._from_coprime(
        Polynomial(total), Polynomial(_cyclotomic_product(remaining))
    )


class RationalFunction:
    """A quotient of integer polynomials in reduced form.

    Canonical form: numerator and denominator are coprime, their coefficients
    have no common factor, and the denominator's leading coefficient is
    positive (the zero function is 0/1).  All constructors and operations
    maintain this, so ``==`` compares structurally.  Addition uses Henrici's
    reduced algorithm: with b, d the operand denominators and g = gcd(b, d),
    only gcds of size ~deg(g) are ever taken instead of re-reducing the full
    naive cross product.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: Polynomial, denominator: "Polynomial | None" = None):
        if denominator is None:
            denominator = Polynomial.one()
        if not isinstance(numerator, Polynomial) or not isinstance(denominator, Polynomial):
            raise TypeError("a rational function is a quotient of two Polynomials")
        if denominator.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(numerator, denominator)
        if g.degree > 0:
            numerator = _exact_div(numerator, g)
            denominator = _exact_div(denominator, g)
        self._set(numerator, denominator)

    def _set(self, num: Polynomial, den: Polynomial) -> None:
        """Store a coprime pair after taking out the joint content and sign."""
        if num.is_zero:
            self._num, self._den = num, Polynomial.one()
            return
        content = math.gcd(*num._coeffs, *den._coeffs)
        if den._coeffs[-1] < 0:
            content = -content
        if content != 1:
            num = Polynomial(c // content for c in num._coeffs)
            den = Polynomial(c // content for c in den._coeffs)
        self._num, self._den = num, den

    @classmethod
    def _from_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Fast path for results already known to be reduced."""
        self = object.__new__(cls)
        self._set(num, den)
        return self

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial.zero())

    # -- inspection --------------------------------------------------------

    @property
    def numerator(self) -> Polynomial:
        return self._num

    @property
    def denominator(self) -> Polynomial:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_constant(self) -> bool:
        """True when the reduced form is a degree-<= 0 polynomial.

        Both degrees are checked: a polynomial such as 1 + t also has a
        degree-0 denominator but is not constant.
        """
        return self._den.degree == 0 and self._num.degree <= 0

    @property
    def constant_value(self) -> int:
        """The value of a constant function with an integer value."""
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        if self._den.constant_term != 1:
            raise ValueError(f"{self} is not an integer")
        return self._num.constant_term

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b = self._num, self._den
        c, d = other._num, other._den
        g = poly_gcd(b, d)
        if g.degree == 0:
            return RationalFunction._from_coprime(a * d + c * b, b * d)
        reduced_b = _exact_div(b, g)
        candidate = a * _exact_div(d, g) + c * reduced_b
        if candidate.is_zero:
            return RationalFunction.zero()
        h = poly_gcd(candidate, g)
        if h.degree > 0:
            candidate = _exact_div(candidate, h)
            d = _exact_div(d, h)
        return RationalFunction._from_coprime(candidate, reduced_b * d)

    # -- expansion ---------------------------------------------------------

    def series(self, order: int) -> "TruncatedSeries":
        """Power-series expansion at t = 0 through the given order.

        Requires the reduced denominator's constant term to be +1 or -1, so
        that every coefficient of the expansion is an integer.
        """
        if order < 0:
            raise ValueError("series order must be nonnegative")
        d0 = self._den.constant_term
        if d0 == 0:
            raise ValueError("rational function has a pole at t = 0")
        if d0 not in (1, -1):
            raise ValueError("series needs a denominator with constant term +-1")
        coeffs: list[int] = []
        for k in range(order + 1):
            acc = self._num.coefficient(k)
            for j in range(1, k + 1):
                dj = self._den.coefficient(j)
                if dj != 0:
                    acc -= dj * coeffs[k - j]
            coeffs.append(acc * d0)
        return TruncatedSeries(coeffs)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RationalFunction", self._num, self._den))

    def __repr__(self) -> str:
        return f"RationalFunction({self})"

    def __str__(self) -> str:
        if self._den == Polynomial.one():
            return str(self._num)
        return f"({self._num})/({self._den})"


def ratfun_sum(terms: Iterable[RationalFunction]) -> RationalFunction:
    """Sum of rational functions in reduced canonical form (empty sum is 0)."""
    total = RationalFunction.zero()
    for term in terms:
        total = total + term
    return total


class TruncatedSeries:
    """Integer power-series coefficients c_0 .. c_K for a fixed order K.

    Orders are part of the value: multiplying two series of different orders
    raises instead of guessing which truncation was meant.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int]):
        coeffs = tuple(_integers(coefficients))
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        self._coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def constant_term(self) -> int:
        return self._coeffs[0]

    def coefficient(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise IndexError(f"series is only known through order {self.order}")
        return self._coeffs[k]

    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ ({self.order} vs {other.order})"
            )
        out = [0] * (self.order + 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other._coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("TruncatedSeries", self._coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries({Polynomial(self._coeffs)} + O(t^{self.order + 1}))"


def geometric_rewrite(w: int, order: int) -> TruncatedSeries:
    """Expansion of 1/(1 - t^w) through the given order, for w != 0.

    Positive w gives 1 + t^w + t^2w + ...; negative w is rewritten as
    -t^|w|/(1 - t^|w|) = -(t^|w| + t^2|w| + ...) so that exponents stay
    nonnegative.
    """
    if w == 0:
        raise ValueError("weight must be nonzero")
    if order < 0:
        raise ValueError("series order must be nonnegative")
    period = abs(w)
    coeffs = [0] * (order + 1)
    if w > 0:
        for k in range(0, order + 1, period):
            coeffs[k] = 1
    else:
        for k in range(period, order + 1, period):
            coeffs[k] = -1
    return TruncatedSeries(coeffs)
