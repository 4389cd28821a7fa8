"""Exact univariate arithmetic: polynomials, rational functions, truncated series.

All coefficients are arbitrary-precision rationals (`fractions.Fraction`); no
floating point appears anywhere.  Three layers are provided:

* `Polynomial` — immutable dense coefficient tuple over Q.  The zero
  polynomial has degree ``float("-inf")``, so degree comparisons behave
  sensibly without special cases.
* `RationalFunction` — a quotient of polynomials kept in reduced canonical
  form (coprime numerator and denominator, monic denominator), which makes
  equality a plain structural comparison.
* `TruncatedSeries` — power-series coefficients through a fixed order K.
  Binary operations require both operands to carry the same K and never
  silently change it.

`geometric_rewrite` expands 1/(1 - t^w) as a truncated series for positive or
negative integer w.  A negative w is first rewritten through

    1/(1 - t^w)  =  -t^|w| / (1 - t^|w|)  =  -t^|w| * (1 + t^|w| + t^2|w| + ...)

so that only nonnegative exponents ever appear.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]

#: Degree of the zero polynomial.
NEG_INF = float("-inf")


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


class Polynomial:
    """A univariate polynomial with exact rational coefficients.

    Coefficients are stored densely in ascending order with trailing zeros
    trimmed, so two equal polynomials always have identical tuples.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [_as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coefficient: Scalar = 1) -> "Polynomial":
        """c * t^degree (degree must be >= 0)."""
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls([0] * degree + [coefficient])

    @classmethod
    def from_terms(cls, terms: Mapping[int, Scalar]) -> "Polynomial":
        """Build from a degree -> coefficient mapping (finite support)."""
        if not terms:
            return cls.zero()
        top = max(terms)
        if min(terms) < 0:
            raise ValueError("polynomial terms need nonnegative degrees")
        coeffs = [Fraction(0)] * (top + 1)
        for degree, coefficient in terms.items():
            coeffs[degree] += _as_fraction(coefficient)
        return cls(coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def degree(self) -> "int | float":
        """Degree, or -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0] if self._coeffs else Fraction(0)

    def coefficient(self, degree: int) -> Fraction:
        if 0 <= degree < len(self._coeffs):
            return self._coeffs[degree]
        return Fraction(0)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (degree, coefficient) pairs, ascending."""
        for degree, coefficient in enumerate(self._coeffs):
            if coefficient != 0:
                yield degree, coefficient

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

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scaled(self, scalar: Scalar) -> "Polynomial":
        s = _as_fraction(scalar)
        if s == 0:
            return Polynomial.zero()
        return Polynomial(c * s for c in self._coeffs)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __divmod__(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact long division over Q: returns (quotient, remainder)."""
        if not isinstance(divisor, Polynomial):
            return NotImplemented
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self._coeffs)
        dcoeffs = divisor._coeffs
        dd = len(dcoeffs) - 1
        lead = dcoeffs[-1]
        if len(remainder) - 1 < dd:
            return Polynomial.zero(), self
        quotient = [Fraction(0)] * (len(remainder) - dd)
        for top in range(len(remainder) - 1, dd - 1, -1):
            coefficient = remainder[top]
            if coefficient == 0:
                continue
            q = coefficient / lead
            quotient[top - dd] = q
            for i, c in enumerate(dcoeffs):
                remainder[top - dd + i] -= q * c
        return Polynomial(quotient), Polynomial(remainder)

    def __floordiv__(self, divisor: "Polynomial") -> "Polynomial":
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return divmod(self, divisor)[1]

    def shifted(self, offset: int) -> "Polynomial":
        """Multiply by t^offset (offset >= 0)."""
        if offset < 0:
            raise ValueError("cannot shift a polynomial by a negative power")
        if self.is_zero:
            return self
        return Polynomial([Fraction(0)] * offset + list(self._coeffs))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self._coeffs[-1]
        if lead == 1:
            return self
        return Polynomial(c / lead for c in self._coeffs)

    def __call__(self, value: Scalar) -> Fraction:
        """Evaluate by Horner's rule."""
        x = _as_fraction(value)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def to_series(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries([self.coefficient(k) for k in range(order + 1)])

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
        for degree, coefficient in self.terms():
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
    return Polynomial.from_terms({0: 1, exponent: -1})


# -- greatest common divisor ----------------------------------------------
#
# The gcd runs on primitive integer coefficient lists with a pseudo-remainder
# loop, taking contents out after every step.  That keeps intermediate
# coefficients small enough for the randomized workloads where denominators
# such as prod(1 - t^|w|) are repeatedly combined and reduced.


def _integer_coeffs(p: Polynomial) -> list[int]:
    """Scale a nonzero polynomial to a primitive integer coefficient list."""
    scale = math.lcm(*(c.denominator for c in p._coeffs))
    ints = [int(c * scale) for c in p._coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _primitive(coeffs: list[int]) -> list[int]:
    if not coeffs:
        return coeffs
    content = math.gcd(*coeffs)
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
        _trim(remainder)
    return remainder


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor of two polynomials (not both zero)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    u = _integer_coeffs(a)
    v = _integer_coeffs(b)
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _primitive(_pseudo_remainder(u, v))
    lead = u[-1]
    return Polynomial(Fraction(c, lead) for c in u)


def _exact_div(p: Polynomial, divisor: Polynomial) -> Polynomial:
    quotient, remainder = divmod(p, divisor)
    if not remainder.is_zero:
        raise ArithmeticError("expected an exact polynomial division")
    return quotient


class RationalFunction:
    """A quotient of polynomials in reduced form.

    Canonical form: numerator and denominator are coprime and the denominator
    is monic (the zero function is 0/1).  All constructors and operations
    maintain this, so ``==`` compares structurally.  Addition uses Henrici's
    reduced algorithm: with b, d the operand denominators and g = gcd(b, d),
    only gcds of size ~deg(g) are ever taken instead of re-reducing the full
    naive cross product.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator, denominator=None):
        num = self._coerce(numerator)
        den = Polynomial.one() if denominator is None else self._coerce(denominator)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self._num, self._den = Polynomial.zero(), Polynomial.one()
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = _exact_div(num, g)
            den = _exact_div(den, g)
        lead = den.leading_coefficient
        if lead != 1:
            num = num.scaled(1 / lead)
            den = den.monic()
        self._num, self._den = num, den

    @staticmethod
    def _coerce(value) -> Polynomial:
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial((value,))
        raise TypeError(f"cannot build a rational function from {type(value).__name__}")

    @classmethod
    def _from_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Fast path for results already known to be reduced."""
        self = object.__new__(cls)
        if num.is_zero:
            self._num, self._den = Polynomial.zero(), Polynomial.one()
            return self
        lead = den.leading_coefficient
        if lead != 1:
            num = num.scaled(1 / lead)
            den = den.monic()
        self._num, self._den = num, den
        return self

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial.zero())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(Polynomial.one())

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
    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
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
        reduced_d = _exact_div(d, g)
        candidate = a * reduced_d + c * _exact_div(b, g)
        if candidate.is_zero:
            return RationalFunction.zero()
        h = poly_gcd(candidate, g)
        if h.degree > 0:
            candidate = _exact_div(candidate, h)
            d_part = _exact_div(d, h)
        else:
            d_part = d
        return RationalFunction._from_coprime(candidate, _exact_div(b, g) * d_part)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._from_coprime(-self._num, self._den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalFunction.zero()
        g1 = poly_gcd(self._num, other._den)
        g2 = poly_gcd(other._num, self._den)
        num = _exact_div(self._num, g1) * _exact_div(other._num, g2)
        den = _exact_div(self._den, g2) * _exact_div(other._den, g1)
        return RationalFunction._from_coprime(num, den)

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of the zero rational function")
        return RationalFunction._from_coprime(self._den, self._num)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self * other.reciprocal()

    # -- expansion ---------------------------------------------------------

    def series(self, order: int) -> "TruncatedSeries":
        """Power-series expansion at t = 0 through the given order.

        Requires the (reduced) denominator to be invertible at 0, i.e. a
        nonzero constant term.
        """
        if order < 0:
            raise ValueError("series order must be nonnegative")
        d0 = self._den.constant_term
        if d0 == 0:
            raise ValueError("rational function has a pole at t = 0")
        coeffs: list[Fraction] = []
        for k in range(order + 1):
            acc = self._num.coefficient(k)
            for j in range(1, k + 1):
                dj = self._den.coefficient(j)
                if dj != 0:
                    acc -= dj * coeffs[k - j]
            coeffs.append(acc / d0)
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
    """Power-series coefficients c_0 .. c_K for a fixed truncation order K.

    Orders are part of the value: combining two series of different orders
    raises instead of guessing which truncation was meant.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Scalar]):
        coeffs = tuple(_as_fraction(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        self._coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "TruncatedSeries":
        return p.to_series(order)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"series is only known through order {self.order}")
        return self._coeffs[k]

    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self._coeffs[: order + 1])

    # -- arithmetic --------------------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ ({self.order} vs {other.order})"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(a - b for a, b in zip(self._coeffs, other._coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-c for c in self._coeffs)

    def __mul__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            s = _as_fraction(other)
            return TruncatedSeries(c * s for c in self._coeffs)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other._coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("TruncatedSeries", self._coeffs))

    def __repr__(self) -> str:
        body = str(Polynomial(self._coeffs)) if any(self._coeffs) else "0"
        return f"TruncatedSeries({body} + O(t^{self.order + 1}))"


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
    coeffs = [Fraction(0)] * (order + 1)
    if w > 0:
        for k in range(0, order + 1, period):
            coeffs[k] = Fraction(1)
    else:
        for k in range(period, order + 1, period):
            coeffs[k] = Fraction(-1)
    return TruncatedSeries(coeffs)
