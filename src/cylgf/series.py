"""Exact truncated power series in q, plus q-Pochhammer product constructors.

All coefficients are exact rationals (plain ints whenever possible); there is
no floating point anywhere in this package.  A series of order N stores the
coefficients of q^0 .. q^N and every binary operation demands equal orders,
so precision is never lost silently.

Products of q-Pochhammer factors (Series.times, pochhammer, product_expr)
are expanded factor by factor with in-place recurrences on the coefficient
list, one pass per factor.  `*` and `invert` are the general ring
operations; no product expansion goes through them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Coeff = int | Fraction

#: Sentinel for an infinite Pochhammer product (a; q^t)_oo.
UNBOUNDED = None


class OrderMismatchError(ValueError):
    """Binary operation on series of different truncation orders."""


class NotAUnitError(ValueError):
    """Inversion of a series whose constant coefficient is zero."""


class PochSpecError(ValueError):
    """Rejected Pochhammer specification."""


def _norm(x: Coeff) -> Coeff:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class Series:
    """Truncated power series: coeffs[n] is the coefficient of q^n, n <= order."""

    order: int
    coeffs: tuple[Coeff, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"negative order {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"order {self.order} requires {self.order + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )

    @classmethod
    def from_coeffs(cls, coeffs) -> Series:
        coeffs = tuple(_norm(c) for c in coeffs)
        return cls(len(coeffs) - 1, coeffs)

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls(order, (0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> Series:
        return cls(order, (1,) + (0,) * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: Coeff = 1) -> Series:
        if exponent > order:
            return cls.zero(order)
        c = [0] * (order + 1)
        c[exponent] = _norm(coeff)
        return cls(order, tuple(c))

    def _check_order(self, other: Series):
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: Series) -> Series:
        self._check_order(other)
        return Series.from_coeffs(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: Series) -> Series:
        self._check_order(other)
        return Series.from_coeffs(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: Series) -> Series:
        self._check_order(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return Series.from_coeffs(out)

    def __neg__(self) -> Series:
        return Series.from_coeffs(-c for c in self.coeffs)

    def scale(self, factor: Coeff) -> Series:
        return Series.from_coeffs(factor * c for c in self.coeffs)

    def shift(self, exponent: int) -> Series:
        """Multiply by q^exponent at fixed order."""
        if exponent == 0:
            return self
        out = [0] * (self.order + 1)
        for n, c in enumerate(self.coeffs):
            if c != 0 and n + exponent <= self.order:
                out[n + exponent] = c
        return Series.from_coeffs(out)

    def invert(self) -> Series:
        c0 = self.coeffs[0]
        if c0 == 0:
            raise NotAUnitError("constant coefficient is zero")
        if c0 == 1:
            b0: Coeff = 1
        elif c0 == -1:
            b0 = -1
        else:
            b0 = Fraction(1, 1) / c0
        n = self.order
        a = self.coeffs
        b = [0] * (n + 1)
        b[0] = b0
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                if a[i] != 0:
                    acc += a[i] * b[k - i]
            if acc != 0:
                b[k] = -b0 * acc
        return Series.from_coeffs(b)

    def times(self, numerator=(), denominator=()) -> Series:
        """self * prod(numerator) / prod(denominator) for PochSpec factor lists.

        Each factor (1 - s*q^e) with e >= 1 is applied in place on the
        coefficient list: a numerator factor by the downward recurrence
        out[n] -= s*out[n-e], a denominator factor by the upward recurrence
        out[n] += s*out[n-e].  Factors (1 - s*q^0) are collected into one
        rational scalar applied at the end, so the recurrences stay on int.
        """
        scalar = Fraction(1)
        for spec in numerator:
            if spec.start == 0 and spec.count != 0:
                scalar *= 1 - spec.sign
        for spec in denominator:
            if spec.start == 0 and spec.count != 0:
                if spec.sign == 1:
                    raise NotAUnitError(f"denominator {spec} is not a unit")
                scalar /= 2
        order = self.order
        out = list(self.coeffs)
        # no factor lowers the degree, so coefficients below lo stay zero
        lo = next((n for n, c in enumerate(out) if c != 0), None)
        if lo is None or scalar == 0:
            return Series.zero(order)
        # one loop per sign: adding or subtracting is cheaper than
        # multiplying big coefficients by s
        for spec in numerator:
            for e in spec.exponents(order):
                if spec.sign == 1:
                    for n in range(order, lo + e - 1, -1):
                        out[n] -= out[n - e]
                else:
                    for n in range(order, lo + e - 1, -1):
                        out[n] += out[n - e]
        for spec in denominator:
            for e in spec.exponents(order):
                if spec.sign == 1:
                    for n in range(lo + e, order + 1):
                        out[n] += out[n - e]
                else:
                    for n in range(lo + e, order + 1):
                        out[n] -= out[n - e]
        if scalar != 1:
            out = [scalar * c for c in out]
        return Series.from_coeffs(out)

    def truncate(self, order: int) -> Series:
        """Shorten to a smaller (or equal) order."""
        if order > self.order:
            raise OrderMismatchError(
                f"cannot extend order {self.order} to {order}"
            )
        return Series(order, self.coeffs[: order + 1])

    def is_nonneg_integral(self) -> bool:
        """True iff every coefficient is a nonnegative integer (counting series)."""
        return all(
            (isinstance(c, int) or c.denominator == 1) and c >= 0
            for c in self.coeffs
        )

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def to_json_dict(self) -> dict:
        # str(Fraction(1, 2)) == "1/2"; integers stay bare decimal strings
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> Series:
        coeffs = [Fraction(c) for c in data["coeffs"]]
        s = cls.from_coeffs(coeffs)
        if s.order != data["order"]:
            raise ValueError("order field disagrees with coefficient count")
        return s


def first_mismatch(a: Series, b: Series):
    """Earliest degree where the two series differ, or None if equal."""
    a._check_order(b)
    for n, (ca, cb) in enumerate(zip(a.coeffs, b.coeffs)):
        if ca != cb:
            return (n, ca, cb)
    return None


@dataclass(frozen=True)
class PochSpec:
    """One factor group prod_k (1 - sign * q^(start + k*step)).

    count=UNBOUNDED means the infinite product; at truncation N only the
    factors with exponent <= N contribute.
    """

    sign: int
    start: int
    step: int
    count: int | None = UNBOUNDED

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise PochSpecError(f"sign must be +1 or -1, got {self.sign}")
        if self.start < 0:
            raise PochSpecError(f"start must be >= 0, got {self.start}")
        if self.step < 1:
            raise PochSpecError(f"step must be >= 1, got {self.step}")
        if self.count is not UNBOUNDED and self.count < 0:
            raise PochSpecError(f"count must be >= 0, got {self.count}")
        if self.count is UNBOUNDED and self.start == 0 and self.sign == 1:
            raise PochSpecError(
                "unbounded product with a leading (1 - q^0) factor vanishes"
            )

    def exponents(self, order: int) -> range:
        """Exponents e of the factors with 1 <= e <= order; a q^0 factor is
        left to the caller, since it is a scalar rather than a recurrence."""
        stop = order + 1
        if self.count is not UNBOUNDED:
            stop = min(stop, self.start + self.count * self.step)
        return range(self.start or self.step, stop, self.step)


def pochhammer(spec: PochSpec, order: int) -> Series:
    """Expand the product described by spec, truncated at the given order."""
    return Series.one(order).times([spec])


def product_expr(
    numerator: list[PochSpec], denominator: list[PochSpec], order: int
) -> Series:
    """prod(numerators) * prod(1 / denominators) at the given order."""
    return Series.one(order).times(numerator, denominator)
