"""Exact truncated power series in q, plus q-Pochhammer product constructors.

Every generating function and identity of the package has integer
coefficients, so a series holds plain ints; there is no floating point
anywhere in this package.  A series of order N stores the coefficients of
q^0 .. q^N and every binary operation demands equal orders, so precision is
never lost silently.

Every Pochhammer factor is (1 - s*q^e) with e >= 1, so both product kernels
stay on int; a constant factor such as (1 + q^0) = 2 is the caller's.  A
product that starts from 1 (pochhammer, product_expr) is expanded by the
log-derivative recurrence: a_k is the net multiplicity of 1/(1 - q^k) over
all factors, b_m = sum_{d | m} d*a_d, and n*p_n = sum_{k=1..n} b_k*p_{n-k},
where the division by n is exact because the product has integer
coefficients.  Since p_n needs p_0 .. p_{n-1}, the sum is an online
convolution, solved divide and conquer: a block of L <= _CUT coefficients
runs the plain recurrence, L(L+1)/2 multiply-adds, and what each solved
half adds to the half after it is one big-int product of two
Kronecker-packed blocks.  Below the cut, packing costs more than the
product saves, so an order below it runs the plain recurrence alone.
Series.times forms every sum term of the package, catalog and lemma alike,
in one call: scale * q^shift * self times a few finite factors, one
in-place pass per factor.  An infinite product goes to product_expr, the
catalog's outer products included, which its sums start from.  The
general ring operations `*` and `invert` are on no product path of the
package: they stay as the slow reference the tests compare both
kernels against, and the benchmark's tracer wraps them by name.
`first_mismatch` reports where two series first differ as a plain
(degree, lhs, rhs) tuple.
"""
from __future__ import annotations

from operator import add, mul, sub

from .record import Record

#: Sentinel for an infinite Pochhammer product (a; q^t)_oo.
UNBOUNDED = None

#: product_expr solves a range of at most this many coefficients by the
#: plain recurrence; below it, packing costs more than the product saves.
_CUT = 64


class OrderMismatchError(ValueError):
    """Binary operation on series of different truncation orders."""


class NotAUnitError(ValueError):
    """Inversion of a series whose constant coefficient is not 1 or -1."""


class PochSpecError(ValueError):
    """Rejected Pochhammer specification."""


class Series(Record):
    """Truncated power series: coeffs[n] is the coefficient of q^n, n <= order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        if order < 0:
            raise ValueError(f"negative order {order}")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"order {order} requires {order + 1} coefficients, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs) -> Series:
        coeffs = tuple(coeffs)
        return cls(len(coeffs) - 1, coeffs)

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls(order, (0,) * (order + 1))

    @classmethod
    def monomial(cls, exponent: int, order: int) -> Series:
        if exponent > order:
            return cls.zero(order)
        c = [0] * (order + 1)
        c[exponent] = 1
        return cls(order, tuple(c))

    def _check_order(self, other: Series):
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: Series) -> Series:
        self._check_order(other)
        return Series(self.order, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: Series) -> Series:
        self._check_order(other)
        return Series(self.order, tuple(map(sub, self.coeffs, other.coeffs)))

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

    def invert(self) -> Series:
        """The inverse over the integers: the constant coefficient is 1 or -1,
        and so is the inverse's."""
        b0 = self.coeffs[0]
        if b0 == 0:
            raise NotAUnitError("constant coefficient is zero")
        if b0 not in (1, -1):
            raise NotAUnitError(f"constant coefficient {b0} is not 1 or -1")
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

    def times(self, numerator=(), denominator=(), shift=0, scale=1) -> Series:
        """scale * q^shift * self * prod(numerator) / prod(denominator) for
        PochSpec factor lists; the zero series once shift passes the order.

        The shifted, scaled coefficients are copied once, then each factor
        (1 - s*q^e), e >= 1, is applied in place: a numerator factor by the
        downward recurrence out[n] -= s*out[n-e], a denominator factor by the
        upward recurrence out[n] += s*out[n-e]; int coefficients stay int.
        """
        order = self.order
        head = self.coeffs[:max(order + 1 - shift, 0)]
        # no factor lowers the degree, so the coefficients below the first
        # nonzero one stay zero; filter finds it by a C-level scan
        lead = next(filter(None, head), 0)
        if not lead:
            return Series.zero(order)
        lo = shift + head.index(lead)
        out = [0] * shift
        out += head if scale == 1 else [scale * c for c in head]
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
        return Series(order, tuple(out))


def first_mismatch(a: Series, b: Series) -> tuple[int, int, int] | None:
    """(degree, lhs, rhs) at the earliest degree where the two series
    differ, or None if they are equal: equal tuples compare in C, and
    only unequal ones are scanned."""
    a._check_order(b)
    if a.coeffs == b.coeffs:
        return None
    for n, (ca, cb) in enumerate(zip(a.coeffs, b.coeffs)):
        if ca != cb:
            return n, ca, cb
    return None


class PochSpec(Record):
    """One factor group prod_k (1 - sign * q^(start + k*step)).

    count=UNBOUNDED means the infinite product; at truncation N only the
    factors with exponent <= N contribute.
    """

    __slots__ = ("sign", "start", "step", "count")

    def __init__(self, sign: int, start: int, step: int,
                 count: int | None = UNBOUNDED):
        if sign not in (1, -1):
            raise PochSpecError(f"sign must be +1 or -1, got {sign}")
        if start < 1:
            raise PochSpecError(f"start must be >= 1, got {start}")
        if step < 1:
            raise PochSpecError(f"step must be >= 1, got {step}")
        if count is not UNBOUNDED and count < 0:
            raise PochSpecError(f"count must be >= 0, got {count}")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "count", count)

    def exponents(self, order: int) -> range:
        """Exponents e of the factors with e <= order, all of them >= 1."""
        stop = order + 1
        if self.count is not UNBOUNDED:
            stop = min(stop, self.start + self.count * self.step)
        return range(self.start, stop, self.step)


def pochhammer(spec: PochSpec, order: int) -> Series:
    """Expand the product described by spec, truncated at the given order."""
    return product_expr([spec], [], order)


def product_expr(
    numerator: list[PochSpec], denominator: list[PochSpec], order: int
) -> Series:
    """prod(numerators) / prod(denominators) at the given order.

    Every factor (1 - s*q^e) with e >= 1 is written in powers of 1/(1 - q^k),
    with (1 + q^e) = (1 - q^2e) / (1 - q^e), so the product is
    P = prod_k (1 - q^k)^(-a_k).  The net multiplicity a_k gets +1 for a
    denominator (1 - q^k) and -1 for a numerator one; a (1 + q^e) moves a_e
    and a_2e by -1 and +1 in a denominator, by +1 and -1 in a numerator.
    Then q*P'/P = sum_m b_m q^m with b_m = sum_{d | m} d*a_d, and comparing
    coefficients of q^n in q*P' = P * (q*P'/P) gives p_0 = 1 and
    n*p_n = sum_{k=1..n} b_k*p_{n-k}.  The division by n is exact, as P has
    integer coefficients.

    p_n needs every p_j with j < n, so the sum is an online convolution.
    To solve [lo, hi): solve [lo, mid), add what p_lo .. p_{mid-1} give to
    n*p_n for mid <= n < hi, then solve [mid, hi).  The middle step is one
    big-int product: the block of p and b_1 .. b_{hi-lo-1} are each packed
    into one int, a slot of 8*nbytes bits per coefficient (Kronecker
    substitution), and the slots of the product that fall in [mid, hi) are
    the sums wanted.  A range of at most _CUT coefficients is a leaf: it
    runs the plain recurrence, each p_n one C-level `sum(map(mul, ...))`
    over the p_j of its own range, so the leaves together make at most about
    N*_CUT/2 multiply-adds instead of N(N+1)/2.  Below the cut, packing
    costs more than the product saves; an order below it is one leaf, the
    plain recurrence alone.  All arithmetic is on int, whatever the number
    of factors.  An infinite product, such as the outer products the
    catalog's sums start from, is cheaper here than as one `Series.times`
    pass per factor; a series times a few finite factors is cheaper there.
    """
    a = [0] * (order + 1)
    for side, specs in ((-1, numerator), (1, denominator)):
        for spec in specs:
            for e in spec.exponents(order):
                if spec.sign == 1:
                    a[e] += side
                else:
                    a[e] -= side
                    if 2 * e <= order:
                        a[2 * e] += side
    b = [0] * (order + 1)
    for d in range(1, order + 1):
        if a[d]:
            w = d * a[d]
            for m in range(d, order + 1, d):
                b[m] += w
    del b[0]  # b[k - 1] = b_k, which reversed(p) pairs with p_{n-k}
    p = [1]
    acc = [0] * (order + 1)  # acc[n] = the part of n*p_n added by products

    def solve(lo: int, hi: int):
        """Append p_n for n in [lo, hi), given len(p) >= lo and acc[lo:hi]
        holding the terms b_{n-j}*p_j of every j < lo."""
        if hi - lo <= _CUT:
            run = p[lo:]  # p_lo .. p_{n-1}, paired in reverse with b_1 ..
            for n in range(max(lo, 1), hi):
                run.append((acc[n] + sum(map(mul, b, reversed(run)))) // n)
            p[lo:] = run
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        # acc[n] += sum_{lo <= j < mid} b_{n-j}*p_j for mid <= n < hi: slot
        # n - lo - 1 of (sum_i p_{lo+i} X^i) * (sum_k b_{k+1} X^k)
        block, factor = p[lo:mid], b[:hi - lo - 1]
        nbytes = _slot_bytes(max(map(abs, block)).bit_length(),
                             max(map(abs, factor)).bit_length(), mid - lo)
        packed = _pack(block, nbytes) * _pack(factor, nbytes)
        acc[mid:hi] = map(add, acc[mid:hi],
                          _unpack(packed, mid - lo - 1, hi - lo - 1, nbytes))
        solve(mid, hi)

    solve(0, order + 1)
    return Series.from_coeffs(p)


def _slot_bytes(p_bits: int, b_bits: int, terms: int) -> int:
    """Slot width in bytes for a product of a block of |p| < 2^p_bits with
    |b| < 2^b_bits, at most `terms` products per slot: every slot of the
    product lies below half a slot in absolute value."""
    return (p_bits + b_bits + terms.bit_length() + 2 + 7) // 8


def _bias(count: int, nbytes: int) -> int:
    """Half a slot in each of the lowest `count` slots of `nbytes` bytes."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _pack(values: list[int], nbytes: int) -> int:
    """sum_i values[i] * X^i with X = 2^(8*nbytes), |values[i]| < X/2."""
    half = 1 << (8 * nbytes - 1)
    data = b"".join([(v + half).to_bytes(nbytes, "little") for v in values])
    return int.from_bytes(data, "little") - _bias(len(values), nbytes)


def _unpack(packed: int, lo: int, hi: int, nbytes: int) -> list[int]:
    """Slots lo..hi-1 of sum_i c_i X^i, X = 2^(8*nbytes), |c_i| < X/2.

    Adding X/2 to each slot below hi makes every one of them a base-X
    digit, so the mask reads them off whatever the slots above hold.
    """
    bits = 8 * nbytes
    half = 1 << (bits - 1)
    digits = (((packed + _bias(hi, nbytes)) >> (lo * bits))
              & ((1 << ((hi - lo) * bits)) - 1))
    data = digits.to_bytes((hi - lo) * nbytes, "little")
    return [int.from_bytes(data[i:i + nbytes], "little") - half
            for i in range(0, len(data), nbytes)]
