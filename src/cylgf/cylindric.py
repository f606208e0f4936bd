"""Profiles, cylindric partitions, and the brute-force enumeration oracle.

The enumeration here is deliberately naive (row by row, part by part, with
immediate pruning on the defining inequalities) so that it stays independent
of the slice machinery it is used to audit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .series import Series


class ProfileError(ValueError):
    """Rejected profile (negative part, empty, or level zero)."""


class PartitionError(ValueError):
    """Base class for cylindric-partition validation failures."""


class RowError(PartitionError):
    """A row is not a weakly decreasing list of positive integers."""

    def __init__(self, row_index: int, row, reason: str):
        self.row_index = row_index
        self.row = tuple(row)
        super().__init__(f"row {row_index + 1} {reason}: {tuple(row)}")


class InequalityError(PartitionError):
    """First violated cyclic inequality, with 1-based (row, part) position."""

    def __init__(self, row_index: int, part_index: int, lhs: int, rhs: int):
        self.row_index = row_index
        self.part_index = part_index
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"lambda^({row_index})_{part_index} = {lhs} < {rhs} "
            "(required >= by the profile shift)"
        )


@dataclass(frozen=True)
class Profile:
    """Composition c = (c_1, ..., c_r); rank r, level sum(c), t = r + level."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if len(self.parts) == 0:
            raise ProfileError("profile must have rank >= 1")
        if any(c < 0 for c in self.parts):
            raise ProfileError(f"profile parts must be >= 0: {self.parts}")
        if sum(self.parts) < 1:
            raise ProfileError("the all-zero profile (level 0) is rejected")

    @classmethod
    def of(cls, *parts: int) -> Profile:
        return cls(tuple(parts))

    @property
    def rank(self) -> int:
        return len(self.parts)

    @property
    def level(self) -> int:
        return sum(self.parts)

    @property
    def t(self) -> int:
        return self.rank + self.level

    def partial_sum(self, i: int, j: int) -> int:
        """s(i, j) = c_i + ... + c_j, 1-based inclusive; empty when i > j."""
        if i > j:
            return 0
        if not (1 <= i and j <= self.rank):
            raise IndexError(f"s({i},{j}) out of range for rank {self.rank}")
        return sum(self.parts[i - 1 : j])

    def cyclic_shift(self) -> Profile:
        """S(c) = (c_2, ..., c_r, c_1)."""
        return Profile(self.parts[1:] + self.parts[:1])

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.parts) + ")"


def _strip(row) -> tuple[int, ...]:
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return tuple(row)


@dataclass(frozen=True)
class CylindricPartition:
    """r ordinary partitions satisfying the cyclic shift inequalities.

    Rows are stored with trailing zeros stripped; equality is componentwise.
    Construct through validate() unless the input is known to be valid.
    """

    profile: Profile
    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return sum(sum(row) for row in self.rows)

    @property
    def largest(self) -> int:
        return max((row[0] for row in self.rows if row), default=0)

    def to_json_dict(self) -> dict:
        return {
            "profile": list(self.profile.parts),
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> CylindricPartition:
        return validate(Profile(tuple(data["profile"])), data["rows"])


def validate(profile: Profile, rows) -> CylindricPartition:
    """Check the definition inequalities; raise the first violation found.

    Out-of-range entries count as 0, which makes rows of unequal lengths
    comparable.  Row and part indices in errors are 1-based.
    """
    rows = [_strip(r) for r in rows]
    r = profile.rank
    if len(rows) != r:
        raise PartitionError(f"expected {r} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if any(p <= 0 for p in row):
            raise RowError(i, row, "contains a nonpositive part")
        if any(row[j] < row[j + 1] for j in range(len(row) - 1)):
            raise RowError(i, row, "is not weakly decreasing")
    for i in range(r):
        upper = rows[i]
        lower = rows[(i + 1) % r]
        shift = profile.parts[(i + 1) % r]
        # upper[j] >= lower[j + shift] for all j (1-based), zeros off the end
        for j in range(len(lower) - shift):
            up = upper[j] if j < len(upper) else 0
            if up < lower[j + shift]:
                raise InequalityError(i + 1, j + 1, up, lower[j + shift])
    return CylindricPartition(profile, tuple(rows))


def iter_partitions(profile: Profile, bound: int) -> Iterator[CylindricPartition]:
    """All cylindric partitions with size <= bound, by backtracking.

    Rows are built part by part; each new part is immediately capped by the
    entry of the previous row that dominates it, so invalid prefixes are
    pruned early.  The cyclic inequality (last row over first) is checked
    once all rows are complete.
    """
    r = profile.rank
    c = profile.parts
    rows: list[tuple[int, ...]] = [()] * r

    def cyclic_ok() -> bool:
        first, last = rows[0], rows[r - 1]
        shift = c[0]
        for p in range(shift, len(first)):
            up = last[p - shift] if p - shift < len(last) else 0
            if up < first[p]:
                return False
        return True

    def build_row(i, budget):
        prev = rows[i - 1] if i > 0 else None

        def extend(pos, last_part, remaining, acc):
            rows[i] = tuple(acc)
            if i + 1 == r:
                if cyclic_ok():
                    yield CylindricPartition(profile, tuple(rows))
            else:
                yield from build_row(i + 1, remaining)
            hi = min(last_part, remaining)
            if prev is not None and pos >= c[i]:
                hi = min(hi, prev[pos - c[i]] if pos - c[i] < len(prev) else 0)
            for v in range(hi, 0, -1):
                acc.append(v)
                yield from extend(pos + 1, v, remaining - v, acc)
                acc.pop()

        yield from extend(0, budget, budget, [])

    yield from build_row(0, bound)


@dataclass(frozen=True)
class RefinedTable:
    """counts[m][n] = number of cylindric partitions with largest part m, size n."""

    profile: Profile
    order: int
    counts: tuple[tuple[int, ...], ...]

    def marginal(self) -> Series:
        """Coefficients of F_c(1, q) up to the order."""
        n = self.order
        return Series.from_coeffs(
            sum(self.counts[m][k] for m in range(n + 1)) for k in range(n + 1)
        )

    def to_csv(self) -> str:
        lines = ["max,size,count"]
        for m in range(self.order + 1):
            for n in range(self.order + 1):
                if self.counts[m][n]:
                    lines.append(f"{m},{n},{self.counts[m][n]}")
        return "\n".join(lines) + "\n"


def enumerate_table(profile: Profile, order: int) -> RefinedTable:
    """Exhaustive refined count by (largest part, size) up to the order.

    This is the definition-level oracle; it shares no code with the slice
    or generating-function modules.  Desk scale: order <= ~14 for rank <= 4.
    """
    n = order
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for cp in iter_partitions(profile, n):
        counts[cp.largest][cp.size] += 1
    return RefinedTable(profile, n, tuple(tuple(row) for row in counts))
