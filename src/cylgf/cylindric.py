"""Profiles, cylindric partitions, and the brute-force enumeration oracle.

The enumeration works from the definition alone: one backtracking walk
(`_walk`) builds the rows part by part and enforces every defining
inequality, the cyclic one included, as each part is placed, so that it
stays independent of the slice machinery it is used to audit.
`enumerate_table` counts in the walk's callback; `iter_partitions` collects
the partitions from the same walk.
"""
from __future__ import annotations

from operator import lt

from .record import Record


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
    """First violated cyclic inequality, with 1-based (row, part) position.

    The message is formatted when it is read: most of these errors are
    raised and caught by callers that only test validity.
    """

    def __init__(self, row_index: int, part_index: int, lhs: int, rhs: int):
        self.row_index = row_index
        self.part_index = part_index
        self.lhs = lhs
        self.rhs = rhs

    def __str__(self) -> str:
        return (f"lambda^({self.row_index})_{self.part_index} = {self.lhs} "
                f"< {self.rhs} (required >= by the profile shift)")


class Profile(Record):
    """Composition c = (c_1, ..., c_r); rank r, level sum(c), t = r + level."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if len(parts) == 0:
            raise ProfileError("profile must have rank >= 1")
        if min(parts) < 0:
            raise ProfileError(f"profile parts must be >= 0: {parts}")
        if sum(parts) < 1:
            raise ProfileError("the all-zero profile (level 0) is rejected")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

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

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.parts) + ")"


class CylindricPartition(Record):
    """r ordinary partitions satisfying the cyclic shift inequalities.

    Rows are stored with trailing zeros stripped; equality is componentwise.
    Construct through validate() unless the input is known to be valid.
    """

    __slots__ = ("profile", "rows")

    def __init__(self, profile: Profile, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.profile, self.rows) == (other.profile, other.rows)
        return NotImplemented

    def __hash__(self):
        return hash((self.profile, self.rows))

    @property
    def size(self) -> int:
        return sum(sum(row) for row in self.rows)

    @property
    def largest(self) -> int:
        return max((row[0] for row in self.rows if row), default=0)


def validate(profile: Profile, rows) -> CylindricPartition:
    """Check the definition inequalities; raise the first violation found.

    `rows` is a sequence of r iterables of ints.  Trailing zeros are
    stripped, and out-of-range entries count as 0, which makes rows of
    unequal lengths comparable.  Row and part indices in errors are 1-based.
    """
    r = profile.rank
    if len(rows) != r:
        raise PartitionError(f"expected {r} rows, got {len(rows)}")
    stripped = []
    for i, row in enumerate(rows):
        row = tuple(row)
        while row and row[-1] == 0:
            row = row[:-1]
        # with no ascent the last part is the least, so one test covers both
        if row and (row[-1] <= 0 or any(map(lt, row, row[1:]))):
            raise RowError(i, row, "contains a nonpositive part"
                           if min(row) <= 0 else "is not weakly decreasing")
        stripped.append(row)
    rows = stripped
    c = profile.parts
    # row i (1-based) against row i + 1 cyclically, which is shifted by
    # c_{i+1}: upper[j] >= lower[j + shift] for all j, zeros off the end
    for i, (upper, lower, shift) in enumerate(
            zip(rows, rows[1:] + rows[:1], c[1:] + c[:1]), 1):
        for j, low in enumerate(lower[shift:]):
            up = upper[j] if j < len(upper) else 0
            if up < low:
                raise InequalityError(i, j + 1, up, low)
    return CylindricPartition(profile, tuple(rows))


def _walk(profile: Profile, bound: int, visit) -> None:
    """Call visit(rows, largest, size) once per cylindric partition of size
    <= bound, by plain backtracking.

    Rows are built one after another, part by part, and every inequality is
    enforced as its part is placed: each part of row i > 0 is at most the
    entry of row i - 1 that dominates it, and each part of the last row is at
    least the entry of the first row it must dominate (the cyclic inequality
    last[j] >= first[j + c_1]).  `need`, the sum of the first-row parts the
    last row still has to dominate, is the least size the last row must
    still take, so a prefix that leaves less room than that is cut at once;
    the last row is complete only when `need` is 0.  `rows` is the walk's own
    list of part lists: read it during the call, do not keep it.
    """
    c = profile.parts
    last, lift = len(c) - 1, c[0]
    rows: list[list[int]] = [[] for _ in c]
    first = rows[0]

    def extend(i, pos, cap, size, largest, need):
        row = rows[i]
        if i < last:
            extend(i + 1, 0, bound - size, size, largest, need)
        elif not need:
            visit(rows, largest, size)
        lo, grow = 1, 0
        if i == last and need:
            # this part dominates first[pos + lift] and takes it off the need
            lo = first[pos + lift]
            need -= lo
        room = bound - size - need
        hi = min(cap, room)
        if i:
            above, j = rows[i - 1], pos - c[i]
            if j >= 0:
                hi = min(hi, above[j] if j < len(above) else 0)
        elif last and pos >= lift:
            # the last row will have to dominate this part too
            hi, grow = min(hi, room // 2), 1
        for v in range(hi, lo - 1, -1):
            row.append(v)
            extend(i, pos + 1, v, size + v, largest if pos else max(largest, v),
                   need + grow * v)
            row.pop()

    extend(0, 0, bound, 0, 0, 0)


def iter_partitions(profile: Profile, bound: int) -> list[CylindricPartition]:
    """All cylindric partitions with size <= bound, from the same walk as
    enumerate_table."""
    found = []

    def visit(rows, largest, size):
        found.append(CylindricPartition(profile, tuple(map(tuple, rows))))

    _walk(profile, bound, visit)
    return found


class RefinedTable(Record):
    """counts[m][n] = number of cylindric partitions with largest part m, size n."""

    __slots__ = ("profile", "order", "counts")

    def __init__(self, profile: Profile, order: int,
                 counts: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.profile, self.order, self.counts)
                    == (other.profile, other.order, other.counts))
        return NotImplemented

    def __hash__(self):
        return hash((self.profile, self.order, self.counts))

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
    or generating-function modules.  It counts in the walk's callback and
    builds no partition objects, so its cost is about the number of prefixes
    the walk visits: (1,1,1,1) at order 18 (165,802 partitions) takes about
    0.4 s on one core of a 2-vCPU Xeon VM under CPython 3.11.
    """
    n = order
    counts = [[0] * (n + 1) for _ in range(n + 1)]

    def visit(rows, largest, size):
        counts[largest][size] += 1

    _walk(profile, n, visit)
    return RefinedTable(profile, n, tuple(tuple(row) for row in counts))
