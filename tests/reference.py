"""Reference code that only the tests use.

`recompose` inverts `slices.decompose` from the definition, and
`DUALITY_PAIRS` lists the profiles that share one generating function under
rank-level duality; no command of the package needs either.
"""
from cylgf.cylindric import CylindricPartition, Profile
from cylgf.slices import Slice, SliceError, contains

#: profiles sharing one generating function under rank-level duality
DUALITY_PAIRS = (
    ((2, 1), (1, 1, 0)),
    ((3, 0), (2, 0, 0)),
    ((4, 0), (2, 0, 0, 0)),
    ((2, 2), (1, 0, 1, 0)),
    ((3, 1), (1, 1, 0, 0)),
)


def recompose(profile: Profile, levels: list[Slice]) -> CylindricPartition:
    """Inverse of decompose: part j of row i counts levels with t_i >= j.

    No levels give the empty partition of the profile.
    """
    for k, s in enumerate(levels):
        if s.profile != profile:
            raise SliceError("profile mismatch among levels")
        if k + 1 < len(levels) and not contains(levels[k + 1], s):
            raise SliceError(
                f"level {k + 2} slice {levels[k + 1].white} is not contained "
                f"in level {k + 1} slice {s.white}"
            )
    rows = []
    for i in range(profile.rank):
        depth = max((s.white[i] for s in levels), default=0)
        rows.append(tuple(
            sum(1 for s in levels if s.white[i] >= j) for j in range(1, depth + 1)
        ))
    return CylindricPartition(profile, tuple(rows))
