"""Exact generating functions of cylindric partitions, three independent ways.

Modules: series (truncated q-series arithmetic), cylindric (definitions and
the enumeration oracle), slices (slice calculus and flow graphs), genfun
(closed-form products, chain DP, identity catalog), lemmas (telescoping sum
identities), record (the base class of the immutable records, and
`InputError`, that of every bad-input error), cli (command-line front end).
"""

from .cylindric import CylindricPartition, Profile
from .series import Series

__all__ = ["CylindricPartition", "Profile", "Series"]
__version__ = "0.1.0"
