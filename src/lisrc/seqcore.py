"""Sequences of distinct integers and their increasing index sets.

A sequence is stored twice: as the raw values supplied by the caller and as
the rank-normalized permutation of 1..n that all algorithms work on.  Index
sets are 1-based and always reported in terms of the original positions.
Index 0 is reserved for the sentinel element of value 0 that the pile
construction prepends; it never appears in user-facing sets.

`require_feasible` is the only validation of a caller's index set; every
entry point of the package runs it once per set it is given (directly,
as `reconfig.minimal_set` does, or through `reconfig.require_pair`)
before touching the set, so each set is validated once per request: the
CLI's query subcommands pass the sets as read and leave the check to the
query.  The longest increasing subsequence length is
`piles.build_piles(seq).k`.

`is_feasible`, the `Infeasible` check as a boolean (it still raises
`IndexOutOfRange`), serves only the tests and the benchmark's span
tracer, which patches it where `reconfig` and `bipartite` re-import it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import DuplicateValue, IndexOutOfRange, Infeasible, LisrcError

FeasibleSet = tuple[int, ...]


@dataclass(frozen=True)
class Sequence:
    """A sequence of distinct integers plus its rank-normalized form.

    `perm[i]` and `raw[i]` compare identically against any other position,
    so every order-based algorithm may work on `perm` alone.
    """

    raw: tuple[int, ...]
    perm: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.raw)

    def value(self, i: int) -> int:
        """Normalized value at 1-based index `i`; index 0 is the sentinel 0.

        `i` must be an int in 0..n, else IndexOutOfRange, as in
        `require_feasible`: a bool, float or str is not read as an index.
        """
        if type(i) is not int or not 0 <= i <= len(self.perm):
            raise IndexOutOfRange(i, len(self.perm))
        return 0 if i == 0 else self.perm[i - 1]


def normalize(raw: Iterable[int]) -> Sequence:
    """Build a Sequence, replacing each value by its rank in 1..n.

    O(n) when the values already are a permutation of 1..n: n distinct
    ints from 1 to n are their own ranks, so `perm` is `raw` itself.  The
    test asks for type int exactly, since `(1, 1.5, 3)` and `(True, 2)`
    pass the range test but must become `(1, 2, 3)` and `(1, 2)`.  Other
    input costs O(n log n) for one sort of the distinct values; values
    that do not hash or compare, or a NaN, raise LisrcError.  A repeated
    value raises DuplicateValue naming the smallest one.

    >>> normalize((7, 8, 5, 6)).perm
    (3, 4, 1, 2)
    >>> normalize((1, 2, 3)).perm
    (1, 2, 3)
    """
    raw = tuple(raw)
    n = len(raw)
    try:
        distinct = set(raw)
    except TypeError as exc:
        raise LisrcError(f"values are not hashable: {exc}") from None
    if len(distinct) != n:
        try:
            raise DuplicateValue(min(v for v, c in Counter(raw).items() if c > 1))
        except TypeError as exc:
            raise LisrcError(f"values are not comparable: {exc}") from None
    if raw and set(map(type, raw)) == {int} and min(raw) == 1 and max(raw) == n:
        return Sequence(raw=raw, perm=raw)
    try:
        ranked = sorted(distinct)
        # The sort compares nothing for one value: compare it with itself.
        if n == 1 and not raw[0] <= raw[0]:
            raise LisrcError(f"values are not ordered: {raw[0]!r}")
    except TypeError as exc:
        raise LisrcError(f"values are not comparable: {exc}") from None
    for a, b in zip(ranked, ranked[1:]):
        if not a < b:
            raise LisrcError(f"values are not ordered: {a!r} and {b!r}")
    rank = dict(zip(ranked, range(1, n + 1)))
    return Sequence(raw=raw, perm=tuple(map(rank.__getitem__, raw)))


def require_feasible(seq: Sequence, s: Iterable[int]) -> FeasibleSet:
    """Validate an index set and return it as a sorted tuple.

    The one check every entry point runs on a caller's index set.  Each
    member must be an int in 1..n (a bool, float or str raises
    IndexOutOfRange like an index out of range), and the values at the
    members must increase with position, else Infeasible reports the
    first offending pair.  Repeated members count once.

    >>> require_feasible(normalize((7, 8, 5, 6)), [4, 3])
    (3, 4)
    """
    items = list(s)
    perm = seq.perm
    n = len(perm)
    for i in items:
        if type(i) is not int:
            raise IndexOutOfRange(i, n)
    members = tuple(sorted(set(items)))
    for i in members:
        if not 1 <= i <= n:
            raise IndexOutOfRange(i, n)
    for i, j in zip(members, members[1:]):
        if perm[i - 1] > perm[j - 1]:
            raise Infeasible(i, j, seq.raw[i - 1], seq.raw[j - 1])
    return members


def is_feasible(seq: Sequence, s: Iterable[int]) -> bool:
    """True iff the values at the given positions increase with position.

    The boolean form of `require_feasible`; invalid indices still raise.
    """
    try:
        require_feasible(seq, s)
    except Infeasible:
        return False
    return True
