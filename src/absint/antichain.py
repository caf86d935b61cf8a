"""Antichains of block sets with orientation-directed subsumption.

An antichain stores finitely many pairwise ⊆-incomparable sets.  The
orientation says which extreme matters: a KEEP_MAX antichain retains maximal
sets (a superset subsumes its subsets), a KEEP_MIN antichain retains minimal
ones.  Elements are bitmasks over block indices interned at graph-load time.

``Antichain`` is the immutable value: its elements are kept in sorted order so
that structurally equal antichains compare equal.  ``AntichainStore`` is the
mutable form a fixpoint updates in place.  It groups its masks by popcount:
two distinct masks of equal size are never comparable, so a mask meets its
own bucket only through a membership test, and only the buckets on the side
that can subsume it (larger for KEEP_MAX, smaller for KEEP_MIN) are scanned.
Both forms insert through ``AntichainStore.add``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


class Orientation(Enum):
    KEEP_MIN = "keep-min"
    KEEP_MAX = "keep-max"


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class Antichain:
    orientation: Orientation
    elements: tuple[int, ...] = ()

    @staticmethod
    def empty(orientation: Orientation) -> "Antichain":
        return Antichain(orientation)

    @staticmethod
    def of(orientation: Orientation, sets: Iterable[Iterable[int]]) -> "Antichain":
        ac = Antichain(orientation)
        for s in sets:
            ac = ac.insert(mask_of(s))
        return ac

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def sets(self) -> list[frozenset[int]]:
        return [frozenset(indices_of(m)) for m in self.elements]

    def insert(self, mask: int) -> "Antichain":
        """Add a set unless subsumed; drop the elements it subsumes."""
        store = AntichainStore(self.orientation, self.elements)
        return store.freeze() if store.add(mask) else self

    def union(self, other: "Antichain") -> "Antichain":
        """Least antichain subsuming both operands."""
        if self.orientation is not other.orientation:
            raise ValueError("cannot union antichains of different orientations")
        big, small = (self, other) if len(self) >= len(other) else (other, self)
        store = AntichainStore(big.orientation, big.elements)
        changed = False
        for m in small.elements:
            changed |= store.add(m)
        return store.freeze() if changed else big

    def covers(self, mask: int) -> bool:
        if self.orientation is Orientation.KEEP_MAX:
            return any(mask & e == mask for e in self.elements)
        return any(mask & e == e for e in self.elements)

    def subsumes(self, other: "Antichain") -> bool:
        """The order used for fixpoint convergence: union(self, other) == self."""
        if self.orientation is not other.orientation:
            raise ValueError("cannot compare antichains of different orientations")
        return all(self.covers(m) for m in other.elements)


class AntichainStore:
    """A mutable antichain whose masks are bucketed by popcount."""

    __slots__ = ("orientation", "keep_max", "buckets")

    def __init__(self, orientation: Orientation, antichain: Iterable[int] = ()):
        """`antichain` must already be pairwise incomparable; a bucket is made
        when the first set of its size arrives."""
        self.orientation = orientation
        self.keep_max = orientation is Orientation.KEEP_MAX
        self.buckets: list[set[int]] = []
        for mask in antichain:
            size = mask.bit_count()
            self._grow(size)
            self.buckets[size].add(mask)

    def _grow(self, size: int) -> None:
        self.buckets += [set() for _ in range(size + 1 - len(self.buckets))]

    def __contains__(self, mask: int) -> bool:
        size = mask.bit_count()
        return size < len(self.buckets) and mask in self.buckets[size]

    def __iter__(self) -> Iterator[int]:
        return (mask for bucket in self.buckets for mask in bucket)

    def add(self, mask: int) -> bool:
        """Add a set unless subsumed, dropping the elements it subsumes;
        True when the store changed."""
        size = mask.bit_count()
        buckets = self.buckets
        if size >= len(buckets):
            self._grow(size)
        own = buckets[size]
        if mask in own:
            return False
        if self.keep_max:
            for bucket in buckets[size + 1:]:
                for e in bucket:
                    if mask & e == mask:
                        return False
            for bucket in buckets[:size]:
                if bucket:
                    bucket.difference_update([e for e in bucket if e & mask == e])
        else:
            for bucket in buckets[:size]:
                for e in bucket:
                    if mask & e == e:
                        return False
            for bucket in buckets[size + 1:]:
                if bucket:
                    bucket.difference_update([e for e in bucket if mask & e == mask])
        own.add(mask)
        return True

    def discard(self, mask: int) -> None:
        if mask in self:
            self.buckets[mask.bit_count()].remove(mask)

    def freeze(self) -> Antichain:
        return Antichain(self.orientation, tuple(sorted(set().union(*self.buckets))))
