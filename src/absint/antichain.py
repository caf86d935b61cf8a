"""Antichains of block sets with orientation-directed subsumption.

An antichain stores finitely many pairwise ⊆-incomparable sets.  The
orientation says which extreme matters: a KEEP_MAX antichain retains maximal
sets (a superset subsumes its subsets), a KEEP_MIN antichain retains minimal
ones.  Elements are bitmasks over block indices interned at graph-load time.

``Antichain`` is the immutable value: its elements are kept in sorted order so
that structurally equal antichains compare equal.  A fixpoint updates a
``Store`` in place instead: a plain dict from popcount to the set of masks of
that size, holding only the sizes present.  Two distinct masks of equal size
are never comparable, so a mask meets its own size only through a membership
test, and only the sizes on the side that can subsume it (larger for
KEEP_MAX, smaller for KEEP_MIN) are scanned.  ``store_add`` is the one
insertion routine; ``Antichain.insert`` and ``union`` go through it too.
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


#: A mutable antichain: popcount -> the masks of that size, sizes present only.
Store = dict[int, set[int]]


def store_of(masks: Iterable[int]) -> Store:
    """A store holding `masks`, which must already be pairwise incomparable."""
    store: Store = {}
    for mask in masks:
        store.setdefault(mask.bit_count(), set()).add(mask)
    return store


def store_masks(store: Store) -> tuple[int, ...]:
    """The masks of `store` in the sorted order ``Antichain`` keeps."""
    return tuple(sorted([mask for bucket in store.values() for mask in bucket]))


def store_add(store: Store, mask: int, keep_max: bool) -> bool:
    """Add a set to `store` unless subsumed, dropping the elements it
    subsumes; True when the store changed.

    An element that subsumes the mask rules out one that the mask subsumes
    (the two elements would be comparable), so a single pass over the other
    sizes both looks for a subsumer and drops what the mask subsumes."""
    size = mask.bit_count()
    own = store.get(size)
    if own is not None and mask in own:
        return False
    for other, bucket in list(store.items()):
        if other != size:
            larger = other > size
            hits = ([e for e in bucket if mask & e == mask] if larger
                    else [e for e in bucket if mask & e == e])
            if hits:
                if larger is keep_max:
                    return False
                bucket.difference_update(hits)
                if not bucket:
                    del store[other]
    if own is None:
        store[size] = {mask}
    else:
        own.add(mask)
    return True


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
        store = store_of(self.elements)
        if store_add(store, mask, self.orientation is Orientation.KEEP_MAX):
            return Antichain(self.orientation, store_masks(store))
        return self

    def union(self, other: "Antichain") -> "Antichain":
        """Least antichain subsuming both operands."""
        if self.orientation is not other.orientation:
            raise ValueError("cannot union antichains of different orientations")
        big, small = (self, other) if len(self) >= len(other) else (other, self)
        store = store_of(big.elements)
        keep_max = big.orientation is Orientation.KEEP_MAX
        changed = False
        for m in small.elements:
            changed |= store_add(store, m, keep_max)
        return Antichain(big.orientation, store_masks(store)) if changed else big

    def covers(self, mask: int) -> bool:
        if self.orientation is Orientation.KEEP_MAX:
            return any(mask & e == mask for e in self.elements)
        return any(mask & e == e for e in self.elements)

    def subsumes(self, other: "Antichain") -> bool:
        """The order used for fixpoint convergence: union(self, other) == self."""
        if self.orientation is not other.orientation:
            raise ValueError("cannot compare antichains of different orientations")
        return all(self.covers(m) for m in other.elements)
