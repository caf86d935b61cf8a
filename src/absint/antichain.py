"""Antichains of block sets with orientation-directed subsumption.

An antichain stores finitely many pairwise ⊆-incomparable sets.  The
orientation says which extreme matters: a KEEP_MAX antichain retains maximal
sets (a superset subsumes its subsets), a KEEP_MIN antichain retains minimal
ones.  Elements are bitmasks over block indices interned at graph-load time.

``Antichain`` is the immutable value: its elements are kept in sorted order so
that structurally equal antichains compare equal.  A fixpoint updates a
``Store`` in place instead: a plain set of masks.  ``store_add`` is the one
insertion routine; ``Antichain.insert`` and ``union`` go through it too.  It
makes one pass over the store that looks for a subsumer and collects the
masks the new one subsumes.  A store that grows past ``INDEX_THRESHOLD``
masks can also be given an ``Index``, from popcount to the masks of that
size.  Two distinct masks of equal size are never comparable, so with an
index the pass skips the mask's own size and scans only the other buckets.
A mask comparable with one a size larger or smaller differs from it in one
bit, so a bucket one size away is probed at the mask's one-bit neighbours
instead when it holds more masks than there are neighbours.  The index
keeps the bit length of the widest mask added through it (``Index.width``),
which bounds the bits a superset neighbour may add; two large buckets of
adjacent sizes then cost a few lookups per insertion, not their product.
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


#: A mutable antichain: the set of its masks.
Store = set[int]


class Index(dict[int, set[int]]):
    """Popcount -> the masks of that size in a store, sizes present only.
    ``width`` is the bit length of the widest mask added through it, so no
    mask it holds names a block at or past ``width``."""

    __slots__ = ("width",)

    def __init__(self):
        super().__init__()
        self.width = 0


#: A fixpoint keeps an ``Index`` for a store once it holds more masks than
#: this.  Scanning the whole set is cheapest while stores are small (the
#: cache benchmarks' stores average about one mask).  Timing
#: ``classify_exact`` on a 500-location region graph at N = 16 and on a
#: wide graph with 10,240 sets of two sizes at one location (shared 2-vCPU
#: x86-64 VM), thresholds from 32 to 128 tied; 16 and below were slower on
#: the first graph, 512 and no index on the second.
INDEX_THRESHOLD = 32


def index_of(store: Store) -> Index:
    """The popcount index of `store`."""
    index = Index()
    for mask in store:
        index.setdefault(mask.bit_count(), set()).add(mask)
    index.width = max(store, default=0).bit_length()
    return index


def store_masks(store: Store) -> tuple[int, ...]:
    """The masks of `store` in the sorted order ``Antichain`` keeps."""
    return tuple(sorted(store))


def store_add(store: Store, mask: int, keep_max: bool, index: Index | None = None) -> bool:
    """Add a set to `store` unless subsumed, dropping the elements it
    subsumes; True when the store changed.  `index`, if given, is the
    store's popcount index and is kept in step with it.

    An element that subsumes the mask rules out one that the mask subsumes
    (the two elements would be comparable), so a single pass both looks for
    a subsumer and collects what the mask subsumes.  Without an index the
    pass covers the whole set; with one, only the buckets of other sizes,
    since two distinct masks of equal size are never comparable.  In a
    bucket one size away only the mask's one-bit neighbours can be
    comparable with it; when the bucket holds more masks than the mask
    has such neighbours, the pass looks those up instead of scanning."""
    if mask in store:
        return False
    if index is None:
        hits = []
        for e in store:
            both = mask & e
            if both == mask or both == e:
                if (both == mask) is keep_max:
                    return False
                hits.append(e)
        if hits:
            store.difference_update(hits)
        store.add(mask)
        return True
    size = mask.bit_count()
    for other, bucket in list(index.items()):
        if other == size:
            continue
        larger = other > size
        if other == size + 1:
            near = ~mask & ((1 << index.width) - 1)  # the bits a superset may add
        elif other == size - 1:
            near = mask  # the bits a subset may drop
        else:
            near = None
        if near is not None and near.bit_count() < len(bucket):
            hits = []
            while near:
                bit = near & -near
                near ^= bit
                if mask ^ bit in bucket:
                    hits.append(mask ^ bit)
        else:
            hits = ([e for e in bucket if mask & e == mask] if larger
                    else [e for e in bucket if mask & e == e])
        if hits:
            if larger is keep_max:
                return False
            bucket.difference_update(hits)
            store.difference_update(hits)
            if not bucket:
                del index[other]
    own = index.get(size)
    if own is None:
        index[size] = {mask}
    else:
        own.add(mask)
    if mask.bit_length() > index.width:
        index.width = mask.bit_length()
    store.add(mask)
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
        store = set(self.elements)
        if store_add(store, mask, self.orientation is Orientation.KEEP_MAX):
            return Antichain(self.orientation, store_masks(store))
        return self

    def union(self, other: "Antichain") -> "Antichain":
        """Least antichain subsuming both operands."""
        if self.orientation is not other.orientation:
            raise ValueError("cannot union antichains of different orientations")
        big, small = (self, other) if len(self) >= len(other) else (other, self)
        store = set(big.elements)
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
