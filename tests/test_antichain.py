from __future__ import annotations

import itertools
import random

import pytest

from absint.antichain import Antichain, Orientation, indices_of, mask_of, store_add, store_masks
from helpers import naive_extremes


def ac(orientation, *sets):
    return Antichain.of(orientation, sets)


def as_sets(antichain):
    return set(antichain.sets())


B, C, D = 0, 1, 2


def test_keep_max_insert_subsumes():
    out = ac(Orientation.KEEP_MAX, {B}, {B, C}).insert(mask_of({B, C, D}))
    assert as_sets(out) == {frozenset({B, C, D})}


def test_keep_min_insert_subsumes():
    out = ac(Orientation.KEEP_MIN, {B, C}, {B, C, D}).insert(mask_of({B}))
    assert as_sets(out) == {frozenset({B})}


def test_insert_idempotent():
    one = ac(Orientation.KEEP_MAX, {B, C, D})
    assert one.insert(mask_of({B, C, D})) == one


def test_union_subsumption():
    out = ac(Orientation.KEEP_MAX, {B}).union(ac(Orientation.KEEP_MAX, {B, C}))
    assert as_sets(out) == {frozenset({B, C})}


def test_union_keeps_incomparable():
    out = ac(Orientation.KEEP_MIN, {B}).union(ac(Orientation.KEEP_MIN, {C}))
    assert as_sets(out) == {frozenset({B}), frozenset({C})}


def test_union_identity():
    a = ac(Orientation.KEEP_MAX, {B}, {C, D})
    assert a.union(Antichain.empty(Orientation.KEEP_MAX)) == a


def test_union_orientation_mismatch():
    with pytest.raises(ValueError):
        ac(Orientation.KEEP_MAX, {B}).union(ac(Orientation.KEEP_MIN, {B}))


def test_subsumes_examples():
    assert ac(Orientation.KEEP_MAX, {B, C, D}).subsumes(ac(Orientation.KEEP_MAX, {B}, {B, C}))
    assert ac(Orientation.KEEP_MAX, {B}).subsumes(Antichain.empty(Orientation.KEEP_MAX))
    assert Antichain.empty(Orientation.KEEP_MIN).subsumes(Antichain.empty(Orientation.KEEP_MIN))
    assert not ac(Orientation.KEEP_MIN, {B}).subsumes(ac(Orientation.KEEP_MIN, {C}))


def test_structural_equality_is_order_insensitive():
    x = ac(Orientation.KEEP_MAX, {B}, {C})
    y = ac(Orientation.KEEP_MAX, {C}, {B})
    assert x == y
    assert x.elements == tuple(sorted(x.elements))


def random_masks(rng, universe=5, count=8):
    return [rng.randrange(1 << universe) for _ in range(count)]


def test_matches_naive_extremes_oracle():
    rng = random.Random(2024)
    for _ in range(400):
        masks = random_masks(rng)
        for orientation in Orientation:
            out = Antichain.empty(orientation)
            for m in masks:
                out = out.insert(m)
            family = [frozenset(indices_of(m)) for m in masks]
            expected = naive_extremes(family, orientation is Orientation.KEEP_MAX)
            assert set(out.sets()) == expected


def test_store_add_keeps_the_extremes_in_nonempty_size_buckets():
    """The fixpoint's in-place insertion agrees with the naive oracle after
    every step, reports exactly the steps that change the store, and never
    keeps two comparable masks.  The same rounds run through the indexed
    path too, whose popcount index must hold exactly the store's masks
    under their sizes, with a key only for a size that still has masks."""
    rng = random.Random(99)
    for _ in range(300):
        masks = random_masks(rng)
        for orientation in Orientation:
            keep_max = orientation is Orientation.KEEP_MAX
            for index in (None, {}):
                store, seen = set(), []
                for m in masks:
                    before = store_masks(store)
                    changed = store_add(store, m, keep_max, index)
                    seen.append(frozenset(indices_of(m)))
                    after = store_masks(store)
                    assert {frozenset(indices_of(e)) for e in after} == naive_extremes(seen, keep_max)
                    assert changed == (after != before)
                    for x, y in itertools.combinations(after, 2):
                        assert x & y != x and x & y != y, (x, y)
                    if index is not None:
                        sizes = {e.bit_count() for e in store}
                        assert index == {size: {e for e in store if e.bit_count() == size}
                                         for size in sizes}


def test_no_two_elements_comparable():
    rng = random.Random(11)
    for _ in range(300):
        out = Antichain.empty(rng.choice(list(Orientation)))
        for m in random_masks(rng):
            out = out.insert(m)
        for x, y in itertools.combinations(out.elements, 2):
            assert x & y != x and x & y != y, (x, y)


def test_union_is_least_upper_bound():
    """Brute force over small universes: union subsumes both operands, and
    any antichain subsuming both subsumes the union."""
    rng = random.Random(404)
    for _ in range(150):
        orientation = rng.choice(list(Orientation))
        a = Antichain.of(orientation, [indices_of(m) for m in random_masks(rng, 4, 4)])
        b = Antichain.of(orientation, [indices_of(m) for m in random_masks(rng, 4, 4)])
        u = a.union(b)
        assert u.subsumes(a) and u.subsumes(b)
        c = Antichain.of(orientation, [indices_of(m) for m in random_masks(rng, 4, 5)])
        c = c.union(a).union(b)  # make c an upper bound of both
        assert c.subsumes(u)


def test_subsumes_iff_union_absorbs():
    rng = random.Random(17)
    for _ in range(300):
        orientation = rng.choice(list(Orientation))
        a = Antichain.of(orientation, [indices_of(m) for m in random_masks(rng, 4, 4)])
        b = Antichain.of(orientation, [indices_of(m) for m in random_masks(rng, 4, 4)])
        assert a.subsumes(b) == (a.union(b) == a)


def test_mask_round_trip():
    assert indices_of(mask_of([0, 3, 5])) == (0, 3, 5)
    assert mask_of(()) == 0 and indices_of(0) == ()
