"""Exact per-block cache analysis over younger-set antichains.

For one focus block the cache set is abstracted to "absent" or "present with
this set of younger blocks" — nothing else affects whether the next access to
the focus hits.  Collections of these configurations are kept as antichains:
for deciding whether a later miss is possible only maximal younger-sets
matter (a superset reaches eviction whenever a subset does), and for a later
hit only minimal ones.  Running the fixpoint once per orientation therefore
answers exists-miss and exists-hit exactly with respect to the control-flow
model, which is what the classifications below are built from.

The absent flag is only trusted from the KEEP_MAX run: the KEEP_MIN run drops
superset configurations, which can hide evictions that happen later (a
concrete instance demonstrating this lives in the regression tests).

Propagation.  One run keeps its state in per-graph lists keyed by location
number: each reached location's store of younger-sets (a plain set of
masks, ``antichain.Store``, with a popcount ``antichain.Index`` built once
the store passes ``antichain.INDEX_THRESHOLD`` masks) and absent flag.  A
visit pushes the location's whole store and flag along its out-edges and
queues each successor whose view grew; a re-push changes nothing, since a
store keeps the extremes of all it was ever given and a set flag stays set.
The worklist always visits the waiting location that comes first in
reverse postorder from the entry (``Cfg.access_index``), so outside loops a
location is visited once, after all its predecessors, and pushes their sets
on in one batch; ``agebounds.age_pass`` propagates the same way.
``_Run.receive`` is the one per-edge step; ``transfer`` applies it to a
whole view, so the semantics live in one place.

Initial contents.  Both runs are seeded with the absent configuration, the
empty cache's.  With unknown initial contents the KEEP_MIN run is also
seeded with the focus present and youngest, whose empty younger-set
subsumes every present configuration the cache may start in.  The KEEP_MAX
run gets no other seed, because exists-miss does not depend on the initial
contents: on a path that never accesses the focus, the absent seed already
reaches every location, absent; on any other path, the last focus access
leaves the focus present and youngest, whatever the cache held at the
start.  So the KEEP_MAX run, and with it every exists-miss verdict, is the
same under both policies.

Order.  The stores a run ends with depend on the visit order: a set pushed
before a superset arrived leaves images that the superset's images need not
cover (a full set evicts where its subsets still grow).  The verdicts do
not.  Along any path, a KEEP_MAX set evicts no earlier than a set that
subsumes it, and once that one has evicted, the absent flag travels on to
every later point of the path until the focus is accessed again, which
resets both; so the KEEP_MAX flag at a location is set iff some
configuration there is absent, in any order.  Dually a KEEP_MIN set stays
present at least as long as any superset it subsumes, so the KEEP_MIN store
is nonempty iff some configuration there is present.  Classifications use
only these two facts.

Relevance.  A caller may name the locations whose views it reads (``at``).
The run then keeps only the locations from which one of them can be
reached (``AccessIndex.reaching``, a backward search over the predecessor
lists), seeds the entry only if it is kept, and never calls ``receive`` on
a dropped location.  The kept set is closed under predecessors: no dropped
location has an edge into a kept one.  So every kept location receives
exactly what it receives in the unrestricted run, in the same order (the
worklist visits kept locations in the same relative order, since dropped
ones never feed them), and ends with the same store and absent flag, not
merely the same verdicts.  ``classify_exact`` passes each run only the
sources of the focus's sites whose question that run answers and the cheap
witnesses of ``agebounds`` leave open: "can it hit?" for KEEP_MIN, "can it
miss?" for KEEP_MAX.  A run with no such source is skipped.  On the seed-1
benchmark graphs the witnesses prove a possible hit at 92% of the
cache-unknown sites and 85% of the cache-compare ones, and a possible miss
at 69% and 64%.

Result.  ``analyze_block`` keeps the run's final lists and returns them as a
read-only mapping from location to ``BlockView``.  A view is built from its
location's store when it is looked up (``_Run.view``), and is not kept, so
``classify_exact``, which reads only the locations it passed as `at`,
builds the views of those locations alone.  A location the run did
not keep, like one no path reaches, maps to the bottom view.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from heapq import heappop, heappush
from typing import NamedTuple

from .agebounds import ApproxClass, classify_all_approx, witnesses
from .antichain import (
    INDEX_THRESHOLD, Antichain, Index, Orientation, Store, index_of, store_add, store_masks,
)
from .cfg import AccessIndex, Cfg
from .lang import class_checked
from .lru import Classification, InitPolicy, classification


@class_checked
class BlockView(NamedTuple):
    """Focused abstract state: may the block be absent, and with which
    younger-sets may it be present.  (False, empty) means unreached."""

    may_absent: bool
    younger: Antichain

    def is_bottom(self) -> bool:
        return not self.may_absent and len(self.younger) == 0


class _Run(Mapping):
    """One fixpoint run, held in per-graph state indexed by location number:
    the store of each location an edge has reached (None before that), its
    popcount index once it has one, and its absent flag.  Read as a
    mapping, it is the result of `analyze_block`: the view of each location
    of ``graph``."""

    __slots__ = ("graph", "orientation", "keep_max", "limit", "stores", "indexes", "absent")

    def __init__(self, orientation: Orientation, n: int, size: int, graph: AccessIndex | None = None):
        self.graph, self.orientation, self.limit = graph, orientation, n - 1
        self.keep_max = orientation is Orientation.KEEP_MAX
        self.stores: list[Store | None] = [None] * size
        self.indexes: list[Index | None] = [None] * size
        self.absent = [False] * size

    def receive(self, loc: int, absent: bool, masks, bit: int) -> bool:
        """The per-edge step: join the image of (absent, masks) under one
        edge into `loc`; `bit` is the accessed block's bit, never the
        focus's, or 0 on an edge that accesses nothing.  True when the view
        at `loc` grew.  The store at `loc` gets its popcount index here,
        once it holds more than ``INDEX_THRESHOLD`` masks."""
        store = self.stores[loc]
        if store is None:
            store = self.stores[loc] = set()
        changed = False
        for mask in masks:
            if bit and not mask & bit:
                if mask.bit_count() >= self.limit:
                    absent = True
                    continue
                mask |= bit
            if mask in store:
                continue
            if store:
                index = self.indexes[loc]
                if index is None and len(store) > INDEX_THRESHOLD:
                    index = self.indexes[loc] = index_of(store)
                if not store_add(store, mask, self.keep_max, index):
                    continue
            else:
                store.add(mask)
            changed = True
        if absent and not self.absent[loc]:
            self.absent[loc] = changed = True
        return changed

    def view(self, loc: int) -> BlockView:
        """The view of a reached location, built from its store."""
        return BlockView(self.absent[loc], Antichain(self.orientation, store_masks(self.stores[loc])))

    def __getitem__(self, loc: str) -> BlockView:
        index = self.graph.where[loc]
        if self.stores[index] is None:
            return BlockView(False, Antichain(self.orientation))
        return self.view(index)

    def __iter__(self) -> Iterator[str]:
        return iter(self.graph.locations)

    def __len__(self) -> int:
        return len(self.stores)


def transfer(view: BlockView, accessed: int, focus: int, n: int) -> BlockView:
    """One access, on interned block indices.

    Accessing the focus makes it present and youngest.  Accessing another
    block leaves younger-sets containing it unchanged, grows the ones that
    still have room, and evicts the focus from the full ones.
    """
    if view.is_bottom():
        return view
    if accessed == focus:
        return BlockView(False, Antichain(view.younger.orientation, (0,)))
    run = _Run(view.younger.orientation, n, 1)
    run.receive(0, view.may_absent, view.younger, 1 << accessed)
    return run.view(0)


def analyze_block(
    cfg: Cfg,
    focus: str,
    n: int,
    orientation: Orientation,
    init: InitPolicy = InitPolicy.EMPTY,
    at: Iterable[str] | None = None,
) -> Mapping[str, BlockView]:
    """Least fixpoint of the focused transfer for one block.

    Blocks are interned to bit indices in sorted order, followed, if the
    graph never accesses the focus, by one for the focus.  Non-access edges
    are no-ops.

    `at` names the locations whose views the caller reads (None: all).  The
    run keeps only the locations from which one of them can be reached.

    The result maps every location, in ``Cfg.access_index`` order, to its
    view.  A view is built from the location's final store when it is
    looked up, and again at every lookup; an unreached location, and every
    location the run did not keep, maps to the bottom view.  Callers that
    read a few locations build only those.
    """
    graph = cfg.access_index
    focus_bit = 1 << graph.blocks.get(focus, len(graph.blocks))
    size = len(graph.locations)
    run = _Run(orientation, n, size, graph)
    succ, stores, absents, receive = graph.succ, run.stores, run.absent, run.receive
    live = [True] * size if at is None else graph.reaching(at)
    queued = [False] * size
    work = []
    if live[0]:
        receive(0, True, (), 0)  # absent under either policy
        if init is InitPolicy.UNKNOWN and orientation is Orientation.KEEP_MIN:
            receive(0, False, (0,), 0)  # present and youngest
        queued[0] = True
        work.append(0)
    while work:
        loc = heappop(work)
        queued[loc] = False
        # The whole store, copied: an access self-loop adds to it while it
        # is being pushed.
        absent, masks = absents[loc], tuple(stores[loc])
        for dst, bit in succ[loc]:
            if not live[dst]:
                continue
            if bit == focus_bit:
                changed = receive(dst, False, (0,), 0)
            else:
                changed = receive(dst, absent, masks, bit)
            if changed and not queued[dst]:
                queued[dst] = True
                heappush(work, dst)
    return run


def classify_exact(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY, foci: set[str] | None = None
) -> dict[int, Classification]:
    """Exact classification: exists-miss from the KEEP_MAX run's absent flag,
    exists-hit from nonemptiness of the KEEP_MIN run's antichain, each asked
    only where the cheap witnesses (``agebounds.witnesses``) leave it open.

    `foci` names the blocks to classify (None: every accessed block).  A
    focus's KEEP_MIN run reads the sources of its sites whose hit question
    is open, and its KEEP_MAX run those whose miss question is open; each
    run is restricted to its own sources (``analyze_block``'s `at`), and a
    run with none is skipped.  A site no path reaches is decided by the
    witnesses, as unreachable."""
    wanted = cfg.blocks() if foci is None else tuple(sorted(foci))
    facts = witnesses(cfg, n, init)
    sites: dict[str, list[tuple[int, str]]] = {}
    for site, block, src in cfg.access_sites:
        sites.setdefault(block, []).append((site, src))
    result: dict[int, Classification] = {}
    for focus in wanted:
        own = sites.get(focus, ())
        miss_at = [src for site, src in own if facts[site][1] is None]
        hit_at = [src for site, src in own if facts[site][0] is None]
        vmax = analyze_block(cfg, focus, n, Orientation.KEEP_MAX, init, miss_at) if miss_at else None
        vmin = analyze_block(cfg, focus, n, Orientation.KEEP_MIN, init, hit_at) if hit_at else None
        for site, src in own:
            hit, miss = facts[site]
            if hit is None:
                hit = len(vmin[src].younger) > 0
            if miss is None:
                miss = vmax[src].may_absent
            result[site] = classification(hit, miss)
    return result


def classify_pipeline(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY
) -> dict[int, tuple[Classification, str]]:
    """Prefilter with the cheap bounds, run the exact analysis only for blocks
    that still have unresolved sites, and tag each verdict with its source."""
    approx = classify_all_approx(cfg, n, init)
    result: dict[int, tuple[Classification, str]] = {}
    unresolved_blocks: set[str] = set()
    for site, block, _src in cfg.access_sites:
        verdict = approx[site]
        if verdict is ApproxClass.UNKNOWN:
            unresolved_blocks.add(block)
        else:
            result[site] = (Classification(verdict.value), "approx")
    if unresolved_blocks:
        exact = classify_exact(cfg, n, init, foci=unresolved_blocks)
        for site, verdict in exact.items():
            if site not in result:
                result[site] = (verdict, "exact")
    return result
