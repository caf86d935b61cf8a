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

Delta propagation.  One run keeps its state in per-graph lists and dicts
keyed by location number: each reached location's store of younger-sets (a
popcount-keyed ``antichain.Store``), absent flag and cores, and what arrived
there since its previous visit.  A visit pushes along the location's
out-edges only that: the absent flag the first time it is set, and the
younger-sets and cores that arrived since and are still there.  A set
subsumed before its location is visited is never pushed.  The worklist
always visits the waiting location that comes first in reverse postorder
from the entry (``Cfg.access_index``), so outside loops a location is
visited once, after all its predecessors, and pushes their sets on in one
batch.  ``_Run.receive`` is the one per-edge step; ``transfer`` applies it
to a whole view, so the semantics live in one place.

Symbolic seed.  With unknown initial contents the KEEP_MAX seed is every
full (N-1)-set of the other blocks; listing them costs C(blocks, N-1) masks.
Instead a core mask S stands for the family "every full (N-1)-set ⊇ S":

* accessing b ∈ S leaves the family unchanged;
* accessing b ∉ S evicts the members that lack b (the absent flag is set)
  and leaves the family of S ∪ {b}, which is the concrete set S ∪ {b} once
  that has N-1 elements;
* a concrete set m is covered by the family of S iff |S ∪ m| ≤ N-1, and a
  core covers every larger core (a smaller core stands for a larger family).

The seed is the core ∅ when the universe (the blocks, the fresh block and the
focus) has at least N indices, so that full sets exist; with fewer it is the
single set of all other blocks.  When the universe has exactly N indices the
one full set contains every b, so setting the flag overstates that family's
image; it changes nothing, because cores only travel along focus-free paths
from the entry, and the absent configuration of the seed travels with them.

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

Result.  ``analyze_block`` keeps the run's final lists and returns them as a
read-only mapping from location to ``BlockView``.  A view is built from its
location's store when it is looked up (``_Run.view``), and is not kept, so
``classify_exact``, which reads only the sources of its focus's access
sites, builds the views of those locations alone.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from heapq import heappop, heappush

from .agebounds import ApproxClass, classify_all_approx
from .antichain import Antichain, Orientation, Store, store_add, store_masks
from .cfg import AccessIndex, AccessLabel, Cfg
from .lru import Classification, InitPolicy


@dataclass(frozen=True)
class BlockView:
    """Focused abstract state: may the block be absent, and with which
    younger-sets may it be present.  (False, empty) means unreached.

    `cores` is the symbolic part of a KEEP_MAX view under unknown initial
    contents: each core S stands for every full (N-1)-set ⊇ S.  `younger`
    holds the concrete sets only."""

    may_absent: bool
    younger: Antichain
    cores: tuple[int, ...] = ()

    def is_bottom(self) -> bool:
        return not self.may_absent and len(self.younger) == 0 and not self.cores

    def join(self, other: "BlockView") -> "BlockView":
        """Upper bound of both views; concrete sets are not reduced against
        the other view's cores, since that needs N."""
        cores = Antichain(Orientation.KEEP_MIN, self.cores).union(
            Antichain(Orientation.KEEP_MIN, other.cores)
        )
        return BlockView(
            self.may_absent or other.may_absent,
            self.younger.union(other.younger),
            cores.elements,
        )


class _Run(Mapping):
    """One fixpoint run, held in per-graph state indexed by location number:
    the store of each location an edge has reached (None before that), its
    absent flag and cores, and the absent flag, masks and cores that arrived
    there since its last visit.  Read as a mapping, it is the result of
    `analyze_block`: the view of each location of ``graph``."""

    __slots__ = ("graph", "orientation", "keep_max", "limit", "stores", "absent", "cores",
                 "new_absent", "new_masks", "new_cores")

    def __init__(self, orientation: Orientation, n: int, size: int, graph: AccessIndex | None = None):
        self.graph, self.orientation, self.limit = graph, orientation, n - 1
        self.keep_max = orientation is Orientation.KEEP_MAX
        self.stores: list[Store | None] = [None] * size
        self.absent = [False] * size
        self.cores: list[tuple[int, ...]] = [()] * size
        self.new_absent = [False] * size
        self.new_masks: dict[int, list[int]] = {}
        self.new_cores: dict[int, list[int]] = {}

    def add_family(self, loc: int, core: int) -> bool:
        """Add every full set ⊇ core at `loc`: the concrete set itself once
        it is full."""
        if core.bit_count() >= self.limit:
            return self.receive(loc, False, (core,), (), 0)
        own = self.cores[loc]
        if any(c & core == c for c in own):
            return False
        self.cores[loc] = (*[c for c in own if c & core != core], core)
        store, limit = self.stores[loc], self.limit
        for size, bucket in list(store.items()):
            bucket.difference_update([m for m in bucket if (core | m).bit_count() <= limit])
            if not bucket:
                del store[size]
        self.new_cores.setdefault(loc, []).append(core)
        return True

    def receive(self, loc: int, absent: bool, masks, cores, bit: int) -> bool:
        """The per-edge step: join the image of (absent, masks, cores) under
        one edge into `loc`; `bit` is the accessed block's bit, never the
        focus's, or 0 on an edge that accesses nothing.  True when the view
        at `loc` grew."""
        store = self.stores[loc]
        if store is None:
            store = self.stores[loc] = {}
        changed = False
        for core in cores:
            if bit and not core & bit:
                absent = True
            changed |= self.add_family(loc, core | bit)
        limit = self.limit
        if bit and masks:
            images = []
            for mask in masks:
                if mask & bit:
                    images.append(mask)
                elif mask.bit_count() < limit:
                    images.append(mask | bit)
                else:
                    absent = True
            masks = images
        own_cores = self.cores[loc]
        if own_cores:
            masks = [m for m in masks
                     if all((core | m).bit_count() > limit for core in own_cores)]
        keep_max = self.keep_max
        for mask in masks:
            if store_add(store, mask, keep_max):
                self.new_masks.setdefault(loc, []).append(mask)
                changed = True
        if absent and not self.absent[loc]:
            self.absent[loc] = self.new_absent[loc] = changed = True
        return changed

    def view(self, loc: int) -> BlockView:
        """The view of a reached location, built from its store."""
        cores = self.cores[loc]
        younger = Antichain(self.orientation, store_masks(self.stores[loc]))
        return BlockView(self.absent[loc], younger, tuple(sorted(cores)) if cores else ())

    def __getitem__(self, loc: str) -> BlockView:
        index = self.graph.where[loc]
        if self.stores[index] is None:
            return BlockView(False, Antichain.empty(self.orientation))
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
    run.receive(0, view.may_absent, view.younger, view.cores, 1 << accessed)
    return run.view(0)


def analyze_block(
    cfg: Cfg,
    focus: str,
    n: int,
    orientation: Orientation,
    init: InitPolicy = InitPolicy.EMPTY,
) -> Mapping[str, BlockView]:
    """Least fixpoint of the focused transfer for one block.

    Blocks are interned to bit indices in sorted order, followed by one
    extra index for the fresh block of the unknown-initial-contents policy
    and, if the graph never accesses the focus, one for the focus.
    Non-access edges are no-ops.

    The result maps every location, in ``Cfg.access_index`` order, to its
    view.  A view is built from the location's final store when it is
    looked up, and again at every lookup; an unreached location maps to the
    bottom view.  Callers that read a few locations build only those.
    """
    graph = cfg.access_index
    fresh = len(graph.blocks)
    focus_idx = graph.blocks.get(focus, fresh + 1)
    focus_bit = 1 << focus_idx
    run = _Run(orientation, n, len(graph.locations), graph)
    receive = run.receive
    receive(0, True, (), (), 0)  # absent under either policy
    if init is InitPolicy.UNKNOWN:
        others = ((1 << (fresh + 1)) - 1) & ~focus_bit
        if orientation is Orientation.KEEP_MIN:
            receive(0, False, (0,), (), 0)
        elif others.bit_count() >= n - 1:
            run.add_family(0, 0)
        else:
            receive(0, False, (others,), (), 0)

    succ, stores, cores_of = graph.succ, run.stores, run.cores
    new_absent, new_masks, new_cores = run.new_absent, run.new_masks, run.new_cores
    queued = [False] * len(stores)
    queued[0] = True
    work = [0]
    while work:
        loc = heappop(work)
        queued[loc] = False
        # What arrived since the last visit and is still at `loc`.  Never all
        # empty: a location is queued only when something was added, and an
        # addition leaves the store only for a newer one.
        absent = new_absent[loc]
        new_absent[loc] = False
        masks = new_masks.pop(loc, ())
        if masks:
            store = stores[loc]
            masks = [m for m in masks if m in store.get(m.bit_count(), ())]
        cores = new_cores.pop(loc, ())
        if cores:
            cores = [c for c in cores if c in cores_of[loc]]
        for dst, bit in succ[loc]:
            if bit == focus_bit:
                changed = receive(dst, False, (0,), (), 0)
            else:
                changed = receive(dst, absent, masks, cores, bit)
            if changed and not queued[dst]:
                queued[dst] = True
                heappush(work, dst)
    return run


def classify_exact(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY, foci: set[str] | None = None
) -> dict[int, Classification]:
    """Exact classification: exists-miss from the KEEP_MAX run's absent flag,
    exists-hit from nonemptiness of the KEEP_MIN run's antichain."""
    wanted = cfg.blocks() if foci is None else tuple(sorted(foci))
    sites: dict[str, list[tuple[int, str]]] = {}
    for edge in cfg.access_edges():
        sites.setdefault(edge.label.block, []).append((edge.label.site, edge.src))
    result: dict[int, Classification] = {}
    for focus in wanted:
        vmax = analyze_block(cfg, focus, n, Orientation.KEEP_MAX, init)
        vmin = analyze_block(cfg, focus, n, Orientation.KEEP_MIN, init)
        for site, src in sites.get(focus, ()):
            exists_miss = vmax[src].may_absent
            exists_hit = len(vmin[src].younger) > 0
            if exists_hit and exists_miss:
                result[site] = Classification.VARIABLE
            elif exists_hit:
                result[site] = Classification.ALWAYS_HIT
            elif exists_miss:
                result[site] = Classification.ALWAYS_MISS
            else:
                result[site] = Classification.UNREACHABLE
    return result


_APPROX_TO_EXACT = {
    ApproxClass.ALWAYS_HIT: Classification.ALWAYS_HIT,
    ApproxClass.ALWAYS_MISS: Classification.ALWAYS_MISS,
}


def classify_pipeline(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY
) -> dict[int, tuple[Classification, str]]:
    """Prefilter with the cheap bounds, run the exact analysis only for blocks
    that still have unresolved sites, and tag each verdict with its source."""
    approx = classify_all_approx(cfg, n, init)
    result: dict[int, tuple[Classification, str]] = {}
    unresolved_blocks: set[str] = set()
    for edge in cfg.access_edges():
        label = edge.label
        assert isinstance(label, AccessLabel)
        verdict = approx[label.site]
        if verdict is ApproxClass.UNKNOWN:
            unresolved_blocks.add(label.block)
        else:
            result[label.site] = (_APPROX_TO_EXACT[verdict], "approx")
    if unresolved_blocks:
        exact = classify_exact(cfg, n, init, foci=unresolved_blocks)
        for site, verdict in exact.items():
            if site not in result:
                result[site] = (verdict, "exact")
    return result
