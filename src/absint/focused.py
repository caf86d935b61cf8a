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

Delta propagation.  Each location keeps its younger-sets in a mutable
``AntichainStore`` (bucketed by popcount) next to its absent flag, and a
visit pushes along the location's out-edges only what became new there
since its previous visit: the absent flag the first time it is set, and the
younger-sets that arrived since and are still in the store.  A set subsumed
before its location is visited is never pushed.  The worklist always visits
the waiting location that comes first in reverse postorder from the entry
(``Cfg.access_index``), so outside loops a location is visited once, after
all its predecessors, and pushes their sets on in one batch.  ``transfer``
applies the same per-edge step (``_State.receive``) to a whole view, so the
semantics live in one place.

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

Result.  ``analyze_block`` keeps the final stores and returns them as a
read-only mapping from location to ``BlockView``.  A view is built from its
location's store when it is looked up, and is not kept, so
``classify_exact``, which reads only the sources of its focus's access
sites, builds the views of those locations alone.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from heapq import heappop, heappush

from .agebounds import ApproxClass, classify_all_approx
from .antichain import Antichain, AntichainStore, Orientation
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


class _State(AntichainStore):
    """A location's view while the fixpoint runs: its concrete younger-sets
    (the store itself), absent flag and cores, plus what arrived since the
    location was last visited."""

    __slots__ = ("limit", "absent", "cores", "new_absent", "new_masks", "new_cores")

    def __init__(self, orientation: Orientation, n: int):
        super().__init__(orientation)
        self.limit = n - 1
        self.absent = False
        self.cores: list[int] = []
        self.new_absent = False
        self.new_masks: list[int] = []
        self.new_cores: list[int] = []

    def add_family(self, core: int) -> bool:
        """Add every full set ⊇ core: the concrete set itself once it is full."""
        if core.bit_count() >= self.limit:
            return self.receive(False, (core,), (), 0)
        if any(c & core == c for c in self.cores):
            return False
        self.cores = [c for c in self.cores if c & core != core]
        self.cores.append(core)
        for mask in [m for m in self if (core | m).bit_count() <= self.limit]:
            self.discard(mask)
        self.new_cores.append(core)
        return True

    def receive(self, absent: bool, masks, cores, bit: int) -> bool:
        """Join the image of (absent, masks, cores) under one edge; `bit` is
        the accessed block's bit, never the focus's, or 0 on an edge that
        accesses nothing.  True when the view grew."""
        changed = False
        for core in cores:
            if bit and not core & bit:
                absent = True
            changed |= self.add_family(core | bit)
        if bit:
            limit = self.limit
            images = []
            for mask in masks:
                if mask & bit:
                    images.append(mask)
                elif mask.bit_count() < limit:
                    images.append(mask | bit)
                else:
                    absent = True
            masks = images
        if self.cores:
            masks = [m for m in masks
                     if all((core | m).bit_count() > self.limit for core in self.cores)]
        for mask in masks:
            if self.add(mask):
                self.new_masks.append(mask)
                changed = True
        if absent and not self.absent:
            self.absent = self.new_absent = changed = True
        return changed

    def take(self) -> tuple[bool, list[int], list[int]]:
        """What arrived since the last visit and is still part of the view."""
        buckets = self.buckets
        delta = (
            self.new_absent,
            [m for m in self.new_masks if m in buckets[m.bit_count()]],
            [c for c in self.new_cores if c in self.cores] if self.new_cores else [],
        )
        self.new_absent, self.new_masks, self.new_cores = False, [], []
        return delta

    def view(self) -> BlockView:
        return BlockView(self.absent, self.freeze(), tuple(sorted(self.cores)) if self.cores else ())


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
    state = _State(view.younger.orientation, n)
    state.receive(view.may_absent, view.younger, view.cores, 1 << accessed)
    return state.view()


class _Views(Mapping):
    """The result of `analyze_block`: the final stores of one run, read as
    views of the locations of ``graph`` (None for an unreached one)."""

    __slots__ = ("graph", "states", "bottom")

    def __init__(self, graph: AccessIndex, states: list[_State | None], bottom: BlockView):
        self.graph, self.states, self.bottom = graph, states, bottom

    def __getitem__(self, loc: str) -> BlockView:
        state = self.states[self.graph.where[loc]]
        return self.bottom if state is None else state.view()

    def __iter__(self) -> Iterator[str]:
        return iter(self.graph.locations)

    def __len__(self) -> int:
        return len(self.states)


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
    looked up, and again at every lookup; an unreached location maps to one
    shared bottom view.  Callers that read a few locations build only those.
    """
    graph = cfg.access_index
    fresh = len(graph.blocks)
    focus_idx = graph.blocks.get(focus, fresh + 1)
    focus_bit = 1 << focus_idx
    states: list[_State | None] = [None] * len(graph.locations)

    entry = states[0] = _State(orientation, n)
    entry.receive(True, (), (), 0)  # absent under either policy
    if init is InitPolicy.UNKNOWN:
        others = ((1 << (fresh + 1)) - 1) & ~focus_bit
        if orientation is Orientation.KEEP_MIN:
            entry.receive(False, (0,), (), 0)
        elif others.bit_count() >= n - 1:
            entry.add_family(0)
        else:
            entry.receive(False, (others,), (), 0)

    succ = graph.succ
    queued = [False] * len(states)
    queued[0] = True
    work = [0]
    while work:
        loc = heappop(work)
        queued[loc] = False
        # Never empty: a location is queued only when something was added,
        # and an addition leaves the store only for a newer one.
        absent, masks, cores = states[loc].take()
        for dst, bit in succ[loc]:
            target = states[dst]
            if target is None:
                target = states[dst] = _State(orientation, n)
            if bit == focus_bit:
                changed = target.receive(False, (0,), (), 0)
            else:
                changed = target.receive(absent, masks, cores, bit)
            if changed and not queued[dst]:
                queued[dst] = True
                heappush(work, dst)
    return _Views(graph, states, BlockView(False, Antichain.empty(orientation)))


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
