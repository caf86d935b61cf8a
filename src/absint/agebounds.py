"""Cheap must/may age analysis used as a prefilter for the exact analysis.

Classical LRU age bounds:

* must map: block -> upper bound on its age (0..N-1).  A block in the must
  map is present, with at most that age, in every concrete state.
* may map: block -> lower bound on its age while present.  A block absent
  from the may map occurs in no concrete state at all.

Both are sound and cheap, but joins lose ordering information, so some
always-hit / always-miss sites come out Unknown; those are what the exact
analysis is for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

from .cfg import Cfg
from .lru import InitPolicy


class ApproxClass(Enum):
    ALWAYS_HIT = "always-hit"
    ALWAYS_MISS = "always-miss"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class AgeBounds:
    must: dict[str, int] = field(default_factory=dict)
    may: dict[str, int] = field(default_factory=dict)

    def join(self, other: "AgeBounds") -> "AgeBounds":
        """The least upper bound; `self` itself when `other` adds nothing."""
        theirs = other.must
        must = {b: k if k >= theirs[b] else theirs[b] for b, k in self.must.items() if b in theirs}
        may = dict(self.may)
        for b, k in other.may.items():
            mine = may.get(b)
            if mine is None or k < mine:
                may[b] = k
        if must == self.must and may == self.may:
            return self
        return AgeBounds(must, may)


def _transfer(bounds: AgeBounds, block: str, n: int) -> AgeBounds:
    # Upper bounds: a block ages only when something at least as young as its
    # bound allows the accessed block to have been older; with kb the accessed
    # block's prior upper bound (infinite if unbounded), k < kb forces k+1.
    kb = bounds.must.get(block)
    must: dict[str, int] = {}
    for b, k in bounds.must.items():
        if b == block:
            continue
        nk = k + 1 if (kb is None or k < kb) else k
        if nk < n:
            must[b] = nk
    must[block] = 0
    # Lower bounds: ages never decrease; they provably increase when the
    # accessed block's prior lower bound is at least the block's own (distinct
    # blocks have distinct ages).  A block absent from the may map is absent
    # from every state, which ages everything present.
    lb = bounds.may.get(block)
    may: dict[str, int] = {}
    for b, k in bounds.may.items():
        if b == block:
            continue
        nk = k + 1 if (lb is None or lb >= k) else k
        if nk < n:
            may[b] = nk
    may[block] = 0
    return AgeBounds(must, may)


def initial_bounds(cfg: Cfg, init: InitPolicy) -> AgeBounds:
    if init is InitPolicy.EMPTY:
        return AgeBounds({}, {})
    return AgeBounds({}, {b: 0 for b in cfg.blocks()})


def analyze_approx(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY
) -> dict[str, AgeBounds | None]:
    """Fixpoint of the must/may transfer; None marks unreached locations.

    The worklist runs on ``Cfg.access_index`` and always visits the waiting
    location that comes first in reverse postorder from the entry, as
    ``focused.analyze_block`` does.  A visit pushes the location's bounds
    along its out-edges and joins each image into the target, which is
    queued again only when the join grew it.  The lattice is finite and the
    transfer monotone, so every fair order reaches the same least fixpoint.
    """
    graph = cfg.access_index
    names = {1 << i: b for b, i in graph.blocks.items()}
    bounds: list[AgeBounds | None] = [None] * len(graph.locations)
    bounds[0] = initial_bounds(cfg, init)
    queued = [False] * len(bounds)
    queued[0] = True
    work = [0]
    while work:
        loc = heappop(work)
        queued[loc] = False
        cur = bounds[loc]
        for dst, bit in graph.succ[loc]:
            out = _transfer(cur, names[bit], n) if bit else cur
            old = bounds[dst]
            new = out if old is None else old.join(out)
            if new is not old:
                bounds[dst] = new
                if not queued[dst]:
                    queued[dst] = True
                    heappush(work, dst)
    where = graph.where
    return {loc: bounds[where[loc]] for loc in cfg.locations}


def classify_approx(bounds: AgeBounds | None, block: str, n: int) -> ApproxClass:
    """Classify one access from the bounds at its source location."""
    if bounds is None:
        return ApproxClass.UNKNOWN
    if block in bounds.must:
        return ApproxClass.ALWAYS_HIT
    if block not in bounds.may:
        return ApproxClass.ALWAYS_MISS
    return ApproxClass.UNKNOWN


def classify_all_approx(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY
) -> dict[int, ApproxClass]:
    bounds = analyze_approx(cfg, n, init)
    return {site: classify_approx(bounds[src], block, n) for site, block, src in cfg.access_sites}
