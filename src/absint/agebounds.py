"""Cheap age analyses: the must/may prefilter and the hit/miss witnesses.

Classical LRU age bounds:

* must map: block -> upper bound on its age (0..N-1).  A block in the must
  map is present, with at most that age, in every concrete state.
* may map: block -> lower bound on its age while present.  A block absent
  from the may map occurs in no concrete state at all.

Both are sound and cheap, but joins lose ordering information, so some
always-hit / always-miss sites come out Unknown; those are what the exact
analysis is for.

Witnesses (after Touzeau, Maïza, Monniaux and Reineke, "Ascertaining
uncertainty for efficient exact cache analysis", CAV 2017).  The same pass
carries two more facts per location:

* exists-hit map: block -> an age such that some concrete state reaching
  the location holds the block at that age or younger.  The entry holds no
  block under empty contents and every block at age 0 under unknown
  contents.  An access sets its block to 0 and ages every other bound by
  one, unconditionally; a join takes the per-block minimum.  This is sound
  because one access ages a block by at most one, and each block's bound
  is carried along its own witness path.  The must map's conditional aging
  would not be: its condition reads another block's bound, which may come
  from another path.
* cold mask: the blocks that some path from the entry never accessed.  The
  entry holds every block under both policies (the empty cache is one of
  the unknown policy's initial states); an access clears its block's bit,
  and a join ORs.

So at an access site a hit is possible when the block has an exists-hit
bound, and impossible when it is missing from the may map; a miss is
possible when its cold bit is set, and impossible when it has a must
bound.  ``focused.classify_exact`` asks its exact runs only what these four
facts leave open.  A witness changes no verdict: the exact runs are exact
for the same control-flow model, and every fact a witness proves holds in
that model, so the exact run would have found it too.

Encoding.  Blocks are interned in sorted order (``Cfg.access_index``).  The
must, may and exists-hit maps are one int each, with one field of
``f = N.bit_length() + 1`` bits per block (block i at bits ``i*f`` up).  A
field holds the bound, or N for "no bound" (not in the map); its top bit is
a guard, clear in every stored value.  With ``ones`` the int with a 1 in
the lowest bit of each field and ``guard`` the one with each top bit,
``(t*ones | guard) - x - ones`` borrows across no field, and its guard bits
mark the fields where ``x < t``.  That mark shifted down by ``f-1`` puts a
1 in each marked field, so one addition ages exactly those, and a bound
that reaches N is dropped with no further step.  An access ages the must
fields below the accessed block's bound, the may fields at or below its
bound, and every finite exists-hit field, then clears the accessed
block's field to 0.  Joins select fields by the same compare: the maximum
for must, the minimum for may and exists-hit.  The cold mask is one bit per
block.  A location's facts are thus four ints, whose width grows with
log N, not with N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

from .cfg import AccessIndex, Cfg
from .lru import InitPolicy

#: A location's facts: the must, may and exists-hit fields and the cold mask.
Ages = tuple[int, int, int, int]


class ApproxClass(Enum):
    ALWAYS_HIT = "always-hit"
    ALWAYS_MISS = "always-miss"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class AgeBounds:
    must: dict[str, int] = field(default_factory=dict)
    may: dict[str, int] = field(default_factory=dict)


def age_pass(cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY) -> list[Ages | None]:
    """Per location number of ``Cfg.access_index``, the least fixpoint of
    the four facts; None marks unreached locations.  Computed once per
    associativity and initial contents, and kept on the graph
    (``Cfg.age_passes``)."""
    key = (n, init)
    passes = cfg.age_passes
    if key not in passes:
        passes[key] = _solve(cfg.access_index, n, init)
    return passes[key]


def _solve(graph: AccessIndex, n: int, init: InitPolicy) -> list[Ages | None]:
    """The worklist always visits the waiting location that comes first in
    reverse postorder from the entry, as ``focused.analyze_block`` does.  A
    visit pushes the location's facts along its out-edges and joins each
    image into the target, which is queued again only when the join grew
    it.  The lattice is finite and the transfer monotone, so every fair
    order reaches the same least fixpoint."""
    count = len(graph.blocks)
    top = n.bit_length()
    width = top + 1
    ones = ((1 << count * width) - 1) // ((1 << width) - 1)
    guard = ones << top
    lift = guard - ones  # (t * ones + lift - x) & guard marks the fields with x < t
    unbounded = n * ones
    aged = unbounded + lift  # every finite field
    value = (1 << top) - 1
    every = (1 << count * width) - 1
    access = {1 << i: (i * width, every ^ (value << i * width)) for i in range(count)}
    start = 0 if init is InitPolicy.UNKNOWN else unbounded
    states: list[Ages | None] = [None] * len(graph.locations)
    states[0] = (unbounded, start, start, (1 << count) - 1)
    queued = [False] * len(states)
    queued[0] = True
    work = [0]
    succ = graph.succ
    while work:
        loc = heappop(work)
        queued[loc] = False
        cur = states[loc]
        must, may, hit, cold = cur
        for dst, bit in succ[loc]:
            if bit:
                shift, keep = access[bit]
                below = must >> shift & value
                mark = (below * ones + lift - must) & guard
                m = (must + (mark >> top)) & keep
                below = may >> shift & value
                mark = ((below + 1 if below < n else n) * ones + lift - may) & guard
                y = (may + (mark >> top)) & keep
                h = (hit + (((aged - hit) & guard) >> top)) & keep
                c = cold & ~bit
            else:
                m, y, h, c = cur
            old = states[dst]
            if old is not None:
                om, oy, oh, oc = old
                if m != om:  # the field-wise maximum
                    mark = (om + lift - m) & guard
                    m ^= (m ^ om) & (mark - (mark >> top))
                if y != oy:  # the field-wise minimum
                    mark = (oy + lift - y) & guard
                    y = oy ^ ((oy ^ y) & (mark - (mark >> top)))
                if h != oh:
                    mark = (oh + lift - h) & guard
                    h = oh ^ ((oh ^ h) & (mark - (mark >> top)))
                c |= oc
                if m == om and y == oy and h == oh and c == oc:
                    continue
            states[dst] = (m, y, h, c)
            if not queued[dst]:
                queued[dst] = True
                heappush(work, dst)
    return states


def analyze_approx(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY
) -> dict[str, AgeBounds | None]:
    """The must and may maps of `age_pass` at every location; None marks
    unreached locations."""
    graph = cfg.access_index
    states = age_pass(cfg, n, init)
    top = n.bit_length()
    value = (1 << top) - 1
    fields = [(b, i * (top + 1)) for b, i in graph.blocks.items()]

    def decode(vec: int) -> dict[str, int]:
        return {b: k for b, shift in fields if (k := vec >> shift & value) < n}

    result: dict[str, AgeBounds | None] = {}
    for loc in cfg.locations:
        state = states[graph.where[loc]]
        result[loc] = None if state is None else AgeBounds(decode(state[0]), decode(state[1]))
    return result


def _site_ages(cfg: Cfg, n: int, init: InitPolicy):
    """``(site, ages)`` per access site, where ages is the site's block's
    must, may and exists-hit field and cold bit at the site's source, or
    None where no path reaches it."""
    graph = cfg.access_index
    states = age_pass(cfg, n, init)
    top = n.bit_length()
    value = (1 << top) - 1
    for site, block, src in cfg.access_sites:
        state = states[graph.where[src]]
        if state is None:
            yield site, None
            continue
        i = graph.blocks[block]
        shift = i * (top + 1)
        must, may, hit, cold = state
        yield site, (must >> shift & value, may >> shift & value, hit >> shift & value, cold >> i & 1)


def classify_approx(bounds: AgeBounds | None, block: str) -> ApproxClass:
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
    result = {}
    for site, ages in _site_ages(cfg, n, init):
        if ages is None:
            result[site] = ApproxClass.UNKNOWN
        elif ages[0] < n:
            result[site] = ApproxClass.ALWAYS_HIT
        elif ages[1] == n:
            result[site] = ApproxClass.ALWAYS_MISS
        else:
            result[site] = ApproxClass.UNKNOWN
    return result


def witnesses(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY
) -> dict[int, tuple[bool | None, bool | None]]:
    """Per access site, whether a hit and whether a miss is possible there,
    each True or False where the pass proves it and None where it is open.
    A site no path reaches can do neither."""
    result = {}
    for site, ages in _site_ages(cfg, n, init):
        if ages is None:
            result[site] = (False, False)
            continue
        must, may, hit, cold = ages
        result[site] = (True if hit < n else False if may == n else None,
                        True if cold else False if must < n else None)
    return result
