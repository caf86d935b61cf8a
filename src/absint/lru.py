"""Ground-truth LRU semantics for one cache set.

A cache-set state is a sequence of at most N distinct block ids, youngest
first.  ``explore`` is the package's one trusted search: an explicit-state
exploration of a graph under a state budget, free of any abstract domain.
``collect_states`` runs it with the LRU transfer to get the exact collecting
semantics (the set of reachable states per location), ``classify_oracle``
derives per-site hit/miss classifications from that, and
``boundsolve.bounded_concrete_oracle`` runs it over integer values.  This
is the reference every other analysis is validated against, so it must
stay exact: exceeding the state budget is an error, never an approximation.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Callable, Collection, Iterator

from .cfg import AccessLabel, Cfg

CacheState = tuple[str, ...]

#: Name used for the extra block of the "unknown initial contents" policy.
OTHER_BLOCK = "~other"


class InitPolicy(Enum):
    EMPTY = "empty"
    UNKNOWN = "unknown"


class Classification(Enum):
    ALWAYS_HIT = "always-hit"
    ALWAYS_MISS = "always-miss"
    VARIABLE = "variable"
    UNREACHABLE = "unreachable"


def classification(hit: bool, miss: bool) -> Classification:
    """The verdict of a site from whether a hit and a miss are possible there."""
    if hit:
        return Classification.VARIABLE if miss else Classification.ALWAYS_HIT
    return Classification.ALWAYS_MISS if miss else Classification.UNREACHABLE


class OracleBudgetError(Exception):
    """The explicit-state oracle would need more states than allowed."""


def _update(block: str, n: int) -> Callable[[CacheState], CacheState]:
    """The LRU update of an access to `block` at associativity `n`, on states
    of at most `n` blocks, unchecked: the block becomes youngest; on a fill,
    the oldest is evicted.  The one definition behind `access` and the
    oracle's successors."""
    head, keep = (block,), n - 1

    def update(state: CacheState) -> CacheState:
        if block in state:
            if state[0] == block:
                return state
            i = state.index(block)
            return head + state[:i] + state[i + 1:]
        return head + state[:keep]

    return update


def access(state: CacheState, block: str, n: int) -> CacheState:
    """Access `block`: it becomes youngest; on a fill, the oldest is evicted."""
    if n < 1:
        raise ValueError("associativity must be at least 1")
    if len(state) > n:
        raise ValueError("state longer than associativity")
    return _update(block, n)(state)


def is_hit(state: CacheState, block: str) -> bool:
    return block in state


class _InitialStates:
    """Every state of at most `longest` distinct blocks of `universe`, each
    once: counted without being built, built one at a time."""

    def __init__(self, universe: tuple[str, ...], longest: int):
        self.universe, self.longest = universe, longest

    def __len__(self) -> int:
        return sum(math.perm(len(self.universe), r) for r in range(self.longest + 1))

    def __iter__(self) -> Iterator[CacheState]:
        return itertools.chain.from_iterable(
            itertools.permutations(self.universe, r) for r in range(self.longest + 1)
        )


def initial_states(blocks: tuple[str, ...], n: int, init: InitPolicy) -> _InitialStates:
    """The empty state, or with unknown contents every state over `blocks`
    and one fresh block."""
    universe = tuple(blocks) + (OTHER_BLOCK,)
    return _InitialStates(universe, 0 if init is InitPolicy.EMPTY else min(n, len(universe)))


def explore(cfg: Cfg, seeds: Collection, step: Callable, budget: int) -> dict[str, set]:
    """Every state reachable from `seeds` at the entry, per location: the
    one explicit-state search behind both oracles.

    `step(label)` gives an edge's successor function, which maps a state to
    the next one, or to None where the edge blocks it; it is built at the
    edge's first use, so an edge no state reaches is never examined.  The
    seeds are distinct and count against `budget`; their number is checked
    before any is taken.  The search then pops new states last in, first
    out, from the sorted seeds on, and pushes them along out-edges in edge
    order.  The result holds the entry and every location an explored edge
    leads to.
    """
    where = " at entry"
    try:
        fits = len(seeds) <= budget
    except OverflowError:
        # len() cannot report more than sys.maxsize seeds: far past any budget
        fits = False
    if fits:
        where = ""
        at_entry = set(seeds)
        reached = {cfg.entry: at_entry}
        total = len(at_entry)
        frontier = [(cfg.entry, s) for s in sorted(at_entry)]
        # location -> [edge, successor function, states at its target] per
        # out-edge; the last two are filled in at the edge's first use.
        moves: dict[str, list[list]] = {}
        while frontier and total <= budget:
            loc, state = frontier.pop()
            out = moves.get(loc)
            if out is None:
                out = moves[loc] = [[edge, None, None] for edge in cfg.out(loc)]
            for move in out:
                edge, succ, states = move
                if succ is None:
                    succ = move[1] = step(edge.label)
                    states = move[2] = reached.setdefault(edge.dst, set())
                nxt = succ(state)
                if nxt is not None and nxt not in states:
                    states.add(nxt)
                    total += 1
                    if total > budget:
                        break
                    frontier.append((edge.dst, nxt))
        if total <= budget:
            return reached
    raise OracleBudgetError(f"state budget {budget} exceeded{where}")


def lru_step(n: int) -> Callable:
    """`explore`'s step for the LRU transfer at associativity `n`: an access
    edge's successor is its block's update, built once per edge; any other
    edge is a no-op."""

    def step(label):
        if isinstance(label, AccessLabel):
            return _update(label.block, n)
        return _unchanged

    return step


def _unchanged(state: CacheState) -> CacheState:
    return state


def collect_states(
    cfg: Cfg,
    n: int,
    init: InitPolicy = InitPolicy.EMPTY,
    budget: int = 1_000_000,
    seed_states: set[CacheState] | None = None,
) -> dict[str, set[CacheState]]:
    """Least fixpoint of the concrete transfer over sets of cache states.

    Non-access edges are treated as no-ops (guard erasure), so graphs built
    from full programs can be passed directly.  `seed_states` overrides the
    entry seeding derived from `init`.  The associativity and the seeds'
    lengths are checked once, before the search; each access edge then
    applies the unchecked update of ``lru_step`` to every state that reaches
    it.  There is no memo: over the benchmark's graphs fewer than one update
    in five met a state its block had already seen, so hashing every state
    into a memo cost more than it saved.
    """
    if n < 1:
        raise ValueError("associativity must be at least 1")
    if seed_states is None:
        seeds = initial_states(cfg.blocks(), n, init)
    elif any(len(state) > n for state in seed_states):
        raise ValueError("seed state longer than associativity")
    else:
        seeds = seed_states
    return explore(cfg, seeds, lru_step(n), budget)


def classify_oracle(
    cfg: Cfg,
    n: int,
    init: InitPolicy = InitPolicy.EMPTY,
    budget: int = 1_000_000,
) -> dict[int, Classification]:
    """Exact classification of every access site against `collect_states`."""
    reached = collect_states(cfg, n, init, budget)
    result: dict[int, Classification] = {}
    for site, block, src in cfg.access_sites:
        states = reached.get(src, ())
        result[site] = classification(any(block in s for s in states),
                                      any(block not in s for s in states))
    return result
