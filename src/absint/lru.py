"""Ground-truth LRU semantics for one cache set.

A cache-set state is a sequence of at most N distinct blocks, youngest
first: a tuple of block names wherever a state is passed in or read out,
and inside the search a `str` with one character per block, assigned per
graph by an `Alphabet`.  ``collect_states`` computes the exact collecting
semantics (the set of reachable states per location) and
``classify_oracle`` derives per-site hit/miss classifications from it.
This is the reference every other analysis is validated against, so it
must stay exact: exceeding the state budget is an error, never an
approximation.

The module has two explicit-state searches, free of any abstract domain.
``collect_states`` propagates whole sets of new states per location and
edge (one set comprehension per access edge and visit), in reverse
postorder.  ``explore`` takes one (location, state) pair at a time, last
in, first out, with a per-state successor function that may block; it
serves ``boundsolve.bounded_concrete_oracle`` and the tests' per-focus
oracle.  They are kept apart because only the LRU search may reorder
freely.  An LRU successor never fails, so in ``collect_states`` the order
decides nothing but when the budget check fires, and the reached sets and
their total do not depend on it.  A numeric step can raise, and which
error ``bounded_concrete_oracle`` reports first depends on the order it
explores values in, so ``explore`` keeps its per-state order.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Set
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .cfg import Cfg

CacheState = tuple[str, ...]

#: Name used for the extra block of the "unknown initial contents" policy,
#: lengthened by "~" where a block of the graph has it.
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


#: How many distinct blocks an `Alphabet` can name: one per code point.
CODE_POINTS = sys.maxunicode + 1


class Alphabet:
    """One character per block, in the order the blocks are given, so that
    the search can hold a state as a `str`: it caches its hash, and an
    access rebuilds it with two string operations instead of splicing a
    tuple.  More blocks than there are code points are a budget error."""

    __slots__ = ("letter", "block")

    def __init__(self, blocks: Iterable[str]):
        names = tuple(dict.fromkeys(blocks))
        if len(names) > CODE_POINTS:
            raise OracleBudgetError(
                f"oracle names at most {CODE_POINTS} distinct blocks, got {len(names)}")
        self.letter = {block: chr(i) for i, block in enumerate(names)}
        self.block = dict(zip(self.letter.values(), names))

    def encode(self, state: CacheState) -> str:
        return "".join(map(self.letter.__getitem__, state))

    def decode(self, word: str) -> CacheState:
        return tuple(map(self.block.__getitem__, word))


def _image(letter: str, n: int) -> Callable[[Iterable[str]], set[str]]:
    """The LRU update of an access to the block that `letter` names, at
    associativity `n`, applied to every encoded state of at most `n` blocks
    in a collection at once, unchecked: the block becomes youngest; on a
    fill, the oldest is evicted.  The one definition behind `access` and
    the oracle's search."""
    keep = n - 1

    def image(states: Iterable[str]) -> set[str]:
        return {letter + s.replace(letter, "") if letter in s else letter + s[:keep] for s in states}

    return image


def access(state: CacheState, block: str, n: int) -> CacheState:
    """Access `block`: it becomes youngest; on a fill, the oldest is evicted."""
    if n < 1:
        raise ValueError("associativity must be at least 1")
    if len(state) > n:
        raise ValueError("state longer than associativity")
    alphabet = Alphabet(state + (block,))
    (word,) = _image(alphabet.letter[block], n)((alphabet.encode(state),))
    return alphabet.decode(word)


class _InitialStates:
    """Every state of at most `longest` distinct elements of `universe`, each
    once, as `make` builds it from a tuple: counted without being built,
    built one at a time."""

    def __init__(self, universe: Sequence, n: int, init: InitPolicy, make: Callable):
        self.universe, self.make = universe, make
        self.longest = 0 if init is InitPolicy.EMPTY else min(n, len(universe))

    def count(self) -> int:
        """How many states there are, however many: `len` cannot report more
        than ``sys.maxsize``."""
        return sum(math.perm(len(self.universe), r) for r in range(self.longest + 1))

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator:
        return map(self.make, itertools.chain.from_iterable(
            itertools.permutations(self.universe, r) for r in range(self.longest + 1)
        ))


def _fresh_block(blocks: Collection[str]) -> str:
    """`OTHER_BLOCK`, lengthened by "~" until no block of `blocks` has it."""
    name = OTHER_BLOCK
    while name in blocks:
        name += "~"
    return name


def explore(cfg: Cfg, seeds: Collection, step: Callable, budget: int) -> dict[str, set]:
    """Every state reachable from `seeds` at the entry, per location: the
    per-state search behind the numeric oracle, whose steps can block or
    raise (see the module docstring for why the LRU oracle searches apart).

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


class _States(Set):
    """The states `collect_states` reached at one location, read as a set of
    tuples: the search's set of encoded states (`words`) with its alphabet.
    Its length is that set's; iteration decodes one state at a time, and
    membership encodes the state asked for."""

    __slots__ = ("words", "alphabet")

    def __init__(self, words: set[str], alphabet: Alphabet):
        self.words, self.alphabet = words, alphabet

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[CacheState]:
        return map(self.alphabet.decode, self.words)

    def __contains__(self, state) -> bool:
        if not isinstance(state, tuple):
            return False
        try:
            return self.alphabet.encode(state) in self.words
        except (KeyError, TypeError):  # a block the alphabet does not name
            return False

    def __repr__(self) -> str:
        return repr(set(self))


def collect_states(
    cfg: Cfg,
    n: int,
    init: InitPolicy = InitPolicy.EMPTY,
    budget: int = 1_000_000,
) -> dict[str, Set[CacheState]]:
    """Least fixpoint of the concrete transfer over sets of cache states.

    Non-access edges are treated as no-ops (guard erasure), so graphs built
    from full programs can be passed directly.  The entry holds the empty
    state, or under unknown init every state over the graph's blocks and one
    fresh block; their number is checked against `budget` before any is
    built.  The associativity is checked once, before the search.  The
    search runs on states encoded by one `Alphabet`: the graph's sorted
    blocks, then the fresh block of the unknown policy.  Each location's
    states come back as a read-only set view that decodes them only when
    iterated.

    The search is semi-naive (delta) propagation over the graph's
    ``Cfg.access_index``: each location keeps its states and the states
    that arrived since its last visit, and waits on a heap keyed by its
    number, so the first waiting location in reverse postorder is visited
    next.  A visit takes the location's whole delta and, per out-edge, its
    image in one set comprehension (`_image` for an access, the delta itself
    for a no-op); what the target did not hold yet joins the target's states
    and its delta, and counts against `budget`.  There is no memo: over the
    benchmark's graphs fewer than one update in five met a state its block
    had already seen.
    """
    if n < 1:
        raise ValueError("associativity must be at least 1")
    blocks = cfg.blocks()
    if init is InitPolicy.UNKNOWN:
        blocks += (_fresh_block(blocks),)
    alphabet = Alphabet(blocks)
    seeds = _InitialStates("".join(alphabet.letter.values()), n, init, "".join)
    if seeds.count() > budget:
        raise OracleBudgetError(f"state budget {budget} exceeded at entry")
    graph = cfg.access_index
    reached: list[set[str] | None] = [None] * len(graph.locations)
    reached[0] = set(seeds)
    total = len(reached[0])
    # A copy, so that a self-loop at the entry, which adds to the entry's
    # states, does not grow the delta its visit is still pushing.
    pending: list[set[str] | None] = [None] * len(reached)
    pending[0] = set(reached[0])
    work = [0]
    # per location, (image or None, states at the target, target) per
    # out-edge, built at the location's first visit
    moves: list[list | None] = [None] * len(reached)
    images = {1 << i: _image(alphabet.letter[block], n) for block, i in graph.blocks.items()}
    while work:
        loc = heappop(work)
        delta = pending[loc]
        pending[loc] = None
        out = moves[loc]
        if out is None:
            out = moves[loc] = []
            for dst, bit in graph.succ[loc]:
                if reached[dst] is None:
                    reached[dst] = set()
                out.append((images.get(bit), reached[dst], dst))
        for image, states, dst in out:
            if image is None:
                new = delta - states
            else:
                new = image(delta)
                new -= states
            if new:
                states |= new
                total += len(new)
                if total > budget:
                    raise OracleBudgetError(f"state budget {budget} exceeded")
                waiting = pending[dst]
                if waiting is None:
                    pending[dst] = new
                    heappush(work, dst)
                else:
                    waiting |= new
    return {graph.locations[loc]: _States(words, alphabet)
            for loc, words in enumerate(reached) if words is not None}


def classify_oracle(
    cfg: Cfg,
    n: int,
    init: InitPolicy = InitPolicy.EMPTY,
    budget: int = 1_000_000,
) -> dict[int, Classification]:
    """Exact classification of every access site against `collect_states`,
    read from the encoded states."""
    reached = collect_states(cfg, n, init, budget)
    letter = reached[cfg.entry].alphabet.letter
    result: dict[int, Classification] = {}
    for site, block, src in cfg.access_sites:
        words = reached[src].words if src in reached else ()
        c = letter[block]
        result[site] = classification(any(c in w for w in words), any(c not in w for w in words))
    return result
