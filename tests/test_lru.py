from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import pytest

from absint.cfg import AccessLabel, Cfg, Edge, Nop
from absint.lru import (
    Classification,
    InitPolicy,
    OracleBudgetError,
    access,
    classify_oracle,
    collect_states,
    explore,
    initial_states,
    is_hit,
    lru_step,
)


def chain(blocks):
    """Straight-line access graph for a block sequence."""
    locs = tuple(f"p{i}" for i in range(len(blocks) + 1))
    edges = tuple(
        Edge(locs[i], AccessLabel(b, i), locs[i + 1]) for i, b in enumerate(blocks)
    )
    return Cfg(locs, locs[0], edges)


def test_access_rejuvenates_old_block():
    assert access(("a", "b", "c", "d"), "d", 4) == ("d", "a", "b", "c")


def test_access_fill_evicts_oldest():
    assert access(("d", "a", "b", "c"), "e", 4) == ("e", "d", "a", "b")


def test_access_youngest_is_identity():
    assert access(("a", "b", "c", "d"), "a", 4) == ("a", "b", "c", "d")


def test_is_hit_membership():
    assert is_hit(("a", "b", "c", "d"), "d")
    assert not is_hit(("a", "b", "c", "d"), "e")
    assert not is_hit((), "a")


def test_access_idempotent_on_result():
    rng = random.Random(5)
    blocks = ["a", "b", "c", "d", "e"]
    for _ in range(300):
        n = rng.randint(1, 4)
        state = tuple(rng.sample(blocks, rng.randint(0, n)))
        b = rng.choice(blocks)
        once = access(state, b, n)
        assert access(once, b, n) == once


def test_access_length_law():
    rng = random.Random(6)
    blocks = ["a", "b", "c", "d", "e"]
    for _ in range(300):
        n = rng.randint(1, 4)
        state = tuple(rng.sample(blocks, rng.randint(0, n)))
        b = rng.choice(blocks)
        expected = min(len(state) + (b not in state), n)
        assert len(access(state, b, n)) == expected


def _access_by_rebuild(state, block, n):
    """The earlier formula of `access`, which rebuilt the state without the
    block instead of splicing it out at its position."""
    if block in state:
        return (block,) + tuple(b for b in state if b != block)
    return ((block,) + state)[:n]


def test_access_matches_the_rebuild_formula_exhaustively():
    blocks = ("a", "b", "c", "d", "e")
    checked = 0
    for n in range(1, 5):
        for r in range(n + 1):
            for state in itertools.permutations(blocks, r):
                for block in blocks:
                    assert access(state, block, n) == _access_by_rebuild(state, block, n), (state, block, n)
                    checked += 1
    assert checked == 5 * sum(math.perm(5, r) for n in range(1, 5) for r in range(n + 1))


def test_oracle_successor_matches_the_rebuild_formula_exhaustively():
    # The successor `collect_states` hands to `explore` for an access edge,
    # built once per edge and applied without checks.
    blocks = ("a", "b", "c", "d", "e")
    checked = 0
    for n in range(1, 5):
        step = lru_step(n)
        for block in blocks:
            succ = step(AccessLabel(block, 0))
            for r in range(n + 1):
                for state in itertools.permutations(blocks, r):
                    assert succ(state) == _access_by_rebuild(state, block, n), (state, block, n)
                    checked += 1
    assert checked == 5 * sum(math.perm(5, r) for n in range(1, 5) for r in range(n + 1))
    assert lru_step(2)(Nop())(("a", "b")) == ("a", "b")


def test_collect_states_checks_associativity_and_seeds_before_the_search():
    # Both checks run once, before any state is explored: an over-long seed
    # is rejected even where no access edge ever sees it, and so is N = 0 on
    # a graph without accesses.
    no_access = Cfg(("x", "y"), "x", (Edge("x", Nop(), "y"),))
    with pytest.raises(ValueError, match="^associativity must be at least 1$"):
        collect_states(no_access, 0)
    with pytest.raises(ValueError, match="^seed state longer than associativity$"):
        collect_states(no_access, 2, seed_states={("a", "b", "c")})
    with pytest.raises(ValueError, match="^seed state longer than associativity$"):
        collect_states(chain(["a"]), 2, seed_states={(), ("a", "b", "c")})
    assert collect_states(chain(["a"]), 2, seed_states={("b", "c")})["p1"] == {("a", "b")}


def test_access_checks_associativity_before_length():
    with pytest.raises(ValueError, match="associativity must be at least 1"):
        access(("a", "b"), "a", 0)
    with pytest.raises(ValueError, match="state longer than associativity"):
        access(("a", "b", "c"), "a", 2)


def test_collect_straight_line():
    cfg = chain(["a", "b", "a"])
    reached = collect_states(cfg, 2)
    assert reached["p0"] == {()}
    assert reached["p1"] == {("a",)}
    assert reached["p2"] == {("b", "a")}
    assert reached["p3"] == {("a", "b")}


def test_collect_flag_program(flag_program_cfg):
    cfg = flag_program_cfg
    reached = collect_states(cfg, 4)
    # sources of the second diamond's accesses see both one-block states
    for site in (2, 3):
        src = next(src for s, _, src in cfg.access_sites if s == site)
        assert reached[src] == {("a",), ("b",)}


def test_collect_no_accesses_keeps_initial():
    cfg = Cfg(("x", "y"), "x", (Edge("x", Nop(), "y"),))
    reached = collect_states(cfg, 4, InitPolicy.EMPTY)
    assert reached["x"] == {()} and reached["y"] == {()}


def test_initial_states_unknown_counts():
    # permutations of length <= N over graph blocks plus one fresh block
    states = list(initial_states(("a", "b"), 2, InitPolicy.UNKNOWN))
    # 1 empty + 3 singletons + 3*2 pairs = 10
    assert len(states) == len(set(states)) == 10
    assert () in states


def test_classify_third_access_always_hit():
    cfg = chain(["a", "b", "a"])
    verdicts = classify_oracle(cfg, 2)
    assert verdicts[2] is Classification.ALWAYS_HIT
    assert verdicts[0] is Classification.ALWAYS_MISS


def test_classify_flag_program(flag_program_cfg):
    verdicts = classify_oracle(flag_program_cfg, 4)
    assert verdicts[0] is Classification.ALWAYS_MISS
    assert verdicts[1] is Classification.ALWAYS_MISS
    assert verdicts[2] is Classification.VARIABLE
    assert verdicts[3] is Classification.VARIABLE


def test_classify_unreachable_site():
    cfg = Cfg(
        ("s", "t", "cut"),
        "s",
        (Edge("s", AccessLabel("a", 0), "t"), Edge("cut", AccessLabel("a", 1), "t")),
    )
    verdicts = classify_oracle(cfg, 2)
    assert verdicts[1] is Classification.UNREACHABLE


def test_collect_monotone_in_seed():
    rng = random.Random(9)
    from helpers import random_cache_cfg

    for _ in range(40):
        cfg = random_cache_cfg(rng, max_locs=8, max_blocks=4)
        n = rng.choice([1, 2, 4])
        small = set(initial_states(cfg.blocks(), n, InitPolicy.EMPTY))
        pool = sorted(initial_states(cfg.blocks(), n, InitPolicy.UNKNOWN))
        big = small | set(rng.sample(pool, min(3, len(pool))))
        r_small = collect_states(cfg, n, seed_states=small)
        r_big = collect_states(cfg, n, seed_states=big)
        for loc, states in r_small.items():
            assert states <= r_big.get(loc, set())


def test_budget_error_is_not_an_approximation():
    cfg = chain(["a", "b", "c", "d", "e", "f"])
    with pytest.raises(OracleBudgetError):
        collect_states(cfg, 4, InitPolicy.UNKNOWN, budget=20)


def test_unknown_seeds_count_against_the_budget_as_taken():
    # 10 blocks plus the fresh one at N = 6 give 397,112 entry states
    # (about 65 MB); their number is known before any is built.
    cfg = chain([f"m{i}" for i in range(10)])
    tracemalloc.start()
    try:
        with pytest.raises(OracleBudgetError, match="state budget 10 exceeded at entry"):
            collect_states(cfg, 6, InitPolicy.UNKNOWN, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_initial_states_are_counted_by_the_closed_formula():
    for n_blocks in range(5):
        blocks = tuple(f"b{i}" for i in range(n_blocks))
        for n in range(1, 7):
            for init in InitPolicy:
                seeds = initial_states(blocks, n, init)
                states = list(seeds)
                assert len(states) == len(set(states)) == len(seeds)
                longest = 0 if init is InitPolicy.EMPTY else n
                assert len(seeds) == sum(math.perm(n_blocks + 1, r) for r in range(longest + 1))


def test_seed_overflow_fails_before_any_seed_is_built():
    # 9 blocks plus the fresh one at N = 8 give 2,606,501 entry states, over
    # the default budget; holding a million of them would take about 150 MB.
    cfg = chain([f"m{i}" for i in range(9)])
    assert len(initial_states(cfg.blocks(), 8, InitPolicy.UNKNOWN)) == 2_606_501
    tracemalloc.start()
    try:
        with pytest.raises(OracleBudgetError, match="^state budget 1000000 exceeded at entry$"):
            collect_states(cfg, 8, InitPolicy.UNKNOWN, budget=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    # 32 blocks at N = 16 give about 2.4e22, more than len() can report.
    with pytest.raises(OracleBudgetError, match="^state budget 1000000 exceeded at entry$"):
        collect_states(chain([f"b{i:02d}" for i in range(32)]), 16, InitPolicy.UNKNOWN)


def test_explore_builds_each_successor_function_once_at_first_use():
    # "dead" is reached by no state, so its edge's label is never examined.
    cfg = Cfg(
        ("s", "t", "u", "dead"),
        "s",
        (
            Edge("s", AccessLabel("a", 0), "t"),
            Edge("t", Nop(), "u"),
            Edge("u", AccessLabel("b", 1), "t"),
            Edge("dead", AccessLabel("z", 2), "u"),
        ),
    )
    built = []

    def step(label):
        built.append(label)
        if isinstance(label, AccessLabel):
            return lambda state: min(state + 1, 5)
        return lambda state: state

    reached = explore(cfg, [0, 3], step, budget=1000)
    assert built == [AccessLabel("a", 0), Nop(), AccessLabel("b", 1)]
    assert reached == {"s": {0, 3}, "t": {1, 2, 3, 4, 5}, "u": {1, 2, 3, 4, 5}}
    # Without the cap every lap of the t -> u -> t loop makes a new state
    # until the budget stops the search.
    with pytest.raises(OracleBudgetError, match="state budget 1000 exceeded$"):
        explore(cfg, [0], lambda label: lambda state: state + 1, budget=1000)


def test_explore_blocked_successors_add_no_state():
    cfg = Cfg(("s", "t"), "s", (Edge("s", Nop(), "t"),))
    reached = explore(cfg, [1, 2, 3], lambda label: lambda v: v if v % 2 else None, budget=5)
    assert reached == {"s": {1, 2, 3}, "t": {1, 3}}


def test_guard_erasure_is_implicit(flag_program_cfg):
    # the flag-program CFG still carries assume/assign edges; the collector
    # must treat them as no-ops rather than reject them
    reached = collect_states(flag_program_cfg, 4)
    assert reached  # no exception, entry reached
