from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import pytest

from absint import lru
from absint.cfg import AccessLabel, Cfg, Edge, Nop
from absint.lru import (
    Alphabet,
    Classification,
    InitPolicy,
    OracleBudgetError,
    access,
    classify_oracle,
    collect_states,
    explore,
)
from helpers import initial_states, lru_step, random_cache_cfg, region_cache_cfg


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
    # The set image `collect_states` applies along an access edge, built
    # once per block and applied without checks to encoded states: one state
    # at a time, and to every state of each length bound at once.
    blocks = ("a", "b", "c", "d", "e")
    alphabet = Alphabet(blocks)
    checked = 0
    for n in range(1, 5):
        for block in blocks:
            image = lru._image(alphabet.letter[block], n)
            states = [state for r in range(n + 1) for state in itertools.permutations(blocks, r)]
            for state in states:
                (word,) = image({alphabet.encode(state)})
                assert type(word) is str and len(word) <= n
                assert alphabet.decode(word) == _access_by_rebuild(state, block, n), (state, block, n)
                checked += 1
            whole = image(alphabet.encode(state) for state in states)
            assert {alphabet.decode(w) for w in whole} == {_access_by_rebuild(s, block, n) for s in states}
    assert checked == 5 * sum(math.perm(5, r) for n in range(1, 5) for r in range(n + 1))


def test_collect_states_checks_associativity_before_the_search():
    # The check runs once, before any state is explored: N = 0 is rejected
    # even on a graph without accesses.
    no_access = Cfg(("x", "y"), "x", (Edge("x", Nop(), "y"),))
    with pytest.raises(ValueError, match="^associativity must be at least 1$"):
        collect_states(no_access, 0)


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


def test_fresh_block_is_named_apart_from_the_graph_blocks():
    # A graph may access a block named like the fresh block of the unknown
    # policy; the fresh block then takes a longer name, and every seed is a
    # distinct state of distinct blocks.
    for blocks, fresh in [(("x", "~other"), "~other~"), (("~other", "~other~"), "~other~~")]:
        seeds = initial_states(blocks, 2, InitPolicy.UNKNOWN)
        states = list(seeds)
        assert len(seeds) == len(set(states)) == 10
        assert all(len(set(s)) == len(s) for s in states)
        assert {b for s in states for b in s} == set(blocks) | {fresh}
    reached = collect_states(chain(["x", "~other"]), 2, InitPolicy.UNKNOWN)
    assert reached["p0"] == set(initial_states(("x", "~other"), 2, InitPolicy.UNKNOWN))
    assert reached["p2"] == {("~other", "x")}
    assert reached["p1"] == {("x",), ("x", "~other"), ("x", "~other~")}


def test_alphabet_names_at_most_one_block_per_code_point(monkeypatch):
    alphabet = Alphabet(("b", "a", "b"))
    assert alphabet.encode(("a", "b")) == "\x01\x00"
    assert alphabet.decode("\x00\x01") == ("b", "a")
    monkeypatch.setattr(lru, "CODE_POINTS", 2)
    assert collect_states(chain(["a", "b"]), 2)["p2"] == {("b", "a")}
    with pytest.raises(OracleBudgetError, match="^oracle names at most 2 distinct blocks, got 3$"):
        collect_states(chain(["a", "b"]), 2, InitPolicy.UNKNOWN)
    with pytest.raises(OracleBudgetError, match="^oracle names at most 2 distinct blocks, got 3$"):
        classify_oracle(chain(["a", "b", "c"]), 2)


def test_collected_states_read_as_sets_of_tuples():
    reached = collect_states(chain(["a", "b", "a"]), 2, InitPolicy.UNKNOWN)
    states = reached["p1"]
    assert len(states) == len(list(states)) == 3
    assert ("a", "b") in states and ("a", "~other") in states
    assert ("b", "a") not in states and ("z",) not in states and "a" not in states and ["a"] not in states
    assert states == set(states) and set(states) == states and states <= reached["p1"]
    assert reached["p3"] == {("a", "b")} and repr(reached["p3"]) == "{('a', 'b')}"


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
    for _ in range(40):
        cfg = random_cache_cfg(rng, max_locs=8, max_blocks=4)
        n = rng.choice([1, 2, 4])
        small = set(initial_states(cfg.blocks(), n, InitPolicy.EMPTY))
        pool = sorted(initial_states(cfg.blocks(), n, InitPolicy.UNKNOWN))
        big = small | set(rng.sample(pool, min(3, len(pool))))
        alphabet = Alphabet(itertools.chain(cfg.blocks(), *pool))
        step = lru_step(n, alphabet)
        r_small = explore(cfg, {alphabet.encode(s) for s in small}, step, 1_000_000)
        r_big = explore(cfg, {alphabet.encode(s) for s in big}, step, 1_000_000)
        for loc, states in r_small.items():
            assert states <= r_big.get(loc, set())


def _cross_check_graphs():
    """Seeded random and region access graphs, plus an entry with an access
    self-loop and a location no edge leads to."""
    rng = random.Random(2024)
    graphs = [random_cache_cfg(rng, max_locs=12, max_blocks=5) for _ in range(60)]
    graphs += [region_cache_cfg(rng, rng.randint(8, 30), rng.randint(1, 5), 0.8) for _ in range(16)]
    graphs.append(Cfg(
        ("s", "t", "dead"),
        "s",
        (
            Edge("s", AccessLabel("a", 0), "s"),
            Edge("s", AccessLabel("b", 1), "t"),
            Edge("t", Nop(), "s"),
            Edge("dead", AccessLabel("c", 2), "t"),
        ),
    ))
    return graphs


def test_collect_states_matches_the_per_state_search():
    # The batched search must reach exactly what `explore` reaches one
    # state at a time with an independently written LRU step.
    graphs = _cross_check_graphs()
    self_loops = sum(e.src == e.dst and isinstance(e.label, AccessLabel) for g in graphs for e in g.edges)
    unreached = 0
    for index, cfg in enumerate(graphs):
        blocks = cfg.blocks()
        alphabet = Alphabet(blocks + (lru._fresh_block(blocks),))
        for n in range(1, 6):
            for init in InitPolicy:
                seeds = {alphabet.encode(s) for s in initial_states(blocks, n, init)}
                expected = explore(cfg, seeds, lru_step(n, alphabet), 1_000_000)
                reached = collect_states(cfg, n, init)
                assert {loc: states.words for loc, states in reached.items()} == expected, (index, n, init)
        unreached += len(cfg.locations) - len(reached)
    assert self_loops >= 5 and unreached >= 5


def test_budget_equal_to_the_reached_total_fits():
    for cfg in _cross_check_graphs()[55:66]:
        for n in (2, 4):
            for init in InitPolicy:
                total = sum(map(len, collect_states(cfg, n, init).values()))
                assert sum(map(len, collect_states(cfg, n, init, budget=total).values())) == total
                with pytest.raises(OracleBudgetError, match=f"^state budget {total - 1} exceeded"):
                    collect_states(cfg, n, init, budget=total - 1)


def test_over_budget_search_stops_within_bounded_memory():
    # The search stops as soon as the new states pass the budget; holding
    # 100,000 states of up to 16 blocks takes about 9 MB.
    cfg = region_cache_cfg(random.Random(2019), 250, 12, 0.8)
    tracemalloc.start()
    try:
        with pytest.raises(OracleBudgetError, match="^state budget 100000 exceeded$"):
            collect_states(cfg, 16, budget=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
