from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from absint import focused
from absint.antichain import Antichain, Orientation
from absint.cfg import AccessLabel, Cfg, Edge, Nop, parse_access_graph
from absint.cli import main
from absint.focused import (
    BlockView,
    analyze_block,
    classify_exact,
    classify_pipeline,
    transfer,
)
from absint.lru import (
    Classification,
    InitPolicy,
    OracleBudgetError,
    classification,
    classify_oracle,
    collect_states,
)
from helpers import (
    classify_per_focus, erase_guards, random_cache_cfg, region_cache_cfg, shuffled_cfg, wide_antichain_cfg,
)
from test_antichain import ac
from test_lru import chain

A, B, C, D, E = range(5)


def view(orientation, absent, *sets):
    return BlockView(absent, ac(orientation, *sets))


def test_transfer_eviction_sets_absent():
    v = view(Orientation.KEEP_MAX, False, {B, C, D})
    out = transfer(v, E, A, 4)
    assert out.may_absent is True
    assert len(out.younger) == 0


def test_transfer_focus_access_resets():
    for orientation in Orientation:
        v = view(orientation, True, {B, C})
        out = transfer(v, A, A, 4)
        assert out == view(orientation, False, set())


def test_transfer_younger_block_changes_nothing():
    v = view(Orientation.KEEP_MAX, False, {B})
    assert transfer(v, B, A, 4) == v


def test_transfer_grows_sets_with_room():
    v = view(Orientation.KEEP_MIN, False, {B}, {D})
    out = transfer(v, C, A, 4)
    assert out.younger == view(Orientation.KEEP_MIN, False, {B, C}, {C, D}).younger


def test_transfer_bottom_stays_bottom():
    bottom = view(Orientation.KEEP_MAX, False)
    assert transfer(bottom, B, A, 4).is_bottom()


def test_transfer_size_bound():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.choice([1, 2, 4])
        sets = []
        for _ in range(rng.randint(0, 3)):
            sets.append(set(rng.sample([B, C, D, E], rng.randint(0, min(3, n - 1) if n > 1 else 0))))
        v = view(rng.choice(list(Orientation)), rng.random() < 0.5, *sets)
        accessed = rng.choice([A, B, C, D, E])
        out = transfer(v, accessed, A, n)
        assert all(m.bit_count() <= n - 1 for m in out.younger)


def test_transfer_additive_on_the_queried_component():
    """Canonicalization may drop a set whose post-eviction image is not
    covered by the survivors' images, so the transfer is not monotone for
    the raw subsumption order.  What classification relies on is weaker and
    is exactly per-orientation: keeping maxima preserves the absent flag
    across joins (evictions happen at full size, and full-size sets are
    maximal), and keeping minima preserves antichain nonemptiness (a subset
    survives whenever its superset does).  Each orientation is therefore
    trusted only for its own query; the exactness suite against the
    concrete oracle is the arbiter for everything else."""
    rng = random.Random(32)
    universe = [B, C, D, E]

    def join(x, y):
        return BlockView(x.may_absent or y.may_absent, x.younger.union(y.younger))

    for orientation in Orientation:
        for _ in range(500):
            n = rng.choice([2, 4])
            limit = n - 1

            def rand_view():
                sets = [
                    set(rng.sample(universe, rng.randint(0, min(limit, len(universe)))))
                    for _ in range(rng.randint(0, 3))
                ]
                return view(orientation, rng.random() < 0.5, *sets)

            x, y = rand_view(), rand_view()
            accessed = rng.choice([A, B, C, D, E])
            joined_first = transfer(join(x, y), accessed, A, n)
            joined_last = join(transfer(x, accessed, A, n), transfer(y, accessed, A, n))
            if orientation is Orientation.KEEP_MAX:
                assert joined_first.may_absent == joined_last.may_absent
            else:
                assert (len(joined_first.younger) == 0) == (len(joined_last.younger) == 0)


def test_analyze_block_flag_program(flag_program_cfg):
    cfg = erase_guards(flag_program_cfg)
    src = next(src for site, _, src in cfg.access_sites if site == 2)
    for orientation in Orientation:
        views = analyze_block(cfg, "a", 4, orientation)
        got = views[src]
        assert got.may_absent is True
        assert got.younger.elements == (0,)


def test_analyze_block_single_access():
    cfg = chain(["a"])
    views = analyze_block(cfg, "a", 4, Orientation.KEEP_MAX)
    assert views["p1"] == BlockView(False, Antichain(Orientation.KEEP_MAX, (0,)))


def test_oracle_may_miss_does_not_depend_on_initial_contents():
    """The argument behind the KEEP_MAX seed, checked on the LRU oracle
    alone: on a path without the focus an empty cache misses it too, and
    after a focus access the initial contents are irrelevant, so a miss is
    possible at a site under unknown contents iff it is from an empty cache."""
    rng = random.Random(1313)
    outcomes = set()
    for _ in range(800):
        cfg = random_cache_cfg(rng)
        for n in range(1, 5):
            empty = collect_states(cfg, n, InitPolicy.EMPTY)
            unknown = collect_states(cfg, n, InitPolicy.UNKNOWN)
            for site, block, src in cfg.access_sites:
                may_miss = [any(block not in s for s in reached.get(src, ()))
                            for reached in (empty, unknown)]
                assert may_miss[0] == may_miss[1], (cfg, n, site)
                outcomes.add(may_miss[0])
    assert outcomes == {False, True}


def test_keep_max_views_do_not_depend_on_initial_contents(cache_corpus_small):
    """The KEEP_MAX run is seeded with the absent configuration alone under
    either policy, so its whole result is the same."""
    for cfg in cache_corpus_small[:100]:
        for focus in cfg.blocks() + ("never-accessed",):
            for n in (1, 2, 4):
                empty = analyze_block(cfg, focus, n, Orientation.KEEP_MAX, InitPolicy.EMPTY)
                unknown = analyze_block(cfg, focus, n, Orientation.KEEP_MAX, InitPolicy.UNKNOWN)
                assert dict(unknown) == dict(empty), (cfg, focus, n)


def test_analyze_block_no_accesses_keeps_init():
    cfg = Cfg(("x", "y"), "x", (Edge("x", Nop(), "y"),))
    views = analyze_block(cfg, "a", 2, Orientation.KEEP_MIN, InitPolicy.UNKNOWN)
    assert views["x"] == views["y"]
    assert views["y"].may_absent is True


def can_reach(cfg: Cfg, targets) -> set[str]:
    """The locations from which some location of `targets` can be reached."""
    seen, stack = set(targets), list(targets)
    while stack:
        loc = stack.pop()
        for e in cfg.edges:
            if e.dst == loc and e.src not in seen:
                seen.add(e.src)
                stack.append(e.src)
    return seen


def test_views_restricted_to_what_reaches_at_equal_the_whole_run():
    """A run restricted to the locations that can reach `at` gives, at each
    of them, the unrestricted run's view, stores and all, and the bottom
    view everywhere else, the entry included when it cannot reach `at`."""
    rng = random.Random(2026)
    kept = dropped = dead_entries = 0
    for _ in range(300):
        cfg = random_cache_cfg(rng)
        blocks = cfg.blocks()
        foci = rng.sample(blocks, min(3, len(blocks))) + ["never-accessed"]
        for n in range(1, 5):
            for orientation in Orientation:
                for init in InitPolicy:
                    for focus in foci:
                        at = rng.sample(cfg.locations, rng.randint(0, min(3, len(cfg.locations))))
                        whole = analyze_block(cfg, focus, n, orientation, init)
                        part = analyze_block(cfg, focus, n, orientation, init, at)
                        live = can_reach(cfg, at)
                        bottom = BlockView(False, Antichain(orientation))
                        for loc in cfg.locations:
                            expected = whole[loc] if loc in live else bottom
                            assert part[loc] == expected, (cfg, focus, n, orientation, init, at, loc)
                        kept += len(live)
                        dropped += len(cfg.locations) - len(live)
                        dead_entries += cfg.entry not in live
    assert kept > 0 and dropped > 0 and dead_entries > 0


def test_focus_with_no_reachable_site_stores_nothing(monkeypatch):
    """When no access site of the focus can be reached from the entry, the
    entry cannot reach their sources either: both runs receive nothing,
    store nothing, and every site of the focus is unreachable."""
    cfg = Cfg(("s", "t", "u"), "s", (
        Edge("s", AccessLabel("b", 0), "t"),
        Edge("u", AccessLabel("a", 1), "t"),
        Edge("u", AccessLabel("a", 2), "s"),
    ))
    received = []
    receive = focused._Run.receive

    def counted(self, loc, *args):
        received.append(loc)
        return receive(self, loc, *args)

    monkeypatch.setattr(focused._Run, "receive", counted)
    for init in InitPolicy:
        assert classify_exact(cfg, 2, init, foci={"a"}) == {
            1: Classification.UNREACHABLE, 2: Classification.UNREACHABLE
        }
        for orientation in Orientation:
            run = analyze_block(cfg, "a", 2, orientation, init, ["u"])
            assert all(store is None for store in run.stores)
            assert all(view.is_bottom() for view in run.values())
    assert received == []


def test_classify_flag_program(flag_program_cfg):
    verdicts = classify_exact(flag_program_cfg, 4)
    assert verdicts[0] is Classification.ALWAYS_MISS
    assert verdicts[1] is Classification.ALWAYS_MISS
    assert verdicts[2] is Classification.VARIABLE
    assert verdicts[3] is Classification.VARIABLE


def test_classify_third_access_hit():
    assert classify_exact(chain(["a", "b", "a"]), 2)[2] is Classification.ALWAYS_HIT


def test_classify_matches_oracle_on_erased_graph(flag_program_cfg):
    erased = erase_guards(flag_program_cfg)
    assert classify_exact(erased, 4) == classify_oracle(erased, 4)


def orientation_witness() -> Cfg:
    """One path leaves the focus with no younger blocks, the other with one;
    a fresh access then evicts only along the second path.  Keeping minima
    alone misses the eviction; keeping maxima alone misses the surviving
    copy."""
    return Cfg(
        ("A", "B1", "B2", "C", "D", "E"),
        "A",
        (
            Edge("A", AccessLabel("a", 0), "B1"),
            Edge("B1", Nop(), "C"),
            Edge("A", AccessLabel("a", 1), "B2"),
            Edge("B2", AccessLabel("b", 2), "C"),
            Edge("C", AccessLabel("c", 3), "D"),
            Edge("D", AccessLabel("a", 4), "E"),
        ),
    )


def test_orientation_necessity():
    cfg = orientation_witness()
    assert classify_oracle(cfg, 2)[4] is Classification.VARIABLE
    assert classify_exact(cfg, 2)[4] is Classification.VARIABLE
    vmin = analyze_block(cfg, "a", 2, Orientation.KEEP_MIN)
    vmax = analyze_block(cfg, "a", 2, Orientation.KEEP_MAX)
    # KEEP_MIN alone would deny the miss (over-reporting hits)
    assert vmin["D"].may_absent is False
    # KEEP_MAX alone would deny the hit (over-reporting misses)
    assert len(vmax["D"].younger) == 0
    # which also falsifies "the absent flags of both runs agree"
    assert vmin["D"].may_absent != vmax["D"].may_absent


def test_exactness_random_sample(cache_corpus_small):
    for cfg in cache_corpus_small:
        for n in (1, 2, 4):
            for init in (InitPolicy.EMPTY, InitPolicy.UNKNOWN):
                assert classify_exact(cfg, n, init) == classify_oracle(cfg, n, init)


def test_exact_runs_alone_match_the_oracle(cache_corpus_small):
    """`classify_exact` asks its runs only what the witnesses leave open;
    unaided, the two runs of each focus still decide every site."""
    for cfg in cache_corpus_small[:150]:
        for n in (1, 2, 4):
            for init in InitPolicy:
                oracle = classify_oracle(cfg, n, init)
                for focus in cfg.blocks():
                    vmax = analyze_block(cfg, focus, n, Orientation.KEEP_MAX, init)
                    vmin = analyze_block(cfg, focus, n, Orientation.KEEP_MIN, init)
                    for site, block, src in cfg.access_sites:
                        if block == focus:
                            verdict = classification(len(vmin[src].younger) > 0, vmax[src].may_absent)
                            assert verdict is oracle[site], (cfg, n, init, site)


def test_pipeline_trivial_instance_needs_no_exact_run():
    cfg = chain(["a", "b", "a"])
    tagged = classify_pipeline(cfg, 2)
    assert tagged[2] == (Classification.ALWAYS_HIT, "approx")
    assert all(tag == "approx" for _, tag in tagged.values())


def test_pipeline_flag_program(flag_program_cfg):
    tagged = classify_pipeline(flag_program_cfg, 4)
    assert tagged[0] == (Classification.ALWAYS_MISS, "approx")
    assert tagged[2] == (Classification.VARIABLE, "exact")
    assert tagged[3] == (Classification.VARIABLE, "exact")


def test_pipeline_empty_graph():
    cfg = Cfg(("only",), "only", ())
    assert classify_pipeline(cfg, 4) == {}


def test_pipeline_agrees_with_exact(cache_corpus_small):
    for cfg in cache_corpus_small[:150]:
        for n in (2, 4):
            exact = classify_exact(cfg, n)
            for site, (verdict, _tag) in classify_pipeline(cfg, n).items():
                assert verdict == exact[site]


def test_mid_size_exact_matches_oracle():
    """40 to 500 locations over 12 or 24 blocks at N=8, empty contents: the
    oracle stays within its budget (up to about 400k states) and agrees with
    the exact analysis and the pipeline at every site.  At N=16 the oracle
    runs past its default budget of 1M states on this test's 250-location
    graph, so the check stops at N=8."""
    rng = random.Random(2019)
    kinds = set()
    for n_locs, n_blocks in ((40, 12), (60, 12), (80, 12), (100, 12), (120, 12), (250, 12), (500, 24)):
        cfg = region_cache_cfg(rng, n_locs, n_blocks, extra=0.8)
        oracle = classify_oracle(cfg, 8)
        assert classify_exact(cfg, 8) == oracle, n_locs
        assert {site: v for site, (v, _tag) in classify_pipeline(cfg, 8).items()} == oracle, n_locs
        kinds.update(oracle.values())
    assert {Classification.ALWAYS_HIT, Classification.ALWAYS_MISS, Classification.VARIABLE} <= kinds


def test_per_focus_search_matches_the_oracle():
    """The per-focus explicit search in the test helpers is checked against
    the LRU oracle before it stands in for it.  The oracle reads its
    verdicts from encoded states; they also equal the verdicts read from
    the tuples `collect_states` decodes."""
    rng = random.Random(400)
    for _ in range(400):
        cfg = random_cache_cfg(rng)
        for n in range(1, 5):
            for init in InitPolicy:
                oracle = classify_oracle(cfg, n, init)
                reached = {loc: set(states) for loc, states in collect_states(cfg, n, init).items()}
                assert all(type(s) is tuple and len(set(s)) == len(s) <= n
                           for states in reached.values() for s in states)
                decoded = {
                    site: classification(any(block in s for s in reached.get(src, ())),
                                         any(block not in s for s in reached.get(src, ())))
                    for site, block, src in cfg.access_sites
                }
                assert oracle == decoded == classify_per_focus(cfg, n, init), (cfg, n)


def test_exact_matches_per_focus_search_past_the_oracle():
    """At N=16 the LRU oracle runs past its budget on the 250-location graph
    of `test_mid_size_exact_matches_oracle`; the per-focus search finishes,
    and the exact analysis and the pipeline agree with it under both inits."""
    rng = random.Random(2019)
    for n_locs, n_blocks in ((40, 12), (60, 12), (80, 12), (100, 12), (120, 12), (250, 12)):
        cfg = region_cache_cfg(rng, n_locs, n_blocks, extra=0.8)
    kinds = set()
    for init in InitPolicy:
        expected = classify_per_focus(cfg, 16, init)
        assert classify_exact(cfg, 16, init) == expected, init
        assert {site: v for site, (v, _tag) in classify_pipeline(cfg, 16, init).items()} == expected
        kinds.update(expected.values())
    assert {Classification.ALWAYS_HIT, Classification.ALWAYS_MISS, Classification.VARIABLE} <= kinds
    with pytest.raises(OracleBudgetError):
        classify_per_focus(cfg, 16, budget=1_000)
    with pytest.raises(OracleBudgetError, match="at entry"):
        classify_per_focus(cfg, 16, InitPolicy.UNKNOWN, budget=1_000)


def test_exact_matches_per_focus_search_on_1000_locations():
    """1,000 locations over 24 blocks at N=8, empty contents, twice the
    largest graph the LRU oracle is checked on (about 1 s per method).
    Unknown contents do not fit: the per-focus search passes its 1M-state
    budget already at 500 locations."""
    cfg = region_cache_cfg(random.Random(2019), 1000, 24, extra=0.8)
    expected = classify_per_focus(cfg, 8)
    assert classify_exact(cfg, 8) == expected
    assert {site: v for site, (v, _tag) in classify_pipeline(cfg, 8).items()} == expected
    assert set(expected.values()) == {
        Classification.ALWAYS_HIT, Classification.ALWAYS_MISS, Classification.VARIABLE
    }


def test_wide_antichains_of_equal_size_stay_fast():
    """8,192 incomparable sets of one size meet at `p13`.  A store that
    scanned every set on insertion would be quadratic here (3.6 s already
    at k = 12); past `antichain.INDEX_THRESHOLD` masks a store gets a
    popcount index and skips its own size (about 0.05 s)."""
    cfg = wide_antichain_cfg(13)
    last = cfg.edges[-1].label.site
    for init, first in ((InitPolicy.EMPTY, Classification.ALWAYS_MISS),
                        (InitPolicy.UNKNOWN, Classification.VARIABLE)):
        start = time.perf_counter()
        verdicts = classify_exact(cfg, 17, init, foci={"f"})
        elapsed = time.perf_counter() - start
        assert verdicts == {0: first, last: Classification.ALWAYS_HIT}, init
        assert elapsed < 2.0, (init, elapsed)


def test_wide_antichains_of_mixed_sizes_stay_fast():
    """The same graph with 2,048 more incomparable sets, one smaller, at
    `p13`.  The two buckets differ in size by one, so an indexed store looks
    up a new set's one-bit neighbours in the other bucket instead of
    scanning it (about 0.08 s, against 1.1-1.9 s for the scan and about 8 s
    for a store without the index, on a shared 2-vCPU x86-64 VM)."""
    cfg = wide_antichain_cfg(13, mixed=True)
    last = cfg.edges[-1].label.site
    for init, first in ((InitPolicy.EMPTY, Classification.ALWAYS_MISS),
                        (InitPolicy.UNKNOWN, Classification.VARIABLE)):
        start = time.perf_counter()
        verdicts = classify_exact(cfg, 17, init, foci={"f"})
        elapsed = time.perf_counter() - start
        assert verdicts == {0: first, last: Classification.ALWAYS_HIT}, init
        assert elapsed < 2.0, (init, elapsed)


def test_exact_matches_per_focus_search_on_the_mixed_wide_graph():
    """Every block of the mixed wide graph at k = 10, at associativities
    that evict and at N = 11, where 1,280 sets of two sizes reach `p10` for
    the focus `f`, far past the index threshold.  At N = 17 the per-focus
    search passes its budget."""
    cfg = wide_antichain_cfg(10, mixed=True)
    for n, init in ((4, InitPolicy.EMPTY), (6, InitPolicy.EMPTY), (11, InitPolicy.EMPTY),
                    (3, InitPolicy.UNKNOWN), (4, InitPolicy.UNKNOWN)):
        assert classify_exact(cfg, n, init) == classify_per_focus(cfg, n, init), (n, init)


def test_unknown_init_around_the_symbolic_seed_boundary():
    """Graphs whose blocks plus the oracle's fresh block number just below,
    at and above N, so that the unknown initial contents do and do not fill
    the cache, checked against the oracle."""
    rng = random.Random(4242)
    for n in range(2, 6):
        for n_blocks in range(max(1, n - 2), n + 2):
            checked = 0
            while checked < 20:
                cfg = random_cache_cfg(rng, max_locs=10, max_blocks=n_blocks)
                if len(cfg.blocks()) != n_blocks:
                    continue
                assert classify_exact(cfg, n, InitPolicy.UNKNOWN) == classify_oracle(
                    cfg, n, InitPolicy.UNKNOWN
                ), (cfg, n)
                checked += 1


def test_verdicts_do_not_depend_on_visit_order(cache_corpus_small):
    """The stores a run ends with depend on the order in which locations and
    out-edges are visited; the verdicts must not.  Small associativities over
    few blocks make the order-sensitive evictions common (trusting the
    KEEP_MIN absent flag fails here)."""
    rng = random.Random(77)
    cases = [(cfg, n) for cfg in cache_corpus_small[:100] for n in (2, 4)]
    cases += [(region_cache_cfg(rng, 20, 3), n) for _ in range(30) for n in (2, 3)]
    for cfg, n in cases:
        for init in InitPolicy:
            expected = classify_exact(cfg, n, init)
            for _ in range(2):
                assert classify_exact(shuffled_cfg(rng, cfg), n, init) == expected, (cfg, n, init)


def access_graph_text(cfg: Cfg) -> str:
    """`cfg` in the access-graph input format (sites numbered in edge order)."""
    lines = [f"loc {loc}" for loc in cfg.locations] + [f"entry {cfg.entry}"]
    for e in cfg.edges:
        access = f" access {e.label.block}" if isinstance(e.label, AccessLabel) else ""
        lines.append(f"edge {e.src} {e.dst}{access}")
    return "\n".join(lines) + "\n"


def reachable(cfg: Cfg) -> set[str]:
    seen, stack = {cfg.entry}, [cfg.entry]
    while stack:
        for e in cfg.out(stack.pop()):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return seen


def test_verdicts_build_only_the_views_they_read(demo_dir, tmp_path, monkeypatch, capsys):
    """A run's verdicts read a view at each entry of its `at` argument, the
    sources of the focus's sites whose question the witnesses leave open;
    `analyze_block` builds a view only when it is looked up, so the command
    line builds exactly those, far fewer than one per location and run."""
    graph = tmp_path / "region.ag"
    graph.write_text(access_graph_text(region_cache_cfg(random.Random(60), 60, 10)))
    runs = [(path, n, init) for path in sorted(demo_dir.iterdir())
            for n in (1, 2, 4) for init in ("empty", "unknown")]
    runs += [(graph, n, "empty") for n in (2, 4)]
    built = 0
    calls = []
    view, analyze = focused._Run.view, focused.analyze_block

    def counted_view(self, loc):
        nonlocal built
        built += 1
        return view(self, loc)

    def recorded(cfg, focus, n, orientation, init, at):
        calls.append((cfg, at))
        return analyze(cfg, focus, n, orientation, init, at)

    monkeypatch.setattr(focused._Run, "view", counted_view)
    monkeypatch.setattr(focused, "analyze_block", recorded)
    for path, n, init in runs:
        for method in ("pipeline", "compare"):
            code = main(["cache", "--input", str(path), "--assoc", str(n), "--method", method,
                         "--init", init, "--format", "json"])
            assert code == 0, (path, n, init, method, capsys.readouterr().err)
    capsys.readouterr()
    lookups = 0
    for cfg, at in calls:
        reached = reachable(cfg)
        lookups += sum(src in reached for src in at)
    assert built == lookups > 0
    assert built < sum(len(cfg.locations) for cfg, _ in calls)


def test_store_memory_does_not_grow_with_associativity(demo_dir):
    """A store holds only the sets it keeps, and an index only the sizes
    present, so a huge N costs what a small one does once the graph has
    fewer blocks than N."""
    cfg = parse_access_graph((demo_dir / "flag_reuse.ag").read_text())
    runs = ((classify_exact, InitPolicy.EMPTY), (classify_pipeline, InitPolicy.UNKNOWN))
    for classify, init in runs:
        expected = classify(cfg, 64, init)
        tracemalloc.start()
        try:
            verdicts = classify(cfg, 10_000, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdicts == expected, classify.__name__
        assert peak < 5 * 2**20, (classify.__name__, peak)
