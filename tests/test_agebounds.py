from __future__ import annotations

import random
from collections import Counter

from absint.agebounds import ApproxClass, age_pass, classify_all_approx, witnesses
from absint.cfg import AccessLabel, Cfg, Edge, parse_access_graph
from absint.focused import classify_pipeline
from absint.lru import Classification, InitPolicy, classify_oracle
from helpers import AgeBounds, analyze_approx, classify_approx, region_cache_cfg
from test_lru import chain


def test_straight_line_third_access_hit():
    cfg = chain(["a", "b", "a"])
    bounds = analyze_approx(cfg, 2)
    before_third = bounds["p2"]
    assert before_third.must["a"] == 1
    assert classify_approx(before_third, "a") is ApproxClass.ALWAYS_HIT
    # and that agrees with the oracle
    assert classify_oracle(cfg, 2)[2] is Classification.ALWAYS_HIT


def test_flag_program_join_loses_both(flag_program_cfg):
    bounds = analyze_approx(flag_program_cfg, 4)
    src = next(src for site, _, src in flag_program_cfg.access_sites if site == 2)
    assert "a" not in bounds[src].must
    assert "b" not in bounds[src].must


def test_first_access_always_miss_under_empty_init():
    cfg = chain(["a"])
    bounds = analyze_approx(cfg, 2)
    assert bounds["p0"].may == {}
    assert classify_approx(bounds["p0"], "a") is ApproxClass.ALWAYS_MISS


def test_unknown_init_suppresses_always_miss():
    cfg = chain(["a"])
    verdicts = classify_all_approx(cfg, 2, InitPolicy.UNKNOWN)
    assert verdicts[0] is ApproxClass.UNKNOWN


def test_classify_unknown_without_bounds():
    assert classify_approx(None, "a") is ApproxClass.UNKNOWN
    assert classify_approx(AgeBounds({}, {"a": 0}), "a") is ApproxClass.UNKNOWN


def test_soundness_against_oracle(cache_corpus_small):
    rng = random.Random(404)
    for cfg in cache_corpus_small:
        if len(cfg.locations) > 10 or len(cfg.blocks()) > 5:
            continue
        for n in (1, 2, 4):
            for init in (InitPolicy.EMPTY, InitPolicy.UNKNOWN):
                oracle = classify_oracle(cfg, n, init)
                approx = classify_all_approx(cfg, n, init)
                for site, verdict in approx.items():
                    if verdict is ApproxClass.ALWAYS_HIT:
                        assert oracle[site] is Classification.ALWAYS_HIT
                    elif verdict is ApproxClass.ALWAYS_MISS:
                        assert oracle[site] is Classification.ALWAYS_MISS


def test_incompleteness_on_flag_program(flag_program_cfg):
    approx = classify_all_approx(flag_program_cfg, 4)
    oracle = classify_oracle(flag_program_cfg, 4)
    assert approx[2] is ApproxClass.UNKNOWN and oracle[2] is Classification.VARIABLE
    assert approx[3] is ApproxClass.UNKNOWN and oracle[3] is Classification.VARIABLE


def unknown_but_always_hit_witness() -> Cfg:
    """Regression instance (found by random search, then minimized): the
    two paths install different age orders, the join maxes both sets of
    bounds, and two more accesses push the focus block past the must bound
    even though it concretely never ages beyond 2."""
    locs = ("A", "P1a", "P1b", "P2a", "P2b", "J", "K1", "K2", "End")
    edges = (
        Edge("A", AccessLabel("x", 0), "P1a"),
        Edge("P1a", AccessLabel("a", 1), "P1b"),
        Edge("P1b", AccessLabel("b", 2), "J"),
        Edge("A", AccessLabel("b", 3), "P2a"),
        Edge("P2a", AccessLabel("x", 4), "P2b"),
        Edge("P2b", AccessLabel("a", 5), "J"),
        Edge("J", AccessLabel("b", 6), "K1"),
        Edge("K1", AccessLabel("d", 7), "K2"),
        Edge("K2", AccessLabel("a", 8), "End"),
    )
    return Cfg(locs, "A", edges)


def test_unknown_but_always_hit_witness():
    cfg = unknown_but_always_hit_witness()
    assert classify_all_approx(cfg, 3)[8] is ApproxClass.UNKNOWN
    assert classify_oracle(cfg, 3)[8] is Classification.ALWAYS_HIT


def test_random_search_finds_unknown_vs_definite(cache_corpus_small):
    """The prefilter must actually be incomplete on the random corpus: some
    Unknowns resolve to definite verdicts under the oracle."""
    unknown_refined = 0
    for cfg in cache_corpus_small:
        for n in (2, 4):
            oracle = classify_oracle(cfg, n)
            approx = classify_all_approx(cfg, n)
            for site, verdict in approx.items():
                if verdict is ApproxClass.UNKNOWN and oracle[site] in (
                    Classification.ALWAYS_HIT,
                    Classification.ALWAYS_MISS,
                ):
                    unknown_refined += 1
    assert unknown_refined > 0


def test_witnesses_are_sound_against_oracle(cache_corpus_small):
    """Every fact the age pass proves at an access site — a hit is possible,
    a hit is impossible, a miss is possible, a miss is impossible — holds in
    the oracle's collecting semantics, and the witnesses prove some of
    each."""
    rng = random.Random(23)
    graphs = [cfg for cfg in cache_corpus_small if len(cfg.locations) <= 10]
    graphs += [region_cache_cfg(rng, rng.randint(5, 25), rng.randint(1, 5)) for _ in range(60)]
    proved = Counter()
    for cfg in graphs:
        for n in (1, 2, 3, 4):
            for init in InitPolicy:
                oracle = classify_oracle(cfg, n, init)
                for site, (hit, miss) in witnesses(cfg, n, init).items():
                    verdict = oracle[site]
                    can_hit = verdict in (Classification.ALWAYS_HIT, Classification.VARIABLE)
                    can_miss = verdict in (Classification.ALWAYS_MISS, Classification.VARIABLE)
                    assert hit is None or hit == can_hit, (cfg, n, init, site, "hit")
                    assert miss is None or miss == can_miss, (cfg, n, init, site, "miss")
                    proved["hit", hit] += 1
                    proved["miss", miss] += 1
    assert all(proved[question, fact] for question in ("hit", "miss") for fact in (True, False))


def test_age_fields_stay_narrow_at_huge_associativity(demo_dir):
    """Each of a location's four ints holds one field of N.bit_length() + 1
    bits per block, so at N = 2**62 they stay a few words wide, and the
    verdicts are those at N = 64, which the two blocks never fill."""
    cfg = parse_access_graph((demo_dir / "flag_reuse.ag").read_text())
    n = 2**62
    bits = len(cfg.blocks()) * (n.bit_length() + 1)
    for init in InitPolicy:
        assert classify_pipeline(cfg, n, init) == classify_pipeline(cfg, 64, init), init
        states = [state for state in age_pass(cfg, n, init) if state is not None]
        assert states and all(value.bit_length() <= bits for state in states for value in state)
