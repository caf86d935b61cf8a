"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is pinned here; no tolerances are deferred.
"""

from __future__ import annotations

import json
import subprocess
import sys

from absint.agebounds import ApproxClass, classify_all_approx
from absint.boundsolve import (
    BAdd,
    BConst,
    BMax,
    BMin,
    BRef,
    eval_bexpr,
    extract_upper_bounds,
    solve_exhaustive,
    solve_intervals_exact,
    solve_policy_iteration,
)
from absint.cfg import back_edge_targets, build_cfg
from absint.focused import classify_exact
from absint.intervals import (
    NEG_INF,
    POS_INF,
    TOP,
    AbstractEnv,
    Interval,
    analyze,
    entry_environment,
)
from absint.lang import parse_program
from absint.lru import Classification, InitPolicy, access, classify_oracle
from absint.rewrite import analyze_combined
from absint.antichain import Antichain, Orientation

import helpers
from helpers import FRAGMENT_VAR, inline_equation, subset


def ok(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS  {message}")


RING = """
int i = 0;
while (0 < 1) {
  if (*) {
    i = i + 1;
    if (i > 42) {
      i = 0;
    }
  }
  assert (i < 1000);
}
"""

RING_LOOP_ONLY = RING.replace("int i = 0;", "int i;")


def ring_cfg_and_head():
    cfg = build_cfg(parse_program(RING))
    head = back_edge_targets(cfg).pop()
    return cfg, head


def test_criterion_1_least_bound_golden():
    """Extracted loop system: both solvers give 42; 999 is a fixpoint of the
    loop-head equation but is rejected as non-least.  Exact integers."""
    cfg, head = ring_cfg_and_head()
    system = extract_upper_bounds(cfg, "i", 0)
    exhaustive = solve_exhaustive(system)
    policy = solve_policy_iteration(system)
    assert exhaustive[head] == 42
    assert policy[head] == 42
    equation = inline_equation(system, head)
    assert eval_bexpr(equation, {head: 999}) == 999  # 999 is a solution
    assert eval_bexpr(equation, {head: 42}) == 42
    assert exhaustive[head] == policy[head] == 42 < 999
    # and the one-variable equation matches the reference min/max shape
    reference = BMin(BMax(BMin(BConst(42), BAdd(BRef(head), 1)), BRef(head)), BConst(999))
    for h in list(range(0, 1205)) + [POS_INF]:
        assert eval_bexpr(equation, {head: h}) == eval_bexpr(reference, {head: h})
    ok(1, "both solvers return 42; 999 verified as a non-least fixpoint")


def test_criterion_2_widening_narrowing_goldens():
    cfg = build_cfg(parse_program(RING_LOOP_ONLY))
    head = back_edge_targets(cfg).pop()
    point = AbstractEnv.of({"i": Interval(0, 0)})
    widened = analyze(cfg, point, widen_delay=0, narrow_passes=0)
    assert widened.envs[head].get("i") == Interval(0, POS_INF)
    assert widened.asserts[0].proved is False
    narrowed = analyze(cfg, point, widen_delay=0, narrow_passes=1)
    assert narrowed.envs[head].get("i") == Interval(0, 999)
    assert narrowed.asserts[0].proved is False
    coarse = analyze(cfg, AbstractEnv.of({"i": Interval(0, 42)}), widen_delay=0, narrow_passes=0)
    assert coarse.envs[head].get("i") == Interval(0, 42)
    assert coarse.asserts[0].proved is True
    ok(2, "[0,+oo) widened, [0,999] narrowed, assert proved only under [0,42] entry")


def test_criterion_3_lru_concrete_goldens():
    state = ("a", "b", "c", "d")
    after_d = access(state, "d", 4)
    assert after_d == ("d", "a", "b", "c")
    after_e = access(after_d, "e", 4)
    assert after_e == ("e", "d", "a", "b")
    ok(3, "abcd -d-> dabc -e-> edab at associativity 4")


def test_criterion_4_exactness_property(cache_corpus_full):
    """classify_exact == classify_oracle on 1000 random graphs, all of
    N in {1,2,4} and both initial-contents policies.  Zero tolerance."""
    assert len(cache_corpus_full) >= 1000
    sites = 0
    for cfg in cache_corpus_full:
        for n in (1, 2, 4):
            for init in (InitPolicy.EMPTY, InitPolicy.UNKNOWN):
                oracle = classify_oracle(cfg, n, init)
                exact = classify_exact(cfg, n, init)
                assert exact == oracle, (cfg, n, init)
                sites += len(oracle)
    ok(4, f"exact == oracle on {sites} site verdicts across 6000 runs")


def test_criterion_5_prefilter_soundness_and_incompleteness(cache_corpus_full, flag_program_cfg):
    flagged = 0
    for cfg in cache_corpus_full:
        for n in (1, 2, 4):
            for init in (InitPolicy.EMPTY, InitPolicy.UNKNOWN):
                oracle = classify_oracle(cfg, n, init)
                approx = classify_all_approx(cfg, n, init)
                for site, verdict in approx.items():
                    if verdict is ApproxClass.ALWAYS_HIT:
                        assert oracle[site] is Classification.ALWAYS_HIT
                        flagged += 1
                    elif verdict is ApproxClass.ALWAYS_MISS:
                        assert oracle[site] is Classification.ALWAYS_MISS
                        flagged += 1
    approx = classify_all_approx(flag_program_cfg, 4)
    exact = classify_exact(flag_program_cfg, 4)
    for site in (2, 3):
        assert approx[site] is ApproxClass.UNKNOWN
        assert exact[site] is Classification.VARIABLE
    ok(5, f"{flagged} definite prefilter verdicts all confirmed; flag program: Unknown vs Variable")


def test_criterion_6_solver_cross_validation(fragment_corpus_full):
    """Exhaustive = policy iteration = concrete hulls on 500 oracle-verified
    fragment programs, and exact bounds sit inside the widen-narrow ones."""
    assert len(fragment_corpus_full) >= 500
    locations = 0
    for program, cfg, init, values in fragment_corpus_full:
        upper = extract_upper_bounds(cfg, FRAGMENT_VAR, init)
        exhaustive = solve_exhaustive(upper)
        policy = solve_policy_iteration(upper)
        assert exhaustive == policy
        exact = solve_intervals_exact(cfg, FRAGMENT_VAR, Interval.const(init))
        widened = analyze(cfg, entry_environment(program), widen_delay=0, narrow_passes=1)
        for loc in cfg.locations:
            locations += 1
            reachable = values[loc]
            if reachable:
                assert exhaustive[loc] == max(reachable), loc
                assert exact[loc] == Interval(min(reachable), max(reachable)), loc
            else:
                assert exhaustive[loc] is NEG_INF
                assert exact[loc].is_empty
            wenv = widened.envs[loc]
            if wenv.bottom:
                assert exact[loc].is_empty
            else:
                assert subset(exact[loc], wenv.get(FRAGMENT_VAR))
    ok(6, f"both solvers match the concrete hulls at {locations} locations and dominate widening")


def test_criterion_7_rewrite_combination_goldens(demo_dir):
    copy_diff = parse_program((demo_dir / "copy_diff.imp").read_text())
    cfg = build_cfg(copy_diff)
    env = entry_environment(copy_diff)
    from absint.cfg import AssignLabel

    zloc = next(e.dst for e in cfg.edges if isinstance(e.label, AssignLabel) and e.label.var == "z")
    assert analyze(cfg, env).envs[zloc].get("z") == Interval(-1, 1)
    assert analyze_combined(cfg, env).envs[zloc].get("z") == Interval(0, 0)

    guarded = parse_program((demo_dir / "guarded_copy.imp").read_text())
    gcfg = build_cfg(guarded)
    genv = entry_environment(guarded)
    lloc = next(e.dst for e in gcfg.edges if isinstance(e.label, AssignLabel) and e.label.var == "l")
    full = analyze_combined(gcfg, genv).envs[lloc].get("l")
    truncated = analyze_combined(gcfg, genv, truncate_depth=1).envs[lloc].get("l")
    assert full == TOP
    assert truncated == Interval(2, POS_INF)
    ok(7, "z = [0,0] with rewriting ([-1,1] without); l unconstrained full vs [2,+oo) truncated")


def test_criterion_8_antichain_lattice_laws():
    import random

    def sets(masks):
        return [frozenset(helpers.indices_of(m)) for m in masks]

    rng = random.Random(90210)
    checked = 0
    for _ in range(600):
        orientation = rng.choice(list(Orientation))
        keep_max = orientation is Orientation.KEEP_MAX
        masks = [rng.randrange(32) for _ in range(rng.randint(0, 8))]
        built = Antichain(orientation)
        for i, m in enumerate(masks):
            built = built.insert(m)
            assert set(sets(built)) == helpers.naive_extremes(sets(masks[: i + 1]), keep_max)
        other = Antichain(orientation)
        for m in [rng.randrange(32) for _ in range(rng.randint(0, 4))]:
            masks.append(m)
            other = other.insert(m)
        union = built.union(other)
        assert set(sets(union)) == helpers.naive_extremes(sets(masks), keep_max)
        masks.append(rng.randrange(32))
        bound = union.union(Antichain(orientation).insert(masks[-1]))
        assert set(sets(bound)) == helpers.naive_extremes(sets(masks), keep_max)
        checked += 1
    ok(8, f"{checked} random antichains match the brute-force extremes oracle")


def test_criterion_9_cli_determinism(demo_dir):
    runs = [
        ["cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4", "--method", "compare", "--format", "json"],
        ["cache", "--input", str(demo_dir / "flag_reuse.ag"), "--assoc", "2", "--method", "pipeline", "--format", "text"],
        ["intervals", "--input", str(demo_dir / "ring_index.imp"), "--method", "compare", "--format", "json"],
        ["intervals", "--input", str(demo_dir / "guarded_copy.imp"), "--method", "widen-narrow", "--rewrites", "truncated:1", "--format", "json"],
    ]
    for args in runs:
        cmd = [sys.executable, "-m", "absint.cli"] + args
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.stdout == second.stdout, args
        assert first.returncode == second.returncode, args
        if "json" in args:
            json.loads(first.stdout)  # well-formed
    ok(9, f"{len(runs)} CLI invocations byte-identical across repeated runs")
