from __future__ import annotations

import random

from absint import intervals as intervals_module
from absint import rewrite as rewrite_module
from absint.cfg import AssignLabel, build_cfg
from absint.intervals import (
    POS_INF,
    TOP,
    AbstractEnv,
    Interval,
    analyze,
    entry_environment,
)
from absint.lang import BinOp, Const, Nondet, Var, parse_program
from absint.rewrite import (
    RewriteMap,
    analyze_combined,
    record,
    rewrite_and_simplify,
    simplify,
)
from helpers import RangeBlown, concrete_stores, contains, random_long_program, random_program, subset

COPY_DIFF = """
int x;
int y;
int z;
if (x < 0) { x = 0; }
if (x > 1) { x = 1; }
y = x;
z = x - y;
"""

GUARDED_COPY = """
int i;
int j;
int k;
int l;
j = i + 1;
k = j + 1;
if (j > 0) { l = k; }
"""


def after_assign(cfg, var):
    return next(e.dst for e in cfg.edges if isinstance(e.label, AssignLabel) and e.label.var == var)


def test_record_copy():
    m = record(RewriteMap(), "y", Var("x"))
    assert m.rules == (("y", Var("x")),)


def test_record_chains_through_existing_rules():
    m = RewriteMap((("j", BinOp("+", Var("i"), Const(1))),))
    out = record(m, "k", rewrite_and_simplify(m, BinOp("+", Var("j"), Const(1))))
    assert out.lookup("k") == BinOp("+", Var("i"), Const(2))
    assert out.lookup("j") == BinOp("+", Var("i"), Const(1))


def test_record_nondet_invalidates():
    m = RewriteMap((("y", Var("x")), ("w", BinOp("+", Var("v"), Const(1)))))
    out = record(m, "v", Nondet())
    assert out.rules == (("y", Var("x")),)  # v's rule users dropped too


def test_record_reassignment_drops_stale_rules():
    m = record(RewriteMap(), "y", Var("x"))
    out = record(m, "x", Const(3))
    assert out.lookup("y") is None
    assert out.lookup("x") == Const(3)


def test_record_self_reference_invalidates():
    out = record(RewriteMap(), "x", BinOp("+", Var("x"), Const(1)))
    assert out.rules == ()


def test_rewrite_cancels_copy():
    m = RewriteMap((("y", Var("x")),))
    assert rewrite_and_simplify(m, BinOp("-", Var("x"), Var("y"))) == Const(0)


def test_rewrite_no_rules_is_simplify_only():
    assert rewrite_and_simplify(RewriteMap(), BinOp("+", Var("j"), Const(1))) == BinOp(
        "+", Var("j"), Const(1)
    )


def test_simplify_folds_constants():
    e = BinOp("+", BinOp("+", Var("i"), Const(1)), Const(1))
    assert simplify(e) == BinOp("+", Var("i"), Const(2))


def test_rewrite_and_simplify_idempotent():
    rng = random.Random(88)
    from helpers import random_expr

    for _ in range(300):
        variables = ["a", "b", "c"]
        m = RewriteMap()
        for v in variables[: rng.randint(0, 3)]:
            m = record(m, v, rewrite_and_simplify(m, random_expr(rng, ["p", "q"])))
        e = random_expr(rng, variables + ["p"])
        once = rewrite_and_simplify(m, e)
        assert rewrite_and_simplify(m, once) == once


def test_copy_diff_combined_is_exact():
    program = parse_program(COPY_DIFF)
    cfg = build_cfg(program)
    env = entry_environment(program)
    zloc = after_assign(cfg, "z")
    plain = analyze(cfg, env)
    combined = analyze_combined(cfg, env)
    assert plain.envs[zloc].get("z") == Interval(-1, 1)
    assert combined.envs[zloc].get("z") == Interval(0, 0)


def test_guarded_copy_full_vs_truncated():
    """More rewrite information here is strictly worse: the full chain maps
    l to an unconstrained source, the depth-1 chain stops at j + 1 which the
    guard bounds below."""
    program = parse_program(GUARDED_COPY)
    cfg = build_cfg(program)
    env = entry_environment(program)
    lloc = after_assign(cfg, "l")
    full = analyze_combined(cfg, env)
    truncated = analyze_combined(cfg, env, truncate_depth=1)
    assert full.envs[lloc].get("l") == TOP
    assert truncated.envs[lloc].get("l") == Interval(2, POS_INF)
    # strict refinement: the non-monotonicity witness
    assert subset(truncated.envs[lloc].get("l"), full.envs[lloc].get("l"))
    assert truncated.envs[lloc].get("l") != full.envs[lloc].get("l")


def test_combined_refines_plain_on_random_programs():
    rng = random.Random(3003)
    for _ in range(120):
        program = random_program(rng)
        cfg = build_cfg(program)
        env = entry_environment(program)
        plain = analyze(cfg, env, widen_delay=1, narrow_passes=1)
        combined = analyze_combined(cfg, env, widen_delay=1, narrow_passes=1)
        for loc in cfg.locations:
            envc, envp = combined.envs[loc], plain.envs[loc]
            if envc.bottom:
                continue
            assert not envp.bottom, loc
            for v in cfg.variables:
                assert subset(envc.get(v), envp.get(v)), (loc, v)


def test_combined_sound_against_concrete_enumeration():
    rng = random.Random(7007)
    checked = 0
    attempts = 0
    while checked < 80 and attempts < 900:
        attempts += 1
        program = random_program(rng)
        cfg = build_cfg(program)
        entry = {
            d.name: (d.init.value if d.init is not None else rng.randint(-3, 3))
            for d in program.decls
        }
        try:
            stores = concrete_stores(cfg, entry)
        except RangeBlown:
            continue
        checked += 1
        env0 = AbstractEnv.of({v: Interval.const(c) for v, c in entry.items()})
        for depth in (None, 1):
            result = analyze_combined(cfg, env0, truncate_depth=depth, widen_delay=0, narrow_passes=1)
            for loc, tuples in stores.items():
                envl = result.envs[loc]
                for t in tuples:
                    assert not envl.bottom
                    for who, value in zip(cfg.variables, t):
                        assert contains(envl.get(who), value), (loc, who, value, depth)
    assert checked >= 60


def test_combined_rewrites_each_label_and_map_once(monkeypatch):
    """A label's rewritten expression or condition and its recorded map are
    computed once per rule-map object that reaches it: no (label, map
    object) pair calls `rewrite_and_simplify` on the same expression, or
    `record`, twice, and `record` stores what the transfer rewrote without
    rewriting it again.  A truncated run simplifies each right-hand side
    once, whatever maps reach its label."""
    seen: set = set()
    held: list = []  # keeps every map and label alive, so ids stay unique
    current: list = []  # the label being transferred, and whether inside record
    engine = intervals_module.chaotic_iteration
    rewrite, record_ = rewrite_module.rewrite_and_simplify, rewrite_module.record
    simplify = rewrite_module.simplify

    def counting_engine(cfg, entry, bottom, transfer, *knobs):
        def labelled(label, value):
            current[:] = [label, False]
            return transfer(label, value)

        return engine(cfg, entry, bottom, labelled, *knobs)

    def note(key, *alive):
        assert key not in seen, key
        seen.add(key)
        held.append(alive)

    def counted_rewrite(m, e, max_chain=None):
        assert not current[1], "record rewrote its right-hand side"
        note(("rewrite", id(current[0]), id(m), id(e)), current[0], m, e)
        return rewrite(m, e, max_chain)

    def counted_simplify(e):
        note(("simplify", id(e)), e)
        return simplify(e)

    def counted_record(m, var, rhs):
        note(("record", id(current[0]), id(m)), current[0], m)
        current[1] = True
        try:
            return record_(m, var, rhs)
        finally:
            current[1] = False

    monkeypatch.setattr(rewrite_module, "chaotic_iteration", counting_engine)
    monkeypatch.setattr(rewrite_module, "rewrite_and_simplify", counted_rewrite)
    monkeypatch.setattr(rewrite_module, "record", counted_record)
    monkeypatch.setattr(rewrite_module, "simplify", counted_simplify)
    rng = random.Random(9091)
    programs = [random_program(rng) for _ in range(60)]
    programs += [random_long_program(rng, 6, 40) for _ in range(3)]
    computed = 0
    for program in programs:
        cfg = build_cfg(program)
        env = entry_environment(program)
        for depth in (None, 1):
            for passes in (0, 2):
                seen.clear()
                held.clear()
                analyze_combined(cfg, env, depth, 0, passes)
                computed += len(seen)
    assert computed
