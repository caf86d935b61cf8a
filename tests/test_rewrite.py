from __future__ import annotations

import hashlib
import random

from absint import intervals as intervals_module
from absint import rewrite as rewrite_module
from absint.cfg import AssignLabel, build_cfg
from absint.intervals import (
    NEG_INF,
    POS_INF,
    TOP,
    AbstractEnv,
    Interval,
    analyze,
    entry_environment,
    eval_expr,
)
from absint.lang import BinOp, Const, Nondet, Var, parse_program, pretty_expr
from absint.rewrite import (
    LinearForm,
    RewriteMap,
    analyze_combined,
    evaluate,
    linear_form,
    record,
    render,
    rewrite_and_simplify,
    simplify,
    substitute,
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


def form(const=0, **coeffs):
    names = tuple(sorted(coeffs))
    return LinearForm(const, names, tuple(coeffs[n] for n in names))


def test_record_copy():
    m = record(RewriteMap(), "y", linear_form(Var("x")))
    assert m.rules == (("y", form(x=1)),)


def test_record_chains_through_existing_rules():
    m = RewriteMap((("j", form(1, i=1)),))
    out = record(m, "k", substitute(linear_form(BinOp("+", Var("j"), Const(1))), m))
    assert out.rules == (("j", form(1, i=1)), ("k", form(2, i=1)))


def test_record_nondet_invalidates():
    m = RewriteMap((("y", form(x=1)), ("w", form(1, v=1))))
    out = record(m, "v", linear_form(Nondet()))
    assert out.rules == (("y", form(x=1)),)  # v's rule users dropped too


def test_record_reassignment_drops_stale_rules():
    m = record(RewriteMap(), "y", linear_form(Var("x")))
    out = record(m, "x", linear_form(Const(3)))
    assert out.rules == (("x", form(3)),)  # y's rule mentioned the old x


def test_record_self_reference_invalidates():
    out = record(RewriteMap(), "x", linear_form(BinOp("+", Var("x"), Const(1))))
    assert out.rules == ()


def test_rewrite_cancels_copy():
    m = RewriteMap((("y", form(x=1)),))
    e = BinOp("-", Var("x"), Var("y"))
    assert substitute(linear_form(e), m) == form(0)
    assert rewrite_and_simplify(m, e) == Const(0)


def test_rewrite_no_rules_is_simplify_only():
    assert rewrite_and_simplify(RewriteMap(), BinOp("+", Var("j"), Const(1))) == BinOp(
        "+", Var("j"), Const(1)
    )


def test_simplify_folds_constants():
    e = BinOp("+", BinOp("+", Var("i"), Const(1)), Const(1))
    assert simplify(e) == BinOp("+", Var("i"), Const(2))


def test_rewrite_and_simplify_idempotent():
    """Rules refer to current values only, so substituting a second time
    finds no rule to apply and returns the form itself."""
    rng = random.Random(88)
    from helpers import random_expr

    for _ in range(300):
        variables = ["a", "b", "c"]
        m = RewriteMap()
        for v in variables[: rng.randint(0, 3)]:
            m = record(m, v, substitute(linear_form(random_expr(rng, ["p", "q"])), m))
        e = random_expr(rng, variables + ["p"])
        once = substitute(linear_form(e), m)
        assert substitute(once, m) is once
        assert rewrite_and_simplify(m, render(once)) == render(once) == rewrite_and_simplify(m, e)


NAMES = ["a", "b", "c", "d", "e"]


def random_linear_expr(rng, variables, depth):
    """Sums over few variables, so that variables repeat and cancel."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.3:
            return Const(rng.randint(-9, 9))
        if roll < 0.93:
            return Var(rng.choice(variables))
        return Nondet()
    return BinOp(rng.choice("+-"), random_linear_expr(rng, variables, depth - 1),
                 random_linear_expr(rng, variables, depth - 1))


def long_sum() -> BinOp:
    e = Var("a")
    for k in range(2999):
        e = BinOp("-" if k % 3 == 0 else "+", e, Var(NAMES[k % 5]) if k % 7 else Const(k))
    return e


def random_map(rng, full: bool) -> RewriteMap:
    """Rules recorded as an exhaustive run does (substituted through the
    map) or as a truncated one does (as written, so rules chain)."""
    m = RewriteMap()
    for _ in range(rng.randint(0, 6)):
        var = rng.choice(NAMES)
        rhs = linear_form(random_linear_expr(rng, NAMES, rng.randint(0, 4)))
        m = record(m, var, substitute(rhs, m) if full else rhs)
    return m


def random_env(rng) -> AbstractEnv:
    def interval():
        lo, width = rng.randint(-20, 20), rng.randint(0, 9)
        return rng.choice([Interval(lo, lo + width), Interval(NEG_INF, lo), Interval(lo, POS_INF), TOP])

    return AbstractEnv.of({name: interval() for name in NAMES})


def test_form_evaluation_matches_rendered_tree():
    rng = random.Random(2026)
    exprs = [random_linear_expr(rng, NAMES, rng.randint(0, 7)) for _ in range(2000)]
    exprs.append(long_sum())
    for e in exprs:
        m = random_map(rng, rng.random() < 0.5)
        for f in (linear_form(e), substitute(linear_form(e), m, rng.choice([None, 1, 2]))):
            tree = render(f)
            for _ in range(3):
                env = random_env(rng)
                assert evaluate(f, env) == eval_expr(tree, env), (f, env)


def test_forms_equal_exactly_when_trees_equal():
    rng = random.Random(2027)
    forms = [linear_form(random_linear_expr(rng, NAMES[:3], rng.randint(0, 4))) for _ in range(300)]
    forms.append(linear_form(long_sum()))
    trees = [render(f) for f in forms]
    equal_pairs = 0
    for i, (f, tree) in enumerate(zip(forms, trees)):
        assert linear_form(tree) == f
        for g, other in zip(forms[:i], trees[:i]):
            assert (f == g) == (tree == other), (f, g)
            equal_pairs += f == g
    assert equal_pairs > 100


# Recorded from the tree-walking rewriter, before rules became linear forms.
REWRITE_SEED = 20261020
REWRITE_GOLDEN = "1fe20491687a3fd9d7158c1f2e4a5ce94e593d0c07f4fb8b2856f04ea1424f48"


def test_simplify_and_rewrite_golden():
    rng = random.Random(REWRITE_SEED)
    h = hashlib.sha256()
    for index in range(600):
        full = rng.random() < 0.5
        m = RewriteMap()
        for _ in range(rng.randint(0, 6)):
            var = rng.choice(NAMES)
            rhs = linear_form(random_linear_expr(rng, NAMES, rng.randint(0, 4)))
            m = record(m, var, substitute(rhs, m) if full else rhs)
        e = random_linear_expr(rng, NAMES, rng.randint(0, 6))
        h.update(f"#{index} {simplify(e)!r}".encode())
        for chain in (None, 0, 1, 2, 3):
            h.update(f" {rewrite_and_simplify(m, e, chain)!r}".encode())
    m = record(RewriteMap(), "b", linear_form(BinOp("+", Var("c"), Const(1))))
    for e in (simplify(long_sum()), rewrite_and_simplify(m, long_sum())):
        h.update(pretty_expr(e).encode())
    assert h.hexdigest() == REWRITE_GOLDEN


def test_copy_diff_combined_is_exact():
    program = parse_program(COPY_DIFF)
    cfg = build_cfg(program)
    env = entry_environment(program)
    zloc = after_assign(cfg, "z")
    plain = analyze(cfg, env)
    combined = analyze_combined(cfg, env)
    assert plain.envs[zloc].get("z") == Interval(-1, 1)
    assert combined.envs[zloc].get("z") == Interval(0, 0)


CANCEL = """
int y;
int z;
if (y < 0) { y = 0; }
if (y > 5) { y = 5; }
z = y - y + 1;
if (y - y > 0) { z = 9; }
"""


def test_repeated_variable_cancels_without_rules():
    """No rule applies here: the label's own form, evaluated for the
    assignment and rendered for the guard, still cancels the repeated `y`."""
    program = parse_program(CANCEL)
    cfg = build_cfg(program)
    env = entry_environment(program)
    zloc = after_assign(cfg, "z")
    inside = next(e.dst for e in cfg.edges if isinstance(e.label, AssignLabel) and e.label.expr == Const(9))
    plain, combined = analyze(cfg, env), analyze_combined(cfg, env)
    assert plain.envs[zloc].get("z") == Interval(-4, 6)
    assert combined.envs[zloc].get("z") == Interval(1, 1)
    assert not plain.envs[inside].bottom
    assert combined.envs[inside].bottom


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
    """A label's rewritten form or condition and its recorded map are
    computed once per rule-map object that reaches it: no (label, map
    object) pair calls `substitute` on the same form, or `record`, twice,
    and `record` stores what the transfer substituted without substituting
    again.  Each label's own forms are built once per run, whatever maps
    reach it."""
    seen: set = set()
    held: list = []  # keeps every map, form and label alive, so ids stay unique
    current: list = []  # the label being transferred, whether inside record, substitute depth
    engine = intervals_module.chaotic_iteration
    substitute_, record_ = rewrite_module.substitute, rewrite_module.record
    label_forms = rewrite_module._label_forms

    def counting_engine(cfg, entry, bottom, transfer, *knobs):
        def labelled(label, value):
            current[:] = [label, False, 0]
            return transfer(label, value)

        return engine(cfg, entry, bottom, labelled, *knobs)

    def note(key, *alive):
        assert key not in seen, key
        seen.add(key)
        held.append(alive)

    def counted_substitute(f, m, budget=None):
        assert not current[1], "record substituted its right-hand side"
        if not current[2]:  # a rule's own substitution is part of its caller's
            note(("substitute", id(current[0]), id(m), id(f)), current[0], m, f)
        current[2] += 1
        try:
            return substitute_(f, m, budget)
        finally:
            current[2] -= 1

    def counted_record(m, var, rhs):
        note(("record", id(current[0]), id(m)), current[0], m)
        current[1] = True
        try:
            return record_(m, var, rhs)
        finally:
            current[1] = False

    def counted_label_forms(label):
        note(("own", id(label)), label)
        return label_forms(label)

    monkeypatch.setattr(rewrite_module, "chaotic_iteration", counting_engine)
    monkeypatch.setattr(rewrite_module, "substitute", counted_substitute)
    monkeypatch.setattr(rewrite_module, "record", counted_record)
    monkeypatch.setattr(rewrite_module, "_label_forms", counted_label_forms)
    rng = random.Random(9091)
    programs = [random_program(rng) for _ in range(60)]
    programs += [random_long_program(rng, 6, 40) for _ in range(3)]
    computed = {"substitute": 0, "record": 0, "own": 0}
    for program in programs:
        cfg = build_cfg(program)
        env = entry_environment(program)
        for depth in (None, 1):
            for passes in (0, 2):
                seen.clear()
                held.clear()
                analyze_combined(cfg, env, depth, 0, passes)
                for key in seen:
                    computed[key[0]] += 1
    assert all(computed.values()), computed
