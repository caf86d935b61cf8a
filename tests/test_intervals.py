from __future__ import annotations

import itertools
import json
import operator
import random

import pytest

from absint import intervals as intervals_module
from absint import rewrite as rewrite_module
from absint.cfg import build_cfg
from absint.intervals import (
    BOTTOM_ENV,
    EMPTY,
    NEG_INF,
    POS_INF,
    TOP,
    AbstractEnv,
    Interval,
    analyze,
    entry_environment,
    eval_expr,
    filter_cond,
    widen,
)
from absint.lang import BinOp, Cmp, Const, Nondet, Var, parse_program
from absint.rewrite import analyze_combined
from helpers import RangeBlown, concrete_stores, contains, random_long_program, random_program, subset

RING = """
int i;
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


def env_of(**kw):
    return AbstractEnv.of({k: v for k, v in kw.items()})


def test_eval_difference():
    env = env_of(x=Interval(0, 1), y=Interval(0, 1))
    assert eval_expr(BinOp("-", Var("x"), Var("y")), env) == Interval(-1, 1)


def test_eval_constant():
    assert eval_expr(Const(7), env_of()) == Interval(7, 7)


def test_eval_shift():
    env = env_of(x=Interval(0, 41))
    assert eval_expr(BinOp("+", Var("x"), Const(1)), env) == Interval(1, 42)


def test_eval_nondet_is_top():
    assert eval_expr(Nondet(), env_of()) == TOP


def test_filter_exact_constant_guard():
    env = env_of(i=Interval(0, 43))
    out = filter_cond(Cmp(">", Var("i"), Const(42)), env)
    assert out.get("i") == Interval(43, 43)


def test_filter_tightens_strict_bound_over_integers():
    env = env_of(j=TOP)
    out = filter_cond(Cmp(">", Var("j"), Const(0)), env)
    assert out.get("j") == Interval(1, POS_INF)


def test_filter_empty_intersection_is_unreachable():
    env = env_of(i=Interval(0, 10))
    assert filter_cond(Cmp(">", Var("i"), Const(42)), env).bottom


def test_filter_nondet_is_identity():
    from absint.lang import CondNondet

    env = env_of(i=Interval(3, 4))
    assert filter_cond(CondNondet(), env) == env


def test_filter_refines_both_variable_sides():
    env = env_of(x=Interval(0, 9), y=Interval(5, 20))
    out = filter_cond(Cmp(">", Var("x"), Var("y")), env)
    assert out.get("x") == Interval(6, 9)
    assert out.get("y") == Interval(5, 8)


def test_filter_equality_and_disequality():
    env = env_of(x=Interval(0, 9))
    assert filter_cond(Cmp("==", Var("x"), Const(4)), env).get("x") == Interval(4, 4)
    assert filter_cond(Cmp("!=", Var("x"), Const(0)), env).get("x") == Interval(1, 9)
    assert filter_cond(Cmp("!=", Var("x"), Const(5)), env).get("x") == Interval(0, 9)


RELOPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
          "!=": operator.ne, ">=": operator.ge, ">": operator.gt}


def _side(rng, names):
    roll = rng.random()
    if roll < 0.4:
        return Var(rng.choice(names))
    if roll < 0.6:
        return Const(rng.randint(-4, 4))
    return BinOp(rng.choice("+-"), _side(rng, names), _side(rng, names))


def _value(e, point):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return point[e.name]
    right = _value(e.right, point)
    return _value(e.left, point) + (right if e.op == "+" else -right)


def test_filter_cond_against_brute_force():
    """Every point of a small box that satisfies the condition is kept.
    When the sides are a variable and a constant, or two distinct
    variables, the result is exact: unreachable if and only if no point
    satisfies, and each variable side is the hull of its satisfying
    values."""
    rng = random.Random(1515)
    names = ["x", "y", "z"]
    exact = 0
    for _ in range(3000):
        box = {}
        for v in names:
            lo = rng.randint(-3, 3)
            box[v] = Interval(lo, lo + rng.randint(0, 3))
        op = rng.choice(sorted(RELOPS))
        c = Cmp(op, _side(rng, names), _side(rng, names))
        out = filter_cond(c, AbstractEnv.of(box))
        points = [dict(zip(names, p)) for p in itertools.product(
            *(range(box[v].lo, box[v].hi + 1) for v in names))]
        sat = [p for p in points if RELOPS[op](_value(c.left, p), _value(c.right, p))]
        for p in sat:
            assert not out.bottom, c
            assert all(contains(out.get(v), p[v]) for v in names), (c, box, p)
        kinds = sorted(type(side).__name__ for side in (c.left, c.right))
        if kinds == ["Const", "Var"] or (kinds == ["Var", "Var"] and c.left != c.right):
            exact += 1
            assert out.bottom == (not sat), (c, box)
            for side in (c.left, c.right):
                if isinstance(side, Var) and sat:
                    values = [p[side.name] for p in sat]
                    assert out.get(side.name) == Interval(min(values), max(values)), (c, box)
    assert exact > 500


def test_widen_unstable_upper():
    assert widen(Interval(0, 0), Interval(0, 1)) == Interval(0, POS_INF)


def test_widen_stable():
    iv = Interval(3, 9)
    assert widen(iv, iv) == iv


def test_widen_unstable_lower():
    assert widen(Interval(0, 10), Interval(-1, 10)) == Interval(NEG_INF, 10)


def test_widen_is_upper_bound_and_stabilizes():
    rng = random.Random(98)
    for _ in range(300):
        def rand_iv():
            lo = rng.randint(-20, 20)
            return Interval(lo, lo + rng.randint(0, 15))

        acc = rand_iv()
        changes = 0
        for _ in range(10):
            nxt = rand_iv()
            out = widen(acc, nxt)
            assert subset(acc, out) and subset(nxt, out)
            if out != acc:
                changes += 1
            acc = out
        assert changes <= 2  # each bound can only escape to infinity once


# Reference for AbstractEnv.join/widen: the variable-by-variable formula
# over dicts (a variable missing on one side is top there), with interval
# join and widening written out from their definitions.


def _reference_pointwise(a, b, op):
    if a.bottom:
        return b
    if b.bottom:
        return a
    x, y = dict(a.intervals), dict(b.intervals)
    return AbstractEnv.of({v: op(x.get(v, TOP), y.get(v, TOP)) for v in set(x) | set(y)})


def _reference_join(a, b):
    return _reference_pointwise(a, b, lambda p, q: Interval(min(p.lo, q.lo), max(p.hi, q.hi)))


def _reference_widen(a, b):
    return _reference_pointwise(
        a, b, lambda p, q: Interval(p.lo if p.lo <= q.lo else NEG_INF, p.hi if p.hi >= q.hi else POS_INF)
    )


ENV_BOUNDS = (NEG_INF, -3, -1, 0, 2, 5, POS_INF)
ENV_VARS = ("a", "b", "c", "d", "e")


def _random_env(rng, names):
    if rng.random() < 0.1:
        return BOTTOM_ENV
    out = {}
    for v in names:
        # lo is never +oo, hi never -oo, and lo == hi only at finite bounds
        i = rng.randrange(len(ENV_BOUNDS) - 1)
        j = rng.randrange(max(i, 1), len(ENV_BOUNDS))
        out[v] = Interval(ENV_BOUNDS[i], ENV_BOUNDS[j])
    return AbstractEnv.of(out)


def _below_same_vars(b, a) -> bool:
    """b ⊑ a where both list the same variables (or b is bottom)."""
    if b.bottom:
        return True
    if a.bottom or [v for v, _ in a.intervals] != [v for v, _ in b.intervals]:
        return False
    return all(subset(q, p) for (_, p), (_, q) in zip(a.intervals, b.intervals))


def test_env_join_and_widen_match_pointwise_reference():
    rng = random.Random(5150)
    for round_ in range(3000):
        # Both operands list the same variables: every third round a random
        # subset of ENV_VARS (perhaps none), otherwise all of them.
        names = sorted(rng.sample(ENV_VARS, rng.randint(0, len(ENV_VARS)))) if round_ % 3 == 0 else ENV_VARS
        a, b = _random_env(rng, names), _random_env(rng, names)
        if round_ % 3 == 2 and not (a.bottom or b.bottom):
            # share some interval objects, as environments of one run do
            b = AbstractEnv.of(dict(p if rng.random() < 0.5 else q for p, q in zip(a.intervals, b.intervals)))
        for x, y in ((a, b), (b, a), (a, a)):
            joined, widened = x.join(y), x.widen(y)
            assert joined == _reference_join(x, y) and repr(joined) == repr(_reference_join(x, y))
            assert widened == _reference_widen(x, y) and repr(widened) == repr(_reference_widen(x, y))
            if _below_same_vars(y, x):
                assert joined is x and widened is x
            elif _below_same_vars(x, y):
                assert joined is y
        # both operands below their join, which then absorbs each of them
        upper = _reference_join(a, b)
        for lower in (a, b):
            if _below_same_vars(lower, upper):
                assert upper.join(lower) is upper and upper.widen(lower) is upper


def test_infinities_compare_print_and_refuse_arithmetic():
    big = 10**400
    for n in (-big, -1, 0, 1, big):
        assert NEG_INF < n < POS_INF and POS_INF > n > NEG_INF
        assert NEG_INF <= n <= POS_INF and POS_INF >= n >= NEG_INF
        assert not (POS_INF < n or n > POS_INF or NEG_INF > n or n < NEG_INF)
        assert POS_INF != n != NEG_INF
    assert NEG_INF < POS_INF and POS_INF <= POS_INF and not POS_INF < POS_INF
    assert -POS_INF is NEG_INF and -NEG_INF is POS_INF
    for inf, text in ((POS_INF, "+oo"), (NEG_INF, "-oo")):
        assert repr(inf) == str(inf) == f"{inf}" == f"{inf!r}" == text
        assert f"[{inf:>4}]" == f"[ {text}]"
        assert not isinstance(inf, int)
        for other in (1, big, POS_INF, NEG_INF):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                for left, right in ((inf, other), (other, inf)):
                    with pytest.raises(TypeError):
                        op(left, right)
    assert repr(TOP) == "[-oo, +oo]" and repr(Interval(0, POS_INF)) == "[0, +oo]"


def test_infinities_are_strings_in_json_reports(tmp_path, capsys):
    from absint.cli import main

    path = tmp_path / "top.imp"
    path.write_text("int x;\nint y = 0;\nwhile (*) { y = y + 1; }\n")
    assert main(["intervals", "--input", str(path), "--format", "json"]) == 0
    envs = [r["env"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert {"x": ["-oo", "+oo"], "y": [0, "+oo"]} in envs  # the loop head


def _reference_set(env, var, iv):
    """The dict-and-sort formula `AbstractEnv.set` once used."""
    if env.bottom:
        return env
    if iv.is_empty:
        return BOTTOM_ENV
    d = dict(env.intervals)
    d[var] = iv
    return AbstractEnv.of(d)


def test_env_set_matches_dict_and_sort_reference():
    rng = random.Random(20261018)
    names = ENV_VARS + ("", "a0", "bb", "f", "z")
    for _ in range(3000):
        env = _random_env(rng, sorted(rng.sample(ENV_VARS, rng.randint(0, len(ENV_VARS)))))
        var = rng.choice(names)  # listed or not, before, between or after the others
        roll = rng.random()
        if roll < 0.15:
            iv = EMPTY
        elif roll < 0.3 and not env.bottom and env.intervals:
            iv = rng.choice(env.intervals)[1]  # possibly the current object of `var`
        else:
            iv = dict(_random_env(rng, ("x",)).intervals).get("x", TOP)  # top where bottom came out
        if not env.bottom and not iv.is_empty and var not in dict(env.intervals):
            with pytest.raises(KeyError):
                env.set(var, iv)
            with pytest.raises(KeyError):
                env.get(var)
            continue
        got, want = env.set(var, iv), _reference_set(env, var, iv)
        assert got == want and repr(got) == repr(want)
        if not env.bottom and var in dict(env.intervals) and env.get(var) is iv:
            assert got is env
    assert BOTTOM_ENV.set("a", Interval.const(1)) is BOTTOM_ENV
    assert env_of(a=Interval.const(1)).set("b", EMPTY) is BOTTOM_ENV


def test_engine_transfers_each_edge_and_value_once(monkeypatch):
    """The engine transfers an edge again only when its source value was
    replaced: no (edge, source value object) pair is transferred twice."""
    seen: set = set()
    held: list = []  # keeps every transferred value alive, so ids stay unique
    engine = intervals_module.chaotic_iteration

    def counting_engine(cfg, entry, bottom, transfer, *knobs):
        def counted(label, value):
            key = (id(label), id(value))
            assert key not in seen
            seen.add(key)
            held.append((label, value))
            return transfer(label, value)

        return engine(cfg, entry, bottom, counted, *knobs)

    monkeypatch.setattr(intervals_module, "chaotic_iteration", counting_engine)
    monkeypatch.setattr(rewrite_module, "chaotic_iteration", counting_engine)
    rng = random.Random(4471)
    programs = [random_program(rng) for _ in range(60)]
    programs += [random_long_program(rng, 6, 40) for _ in range(3)]
    for program in programs:
        cfg = build_cfg(program)
        assert len({id(e.label) for e in cfg.edges}) == len(cfg.edges)  # a label names its edge
        env = entry_environment(program)
        for passes in (0, 2):
            for run in (
                lambda: analyze(cfg, env, 0, passes),
                lambda: analyze(cfg, env, 1, passes),
                lambda: analyze_combined(cfg, env, None, 0, passes),
                lambda: analyze_combined(cfg, env, 1, 0, passes),
            ):
                seen.clear()
                held.clear()
                run()
                assert seen


def loop_head(cfg):
    from absint.cfg import back_edge_targets

    targets = back_edge_targets(cfg)
    assert len(targets) == 1
    return targets.pop()


def test_ring_widen_only():
    cfg = build_cfg(parse_program(RING))
    result = analyze(cfg, env_of(i=Interval(0, 0)), widen_delay=0, narrow_passes=0)
    assert result.envs[loop_head(cfg)].get("i") == Interval(0, POS_INF)
    assert result.asserts[0].proved is False


def test_ring_one_narrowing_pass():
    cfg = build_cfg(parse_program(RING))
    result = analyze(cfg, env_of(i=Interval(0, 0)), widen_delay=0, narrow_passes=1)
    assert result.envs[loop_head(cfg)].get("i") == Interval(0, 999)
    assert result.asserts[0].proved is False


def test_ring_nonmonotone_precondition():
    """Identical analysis options; a strictly larger entry set proves the
    assertion the point entry cannot."""
    cfg = build_cfg(parse_program(RING))
    precise = analyze(cfg, env_of(i=Interval(0, 0)), widen_delay=0, narrow_passes=0)
    coarse = analyze(cfg, env_of(i=Interval(0, 42)), widen_delay=0, narrow_passes=0)
    assert precise.asserts[0].proved is False
    assert coarse.asserts[0].proved is True
    assert coarse.envs[loop_head(cfg)].get("i") == Interval(0, 42)


def test_widen_delay_recovers_exact_two_phase_loop():
    # i alternates 0/1; one join before widening keeps the loop head finite
    text = "int i = 0; while (*) { if (i == 0) { i = 1; } else { i = 0; } }"
    cfg = build_cfg(parse_program(text))
    program = parse_program(text)
    eager = analyze(cfg, entry_environment(program), widen_delay=0, narrow_passes=0)
    delayed = analyze(cfg, entry_environment(program), widen_delay=2, narrow_passes=0)
    head = loop_head(cfg)
    assert delayed.envs[head].get("i") == Interval(0, 1)
    assert eager.envs[head].get("i").hi is POS_INF


def test_widen_delay_budget_is_an_error_not_an_approximation(monkeypatch):
    # The loop head takes i in [0,0], [0,1], ..., [0,5]: six plain updates
    # under a delay that never runs out, for either engine client.
    program = parse_program("int i = 0; while (i < 5) { i = i + 1; }")
    cfg = build_cfg(program)
    env = entry_environment(program)
    monkeypatch.setattr(intervals_module, "DELAY_BUDGET", 6)
    assert analyze(cfg, env, widen_delay=100).envs[loop_head(cfg)].get("i") == Interval(0, 5)
    assert analyze_combined(cfg, env, widen_delay=100).envs[loop_head(cfg)].get("i") == Interval(0, 5)
    monkeypatch.setattr(intervals_module, "DELAY_BUDGET", 5)
    message = "^widening delay budget exceeded: more than 5 plain updates at loop heads$"
    with pytest.raises(intervals_module.DelayBudgetError, match=message):
        analyze(cfg, env, widen_delay=100)
    with pytest.raises(intervals_module.DelayBudgetError, match=message):
        analyze_combined(cfg, env, widen_delay=100)
    # Widened updates do not count.
    assert analyze(cfg, env, widen_delay=0, narrow_passes=1).envs[loop_head(cfg)].get("i") == Interval(0, 5)


def test_assert_in_unreachable_code_is_vacuously_proved():
    text = "int i = 0; if (i > 5) { assert (i < 0); }"
    cfg = build_cfg(parse_program(text))
    result = analyze(cfg, env_of(i=Interval(0, 0)))
    assert result.asserts[0].proved is True


def test_rejects_cache_programs():
    cfg = build_cfg(parse_program("access(a);"))
    with pytest.raises(ValueError):
        analyze(cfg, env_of())


def test_soundness_against_concrete_enumeration():
    """Every store the explicit enumerator reaches lies inside the analyzed
    intervals, for random programs staying in the enumerator's range."""
    rng = random.Random(6021)
    checked = 0
    attempts = 0
    while checked < 120 and attempts < 1200:
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
        for delay, passes in ((0, 0), (1, 1)):
            result = analyze(cfg, env0, widen_delay=delay, narrow_passes=passes)
            for loc, tuples in stores.items():
                envl = result.envs[loc]
                if tuples:
                    assert not envl.bottom, loc
                for t in tuples:
                    for who, value in zip(cfg.variables, t):
                        assert contains(envl.get(who), value), (loc, who, value)
    assert checked >= 100


def test_env_public_face_is_pinned():
    """Texts, views, equality, hashing and errors of environments, recorded
    when environments were tuples of (name, interval) pairs."""
    shared = Interval(-3, 5)
    env = AbstractEnv.of({"c": shared, "a": TOP, "b": shared})
    assert repr(env) == "AbstractEnv(intervals=(('a', [-oo, +oo]), ('b', [-3, 5]), ('c', [-3, 5])), bottom=False)"
    assert repr(BOTTOM_ENV) == "AbstractEnv(intervals=(), bottom=True)"
    assert repr(AbstractEnv.of({})) == "AbstractEnv(intervals=(), bottom=False)"
    assert repr(env_of(x=Interval(0, POS_INF))) == "AbstractEnv(intervals=(('x', [0, +oo]),), bottom=False)"
    assert repr(env.set("a", Interval(NEG_INF, -7))) == (
        "AbstractEnv(intervals=(('a', [-oo, -7]), ('b', [-3, 5]), ('c', [-3, 5])), bottom=False)")
    assert str(env) == repr(env) and f"{env}" == repr(env)

    assert env.intervals == (("a", TOP), ("b", shared), ("c", shared))
    assert all(iv is shared for _, iv in env.intervals[1:])
    assert dict(env.intervals) == {"a": TOP, "b": shared, "c": shared} and list(dict(env.intervals)) == ["a", "b", "c"]
    assert BOTTOM_ENV.intervals == () and dict(BOTTOM_ENV.intervals) == {} and BOTTOM_ENV.bottom
    assert not env.bottom and env.get("b") is shared

    zero = Interval.const(0)
    built = env_of(a=zero, b=zero, c=zero).set("c", Interval(-3, 5)).set("a", TOP).set("b", Interval(-3, 5))
    assert built == env and hash(built) == hash(env) and built is not env
    assert {built: 1}[env] == 1 and len({env, built, BOTTOM_ENV, AbstractEnv.of({})}) == 3
    assert built != env.set("a", zero) and env != BOTTOM_ENV and AbstractEnv.of({}) != BOTTOM_ENV
    assert env_of(a=TOP, b=EMPTY) is BOTTOM_ENV and env.set("c", EMPTY) is BOTTOM_ENV

    for bad in ("d", "", "A"):
        with pytest.raises(KeyError) as caught:
            env.get(bad)
        assert caught.value.args == (bad,)
        with pytest.raises(KeyError) as caught:
            env.set(bad, TOP)
        assert caught.value.args == (bad,)
    with pytest.raises(KeyError):
        BOTTOM_ENV.get("a")


def test_every_returned_value_has_its_own_class(demo_dir):
    """`Interval(0, 1) == (0, 1)`, so only the class shows a value built
    with the wrong constructor."""
    from absint import cli

    checked = 0
    for path in sorted(demo_dir.glob("*.imp")):
        program = parse_program(path.read_text())
        cfg = build_cfg(program)
        if cfg.access_sites:
            continue
        env = entry_environment(program)
        runs = [(analyze, cfg, env, d, p) for d in (0, 1) for p in (0, 1)]
        runs += [(analyze_combined, cfg, env, t, 0, 1) for t in (None, 1)]
        runs += [(cli._solver_result, cfg, program, m) for m in ("policy", "exhaustive")]
        runs += [(cli._oracle_result, cfg, program, (-1024, 1100))]
        for fn, *args in runs:
            try:
                result = fn(*args)
            except cli._CliError:
                continue
            for value in result.envs.values():
                assert type(value) is AbstractEnv
                assert all(type(iv) is Interval for _, iv in value.intervals)
                assert all(type(iv) is Interval for iv in dict(value.intervals).values())
            checked += 1
    assert checked == 21  # the solvers and the oracle take ring_index only
