from __future__ import annotations

import importlib
import pathlib
import random
import time

import pytest

from absint.boundsolve import (
    BAdd,
    BConst,
    BMax,
    BMin,
    BRef,
    BoundExpr,
    BoundSystem,
    CapExceededError,
    RangeExceededError,
    UnsupportedConstructError,
    bounded_concrete_oracle,
    eval_bexpr,
    extract_upper_bounds,
    is_fixpoint,
    solve_exhaustive,
    solve_intervals_exact,
    solve_policy_iteration,
    _selector_nodes,
)
from absint import boundsolve as boundsolve_module
from absint.cfg import back_edge_targets, build_cfg, parse_access_graph
from absint.lru import OracleBudgetError
from absint.intervals import (
    DELAY_BUDGET, EMPTY, NEG_INF, POS_INF, TOP, DelayBudgetError, Interval, analyze, entry_environment,
)
from absint.lang import parse_program
from helpers import (
    FRAGMENT_VAR,
    chained_system,
    copied_system,
    corner_system,
    dump_expr,
    dump_system,
    gadget_chain_program,
    inline_equation,
    random_fragment_program,
    subset,
)

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


H = BRef("h")


def single(rhs: BoundExpr) -> BoundSystem:
    """The one-equation system ``h = rhs``."""
    return BoundSystem((("h", rhs),))


def ring_system():
    cfg = build_cfg(parse_program(RING))
    head = back_edge_targets(cfg).pop()
    return extract_upper_bounds(cfg, "i", 0), head, cfg


def test_extracted_loop_equation_matches_reference_shape():
    """Inlined to one variable, the loop-head equation agrees pointwise with
    min(max(min(42, h+1), h), 999) wherever the entry clamp is inactive."""
    system, head, _ = ring_system()
    inlined = inline_equation(system, head)
    h = BRef(head)
    reference = BMin(BMax(BMin(BConst(42), BAdd(h, 1)), h), BConst(999))
    for value in list(range(0, 1205)) + [POS_INF]:
        rho = {head: value}
        assert eval_bexpr(inlined, rho) == eval_bexpr(reference, rho), value


def test_readme_shows_the_inlined_loop_equation():
    system, head, _ = ring_system()
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    assert f"```\n{dump_expr(inline_equation(system, head))}\n```" in readme


def test_both_solvers_find_42():
    system, head, _ = ring_system()
    assert solve_exhaustive(system)[head] == 42
    assert solve_policy_iteration(system)[head] == 42


def test_999_is_a_fixpoint_but_not_least():
    system, head, _ = ring_system()
    inlined = inline_equation(system, head)
    assert eval_bexpr(inlined, {head: 999}) == 999
    assert eval_bexpr(inlined, {head: 42}) == 42
    least = solve_exhaustive(system)[head]
    assert least == 42 and least < 999


def test_straight_line_bounds():
    cfg = build_cfg(parse_program("int i = 0;\ni = 0; i = i + 1;"))
    system = extract_upper_bounds(cfg, "i", 0)
    solved = solve_policy_iteration(system)
    # entry 0, post-nop 0, after `i = 0` still 0, after `i = i + 1` exactly 1
    assert sorted(solved.values()) == [0, 0, 0, 1]


def test_extraction_rejects_foreign_expression():
    cfg = build_cfg(parse_program("int i; int j; i = i + j;"))
    with pytest.raises(UnsupportedConstructError, match="outside the fragment"):
        extract_upper_bounds(cfg, "i", 0)


def test_extraction_rejects_equality_guards():
    cfg = build_cfg(parse_program("int i = 0; if (i == 3) { i = 1; }"))
    with pytest.raises(UnsupportedConstructError, match="equality"):
        extract_upper_bounds(cfg, "i", 0)


def test_extraction_rejects_foreign_guard():
    cfg = build_cfg(parse_program("int i; int j; if (j < 3) { i = 1; }"))
    with pytest.raises(UnsupportedConstructError, match="foreign"):
        extract_upper_bounds(cfg, "i", 0)


def test_exact_solve_classifies_each_edge_once(monkeypatch):
    """Both bound systems of one variable come from one classification of
    the graph's edges, which later solves of that variable reuse."""
    calls = []
    edge_shape = boundsolve_module._edge_shape

    def counting(label, var, graph):
        calls.append(var)
        return edge_shape(label, var, graph)

    monkeypatch.setattr(boundsolve_module, "_edge_shape", counting)
    rng = random.Random(20261026)
    for _ in range(20):
        text, init = random_fragment_program(rng)
        cfg = build_cfg(parse_program(text))
        calls.clear()
        solve_intervals_exact(cfg, FRAGMENT_VAR, Interval.const(init))
        assert len(calls) == len(cfg.edges)
        solve_intervals_exact(cfg, FRAGMENT_VAR, TOP)
        assert len(calls) == len(cfg.edges)


def test_unreachable_location_solves_to_bottom():
    cfg = build_cfg(parse_program("int i = 0; while (0 < 1) { i = 0; } i = 5;"))
    system = extract_upper_bounds(cfg, "i", 0)
    solved = solve_policy_iteration(system)
    assert NEG_INF in solved.values()  # everything after the infinite loop


def test_exhaustive_entry_already_stable():
    system = single(BMin(BConst(10), BMax(BConst(0), H)))
    assert solve_exhaustive(system)["h"] == 0


def test_exhaustive_modified_threshold():
    text = RING.replace("42", "7")
    cfg = build_cfg(parse_program(text))
    head = back_edge_targets(cfg).pop()
    system = extract_upper_bounds(cfg, "i", 0)
    assert solve_exhaustive(system)[head] == 7
    hull = bounded_concrete_oracle(cfg, "i", Interval.const(0), (-1, 1100))
    assert hull[head] == (0, 7)


def test_policy_iteration_min_only_with_entry():
    system = single(BMax(BConst(0), BMin(BConst(5), BAdd(H, 1))))
    assert solve_policy_iteration(system)["h"] == 5
    assert solve_exhaustive(system)["h"] == 5


def test_policy_iteration_constant_system():
    system = single(BConst(3))
    assert solve_policy_iteration(system) == {"h": 3}


def test_raw_loop_equation_without_entry_bottoms_out():
    # Without the entry contribution the least solution over the extended
    # integers is -oo; the entry join is what makes 42 least.
    system = single(BMin(BMax(BMin(BConst(42), BAdd(H, 1)), H), BConst(999)))
    assert solve_exhaustive(system)["h"] is NEG_INF
    assert solve_policy_iteration(system)["h"] is NEG_INF


def test_divergent_counter_goes_to_infinity():
    system = single(BMax(BConst(0), BAdd(H, 1)))
    assert solve_exhaustive(system)["h"] is POS_INF
    assert solve_policy_iteration(system)["h"] is POS_INF


@pytest.mark.parametrize("k", [10**9, 10**18])
def test_policy_iteration_cost_does_not_depend_on_constants(k):
    # A Kleene climb would need about k/2 steps; the exact min-system solve
    # needs a handful of rounds whatever k is.
    program = parse_program(
        f"int i = 0; while (i < {k}) {{ if (*) {{ i = i + 1; }} else {{ i = i + 2; }} }}"
        f" assert (i <= {k + 1});"
    )
    cfg = build_cfg(program)
    exact = solve_intervals_exact(cfg, "i", Interval.const(0))
    assert exact[cfg.asserts[0].loc] == Interval(k, k + 1)
    head = back_edge_targets(cfg).pop()
    assert exact[head] == Interval(0, k + 1)


def test_cap_exceeded():
    # x = max(x, max(x + 1, ... max(x + 20, x)))
    x = BRef("x")
    rhs = x
    for i in reversed(range(21)):
        rhs = BMax(BAdd(x, i) if i else x, rhs)
    system = BoundSystem((("x", rhs),))
    assert _selector_nodes(system) == 21
    with pytest.raises(CapExceededError):
        solve_exhaustive(system)


def test_dump_round_trip_ring():
    system, _, _ = ring_system()
    assert dump_system(system) == (
        "L0 = 0\nL1 = max(L0, L12)\nL2 = -oo\nL3 = L1\nL4 = max(L8, L6)\nL5 = L3\n"
        "L6 = L3\nL7 = L5 + 1\nL8 = max(L11, L10)\nL9 = L7\nL10 = min(L7, 42)\n"
        "L11 = 0\nL12 = min(L4, 999)\n"
    )


def test_dump_round_trip_infinities_and_offsets():
    a, b = BRef("a"), BRef("b")
    system = BoundSystem((
        ("a", BConst(NEG_INF)),
        ("b", BMax(BAdd(a, -3), BMin(BConst(POS_INF), BAdd(b, 2)))),
        ("c", BConst(7)),
    ))
    assert dump_system(system) == "a = -oo\nb = max(a - 3, min(+oo, b + 2))\nc = 7\n"


def random_system(rng: random.Random, n_vars: int = 4) -> BoundSystem:
    names = [f"x{i}" for i in range(n_vars)]

    def expr(depth):
        roll = rng.random()
        if roll < 0.3 or depth >= 2:
            return BConst(rng.randint(-6, 12))
        if roll < 0.55:
            return BAdd(BRef(rng.choice(names)), rng.randint(-3, 4))
        if roll < 0.6:
            return BRef(rng.choice(names))
        ctor = BMin if rng.random() < 0.5 else BMax
        return ctor(expr(depth + 1), expr(depth + 1))

    return BoundSystem(tuple((name, expr(0)) for name in names))


def test_solver_agreement_on_random_systems():
    rng = random.Random(515)
    for _ in range(300):
        system = random_system(rng)
        ex = solve_exhaustive(system, cap=16)
        pi = solve_policy_iteration(system)
        assert ex == pi, dump_system(system)
        assert is_fixpoint(system, ex)


def test_solver_agreement_on_corner_case_systems():
    rng = random.Random(2007)
    checked = 0
    while checked < 1000:
        system = corner_system(rng, rng.randint(1, 6))
        if _selector_nodes(system) > 10:
            continue
        checked += 1
        ex = solve_exhaustive(system, cap=10)
        assert solve_policy_iteration(system) == ex, dump_system(system)


def references(e: BoundExpr) -> set[str]:
    if isinstance(e, BRef):
        return {e.name}
    if isinstance(e, BAdd):
        return references(e.expr)
    if isinstance(e, (BMin, BMax)):
        return references(e.left) | references(e.right)
    return set()


def cyclic_components(system: BoundSystem) -> list[set[str]]:
    """The variables on a cycle of references, grouped by mutual reachability
    (a plain search from every variable)."""
    edges = {name: references(rhs) for name, rhs in system.equations}
    reach = {}
    for name in edges:
        seen: set[str] = set()
        todo = list(edges[name])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(edges[w])
        reach[name] = seen
    groups: list[set[str]] = []
    for name in edges:
        if name in reach[name] and not any(name in g for g in groups):
            groups.append({w for w in reach[name] if name in reach[w]})
    return groups


def test_solver_agreement_on_chained_components():
    """Cycles that settle at -oo or +oo feed the cycles after them; the
    component-wise solve must match the exhaustive one exactly."""
    rng = random.Random(2011)
    checked = 0
    fed = {NEG_INF: 0, POS_INF: 0}
    while checked < 400:
        system = chained_system(rng, rng.randint(2, 4))
        if _selector_nodes(system) > 10:
            continue
        checked += 1
        ex = solve_exhaustive(system, cap=10)
        assert solve_policy_iteration(system) == ex, dump_system(system)
        groups = cyclic_components(system)
        for group in groups:
            for name in group:
                for w in references(dict(system.equations)[name]) - group:
                    if ex[w] in fed:
                        fed[ex[w]] += 1
    assert min(fed.values()) >= 100, fed


def test_solver_agreement_with_copies_spliced_in():
    """Copies (``x = y``) are folded out before the solve: chains of them
    inside, into and out of cycles, cycles of copies only, the self-copy
    and copies of cycles at -oo or +oo must solve as the exhaustive solver
    finds them."""
    rng = random.Random(2030)
    checked = 0
    seen = {"in cycle": 0, "chain": 0, NEG_INF: 0, POS_INF: 0, "finite": 0}
    while checked < 300:
        system = copied_system(rng, rng.randint(2, 3))
        if _selector_nodes(system) > 10:
            continue
        checked += 1
        ex = solve_exhaustive(system, cap=10)
        assert solve_policy_iteration(system) == ex, dump_system(system)
        assert ex["z"] is NEG_INF and ex["q0"] is NEG_INF
        rhs = dict(system.equations)
        copies = {name for name, e in system.equations if isinstance(e, BRef)}
        seen["in cycle"] += sum(len(g & copies) for g in cyclic_components(system))
        for name in copies:
            seen["chain"] += rhs[name].name in copies and ex[name] is not NEG_INF
            seen[ex[name] if ex[name] in (NEG_INF, POS_INF) else "finite"] += 1
    assert min(seen.values()) >= 100, seen


def test_long_copy_chain_folds_in_linear_time():
    """60,000 copies listed from the far end of their chain solve in about
    the time policy iteration takes on a chain of 60,000 offsets, or
    faster, whether the chain ends in a constant or closes a cycle of
    copies only; by policy iteration and by the exhaustive solver, whose
    chain system has no min/max node.  Checking each chain against the list
    of copies walked so far would take seconds."""

    def chain(offset: int, first: BoundExpr) -> BoundSystem:
        equations = []
        for i in reversed(range(1, 60_000)):
            ref = BRef(f"x{i - 1}")
            equations.append((f"x{i}", BAdd(ref, offset) if offset else ref))
        return BoundSystem(tuple(equations) + (("x0", first),))

    def seconds(solve, system: BoundSystem, last) -> float:
        start = time.process_time()
        assert solve(system)["x59999"] == last
        return time.process_time() - start

    seconds(solve_policy_iteration, chain(0, BConst(7)), 7)  # warm-up
    offsets = min(seconds(solve_policy_iteration, chain(1, BConst(7)), 7 + 59_999) for _ in range(2))
    for solve in (solve_policy_iteration, solve_exhaustive):
        for first, last in ((BConst(7), 7), (BRef("x59999"), NEG_INF)):
            copies = min(seconds(solve, chain(0, first), last) for _ in range(2))
            assert copies < 2 * offsets + 0.2, (solve.__name__, copies, offsets)


def test_min_systems_stay_within_cyclic_components(monkeypatch):
    """Only cyclic components reach the min-system solve, each on its own
    and without its copies (``x = y``, folded out before the solve): a
    component's first min-system starts at -oo on all of its variables and
    holds exactly its non-copy equations."""
    calls: list[tuple[int, bool]] = []
    solve_min = boundsolve_module._solve_min_system

    def recording(flat, rho):
        calls.append((len(flat), all(v is NEG_INF for v in rho)))
        return solve_min(flat, rho)

    monkeypatch.setattr(boundsolve_module, "_solve_min_system", recording)
    text, _ = gadget_chain_program(random.Random(5), 3)
    cfg = build_cfg(parse_program(text))
    for negate in (False, True):
        system = extract_upper_bounds(cfg, FRAGMENT_VAR, 0, negate)
        rhs = dict(system.equations)
        groups = cyclic_components(system)
        sizes = sorted(sum(not isinstance(rhs[name], BRef) for name in g) for g in groups)
        assert sum(sizes) < sum(len(g) for g in groups)  # the loops hold copies
        assert len(sizes) == 3 * 6  # one per loop
        calls.clear()
        solve_policy_iteration(system)
        assert max(size for size, _ in calls) <= sizes[-1]
        assert sorted(size for size, first in calls if first) == sizes


def test_gadget_chain_hulls_at_scale():
    """Exact hulls after each of 576 gadgets, on a program of about 3,300
    locations."""
    text, hulls = gadget_chain_program(random.Random(64), 64)
    program = parse_program(text)
    cfg = build_cfg(program)
    assert len(cfg.locations) > 3000
    entry = Interval.const(program.decls[0].init.value)
    exact = solve_intervals_exact(cfg, FRAGMENT_VAR, entry)
    assert [exact[a.loc] for a in cfg.asserts] == [Interval(lo, hi) for lo, hi in hulls]


def test_solver_agreement_on_random_fragments():
    rng = random.Random(979)
    tried = 0
    solved = 0
    while solved < 100 and tried < 1500:
        tried += 1
        text, init = random_fragment_program(rng)
        program = parse_program(text)
        cfg = build_cfg(program)
        system = extract_upper_bounds(cfg, FRAGMENT_VAR, init)
        if _selector_nodes(system) > 10:
            continue
        solved += 1
        ex = solve_exhaustive(system)
        pi = solve_policy_iteration(system)
        assert ex == pi, text
        assert is_fixpoint(system, ex)
    assert solved >= 100


def test_oracle_agreement_on_verified_corpus(fragment_corpus_small):
    for program, cfg, init, values in fragment_corpus_small:
        exact = solve_intervals_exact(cfg, FRAGMENT_VAR, Interval.const(init))
        for loc in cfg.locations:
            reachable = values[loc]
            if not reachable:
                assert exact[loc].is_empty, loc
            else:
                assert exact[loc] == Interval(min(reachable), max(reachable)), loc


def test_domination_exact_below_widen_narrow(fragment_corpus_small):
    for program, cfg, init, values in fragment_corpus_small:
        exact = solve_intervals_exact(cfg, FRAGMENT_VAR, Interval.const(init))
        widened = analyze(cfg, entry_environment(program), widen_delay=0, narrow_passes=1)
        for loc in cfg.locations:
            wenv = widened.envs[loc]
            if wenv.bottom:
                assert exact[loc].is_empty
            else:
                assert subset(exact[loc], wenv.get(FRAGMENT_VAR)), loc


PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

# Shapes whose bounds Kleene iteration reaches without climbing: -oo and
# +oo from the entry, locations after a loop that never exits, and loops
# that only a constant-false guard reaches.
KLEENE_SHAPES = (
    "int v = 3; if (1 > 2) { while (*) { } }",  # folds to a cycle of copies only
    "int v = 0; if (2 < 1) { while (*) { v = v + 1; } }",  # would climb for ever if reached
    "int v = 0; if (1 > 2) { while (v < 10) { v = v + 1; } }",
    "int v = 3; while (*) { }",
    "int v = 0; while (0 < 1) { v = 5; }",
    "int v; while (v > 0) { v = v - 1; }",
    "int v; if (v < 0) { v = 7; } while (*) { if (v > 100) { v = v - 1; } }",
)
# The first programs of the intervals-policy benchmark corpus, seeded as
# perfbench/run.py seeds it, at each of the seeds it is run at.
CORPUS_SEEDS = (1, 1009)
CORPUS_PROGRAMS = 16
# Share of the programs whose climb may pass DELAY_BUDGET (none does).
MAX_OVER_BUDGET = 1 / 8


def test_policy_iteration_equals_widening_free_kleene_iteration(monkeypatch):
    """Policy iteration's intervals equal those of Kleene iteration without
    widening, ``analyze(widen_delay=DELAY_BUDGET, narrow_passes=0)``, at
    every location with zero tolerance.  Wherever the climb stabilises it is
    an independent exact method: it shares only the parser and the CFG with
    the policy path.  Every guard must be live at the invariant, since a
    dead guard on ``v`` can only make the solved bound larger (see
    ``boundsolve``); the benchmark programs have none.

    Loops that climb for ever, like ``while (*) { v = v + 1; }`` when it is
    reached, cannot be checked this way: the climb never stabilises and
    ends in ``DelayBudgetError``.  Their +oo stays checked by
    ``solve_exhaustive`` on small systems only.  Those errors are counted,
    and more than ``MAX_OVER_BUDGET`` of the programs ending so fails."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    texts = list(KLEENE_SHAPES)
    for seed in CORPUS_SEEDS:
        rng = random.Random(f"intervals-policy:{seed}")
        texts += [gen.fragment_program(rng, climb=400)["text"] for _ in range(CORPUS_PROGRAMS)]
    over_budget = 0
    for text in texts:
        program = parse_program(text)
        cfg = build_cfg(program)
        entry = entry_environment(program)
        try:
            envs = analyze(cfg, entry, widen_delay=DELAY_BUDGET, narrow_passes=0).envs
        except DelayBudgetError:
            over_budget += 1
            continue
        for decl in program.decls:
            exact = solve_intervals_exact(cfg, decl.name, entry.get(decl.name))
            climbed = {loc: EMPTY if env.bottom else env.get(decl.name) for loc, env in envs.items()}
            differing = {loc: (exact[loc], climbed[loc]) for loc in cfg.locations if exact[loc] != climbed[loc]}
            assert not differing, (text, differing)
    assert over_budget <= MAX_OVER_BUDGET * len(texts), over_budget


def test_bounded_oracle_ring():
    cfg = build_cfg(parse_program(RING))
    head = back_edge_targets(cfg).pop()
    hull = bounded_concrete_oracle(cfg, "i", Interval.const(0), (-1, 1100))
    assert hull[head] == (0, 42)


def test_bounded_oracle_trivial():
    cfg = build_cfg(parse_program("int i = 0; i = 0;"))
    hull = bounded_concrete_oracle(cfg, "i", Interval.const(0))
    assert all(h == (0, 0) for h in hull.values() if h is not None)


def test_bounded_oracle_range_violation():
    cfg = build_cfg(parse_program("int i = 0; while (0 < 1) { i = i + 1; }"))
    with pytest.raises(RangeExceededError):
        bounded_concrete_oracle(cfg, "i", Interval.const(0), (-8, 8))


def test_bounded_oracle_budget_error():
    cfg = build_cfg(parse_program("int i = 0; while (i < 100) { i = i + 1; }"))
    assert bounded_concrete_oracle(cfg, "i", Interval.const(0), budget=500)[cfg.entry] == (0, 0)
    with pytest.raises(OracleBudgetError, match="state budget 50 exceeded$"):
        bounded_concrete_oracle(cfg, "i", Interval.const(0), budget=50)


def test_bounded_oracle_counts_entry_values_against_the_budget():
    cfg = build_cfg(parse_program("int i = 0; i = 5;"))
    with pytest.raises(OracleBudgetError, match="state budget 10 exceeded at entry"):
        bounded_concrete_oracle(cfg, "i", Interval.make(0, 20), budget=10)
    # an entry wider than len() can report
    with pytest.raises(OracleBudgetError, match="^state budget 10 exceeded at entry$"):
        bounded_concrete_oracle(cfg, "i", Interval.make(0, 2**64), (0, 2**65), budget=10)


def test_bounded_oracle_examines_an_edge_only_when_the_search_takes_it():
    # From n0 the search takes the no-op edge first: with the budget full it
    # stops there, before it reaches the access edge that leaves the fragment.
    cfg = parse_access_graph("loc n0\nloc n1\nloc n2\nentry n0\nedge n0 n1\nedge n0 n2 access a\n")
    with pytest.raises(OracleBudgetError, match="state budget 10 exceeded$"):
        bounded_concrete_oracle(cfg, "v", Interval.make(0, 9), budget=10)
    with pytest.raises(UnsupportedConstructError, match="memory access in a numeric graph"):
        bounded_concrete_oracle(cfg, "v", Interval.make(0, 9), budget=11)


def test_fixpoint_property_on_ring():
    system, _, _ = ring_system()
    for solver in (solve_exhaustive, solve_policy_iteration):
        solved = solver(system)
        assert is_fixpoint(system, solved)
