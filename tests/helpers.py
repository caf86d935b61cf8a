"""Shared generators and independent oracles for the test suite.

Everything here is deliberately naive: explicit enumeration, brute-force
subset scans, direct AST walks.  These are the reference implementations the
package is checked against, so they must not share code with it beyond the
data types.
"""

from __future__ import annotations

import itertools
import math
import random

from absint.cfg import (
    AccessLabel,
    AssignLabel,
    AssumeLabel,
    Cfg,
    Edge,
    Nop,
)
from absint.lang import (
    Assert,
    Assign,
    AccessStmt,
    BinOp,
    Cmp,
    CondNondet,
    Const,
    Decl,
    If,
    Nondet,
    Program,
    Var,
    While,
)
from absint.lru import Classification, InitPolicy, OracleBudgetError, explore

BLOCK_NAMES = ("a", "b", "c", "d", "e", "f")


# ---------------------------------------------------------------------------
# Random access graphs for the cache analyses
# ---------------------------------------------------------------------------


def random_cache_cfg(rng: random.Random, max_locs: int = 12, max_blocks: int = 6) -> Cfg:
    n_locs = rng.randint(1, max_locs)
    locs = tuple(f"n{i}" for i in range(n_locs))
    blocks = BLOCK_NAMES[: rng.randint(0, max_blocks)]
    edges = []
    site = 0
    for _ in range(rng.randint(0, max(1, int(n_locs * 1.8)))):
        src = rng.choice(locs)
        targets = locs[1:]
        if not targets:
            break
        dst = rng.choice(targets)
        if blocks and rng.random() < 0.7:
            edges.append(Edge(src, AccessLabel(blocks[rng.randrange(len(blocks))], site), dst))
            site += 1
        else:
            edges.append(Edge(src, Nop(), dst))
    return Cfg(locs, locs[0], tuple(edges))


def cache_corpus(seed: int, count: int) -> list[Cfg]:
    rng = random.Random(seed)
    return [random_cache_cfg(rng) for _ in range(count)]


def region_cache_cfg(rng: random.Random, n_locs: int, n_blocks: int, extra: float = 0.5) -> Cfg:
    """A connected graph of chained 10-location regions: each location hangs
    off one of the few created just before it, `extra` random edges per
    location close loops inside a region, and three quarters of the edges
    access one of `n_blocks` blocks."""
    locs = tuple(f"n{i}" for i in range(n_locs))
    blocks = [f"m{i:02d}" for i in range(n_blocks)]
    pairs = []
    for start in range(1, n_locs, 10):
        end = min(n_locs, start + 10)
        pairs.append((start - 1, start))
        pairs += [(rng.randrange(max(start, i - 4), i), i) for i in range(start + 1, end)]
        pairs += [(rng.randrange(start, end), rng.randrange(start, end))
                  for _ in range(round(extra * (end - start)))]
    edges = []
    for site, (src, dst) in enumerate(pairs):
        label = AccessLabel(rng.choice(blocks), site) if rng.random() < 0.75 else Nop()
        edges.append(Edge(locs[src], label, locs[dst]))
    return Cfg(locs, locs[0], tuple(edges))


def shuffled_cfg(rng: random.Random, cfg: Cfg) -> Cfg:
    """The same graph with its locations and its edges listed in a random
    order (the entry stays the entry), so every location's out-edges come
    in a new order too."""
    locations = list(cfg.locations)
    edges = list(cfg.edges)
    rng.shuffle(locations)
    rng.shuffle(edges)
    return Cfg(tuple(locations), cfg.entry, tuple(edges))


# ---------------------------------------------------------------------------
# Per-focus explicit-state search
# ---------------------------------------------------------------------------

ABSENT = -1


def classify_per_focus(
    cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY, budget: int = 1_000_000
) -> dict[int, Classification]:
    """Per-site verdicts from one ``lru.explore`` search per focus block, with
    no antichain and no subsumption.

    A state is ABSENT or the mask of the blocks younger than the focus; the
    fresh block of the unknown policy is one more block that no edge
    accesses.  Accessing the focus leaves the empty set; accessing another
    block adds it, and evicts the focus once N blocks would be younger.
    The seeds are ABSENT and, under unknown init, every set of fewer than N
    blocks other than the focus.  Exceeding `budget` in any one search is
    an error.  Of the package it uses only ``lru.explore``, the search the
    LRU oracle itself runs on."""
    blocks = cfg.blocks()
    bits = {block: 1 << i for i, block in enumerate(blocks)}
    result: dict[int, Classification] = {}
    for focus in blocks:
        seeds = {ABSENT}
        if init is InitPolicy.UNKNOWN:
            others = [bit for block, bit in bits.items() if block != focus] + [1 << len(blocks)]
            if 1 + sum(math.comb(len(others), r) for r in range(n)) > budget:
                raise OracleBudgetError(f"state budget {budget} exceeded at entry")
            seeds.update(sum(c) for r in range(n) for c in itertools.combinations(others, r))

        def step(label, focus=focus):
            if not isinstance(label, AccessLabel):
                return lambda state: state
            if label.block == focus:
                return lambda state: 0
            bit = bits[label.block]
            return lambda state: (
                state if state == ABSENT or state & bit
                else state | bit if state.bit_count() < n - 1
                else ABSENT
            )

        reached = explore(cfg, seeds, step, budget)
        for edge in cfg.edges:
            if isinstance(edge.label, AccessLabel) and edge.label.block == focus:
                states = reached.get(edge.src, ())
                hit, miss = any(s != ABSENT for s in states), ABSENT in states
                result[edge.label.site] = (
                    Classification.VARIABLE if hit and miss
                    else Classification.ALWAYS_HIT if hit
                    else Classification.ALWAYS_MISS if miss
                    else Classification.UNREACHABLE
                )
    return result


# ---------------------------------------------------------------------------
# Naive antichain oracle
# ---------------------------------------------------------------------------


def naive_extremes(families: list[frozenset], keep_max: bool) -> set[frozenset]:
    out = set()
    for s in families:
        if keep_max:
            if any(s < t for t in families):
                continue
        else:
            if any(t < s for t in families):
                continue
        out.add(s)
    return out


# ---------------------------------------------------------------------------
# Random toy programs (multi-variable, for parser round-trip and the
# numeric soundness tests)
# ---------------------------------------------------------------------------


def random_expr(rng: random.Random, variables: list[str], depth: int = 0):
    roll = rng.random()
    if roll < 0.35 or depth >= 2:
        return Const(rng.randint(-8, 8))
    if roll < 0.65 and variables:
        return Var(rng.choice(variables))
    if roll < 0.72:
        return Nondet()
    return BinOp(
        rng.choice(["+", "-"]),
        random_expr(rng, variables, depth + 1),
        random_expr(rng, variables, depth + 1),
    )


def random_cond(rng: random.Random, variables: list[str]):
    if rng.random() < 0.2:
        return CondNondet()
    return Cmp(
        rng.choice(["<", "<=", "==", "!=", ">=", ">"]),
        random_expr(rng, variables, 1),
        random_expr(rng, variables, 1),
    )


def random_stmt(rng: random.Random, variables: list[str], depth: int, cache_mode: bool):
    roll = rng.random()
    if cache_mode and roll < 0.2:
        return AccessStmt(rng.choice(BLOCK_NAMES[:3]))
    if roll < 0.55 or depth >= 2:
        return Assign(rng.choice(variables), random_expr(rng, variables))
    if roll < 0.7:
        cond = random_cond(rng, variables)
        if isinstance(cond, CondNondet):
            return Assert(Cmp("<", Var(rng.choice(variables)), Const(100)))
        return Assert(cond)
    if roll < 0.9:
        return If(
            random_cond(rng, variables),
            random_block(rng, variables, depth + 1, cache_mode),
            random_block(rng, variables, depth + 1, cache_mode) if rng.random() < 0.5 else (),
        )
    # Bounded loop shape so the concrete enumerator terminates.
    v = rng.choice(variables)
    body = random_block(rng, variables, depth + 1, cache_mode)
    return While(Cmp("<", Var(v), Const(rng.randint(0, 6))), body + (Assign(v, BinOp("+", Var(v), Const(1))),))


def random_block(rng: random.Random, variables: list[str], depth: int, cache_mode: bool):
    return tuple(random_stmt(rng, variables, depth, cache_mode) for _ in range(rng.randint(1, 3)))


def random_program(rng: random.Random, cache_mode: bool = False) -> Program:
    variables = [f"v{i}" for i in range(rng.randint(1, 3))]
    decls = tuple(
        Decl(v, Const(rng.randint(-4, 4)) if rng.random() < 0.7 else None)
        for v in variables
    )
    body = random_block(rng, variables, 0, cache_mode)
    return Program(decls, body)


def _guard_asserts(s):
    """`s` with every assertion moved inside ``if (*)``, so that a false one
    cannot cut off the rest of the program."""
    if isinstance(s, Assert):
        return If(CondNondet(), (s,), ())
    if isinstance(s, If):
        return If(s.cond, tuple(map(_guard_asserts, s.then)), tuple(map(_guard_asserts, s.orelse)))
    if isinstance(s, While):
        return While(s.cond, tuple(map(_guard_asserts, s.body)))
    return s


def random_long_program(rng: random.Random, n_vars: int, n_stmts: int) -> Program:
    """A `random_program` scaled up: `n_stmts` top-level statements over
    `n_vars` variables (about 4 locations per statement), assertions
    guarded by ``if (*)``."""
    variables = [f"v{i}" for i in range(n_vars)]
    decls = tuple(
        Decl(v, Const(rng.randint(-4, 4)) if rng.random() < 0.7 else None)
        for v in variables
    )
    body = tuple(_guard_asserts(random_stmt(rng, variables, 0, False)) for _ in range(n_stmts))
    return Program(decls, body)


# ---------------------------------------------------------------------------
# Explicit-state enumerator for full multi-variable stores
# ---------------------------------------------------------------------------

NONDET_MENU = (-3, -1, 0, 1, 2, 7)
VALUE_RANGE = (-128, 1100)


class RangeBlown(Exception):
    pass


def _eval_concrete(e, store, menu):
    """Yield every possible value (nondeterminism branches over `menu`)."""
    if isinstance(e, Const):
        yield e.value
    elif isinstance(e, Var):
        yield store[e.name]
    elif isinstance(e, Nondet):
        yield from menu
    elif isinstance(e, BinOp):
        for left in _eval_concrete(e.left, store, menu):
            for right in _eval_concrete(e.right, store, menu):
                yield left + right if e.op == "+" else left - right
    else:
        raise TypeError(e)


def _cond_outcomes(c, store, menu):
    if isinstance(c, CondNondet):
        return {True, False}
    ops = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        ">=": lambda a, b: a >= b,
        ">": lambda a, b: a > b,
    }
    out = set()
    for left in _eval_concrete(c.left, store, menu):
        for right in _eval_concrete(c.right, store, menu):
            out.add(ops[c.op](left, right))
    return out


def concrete_stores(
    cfg: Cfg,
    entry_store: dict[str, int],
    menu: tuple[int, ...] = NONDET_MENU,
    value_range: tuple[int, int] = VALUE_RANGE,
    budget: int = 60_000,
) -> dict[str, set[tuple[int, ...]]]:
    """Under-approximating enumeration: `*` draws from a finite menu, but
    every reached store is genuinely reachable, which is what a soundness
    check needs.  Raises RangeBlown if any value leaves `value_range`."""
    lo, hi = value_range
    names = cfg.variables
    reached: dict[str, set[tuple[int, ...]]] = {loc: set() for loc in cfg.locations}
    start = tuple(entry_store[v] for v in names)
    reached[cfg.entry] = {start}
    frontier = [(cfg.entry, start)]
    total = 1
    while frontier:
        loc, store_t = frontier.pop()
        store = dict(zip(names, store_t))
        for edge in cfg.out(loc):
            label = edge.label
            nexts: list[tuple[int, ...]] = []
            if isinstance(label, Nop):
                nexts = [store_t]
            elif isinstance(label, AssignLabel):
                for value in _eval_concrete(label.expr, store, menu):
                    if value < lo or value > hi:
                        raise RangeBlown(str(value))
                    updated = dict(store)
                    updated[label.var] = value
                    nexts.append(tuple(updated[v] for v in names))
            elif isinstance(label, AssumeLabel):
                if True in _cond_outcomes(label.cond, store, menu):
                    nexts = [store_t]
            else:
                raise TypeError(f"cache label in numeric graph: {label!r}")
            for nxt in nexts:
                if nxt not in reached[edge.dst]:
                    reached[edge.dst].add(nxt)
                    total += 1
                    if total > budget:
                        raise RangeBlown("budget")
                    frontier.append((edge.dst, nxt))
    return reached


# ---------------------------------------------------------------------------
# Single-variable fragment programs for the bound solvers
# ---------------------------------------------------------------------------

FRAGMENT_VAR = "v"


def _fragment_stmt(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if roll < 0.35 or depth >= 2:
        if rng.random() < 0.4:
            return f"{FRAGMENT_VAR} = {rng.randint(-6, 10)};"
        step = rng.choice([1, 1, 1, 2, 3])
        return f"{FRAGMENT_VAR} = {FRAGMENT_VAR} {rng.choice(['+', '+', '-'])} {step};"
    body = _fragment_block(rng, depth + 1, rng.randint(1, 2))
    c = rng.randint(-4, 14)
    op = rng.choice(["<", "<=", ">", ">="])
    cond = "*" if rng.random() < 0.3 else f"{FRAGMENT_VAR} {op} {c}"
    if roll < 0.75:
        if rng.random() < 0.5:
            return f"if ({cond}) {{ {body} }}"
        return f"if ({cond}) {{ {body} }} else {{ {_fragment_block(rng, depth + 1, 1)} }}"
    guard = f"{FRAGMENT_VAR} {rng.choice(['<', '<='])} {rng.randint(2, 12)}"
    return f"while ({guard}) {{ {body} }}"


def _fragment_block(rng: random.Random, depth: int, count: int) -> str:
    return " ".join(_fragment_stmt(rng, depth) for _ in range(count))


def random_fragment_program(rng: random.Random) -> tuple[str, int]:
    init = rng.randint(-4, 6)
    text = f"int {FRAGMENT_VAR} = {init};\n" + _fragment_block(rng, 0, rng.randint(1, 4))
    return text, init


def fragment_values(cfg: Cfg, init: int, value_range=(-64, 64)) -> dict[str, set[int]]:
    """Exact reachable values of the fragment variable per location."""
    lo, hi = value_range
    reached: dict[str, set[int]] = {loc: set() for loc in cfg.locations}
    reached[cfg.entry] = {init}
    frontier = [(cfg.entry, init)]
    while frontier:
        loc, val = frontier.pop()
        for edge in cfg.out(loc):
            label = edge.label
            outs: list[int] = []
            if isinstance(label, AssignLabel):
                expr = label.expr
                if isinstance(expr, Const):
                    nv = expr.value
                elif isinstance(expr, Var):
                    nv = val
                else:
                    nv = val + expr.right.value if expr.op == "+" else val - expr.right.value
                if nv < lo or nv > hi:
                    raise RangeBlown(str(nv))
                outs = [nv]
            elif isinstance(label, AssumeLabel):
                cond = label.cond
                if isinstance(cond, CondNondet):
                    outs = [val]
                else:
                    def atom(x):
                        return val if isinstance(x, Var) else x.value

                    left, right = atom(cond.left), atom(cond.right)
                    holds = {
                        "<": left < right,
                        "<=": left <= right,
                        "==": left == right,
                        "!=": left != right,
                        ">=": left >= right,
                        ">": left > right,
                    }[cond.op]
                    outs = [val] if holds else []
            else:
                outs = [val]
            for nv in outs:
                if nv not in reached[edge.dst]:
                    reached[edge.dst].add(nv)
                    frontier.append((edge.dst, nv))
    return reached


def hulls_are_postfixpoint(cfg, system_upper, system_lower, values) -> bool:
    """The filter that makes interval least-invariants coincide with hulls:
    the per-location hulls must already be stable under the extracted
    equations (both orientations)."""
    from absint.boundsolve import eval_bexpr
    from absint.intervals import NEG_INF

    hull_hi = {loc: (max(vs) if vs else NEG_INF) for loc, vs in values.items()}
    hull_neg_lo = {loc: (-min(vs) if vs else NEG_INF) for loc, vs in values.items()}
    for name, rhs in system_upper.equations:
        if eval_bexpr(rhs, hull_hi) > hull_hi[name]:
            return False
    for name, rhs in system_lower.equations:
        if eval_bexpr(rhs, hull_neg_lo) > hull_neg_lo[name]:
            return False
    return True


def corner_system(rng: random.Random, n_vars: int):
    """Depth-3 bound systems weighted toward the corners of the min-system
    solve: offset-0 and self references (``x = min(x, 10)``), infinite
    constants inside min/max, and equations without constants, whose
    variables may reach no constant at all."""
    from absint.boundsolve import BAdd, BConst, BMax, BMin, BoundSystem, BRef
    from absint.intervals import NEG_INF, POS_INF

    names = [f"x{i}" for i in range(n_vars)]

    def expr(name: str, depth: int, refs_only: bool):
        if depth >= 3 or rng.random() < 0.3:
            if refs_only or rng.random() < 0.5:
                target = name if rng.random() < 0.3 else rng.choice(names)
                offset = 0 if rng.random() < 0.5 else rng.randint(-3, 4)
                return BRef(target) if offset == 0 else BAdd(BRef(target), offset)
            roll = rng.random()
            if roll < 0.15:
                return BConst(POS_INF)
            if roll < 0.3:
                return BConst(NEG_INF)
            return BConst(rng.randint(-8, 12))
        ctor = BMin if rng.random() < 0.5 else BMax
        return ctor(expr(name, depth + 1, refs_only), expr(name, depth + 1, refs_only))

    return BoundSystem(tuple((name, expr(name, 0, rng.random() < 0.25)) for name in names))


def build_fragment_corpus(seed: int, count: int, max_nodes: int = 10):
    """Programs whose hulls the solvers must reproduce exactly.

    Returns [(program, cfg, init, values)], all oracle-verified: bounded
    behavior, and hulls stable under the extracted equations (see
    hulls_are_postfixpoint for why that is the honest corpus for exact
    hull agreement).
    """
    from absint.boundsolve import _selector_nodes, extract_upper_bounds
    from absint.lang import parse_program
    from absint.cfg import build_cfg

    rng = random.Random(seed)
    corpus = []
    attempts = 0
    while len(corpus) < count and attempts < count * 40:
        attempts += 1
        text, init = random_fragment_program(rng)
        program = parse_program(text)
        cfg = build_cfg(program)
        try:
            values = fragment_values(cfg, init)
        except RangeBlown:
            continue
        upper = extract_upper_bounds(cfg, FRAGMENT_VAR, init)
        if len(_selector_nodes(upper)) > max_nodes:
            continue
        lower = extract_upper_bounds(cfg, FRAGMENT_VAR, -init, negate=True)
        if not hulls_are_postfixpoint(cfg, upper, lower, values):
            continue
        corpus.append((program, cfg, init, values))
    if len(corpus) < count:
        raise RuntimeError(f"only built {len(corpus)} fragment programs")
    return corpus


# ---------------------------------------------------------------------------
# AST statistics for the CFG edge-count law
# ---------------------------------------------------------------------------


def ast_counts(program: Program) -> tuple[int, int, int, int]:
    """(assignments, comparison branches, accesses, asserts) by a direct walk;
    branches guarded by `*` produce no-op edges and are not counted."""
    assigns = branches = accesses = asserts = 0

    def walk(stmts):
        nonlocal assigns, branches, accesses, asserts
        for s in stmts:
            if isinstance(s, Assign):
                assigns += 1
            elif isinstance(s, AccessStmt):
                accesses += 1
            elif isinstance(s, Assert):
                asserts += 1
            elif isinstance(s, If):
                if not isinstance(s.cond, CondNondet):
                    branches += 1
                walk(s.then)
                walk(s.orelse)
            elif isinstance(s, While):
                if not isinstance(s.cond, CondNondet):
                    branches += 1
                walk(s.body)

    walk(program.body)
    return assigns, branches, accesses, asserts
