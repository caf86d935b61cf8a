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
import re
from dataclasses import dataclass, field

from absint import lru
from absint.agebounds import ApproxClass, age_pass
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
    Stmt,
    Var,
    While,
    pretty_cond,
    pretty_expr,
)
from absint.lru import Alphabet, Classification, InitPolicy, OracleBudgetError, explore

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


def wide_antichain_cfg(k: int, mixed: bool = False) -> Cfg:
    """`s -f-> p0`, then for each i < k two branches `p_i -a_i-> x_i -> p_i+1`
    and `p_i -b_i-> y_i -> p_i+1`, then `p_k -f-> p0`: 2^k younger-sets of
    size k reach `p_k`, pairwise incomparable.  With `mixed` (k >= 2), an
    edge `p_k-2 -z-> p_k` also brings 2^(k-2) sets of size k - 1 there,
    each incomparable with every set of size k."""
    locs, edges = ["s"], []

    def access(src, block, dst):
        edges.append(Edge(src, AccessLabel(block, len(edges)), dst))

    access("s", "f", "p0")
    for i in range(k):
        locs += [f"p{i}", f"x{i}", f"y{i}"]
        access(f"p{i}", f"a{i:02d}", f"x{i}")
        access(f"p{i}", f"b{i:02d}", f"y{i}")
        edges += [Edge(f"x{i}", Nop(), f"p{i + 1}"), Edge(f"y{i}", Nop(), f"p{i + 1}")]
    locs.append(f"p{k}")
    if mixed:
        access(f"p{k - 2}", "z", f"p{k}")
    access(f"p{k}", "f", "p0")
    return Cfg(tuple(locs), "s", tuple(edges))


def shuffled_cfg(rng: random.Random, cfg: Cfg) -> Cfg:
    """The same graph with its locations and its edges listed in a random
    order (the entry stays the entry), so every location's out-edges come
    in a new order too."""
    locations = list(cfg.locations)
    edges = list(cfg.edges)
    rng.shuffle(locations)
    rng.shuffle(edges)
    return Cfg(tuple(locations), cfg.entry, tuple(edges))


def erase_guards(cfg: Cfg) -> Cfg:
    """Replace assignment and assumption labels by no-ops: the control-flow
    model in which the cache analyses' exactness claims hold."""
    edges = tuple(
        e if isinstance(e.label, (AccessLabel, Nop)) else Edge(e.src, Nop(), e.dst)
        for e in cfg.edges
    )
    return Cfg(cfg.locations, cfg.entry, edges, (), cfg.variables)


def initial_states(blocks: tuple[str, ...], n: int, init: InitPolicy) -> lru._InitialStates:
    """The empty state, or with unknown contents every state over `blocks`
    and one fresh block, a name no block of `blocks` has, as tuples.  Built
    on the oracle's own lazy seed set, so that tests of it check the count
    ``collect_states`` compares with its budget."""
    return lru._InitialStates(tuple(blocks) + (lru._fresh_block(blocks),), n, init, tuple)


def lru_step(n: int, alphabet: Alphabet):
    """``lru.explore``'s step for the LRU transfer at associativity `n` on
    states encoded by `alphabet`, one state at a time: an access splices its
    block out where it is found (or drops the oldest on a fill) and puts it
    first; any other edge is a no-op.  Written apart from the oracle's set
    image, so that the two searches check each other."""

    def step(label):
        if not isinstance(label, AccessLabel):
            return _unchanged
        c = alphabet.letter[label.block]

        def update(state: str) -> str:
            i = state.find(c)
            return c + (state[:n - 1] if i < 0 else state[:i] + state[i + 1:])

        return update

    return step


def _unchanged(state):
    return state


# ---------------------------------------------------------------------------
# Age bounds read as must and may maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgeBounds:
    must: dict[str, int] = field(default_factory=dict)
    may: dict[str, int] = field(default_factory=dict)


def analyze_approx(cfg: Cfg, n: int, init: InitPolicy = InitPolicy.EMPTY) -> dict[str, AgeBounds | None]:
    """The must and may fields of ``agebounds.age_pass`` at every location,
    decoded into maps of the blocks that have a bound; None marks unreached
    locations."""
    graph = cfg.access_index
    states = age_pass(cfg, n, init)
    top = n.bit_length()
    value = (1 << top) - 1
    fields = [(b, i * (top + 1)) for b, i in graph.blocks.items()]

    def decode(vec: int) -> dict[str, int]:
        return {b: k for b, shift in fields if (k := vec >> shift & value) < n}

    result: dict[str, AgeBounds | None] = {}
    for loc in cfg.locations:
        state = states[graph.where[loc]]
        result[loc] = None if state is None else AgeBounds(decode(state[0]), decode(state[1]))
    return result


def classify_approx(bounds: AgeBounds | None, block: str) -> ApproxClass:
    """Classify one access from the bounds at its source location."""
    if bounds is None:
        return ApproxClass.UNKNOWN
    if block in bounds.must:
        return ApproxClass.ALWAYS_HIT
    if block not in bounds.may:
        return ApproxClass.ALWAYS_MISS
    return ApproxClass.UNKNOWN


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


def mask_of(indices) -> int:
    """The bitmask of a set of block indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """The block indices of a bitmask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


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


# The canonical text of a program: reparsing it yields a structurally equal
# AST.  Goldens hash it, so its output must not change.
def _pretty_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(s, Assign):
        out.append(f"{pad}{s.var} = {pretty_expr(s.expr)};")
    elif isinstance(s, AccessStmt):
        out.append(f"{pad}access({s.block});")
    elif isinstance(s, Assert):
        out.append(f"{pad}assert ({pretty_cond(s.cond)});")
    elif isinstance(s, If):
        out.append(f"{pad}if ({pretty_cond(s.cond)}) {{")
        for sub in s.then:
            _pretty_stmt(sub, indent + 1, out)
        if s.orelse:
            out.append(f"{pad}}} else {{")
            for sub in s.orelse:
                _pretty_stmt(sub, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, While):
        out.append(f"{pad}while ({pretty_cond(s.cond)}) {{")
        for sub in s.body:
            _pretty_stmt(sub, indent + 1, out)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement {s!r}")


def pretty(program: Program) -> str:
    out: list[str] = []
    for d in program.decls:
        if d.init is None:
            out.append(f"int {d.name};")
        else:
            out.append(f"int {d.name} = {d.init.value};")
    for s in program.body:
        _pretty_stmt(s, 0, out)
    return "\n".join(out) + ("\n" if out else "")


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


# Token mutations, shared by the CLI fuzz test and the parse golden.
FUZZ_TOKEN = re.compile(r"\s+|[A-Za-z_]\w*|[0-9]+|<=|>=|==|!=|\S")
FUZZ_EXTRA = ("(", ")", "{", "}", ";", "*", "-", "+", "=", "<", "int", "if", "else", "while",
              "assert", "access", "loc", "edge", "entry", "x", "0", "99999999999999999999",
              "\n", "#", "\u00b2", "\u00e9", "$")


def mutate_tokens(rng: random.Random, tokens: list[str], vocabulary: list[str]) -> str:
    """The text of `tokens` after one or two random deletions, replacements
    or insertions (`tokens` is changed in place)."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(tokens))
        roll = rng.random()
        if roll < 0.3:
            del tokens[i]
        elif roll < 0.6:
            tokens[i] = rng.choice(vocabulary)
        elif roll < 0.8:
            tokens.insert(i, rng.choice(vocabulary))
        else:
            tokens.insert(i, tokens[rng.randrange(len(tokens))])
    return "".join(tokens)


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


def contains(iv, value: int) -> bool:
    """Whether the interval `iv` holds the concrete `value`."""
    return iv.lo <= value <= iv.hi


def subset(a, b) -> bool:
    """Whether the interval `a` lies within `b` (the empty one in any)."""
    return a.is_empty or (not b.is_empty and b.lo <= a.lo and a.hi <= b.hi)


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


def chained_system(rng: random.Random, n_components: int):
    """A bound system of `n_components` cycles, its equations shuffled, in
    which each cycle references only itself and the cycles built before it.

    Each cycle ``x_0 -> x_1 -> ... -> x_0`` is one of
    * "bottom": references only, inside the cycle, so it settles at -oo;
    * "top": ``x_i = max(c, x_{i+1} + k)`` with k > 0, so it settles at +oo;
    * "mixed": ``x_{i+1}`` combined by min or max with a tree of depth at most
      two over constants (infinities included), references inside the cycle
      and references to earlier cycles; a quarter of these equations have no
      constant.
    A mixed cycle after the first references an earlier one, so an upstream
    cycle at -oo or +oo feeds a downstream one."""
    from absint.boundsolve import BAdd, BConst, BMax, BMin, BoundSystem, BRef
    from absint.intervals import NEG_INF, POS_INF

    def shifted(name: str):
        offset = rng.choice((0, 0, rng.randint(-3, 4)))
        return BRef(name) if offset == 0 else BAdd(BRef(name), offset)

    equations = []
    earlier: list[str] = []
    for k in range(n_components):
        names = [f"c{k}x{i}" for i in range(rng.randint(1, 3))]
        kind = rng.choice(("bottom", "top", "mixed", "mixed"))
        outside = False
        for i, name in enumerate(names):
            cycle = shifted(names[(i + 1) % len(names)])
            if kind == "bottom":
                rhs = cycle if rng.random() < 0.5 else BMin(cycle, shifted(rng.choice(names)))
            elif kind == "top":
                rhs = BMax(BConst(rng.randint(-5, 5)), BAdd(BRef(names[(i + 1) % len(names)]), rng.randint(1, 3)))
            else:
                refs_only = rng.random() < 0.25

                def leaf():
                    nonlocal outside
                    roll = rng.random()
                    if earlier and roll < 0.4:
                        outside = True
                        return shifted(rng.choice(earlier))
                    if refs_only or roll < 0.7:
                        return shifted(rng.choice(names))
                    return BConst(rng.choice((NEG_INF, POS_INF, rng.randint(-8, 12), rng.randint(-8, 12))))

                def tree(depth: int):
                    if depth >= 2 or rng.random() < 0.4:
                        return leaf()
                    return (BMin if rng.random() < 0.5 else BMax)(tree(depth + 1), tree(depth + 1))

                side = tree(0)
                if earlier and not outside and i == len(names) - 1:
                    side = BMax(side, shifted(rng.choice(earlier)))
                rhs = (BMin if rng.random() < 0.5 else BMax)(cycle, side)
            equations.append((name, rhs))
        earlier += names
    rng.shuffle(equations)
    return BoundSystem(tuple(equations))


def copied_system(rng: random.Random, n_components: int):
    """`chained_system(rng, n_components)` with copies (``x = y``) spliced
    in, its equations shuffled again:
    * a third of the equations ``x = rhs`` become the chain ``x = k_1``,
      ..., ``k_m = x'`` and ``x' = rhs``, so chains of copies run inside
      cycles;
    * a fifth of the references in right-hand sides read their variable
      through a new chain of copies, so chains lead into cycles from
      earlier ones, and a twentieth read a cycle of copies only or the
      self-copy ``z = z`` instead, both -oo in the least fixpoint;
    * a chain of copies reads one variable per component, so chains lead
      out of cycles, including those that settle at -oo or +oo.
    Each new chain holds one to three copies."""
    from absint.boundsolve import BAdd, BMax, BMin, BoundSystem, BRef

    extra = []

    def chain_to(target: str) -> str:
        names = [f"k{len(extra) + i}" for i in range(rng.randint(1, 3))]
        extra.extend(zip(names, map(BRef, names[1:] + [target])))
        return names[0]

    cycle = [f"q{i}" for i in range(rng.randint(1, 3))]
    extra.extend(zip(cycle, map(BRef, cycle[1:] + cycle[:1])))
    extra.append(("z", BRef("z")))

    def reroute(e):
        if isinstance(e, BRef):
            roll = rng.random()
            if roll < 0.2:
                return BRef(chain_to(e.name))
            return BRef(rng.choice(cycle + ["z"])) if roll < 0.25 else e
        if isinstance(e, BAdd):
            return BAdd(reroute(e.expr), e.offset)
        if isinstance(e, (BMin, BMax)):
            return type(e)(reroute(e.left), reroute(e.right))
        return e

    equations = []
    for name, rhs in chained_system(rng, n_components).equations:
        rhs = reroute(rhs)
        if rng.random() < 1 / 3:
            head = chain_to(f"{name}'")
            equations += [(name, BRef(head)), (f"{name}'", rhs)]
        else:
            equations.append((name, rhs))
        if name.endswith("x0"):
            chain_to(name)
    equations += extra
    rng.shuffle(equations)
    return BoundSystem(tuple(equations))


GADGET_ORDER = ("up", "branch", "climb", "down", "branch", "up", "climb", "branch", "down")


def gadget_chain_program(rng: random.Random, repeats: int) -> tuple[str, list[tuple[int, int]]]:
    """A single-variable fragment program of `repeats` runs of nine loop and
    branch gadgets, each gadget followed by ``assert (v <= hi);``.  Returns
    the text and, per assertion, the exact hull ``(lo, hi)`` of ``v`` there,
    in closed form (every guard edge is live, so the least invariant is that
    hull).  With ``[lo, hi]`` the hull before a gadget and step s > 0:

    * up:     ``while (v < K) { if (*) { v = v + 1; } else { v = v + 2; } }``,
      K = hi + s -> [K, K + 1]
    * climb:  ``while (*) { if (v < K) { v = v + 1; } }``, K = hi + s -> [lo, K]
    * down:   ``while (v > K) { v = v - 1; }``, K = lo - s -> [K, K]
    * branch: ``if (v < hi) { v = v + d1; } else { v = v + d2; }`` when lo < hi
      -> [min(lo + d1, hi + d2), max(hi - 1 + d1, hi + d2)]; ``v = c`` otherwise
    """
    lo = hi = rng.randint(-50, 50)
    lines = [f"int {FRAGMENT_VAR} = {lo};"]
    hulls: list[tuple[int, int]] = []
    v = FRAGMENT_VAR
    for kind in GADGET_ORDER * repeats:
        step = rng.randint(1, 400)
        if kind == "branch" and lo < hi:
            d1, d2 = rng.randint(-9, 9), rng.randint(-9, 9)
            lines.append(f"if ({v} < {hi}) {{ {v} = {v} + {d1}; }} else {{ {v} = {v} + {d2}; }}")
            lo, hi = min(lo + d1, hi + d2), max(hi - 1 + d1, hi + d2)
        elif kind == "branch":
            lo = hi = rng.randint(-50, 50)
            lines.append(f"{v} = {lo};")
        elif kind == "up":
            k = hi + step
            lines.append(f"while ({v} < {k}) {{ if (*) {{ {v} = {v} + 1; }} else {{ {v} = {v} + 2; }} }}")
            lo, hi = k, k + 1
        elif kind == "climb":
            hi = hi + step
            lines.append(f"while (*) {{ if ({v} < {hi}) {{ {v} = {v} + 1; }} }}")
        else:
            lo = hi = lo - step
            lines.append(f"while ({v} > {lo}) {{ {v} = {v} - 1; }}")
        lines.append(f"assert ({v} <= {hi});")
        hulls.append((lo, hi))
    return "\n".join(lines) + "\n", hulls


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
        if _selector_nodes(upper) > max_nodes:
            continue
        lower = extract_upper_bounds(cfg, FRAGMENT_VAR, -init, negate=True)
        if not hulls_are_postfixpoint(cfg, upper, lower, values):
            continue
        corpus.append((program, cfg, init, values))
    if len(corpus) < count:
        raise RuntimeError(f"only built {len(corpus)} fragment programs")
    return corpus


def inline_equation(system: BoundSystem, target: str) -> BoundExpr:
    """Substitute away every variable except `target`.

    Works when every cycle of the system passes through `target` (a single
    loop); references to other locations on a second cycle raise ValueError.
    """
    from absint.boundsolve import BAdd, BConst, BMax, BMin, BRef, badd_expr, bmax, bmin

    rhs_map = dict(system.equations)

    def expand(e: BoundExpr, stack: tuple[str, ...]) -> BoundExpr:
        if isinstance(e, BConst):
            return e
        if isinstance(e, BRef):
            if e.name == target:
                return e
            if e.name in stack:
                raise ValueError(f"cycle through {e.name!r} does not pass the target")
            return expand(rhs_map[e.name], stack + (e.name,))
        if isinstance(e, BAdd):
            return badd_expr(expand(e.expr, stack), e.offset)
        if isinstance(e, BMin):
            return bmin(expand(e.left, stack), expand(e.right, stack))
        if isinstance(e, BMax):
            return bmax(expand(e.left, stack), expand(e.right, stack))
        raise TypeError(f"unknown bound expression {e!r}")

    return expand(rhs_map[target], (target,))


def dump_expr(e: BoundExpr) -> str:
    """`e` as text: prefix ``min(a, b)``/``max(a, b)``, infix ``+ c``/``- c``
    offsets, and ``-oo``/``+oo`` for the infinities."""
    from absint.boundsolve import BAdd, BConst, BMax, BMin, BRef

    if isinstance(e, BConst):
        return str(e.value)
    if isinstance(e, BRef):
        return e.name
    if isinstance(e, BAdd):
        if e.offset >= 0:
            return f"{dump_expr(e.expr)} + {e.offset}"
        return f"{dump_expr(e.expr)} - {-e.offset}"
    if isinstance(e, BMin):
        return f"min({dump_expr(e.left)}, {dump_expr(e.right)})"
    if isinstance(e, BMax):
        return f"max({dump_expr(e.left)}, {dump_expr(e.right)})"
    raise TypeError(f"unknown bound expression {e!r}")


def dump_system(system: BoundSystem) -> str:
    """One ``var = expr`` line per equation, in order (``dump_expr``); the
    text of a failing system in an assertion message and a golden's digest.
    Nothing parses it back."""
    return "".join(f"{name} = {dump_expr(rhs)}\n" for name, rhs in system.equations)


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
