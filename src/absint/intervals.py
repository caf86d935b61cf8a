"""Textbook interval analysis: evaluation, guard refinement, widening and
narrowing over a labeled CFG.

Bounds are mathematical integers extended with symbolic infinities (no
floats anywhere).

Fixpoint engine: ``chaotic_iteration`` is the one worklist loop of the
numeric analyses, generic in a value with ``join``, ``widen`` and
equality; ``analyze`` runs it over environments and
``rewrite.analyze_combined`` over (environment, rewrite map) pairs, so both
iterate identically.  A location pulls its candidate from the entry value
and the transfers of all its incoming edges; locations leave a FIFO
worklist (seeded in ``cfg.locations`` order, each queued at most once) and
widen at back-edge targets after a configurable number of plain updates.
Simultaneous decreasing passes follow ("narrowing" in its simplest form:
re-run the transfer from the stabilized state and add the entry
contribution).  Each edge keeps its last transfer and reuses it while its
source holds the same value object; joins and widenings reuse every
interval that does not change and return the left operand itself when
nothing grows, so a location whose value stays put keeps its object and
its out-edges are not transferred again.  ``assert_verdicts`` reads
verdicts off a final state: an assertion is proved when refining with its
negation yields the unreachable environment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

from .cfg import AssignLabel, AssumeLabel, Cfg, back_edge_targets
from .lang import FLIPPED_OP, BinOp, Cond, CondNondet, Const, Expr, Nondet, Var, negate_cond


class _Inf:
    """Symbolic infinity, totally ordered against integers."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __lt__(self, other):
        if isinstance(other, _Inf):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other):
        return self < other or self is other

    def __gt__(self, other):
        if isinstance(other, _Inf):
            return self.sign > other.sign
        return self.sign > 0

    def __ge__(self, other):
        return self > other or self is other

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF

    def __repr__(self):
        return "+oo" if self.sign > 0 else "-oo"


POS_INF = _Inf(1)
NEG_INF = _Inf(-1)

Bound = int | _Inf


def badd(a, b):
    """Extended addition; infinities absorb (never add opposite infinities)."""
    if isinstance(a, _Inf):
        if isinstance(b, _Inf) and b.sign != a.sign:
            raise ValueError("adding opposite infinities")
        return a
    if isinstance(b, _Inf):
        return b
    return a + b


@dataclass(frozen=True)
class Interval:
    lo: Bound
    hi: Bound

    @staticmethod
    def make(lo, hi) -> "Interval":
        if lo > hi:
            return EMPTY
        return Interval(lo, hi)

    @staticmethod
    def top() -> "Interval":
        return TOP

    @staticmethod
    def const(c: int) -> "Interval":
        return Interval(c, c)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, v: int) -> bool:
        return self.lo <= v and v <= self.hi

    def join(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return _hull(self, other)

    def meet(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        return Interval.make(max(self.lo, other.lo), min(self.hi, other.hi))

    def subset(self, other: "Interval") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def __repr__(self):
        if self.is_empty:
            return "empty"
        return f"[{self.lo}, {self.hi}]"


EMPTY = Interval(POS_INF, NEG_INF)
TOP = Interval(NEG_INF, POS_INF)


def _hull(a: Interval, b: Interval) -> Interval:
    """Join of two non-empty intervals; returns `a` itself (or `b`) when it
    already contains the other."""
    lo = a.lo if a.lo <= b.lo else b.lo
    hi = a.hi if a.hi >= b.hi else b.hi
    if lo is a.lo and hi is a.hi:
        return a
    if lo is b.lo and hi is b.hi:
        return b
    return Interval(lo, hi)


def widen(old: Interval, new: Interval) -> Interval:
    """Unstable bounds escape to infinity; always an upper bound of both.
    Returns `old` itself when no bound escapes."""
    if old.is_empty:
        return new
    if new.is_empty:
        return old
    lo = old.lo if old.lo <= new.lo else NEG_INF
    hi = old.hi if old.hi >= new.hi else POS_INF
    if lo is old.lo and hi is old.hi:
        return old
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractEnv:
    """Per-variable intervals; any empty component collapses to unreachable."""

    intervals: tuple[tuple[str, Interval], ...] = ()
    bottom: bool = False

    @staticmethod
    def unreachable() -> "AbstractEnv":
        return BOTTOM_ENV

    @staticmethod
    def of(mapping: Mapping[str, Interval]) -> "AbstractEnv":
        items = tuple(sorted(mapping.items()))
        if any(iv.is_empty for _, iv in items):
            return BOTTOM_ENV
        return AbstractEnv(items)

    def as_dict(self) -> dict[str, Interval]:
        return dict(self.intervals)

    def get(self, var: str) -> Interval:
        for name, iv in self.intervals:
            if name == var:
                return iv
        return TOP

    def set(self, var: str, iv: Interval) -> "AbstractEnv":
        if self.bottom:
            return self
        if iv.is_empty:
            return BOTTOM_ENV
        items = self.intervals
        for i, (name, old) in enumerate(items):
            if name == var:
                if old is iv:
                    return self
                return AbstractEnv(items[:i] + ((var, iv),) + items[i + 1:])
            if name > var:
                return AbstractEnv(items[:i] + ((var, iv),) + items[i:])
        return AbstractEnv(items + ((var, iv),))

    def join(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.bottom:
            return other
        if other.bottom or other is self:
            return self
        return self._pointwise(other, _hull)

    def widen(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.bottom:
            return other
        if other.bottom or other is self:
            return self
        return self._pointwise(other, widen)

    def _pointwise(self, other: "AbstractEnv", op) -> "AbstractEnv":
        """`op` (join or widening of intervals) variable by variable; a
        variable missing on one side is top there.  Returns `self` when no
        interval changes.  Neither side is bottom, so neither holds an empty
        interval (``of`` and ``set`` collapse those) and `op` may assume
        non-empty operands."""
        mine, theirs = self.intervals, other.intervals
        if len(mine) == len(theirs):
            # Every environment of one analysis lists the same variables.
            out = []
            changed = False
            for (name, a), (other_name, b) in zip(mine, theirs):
                if name != other_name:
                    break
                c = a if a is b else op(a, b)
                changed = changed or c is not a
                out.append((name, c))
            else:
                return AbstractEnv(tuple(out)) if changed else self
        a, b = dict(mine), dict(theirs)
        return AbstractEnv.of({v: op(a.get(v, TOP), b.get(v, TOP)) for v in set(a) | set(b)})


BOTTOM_ENV = AbstractEnv((), True)


def eval_expr(e: Expr, env: AbstractEnv) -> Interval:
    if env.bottom:
        return EMPTY
    if isinstance(e, Const):
        return Interval.const(e.value)
    if isinstance(e, Var):
        return env.get(e.name)
    if isinstance(e, Nondet):
        return TOP
    if isinstance(e, BinOp):
        left = eval_expr(e.left, env)
        right = eval_expr(e.right, env)
        if left.is_empty or right.is_empty:
            return EMPTY
        if e.op == "+":
            return Interval(badd(left.lo, right.lo), badd(left.hi, right.hi))
        return Interval(badd(left.lo, -right.hi), badd(left.hi, -right.lo))
    raise TypeError(f"unknown expression {e!r}")


def _bound_for(op: str, other: Interval) -> Interval:
    """States satisfying `x op other` for some value of `other`."""
    if op == "<":
        return Interval(NEG_INF, badd(other.hi, -1))
    if op == "<=":
        return Interval(NEG_INF, other.hi)
    if op == ">":
        return Interval(badd(other.lo, 1), POS_INF)
    if op == ">=":
        return Interval(other.lo, POS_INF)
    if op == "==":
        return other
    return TOP  # != handled separately


def _refine_var(env: AbstractEnv, var: str, op: str, other: Interval) -> AbstractEnv:
    cur = env.get(var)
    if op == "!=":
        # Only a definite single value can shave an endpoint.
        if not other.is_empty and other.lo == other.hi:
            c = other.lo
            if cur.lo == c:
                return env.set(var, Interval.make(badd(c, 1), cur.hi))
            if cur.hi == c:
                return env.set(var, Interval.make(cur.lo, badd(c, -1)))
        return env
    return env.set(var, cur.meet(_bound_for(op, other)))


def _feasible(op: str, left: Interval, right: Interval) -> bool:
    if left.is_empty or right.is_empty:
        return False
    if op == "<":
        return left.lo < right.hi
    if op == "<=":
        return left.lo <= right.hi
    if op == ">":
        return left.hi > right.lo
    if op == ">=":
        return left.hi >= right.lo
    if op == "==":
        return not left.meet(right).is_empty
    # !=: only two equal singletons are definitely equal
    return not (left.lo == left.hi == right.lo == right.hi)


def filter_cond(c: Cond, env: AbstractEnv) -> AbstractEnv:
    """Sound refinement by a condition.

    Keeps every state of `env` satisfying the condition.  Comparisons refine
    bare-variable sides exactly (with integer tightening of strict bounds);
    compound sides only contribute the feasibility check.  `*` filters
    nothing.
    """
    if env.bottom or isinstance(c, CondNondet):
        return env
    left = eval_expr(c.left, env)
    right = eval_expr(c.right, env)
    if not _feasible(c.op, left, right):
        return BOTTOM_ENV
    out = env
    if isinstance(c.left, Var):
        out = _refine_var(out, c.left.name, c.op, right)
    if isinstance(c.right, Var) and not out.bottom:
        out = _refine_var(out, c.right.name, FLIPPED_OP[c.op], left)
    return out


# ---------------------------------------------------------------------------
# Fixpoint engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssertVerdict:
    sid: int
    loc: str
    proved: bool


@dataclass(frozen=True)
class AnalysisResult:
    envs: dict[str, AbstractEnv]
    asserts: tuple[AssertVerdict, ...]


def _edge_transfer(label, env: AbstractEnv) -> AbstractEnv:
    if env.bottom:
        return env
    if isinstance(label, AssignLabel):
        return env.set(label.var, eval_expr(label.expr, env))
    if isinstance(label, AssumeLabel):
        return filter_cond(label.cond, env)
    return env


def check_cache_free(cfg: Cfg) -> None:
    if cfg.has_access():
        raise ValueError("numeric analyses require a cache-free graph")


def chaotic_iteration(
    cfg: Cfg,
    entry,
    bottom,
    transfer: Callable,
    widen_delay: int = 0,
    narrow_passes: int = 0,
) -> dict:
    """Post-fixpoint of ``transfer(label, value)`` over `cfg` from `entry`,
    then `narrow_passes` simultaneous decreasing passes.

    `widen_delay` counts actual updates at a widening point, not visits.
    """
    # Pull-style: a visit joins the transfers of every incoming edge,
    # unchanged predecessors included, because widening and the narrowing
    # passes need a location's whole candidate.  Each edge remembers the
    # source value it last transferred (by identity) and the result, and
    # transfers again only when that value was replaced; transfers are pure,
    # so the values computed are those of transferring every time.  Joins
    # and widenings return the old value itself when nothing grows, so an
    # unchanged location keeps its value object and its out-edges' results.
    # The cache analyses have finite lattices and need neither widening nor
    # narrowing, so agebounds.analyze_approx and focused.analyze_block keep
    # push-style loops on Cfg.access_index that send only a changed value
    # (or its new part) along each out-edge, and always visit the waiting
    # location first in reverse postorder.  analyze_approx on this engine
    # took about 18% longer over the cache-unknown benchmark graphs than
    # its earlier FIFO push loop did, and the ordered loop is faster still.
    widen_points = back_edge_targets(cfg)
    # Per edge: [source, label, last source value, its transfer].
    incoming: dict[str, list[list]] = {loc: [] for loc in cfg.locations}
    for e in cfg.edges:
        incoming[e.dst].append([e.src, e.label, None, None])

    def candidate(loc: str, values: dict):
        acc = entry if loc == cfg.entry else bottom
        for memo in incoming[loc]:
            value = values[memo[0]]
            if memo[2] is not value:
                memo[2] = value
                memo[3] = transfer(memo[1], value)
            acc = acc.join(memo[3])
        return acc

    values = dict.fromkeys(cfg.locations, bottom)
    updates = dict.fromkeys(cfg.locations, 0)
    work = deque(cfg.locations)
    queued = set(cfg.locations)
    while work:
        loc = work.popleft()
        queued.discard(loc)
        old = values[loc]
        new = old.join(candidate(loc, values))
        if loc in widen_points and updates[loc] > widen_delay:
            new = old.widen(new)
        if new is not old and new != old:
            updates[loc] += 1
            values[loc] = new
            for e in cfg.out(loc):
                if e.dst not in queued:
                    queued.add(e.dst)
                    work.append(e.dst)

    for _ in range(narrow_passes):
        values = {loc: candidate(loc, values) for loc in cfg.locations}
    return values


def assert_verdicts(cfg: Cfg, envs: Mapping[str, AbstractEnv]) -> tuple[AssertVerdict, ...]:
    return tuple(
        AssertVerdict(site.sid, site.loc, filter_cond(negate_cond(site.cond), envs[site.loc]).bottom)
        for site in cfg.asserts
    )


def analyze(
    cfg: Cfg,
    entry_env: AbstractEnv,
    widen_delay: int = 0,
    narrow_passes: int = 0,
) -> AnalysisResult:
    check_cache_free(cfg)
    envs = chaotic_iteration(cfg, entry_env, BOTTOM_ENV, _edge_transfer, widen_delay, narrow_passes)
    return AnalysisResult(envs, assert_verdicts(cfg, envs))


def entry_environment(program) -> AbstractEnv:
    """Default entry state: initialized declarations pinned, the rest top."""
    return AbstractEnv.of(
        {d.name: Interval.const(d.init.value) if d.init is not None else TOP for d in program.decls}
    )


__all__ = [
    "POS_INF",
    "NEG_INF",
    "badd",
    "Interval",
    "EMPTY",
    "TOP",
    "widen",
    "AbstractEnv",
    "BOTTOM_ENV",
    "eval_expr",
    "filter_cond",
    "chaotic_iteration",
    "assert_verdicts",
    "analyze",
    "AnalysisResult",
    "AssertVerdict",
    "entry_environment",
]
