"""Textbook interval analysis: evaluation, guard refinement, widening and
narrowing over a labeled CFG.

Bounds are mathematical integers extended with two symbolic infinities.
Finite bounds are always ints.  The infinities ``POS_INF`` and ``NEG_INF``
are the only two instances of a float subclass, so that every bound
comparison runs in C; they print as ``+oo``/``-oo`` and refuse arithmetic
(``badd`` is the one addition on bounds).  Intervals and environments are
named tuples without a record's class check (``lang.class_checked``; it
cost intervals-widen a tenth of its throughput), so they compare and hash
in C too; hot paths build them with ``tuple.__new__``.  An environment
holds a tuple of variable names, shared by every environment derived from
the same entry, and the intervals in that order; ``names.index`` finds one.

Fixpoint engine: ``chaotic_iteration`` is the one worklist loop of the
numeric analyses, generic in a value with ``join``, ``widen`` and
equality; ``analyze`` runs it over environments and
``rewrite.analyze_combined`` over (environment, rewrite map) pairs, so both
iterate identically.  A location pulls its candidate from the entry value
and the transfers of all its incoming edges; locations leave a FIFO
worklist (seeded in ``cfg.locations`` order, each queued at most once) and
widen at back-edge targets after a configurable number of plain updates;
more than ``DELAY_BUDGET`` plain updates there over a whole run raise
``DelayBudgetError`` (a loop that never stabilises would climb for ever).
Simultaneous decreasing passes follow ("narrowing" in its simplest form:
re-run the transfer from the stabilized state and add the entry
contribution).  Each edge keeps its last transfer and reuses it while its
source holds the same value object; joins and widenings reuse every
interval that does not change and return an operand itself when every
interval equals that operand's, so a location whose value stays put keeps
its object and its out-edges are not transferred again.
``assert_verdicts`` reads verdicts off a final state: an assertion is
proved when refining with its negation yields the unreachable environment.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import is_not
from typing import Callable, Mapping, NamedTuple

from .cfg import AssignLabel, AssumeLabel, Cfg, back_edge_targets
from .lang import FLIPPED_OP, BinOp, Cond, CondNondet, Const, Expr, Nondet, Var, class_checked, negate_cond


class _Inf(float):
    """Symbolic infinity: exactly two instances, ``POS_INF`` and ``NEG_INF``.

    Float-backed so that ordering against ints (of any size) runs in C.  It
    prints as ``+oo``/``-oo``, negates to the other instance and refuses
    arithmetic, so it never turns into a plain float."""

    __slots__ = ()

    def __neg__(self):
        return NEG_INF if self > 0 else POS_INF

    def __repr__(self):
        return "+oo" if self > 0 else "-oo"

    def __format__(self, spec):
        return format(repr(self), spec)

    def _no_arithmetic(self, *other):
        raise TypeError("no arithmetic on symbolic infinities; use badd")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _no_arithmetic
    __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = _no_arithmetic
    __mod__ = __rmod__ = __divmod__ = __rdivmod__ = __pow__ = __rpow__ = _no_arithmetic
    __pos__ = __abs__ = _no_arithmetic


POS_INF = _Inf("inf")
NEG_INF = _Inf("-inf")

Bound = int | _Inf


def badd(a, b):
    """Extended addition; infinities absorb (never add opposite infinities)."""
    if isinstance(a, _Inf):
        if isinstance(b, _Inf) and b is not a:
            raise ValueError("adding opposite infinities")
        return a
    if isinstance(b, _Inf):
        return b
    return a + b


# ``_new(Interval, (lo, hi))`` skips the generated ``__new__``, which runs in Python.
_new = tuple.__new__


class Interval(NamedTuple):
    lo: Bound
    hi: Bound

    @staticmethod
    def make(lo, hi) -> "Interval":
        if lo > hi:
            return EMPTY
        return _new(Interval, (lo, hi))

    @staticmethod
    def const(c: int) -> "Interval":
        return Interval(c, c)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def meet(self, other: "Interval") -> "Interval":
        # Empty when either side is: then the larger low bound passes the smaller high one.
        return Interval.make(max(self.lo, other.lo), min(self.hi, other.hi))

    def __repr__(self):
        if self.is_empty:
            return "empty"
        return f"[{self.lo}, {self.hi}]"


EMPTY = Interval(POS_INF, NEG_INF)
TOP = Interval(NEG_INF, POS_INF)


def _hull(a: Interval, b: Interval) -> Interval:
    """Join of two non-empty intervals; returns `a` itself (or `b`) when it
    already contains the other."""
    if a.lo <= b.lo:
        if b.hi <= a.hi:
            return a
        return b if a.lo == b.lo else _new(Interval, (a.lo, b.hi))
    if a.hi <= b.hi:
        return b
    return _new(Interval, (b.lo, a.hi))


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
    return _new(Interval, (lo, hi))


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class AbstractEnv(NamedTuple):
    """Per-variable intervals: ``values[i]`` belongs to ``names[i]``, and
    ``of`` lists the names in sorted order; any empty component collapses
    to unreachable.  ``get`` of a variable it does not list raises
    KeyError, and so does ``set`` of one to a nonempty interval unless the
    environment is unreachable.  It prints as the (name, interval) pairs
    of ``intervals``."""

    names: tuple[str, ...]
    values: tuple[Interval, ...]
    bottom: bool = False

    @staticmethod
    def of(mapping: Mapping[str, Interval]) -> "AbstractEnv":
        names = tuple(sorted(mapping))
        values = tuple(map(mapping.__getitem__, names))
        return BOTTOM_ENV if any(iv.is_empty for iv in values) else AbstractEnv(names, values)

    @property
    def intervals(self) -> tuple[tuple[str, Interval], ...]:
        return tuple(zip(self.names, self.values))

    def __repr__(self):
        return f"AbstractEnv(intervals={self.intervals!r}, bottom={self.bottom!r})"

    def get(self, var: str) -> Interval:
        if var not in self.names:
            raise KeyError(var)
        return self.values[self.names.index(var)]

    def set(self, var: str, iv: Interval) -> "AbstractEnv":
        names, values, bottom = self
        if bottom:
            return self
        if iv.lo > iv.hi:
            return BOTTOM_ENV
        if var not in names:
            raise KeyError(var)
        i = names.index(var)
        if values[i] is iv:
            return self
        return _new(AbstractEnv, (names, values[:i] + (iv,) + values[i + 1:], False))

    def join(self, other: "AbstractEnv") -> "AbstractEnv":
        return self._pointwise(other, _hull)

    def widen(self, other: "AbstractEnv") -> "AbstractEnv":
        return self._pointwise(other, widen)

    def _pointwise(self, other: "AbstractEnv", op) -> "AbstractEnv":
        """`op` (join or widening of intervals) variable by variable, on two
        environments over the same variables; bottom yields to the other
        side.  Returns `self`, or else `other`, itself when every resulting
        interval equals that operand's.  Empty intervals collapse to bottom
        (``of`` and ``set``), so `op` may assume non-empty operands."""
        if self.bottom:
            return other
        if other.bottom or other is self:
            return self
        mine, theirs = self.values, other.values
        # Results share every interval they keep, so only the positions
        # whose intervals are different objects need a look.
        out = None
        all_theirs = True
        for i in compress(range(len(mine)), map(is_not, mine, theirs)):
            a, b = mine[i], theirs[i]
            if a == b:
                continue
            c = op(a, b)
            if c is a:
                all_theirs = False
                continue
            if c is not b:
                all_theirs = False
            if out is None:
                out = list(mine)
            out[i] = c
        if out is None:
            return self
        return other if all_theirs else _new(AbstractEnv, (self.names, tuple(out), False))


BOTTOM_ENV = AbstractEnv((), (), True)


def eval_expr(e: Expr, env: AbstractEnv) -> Interval:
    names, values, bottom = env
    if bottom:
        return EMPTY
    kind = type(e)
    if kind is Var:  # the environment's own object: `set` tests identity
        return values[names.index(e.name)]
    if kind is Const:
        return _new(Interval, (e.value, e.value))
    # BinOp trees from the parser are left-nested: the left spine is walked
    # in a loop, so a long sum does not recurse.
    spine: list[BinOp] = []
    while kind is BinOp:
        spine.append(e)
        e = e.left
        kind = type(e)
    if kind is Const:
        value = _new(Interval, (e.value, e.value))
    elif kind is Var:
        value = values[names.index(e.name)]
    elif kind is Nondet:
        value = TOP
    else:
        raise TypeError(f"unknown expression {e!r}")
    for node in reversed(spine):
        right = node.right
        kind = type(right)
        if kind is Const:
            right = _new(Interval, (right.value, right.value))
        elif kind is Var:
            right = values[names.index(right.name)]
        elif kind is Nondet:
            right = TOP
        else:
            right = eval_expr(right, env)
        if value.lo > value.hi or right.lo > right.hi:
            return EMPTY
        if node.op == "+":
            value = _new(Interval, (badd(value.lo, right.lo), badd(value.hi, right.hi)))
        else:
            value = _new(Interval, (badd(value.lo, -right.hi), badd(value.hi, -right.lo)))
    return value


def _narrow(cur: Interval, op: str, other: Interval) -> Interval:
    """The values of `cur` that satisfy `x op y` for some `y` in `other`
    (with integer tightening of strict bounds); empty when none does."""
    if cur.is_empty or other.is_empty:
        return EMPTY
    if op == "!=":
        # Only a definite single value can shave an endpoint, and only two
        # equal singletons shave to empty.
        if other.lo == other.hi:
            if cur.lo == other.lo:
                return Interval.make(badd(other.lo, 1), cur.hi)
            if cur.hi == other.lo:
                return Interval.make(cur.lo, badd(other.lo, -1))
        return cur
    if op == "<":
        return Interval.make(cur.lo, min(cur.hi, badd(other.hi, -1)))
    if op == "<=":
        return Interval.make(cur.lo, min(cur.hi, other.hi))
    if op == ">":
        return Interval.make(max(cur.lo, badd(other.lo, 1)), cur.hi)
    if op == ">=":
        return Interval.make(max(cur.lo, other.lo), cur.hi)
    return cur.meet(other)  # ==


def filter_cond(c: Cond, env: AbstractEnv) -> AbstractEnv:
    """Sound refinement by a condition.

    Keeps every state of `env` satisfying the condition.  The result is
    unreachable exactly when narrowing the left side's interval by the
    right side's leaves nothing; otherwise each bare-variable side is
    narrowed by the other side.  That is exact for a variable against a
    constant or against another variable; compound sides only contribute
    the unreachability check.  `*` filters nothing.
    """
    if env.bottom or isinstance(c, CondNondet):
        return env
    left = eval_expr(c.left, env)
    right = eval_expr(c.right, env)
    narrowed = _narrow(left, c.op, right)
    if narrowed.is_empty:
        return BOTTOM_ENV
    # `set` returns the environment itself when the interval is its own.
    if isinstance(c.left, Var):
        env = env.set(c.left.name, narrowed)
    if isinstance(c.right, Var):
        env = env.set(c.right.name, _narrow(env.get(c.right.name), FLIPPED_OP[c.op], left))
    return env


# ---------------------------------------------------------------------------
# Fixpoint engine
# ---------------------------------------------------------------------------


@class_checked
class AssertVerdict(NamedTuple):
    sid: int
    loc: str
    proved: bool


@class_checked
class AnalysisResult(NamedTuple):
    envs: dict[str, AbstractEnv]
    asserts: tuple[AssertVerdict, ...]


def _edge_transfer(label, env: AbstractEnv) -> AbstractEnv:
    if isinstance(label, AssignLabel):
        return env.set(label.var, eval_expr(label.expr, env))
    if isinstance(label, AssumeLabel):
        return filter_cond(label.cond, env)
    return env


def check_cache_free(cfg: Cfg) -> None:
    if cfg.access_sites:
        raise ValueError("numeric analyses require a cache-free graph")


#: Most plain (not widened) updates at back-edge targets in one run of
#: ``chaotic_iteration``, summed over all of them.
DELAY_BUDGET = 10_000


class DelayBudgetError(Exception):
    """A widening delay would need more plain updates than ``DELAY_BUDGET``."""


def chaotic_iteration(
    cfg: Cfg,
    entry,
    bottom,
    transfer: Callable,
    widen_delay: int = 0,
    narrow_passes: int = 0,
) -> dict:
    """Post-fixpoint of ``transfer(label, value)`` over `cfg` from `entry`,
    then up to `narrow_passes` simultaneous decreasing passes, stopping
    after the first pass that changes nothing.

    `widen_delay` counts actual updates at a widening point, not visits.
    More than ``DELAY_BUDGET`` plain updates at widening points in all
    raise ``DelayBudgetError``: an error, never an approximation.
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
    # narrowing, so agebounds.age_pass and focused.analyze_block keep
    # push-style loops on Cfg.access_index that send only a changed value
    # along each out-edge, and always visit the waiting location first in
    # reverse postorder.  The age-bound pass on this engine took about 18%
    # longer over the cache-unknown benchmark graphs than its earlier FIFO
    # push loop did, and the ordered loop is faster still.
    widen_points = back_edge_targets(cfg)
    # Per edge: [source, label, last source value, its transfer].
    incoming: dict[str, list[list]] = {loc: [] for loc in cfg.locations}
    for e in cfg.edges:
        incoming[e.dst].append([e.src, e.label, None, None])

    def candidate(loc: str, values: dict):
        # Starts from the first contribution: bottom's join returns its operand.
        acc = entry if loc == cfg.entry else None
        for memo in incoming[loc]:
            value = values[memo[0]]
            if memo[2] is not value:
                memo[2] = value
                memo[3] = transfer(memo[1], value)
            acc = memo[3] if acc is None else acc.join(memo[3])
        return bottom if acc is None else acc

    values = dict.fromkeys(cfg.locations, bottom)
    updates = dict.fromkeys(cfg.locations, 0)
    work = deque(cfg.locations)
    queued = set(cfg.locations)
    plain_updates = 0
    while work:
        loc = work.popleft()
        queued.discard(loc)
        old = values[loc]
        new = old.join(candidate(loc, values))
        delayed = loc in widen_points
        if delayed and updates[loc] > widen_delay:
            new = old.widen(new)
            delayed = False
        if new is not old and new != old:
            if delayed:
                plain_updates += 1
                if plain_updates > DELAY_BUDGET:
                    raise DelayBudgetError(
                        f"widening delay budget exceeded: more than {DELAY_BUDGET} "
                        "plain updates at loop heads")
            updates[loc] += 1
            values[loc] = new
            for e in cfg.out(loc):
                if e.dst not in queued:
                    queued.add(e.dst)
                    work.append(e.dst)

    # A pass that changes nothing leaves every later pass the same, so the
    # passes stop there.  Dict equality tests each value's identity before
    # comparing it, and an unchanged value is usually the same object.
    for _ in range(narrow_passes):
        narrowed = {loc: candidate(loc, values) for loc in cfg.locations}
        if narrowed == values:
            break
        values = narrowed
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
