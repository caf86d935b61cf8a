"""Symbolic rewriting propagated alongside the interval analysis.

A rewrite map is an ordered list of rules ``var -> form`` populated in
chronological order by assignments.  Evaluating an expression both as written
and after rewriting and simplification, then intersecting the two interval
results, recovers relational facts a non-relational domain loses (the classic
``y = x; z = x - y`` gives z = [0, 0] instead of [-1, 1]).

Right-hand sides are linear forms (``LinearForm``), as in Miné's symbolic
constant propagation: a constant plus the variables with a nonzero
coefficient, in name order.  A run builds each label's own form once, and
``substitute`` returns it unchanged when no rule names one of its
variables.  Rules' variables are read off their forms; map joins compare
forms as tuples.  Assignments evaluate their rewritten form directly;
guards, ``simplify`` and ``rewrite_and_simplify`` render forms as canonical
trees.  A rule is the form the assignment's transfer already rewrote.

The combination is deliberately kept in its plain form: guards are filtered
through original and rewritten conditions but rules are never inverted, and
the map join at control-flow merges keeps syntactically common rules only.
This preserves a documented oddity of the approach: truncating rewrite chains
can make results strictly more precise (see ``analyze_combined`` with
``truncate_depth``), i.e. the transfer is not monotone in the amount of
symbolic information carried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .cfg import AssignLabel, AssumeLabel, Cfg
from .intervals import (
    BOTTOM_ENV, NEG_INF, POS_INF, TOP, AbstractEnv, AnalysisResult, Interval, _new, assert_verdicts,
    chaotic_iteration, check_cache_free, eval_expr, filter_cond,
)
from .lang import BinOp, Cmp, Const, Expr, Nondet, Var


class LinearForm(NamedTuple):
    """``const + Σ coeffs[i]·names[i]`` plus one ``*`` per sign in
    `nondets`, in the order they occur: the names sorted and distinct, each
    with a nonzero coefficient.  Two forms are equal exactly when their
    rendered trees (``render``) are."""

    const: int
    names: tuple[str, ...] = ()
    coeffs: tuple[int, ...] = ()
    nondets: tuple[int, ...] = ()


@dataclass(frozen=True)
class RewriteMap:
    """Ordered rules var -> deterministic linear form, acyclic as a
    substitution system (no rule's right-hand side depends, transitively,
    on its own left-hand side), which guarantees rewriting terminates."""

    rules: tuple[tuple[str, LinearForm], ...] = ()

    def drop_mentioning(self, var: str) -> "RewriteMap":
        kept = tuple(r for r in self.rules if r[0] != var and var not in r[1].names)
        return self if len(kept) == len(self.rules) else RewriteMap(kept)

    def join(self, other: "RewriteMap") -> "RewriteMap":
        """The rules both maps hold; `self` or `other` itself when it holds
        exactly those.  A map holds at most one rule per variable, so each
        rule is compared, as a tuple, with the other map's rule for the same
        variable only."""
        if self.rules is other.rules:
            return self
        theirs = dict(other.rules)
        kept = tuple(r for r in self.rules if theirs.get(r[0]) == r[1])
        if len(kept) == len(self.rules):
            return self
        return other if kept == other.rules else RewriteMap(kept)


_NO_RULES = RewriteMap()


def _collect(e: Expr, sign: int, coeffs: dict[str, int], nondets: list[int], seen: list[str]) -> int:
    """Accumulate the coefficients of `e`, times `sign`, and return its
    constant term; `seen` gets every variable occurrence.  Operands are
    visited left to right (the order of `nondets`), with the left spine of
    a sum walked in a loop, so a long sum does not recurse."""
    spine: list[BinOp] = []
    while isinstance(e, BinOp):
        spine.append(e)
        e = e.left
    const = 0
    if isinstance(e, Const):
        const = sign * e.value
    elif isinstance(e, Var):
        coeffs[e.name] = coeffs.get(e.name, 0) + sign
        seen.append(e.name)
    elif isinstance(e, Nondet):
        nondets.append(sign)
    else:
        raise TypeError(f"unknown expression {e!r}")
    for node in reversed(spine):
        const += _collect(node.right, sign if node.op == "+" else -sign, coeffs, nondets, seen)
    return const


def _form(const: int, coeffs: dict[str, int], nondets) -> LinearForm:
    names = tuple(sorted(name for name, c in coeffs.items() if c))
    return _new(LinearForm, (const, names, tuple(map(coeffs.__getitem__, names)), tuple(nondets)))


def _own_form(e: Expr) -> tuple[LinearForm, bool]:
    """The linear form of `e` as written, and whether no variable occurs twice in `e`."""
    coeffs: dict[str, int] = {}
    nondets: list[int] = []
    seen: list[str] = []
    const = _collect(e, 1, coeffs, nondets, seen)
    return _form(const, coeffs, nondets), len(seen) == len(coeffs)


def linear_form(e: Expr) -> LinearForm:
    """The linear form of `e` as written (no rules applied)."""
    return _own_form(e)[0]


def substitute(form: LinearForm, m: RewriteMap, budget: int | None = None) -> LinearForm:
    """`form` with its variables replaced by their rules in `m`, with at
    most `budget` successive rule applications along any chain (None
    follows chains to the end; acyclicity bounds the recursion either way).
    Returns `form` itself when no rule names one of its variables."""
    names = form.names
    if not names or (budget is not None and budget < 1):
        return form
    hits = [rule for rule in m.rules if rule[0] in names]
    if not hits:
        return form
    coeffs = dict(zip(names, form.coeffs))
    const = form.const
    # Every replaced coefficient is taken out before any rule adds to
    # another, so a variable a rule brings in is not rewritten again here.
    pending = [(coeffs.pop(name), rhs) for name, rhs in hits]
    deeper = None if budget is None else budget - 1
    for c, rhs in pending:
        rhs = substitute(rhs, m, deeper)
        const += c * rhs.const
        for name, k in zip(rhs.names, rhs.coeffs):
            coeffs[name] = coeffs.get(name, 0) + c * k
    return _form(const, coeffs, form.nondets)


def evaluate(form: LinearForm, env: AbstractEnv) -> Interval:
    """``const + Σ c·[lo, hi]`` on a reachable `env`, or TOP when `form`
    holds a ``*``: what ``eval_expr`` gives on ``render(form)``, since an
    interval sum does not depend on the order of its terms and a reachable
    environment holds no low bound of +oo or high bound of -oo."""
    const, names, coeffs, nondets = form
    if nondets:
        return TOP
    lo = hi = const
    where, values = env.names.index, env.values
    for name, c in zip(names, coeffs):
        a, b = values[where(name)]
        if c < 0:
            a, b = b, a
        # Finite bounds are ints; the infinities are floats.
        if lo is not NEG_INF:
            lo = NEG_INF if isinstance(a, float) else lo + c * a
        if hi is not POS_INF:
            hi = POS_INF if isinstance(b, float) else hi + c * b
    return _new(Interval, (lo, hi))


def render(form: LinearForm) -> Expr:
    """The canonical tree of `form`: its variables in name order, each as
    often as its coefficient says, then its ``*`` occurrences, then the
    constant term."""
    const, names, coeffs, nondets = form
    terms = [(c > 0, Var(name)) for name, c in zip(names, coeffs) for _ in range(abs(c))]
    terms += [(s > 0, Nondet()) for s in nondets]
    if not terms:
        return Const(const)
    plus, out = terms[0]
    if not plus:
        out = BinOp("-", Const(0), out)
    for plus, term in terms[1:]:
        out = BinOp("+" if plus else "-", out, term)
    if const:
        out = BinOp("+" if const > 0 else "-", out, Const(abs(const)))
    return out


def simplify(e: Expr) -> Expr:
    """Canonical tree of `e` as written (no rules applied)."""
    return render(linear_form(e))


def rewrite_and_simplify(m: RewriteMap, e: Expr, max_chain: int | None = None) -> Expr:
    """Canonical tree of `e` with at most `max_chain` successive rule
    applications along any chain (None follows chains to the end)."""
    return render(substitute(linear_form(e), m, max_chain))


def record(m: RewriteMap, var: str, rhs: LinearForm) -> RewriteMap:
    """Chronological recording of an assignment to `var` whose right-hand
    side has the form `rhs`, substituted through `m` (so the rule refers to
    current values only) or as written (chains truncated at evaluation).
    The old value of `var` is dead: rules mentioning it on either side are
    dropped.  A `*` or `var` itself on the right (``x = x + 1`` with no rule
    for x) merely invalidates: no rule about current values says that."""
    out = m.drop_mentioning(var)
    if rhs.nondets or var in rhs.names:
        return out
    return RewriteMap(out.rules + ((var, rhs),))


def _label_forms(label):
    """What a run computes once per label: the linear form of an
    assignment's right-hand side and whether no variable repeats in it, or
    the forms of a comparison's sides and its canonical condition."""
    if isinstance(label, AssignLabel):
        return _own_form(label.expr)
    if isinstance(label, AssumeLabel) and isinstance(label.cond, Cmp):
        left, right = linear_form(label.cond.left), linear_form(label.cond.right)
        return left, right, Cmp(label.cond.op, render(left), render(right))
    return None


class _State(NamedTuple):
    """The product value of the combined analysis: an environment and the
    rewrite map that holds along with it."""

    env: AbstractEnv
    rules: RewriteMap

    def join(self, other: "_State") -> "_State":
        if self.env.bottom:
            return other
        if other.env.bottom or other is self:
            return self
        env, rules = self.env.join(other.env), self.rules.join(other.rules)
        if env is self.env and rules is self.rules:
            return self
        if env is other.env and rules is other.rules:
            return other
        return _new(_State, (env, rules))

    def widen(self, other: "_State") -> "_State":
        # The engine widens `old` with `old.join(new)`, whose rules are already
        # a subset of old's: maps only lose rules, so they need no widening.
        env = self.env.widen(other.env)
        if env is self.env and other.rules is self.rules:
            return self
        if env is other.env:
            return other
        return _new(_State, (env, other.rules))


_BOTTOM_STATE = _State(BOTTOM_ENV, _NO_RULES)


def analyze_combined(
    cfg: Cfg,
    entry_env: AbstractEnv,
    truncate_depth: int | None = None,
    widen_delay: int = 0,
    narrow_passes: int = 0,
) -> AnalysisResult:
    """Interval analysis with the rewrite map carried along.

    This is ``intervals.chaotic_iteration`` (the engine of
    ``intervals.analyze``, with the same order, widening and narrowing) over
    the product of environments and rewrite maps: a join keeps the rules
    both maps share, and widening acts on the environment only.
    Assignments and guards are evaluated on the original expression and on
    its rewritten linear form; the meet of the two interval results is
    used.  By default chains are followed exhaustively, and an assignment
    records the rewritten form it was just evaluated on, so stored rules
    refer to current values only.  With ``truncate_depth=d``, an assignment
    records the form of its right-hand side as written, and evaluation
    follows at most ``d`` rule applications along any chain.  Truncation is
    not monotone: a shallower depth can give strictly more precise
    intervals (see the module docstring).
    """
    check_cache_free(cfg)
    depth = truncate_depth
    own = {id(e.label): _label_forms(e.label) for e in cfg.edges}
    # Per label (one per edge): the last rule map it saw, and what that map
    # gives it, the rewritten form and recorded map of an assignment or the
    # rewritten condition of a guard.  Both are pure in the label and the
    # map, and a map object often reaches a label again with a new
    # environment.  Recording through the memo also hands the same map
    # object on, so the next label's memo hits too.
    rewritten: dict[int, tuple] = {}

    def transfer(label, state: _State) -> _State:
        env, rules = state
        if env.bottom:
            return _BOTTOM_STATE
        forms = own[id(label)]
        if forms is None:  # no label to rewrite, or a `*` guard
            return state
        memo = rewritten.get(id(label))
        if isinstance(label, AssignLabel):
            if memo is None or memo[0] is not rules:
                form, distinct = forms
                rhs = substitute(form, rules, depth)
                # With no rule applied and no variable repeated, the form
                # evaluates to what the expression as written does.
                memo = rewritten[id(label)] = (
                    rules, None if rhs is form and distinct else rhs,
                    record(rules, label.var, rhs if depth is None else form))
            value = eval_expr(label.expr, env)
            if memo[1] is not None:
                value = value.meet(evaluate(memo[1], env))
            new_env = env.set(label.var, value)
            return _BOTTOM_STATE if new_env.bottom else _new(_State, (new_env, memo[2]))
        if memo is None or memo[0] is not rules:
            # The label's own canonical condition, or side, where no rule applies.
            left, right, cond = forms
            new_left, new_right = substitute(left, rules, depth), substitute(right, rules, depth)
            if new_left is not left or new_right is not right:
                cond = Cmp(cond.op, cond.left if new_left is left else render(new_left),
                           cond.right if new_right is right else render(new_right))
            memo = rewritten[id(label)] = (rules, cond)
        env = filter_cond(memo[1], filter_cond(label.cond, env))
        return _BOTTOM_STATE if env.bottom else _new(_State, (env, rules))

    states = chaotic_iteration(
        cfg, _State(entry_env, _NO_RULES), _BOTTOM_STATE, transfer, widen_delay, narrow_passes
    )
    envs = {loc: s.env for loc, s in states.items()}
    return AnalysisResult(envs, assert_verdicts(cfg, envs))
