"""Symbolic rewriting propagated alongside the interval analysis.

A rewrite map is an ordered list of rules ``var -> expr`` populated in
chronological order by assignments.  Evaluating an expression both as written
and after rewriting and simplification, then intersecting the two interval
results, recovers relational facts a non-relational domain loses (the classic
``y = x; z = x - y`` gives z = [0, 0] instead of [-1, 1]).

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
    BOTTOM_ENV,
    AbstractEnv,
    AnalysisResult,
    assert_verdicts,
    chaotic_iteration,
    check_cache_free,
    eval_expr,
    filter_cond,
)
from .lang import (
    BinOp,
    Cmp,
    Cond,
    CondNondet,
    Const,
    Expr,
    Nondet,
    Var,
    expr_has_nondet,
    expr_vars,
)


@dataclass(frozen=True)
class RewriteMap:
    """Ordered rules var -> deterministic Expr, acyclic as a substitution
    system (no rule's right-hand side depends, transitively, on its own
    left-hand side), which guarantees rewriting terminates."""

    rules: tuple[tuple[str, Expr], ...] = ()

    def lookup(self, var: str) -> Expr | None:
        for name, e in self.rules:
            if name == var:
                return e
        return None

    def drop_mentioning(self, var: str) -> "RewriteMap":
        return RewriteMap(
            tuple(
                (name, e)
                for name, e in self.rules
                if name != var and var not in expr_vars(e)
            )
        )

    def join(self, other: "RewriteMap") -> "RewriteMap":
        if self.rules == other.rules:
            return self
        common = set(other.rules)
        kept = tuple(r for r in self.rules if r in common)
        return self if len(kept) == len(self.rules) else RewriteMap(kept)


def _linear_form(e: Expr, sign: int, coeffs: dict[str, int], nondets: list[int]) -> int:
    """Accumulate coefficients; returns the constant term contribution.
    Operands are visited left to right (the order of `nondets`), with the
    left spine of a sum walked in a loop, so a long sum does not recurse."""
    spine: list[BinOp] = []
    while isinstance(e, BinOp):
        spine.append(e)
        e = e.left
    if isinstance(e, Const):
        const = sign * e.value
    elif isinstance(e, Var):
        coeffs[e.name] = coeffs.get(e.name, 0) + sign
        const = 0
    elif isinstance(e, Nondet):
        nondets.append(sign)
        const = 0
    else:
        raise TypeError(f"unknown expression {e!r}")
    for node in reversed(spine):
        const += _linear_form(node.right, sign if node.op == "+" else -sign, coeffs, nondets)
    return const


def simplify(e: Expr) -> Expr:
    """Canonical linear form: variables in name order (with multiplicity),
    then any nondeterministic occurrences, then the constant term."""
    coeffs: dict[str, int] = {}
    nondets: list[int] = []
    const = _linear_form(e, 1, coeffs, nondets)
    terms: list[tuple[int, Expr]] = []
    for name in sorted(coeffs):
        c = coeffs[name]
        for _ in range(abs(c)):
            terms.append((1 if c > 0 else -1, Var(name)))
    for s in nondets:
        terms.append((s, Nondet()))
    if not terms:
        return Const(const)
    out: Expr | None = None
    for s, t in terms:
        if out is None:
            out = t if s > 0 else BinOp("-", Const(0), t)
        else:
            out = BinOp("+" if s > 0 else "-", out, t)
    if const != 0:
        out = BinOp("+" if const > 0 else "-", out, Const(abs(const)))
    return out


def _substitute(e: Expr, m: RewriteMap, budget: int | None) -> Expr:
    """Replace variables by their rules; a budget of k allows k successive
    rule applications along any chain (None is unlimited; acyclicity bounds
    the recursion either way).  The left spine of a sum is walked in a
    loop, so a long sum does not recurse."""
    if budget is not None and budget <= 0:
        return e
    spine: list[BinOp] = []
    while isinstance(e, BinOp):
        spine.append(e)
        e = e.left
    if isinstance(e, Var):
        rhs = m.lookup(e.name)
        if rhs is not None:
            e = _substitute(rhs, m, None if budget is None else budget - 1)
    for node in reversed(spine):
        e = BinOp(node.op, e, _substitute(node.right, m, budget))
    return e


def rewrite_and_simplify(m: RewriteMap, e: Expr, max_chain: int | None = None) -> Expr:
    return simplify(_substitute(e, m, max_chain))


def record(m: RewriteMap, var: str, e: Expr, flatten: bool = True) -> RewriteMap:
    """Chronological recording of an assignment.

    The old value of `var` is dead: rules mentioning it on either side are
    dropped.  A deterministic right-hand side is stored fully rewritten
    through the pre-assignment map (so it refers to current values only);
    with ``flatten=False`` (truncated mode) it is stored only simplified,
    and chains are capped at evaluation time instead.  A nondeterministic
    right-hand side merely invalidates, and so does a self-referential
    residue (e.g. ``x = x + 1`` with no rule for x), which cannot be
    expressed as a rule about current values.
    """
    if expr_has_nondet(e):
        return m.drop_mentioning(var)
    flat = rewrite_and_simplify(m, e) if flatten else simplify(e)
    out = m.drop_mentioning(var)
    if var in expr_vars(flat):
        return out
    return RewriteMap(out.rules + ((var, flat),))


def _rewritten_cond(c: Cond, m: RewriteMap, max_chain: int | None) -> Cond:
    if isinstance(c, CondNondet):
        return c
    return Cmp(
        c.op,
        rewrite_and_simplify(m, c.left, max_chain),
        rewrite_and_simplify(m, c.right, max_chain),
    )


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
        return _State(env, rules)

    def widen(self, other: "_State") -> "_State":
        # The engine widens `old` with `old.join(new)`, whose rules are already
        # a subset of old's: maps only lose rules, so they need no widening.
        env = self.env.widen(other.env)
        if env is self.env and other.rules is self.rules:
            return self
        if env is other.env:
            return other
        return _State(env, other.rules)


_BOTTOM_STATE = _State(BOTTOM_ENV, RewriteMap())


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
    its rewritten, simplified form; the meet of the two interval results is
    used.  With ``truncate_depth=d``, stored rules keep their raw right-hand
    sides and evaluation follows at most ``d`` rule applications along any
    chain; the default follows chains exhaustively with rules stored
    pre-flattened.  Truncation is not monotone: a shallower depth can give
    strictly more precise intervals (see the module docstring).
    """
    check_cache_free(cfg)
    depth = truncate_depth
    # Per label (one per edge): the last rule map it saw, and what that map
    # gives it, the rewritten expression and recorded map of an assignment
    # or the rewritten condition of a guard.  Both are pure in the label
    # and the map, and a map object often reaches a label again with a new
    # environment.  Recording through the memo also hands the same map
    # object on, so the next label's memo hits too.
    rewritten: dict[int, tuple] = {}

    def transfer(label, state: _State) -> _State:
        env, rules = state
        if env.bottom:
            return _BOTTOM_STATE
        if isinstance(label, AssignLabel):
            memo = rewritten.get(id(label))
            if memo is None or memo[0] is not rules:
                memo = rewritten[id(label)] = (
                    rules,
                    rewrite_and_simplify(rules, label.expr, depth),
                    record(rules, label.var, label.expr, depth is None),
                )
            plain = eval_expr(label.expr, env)
            new_env = env.set(label.var, plain.meet(eval_expr(memo[1], env)))
            if new_env.bottom:
                return _BOTTOM_STATE
            return _State(new_env, memo[2])
        if isinstance(label, AssumeLabel):
            memo = rewritten.get(id(label))
            if memo is None or memo[0] is not rules:
                memo = rewritten[id(label)] = (rules, _rewritten_cond(label.cond, rules, depth))
            env = filter_cond(label.cond, env)
            env = filter_cond(memo[1], env)
            return _State(env, rules) if not env.bottom else _BOTTOM_STATE
        return state

    states = chaotic_iteration(
        cfg, _State(entry_env, RewriteMap()), _BOTTOM_STATE, transfer, widen_delay, narrow_passes
    )
    envs = {loc: s.env for loc, s in states.items()}
    return AnalysisResult(envs, assert_verdicts(cfg, envs))
