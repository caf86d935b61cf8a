"""Symbolic rewriting propagated alongside the interval analysis.

A rewrite map is an ordered list of rules ``var -> expr`` populated in
chronological order by assignments.  Evaluating an expression both as written
and after rewriting and simplification, then intersecting the two interval
results, recovers relational facts a non-relational domain loses (the classic
``y = x; z = x - y`` gives z = [0, 0] instead of [-1, 1]).

Rewriting and simplification are one walk (``rewrite_and_simplify``): rules
are substituted while the expression's linear form is collected, so no
intermediate tree is built, and ``simplify`` is the same walk with no rules.
A recorded rule is the right-hand side as the assignment's transfer already
put it in canonical form, so an assignment is rewritten once.

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
    _new,
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
        """The rules both maps hold.  A map holds at most one rule per
        variable, so each rule is compared with the other map's rule for
        the same variable only."""
        if self.rules is other.rules:
            return self
        theirs = dict(other.rules)
        kept = tuple(r for r in self.rules if _same_expr(r[1], theirs.get(r[0])))
        return self if len(kept) == len(self.rules) else RewriteMap(kept)


_NO_RULES = RewriteMap()


def _same_expr(a: Expr, b: Expr | None) -> bool:
    """Structural equality that walks the left spines of two sums in a loop,
    so comparing two long rules does not recurse (rules are canonical sums,
    with a single term on every right)."""
    while a is not b:
        if not (isinstance(a, BinOp) and isinstance(b, BinOp)):
            return a == b
        if a.op != b.op or a.right != b.right:
            return False
        a, b = a.left, b.left
    return True


def _linear_form(
    e: Expr, sign: int, coeffs: dict[str, int], nondets: list[int], m: RewriteMap, budget: int | None
) -> int:
    """Accumulate the coefficients of `e` with its variables replaced by
    their rules; returns the constant term contribution.  A budget of k
    allows k successive rule applications along any chain (None is
    unlimited; acyclicity bounds the recursion either way).  Operands are
    visited left to right (the order of `nondets`), with the left spine of
    a sum walked in a loop, so a long sum does not recurse."""
    spine: list[BinOp] = []
    while isinstance(e, BinOp):
        spine.append(e)
        e = e.left
    if isinstance(e, Const):
        const = sign * e.value
    elif isinstance(e, Var):
        rhs = m.lookup(e.name) if budget is None or budget > 0 else None
        if rhs is None:
            coeffs[e.name] = coeffs.get(e.name, 0) + sign
            const = 0
        else:
            const = _linear_form(rhs, sign, coeffs, nondets, m, None if budget is None else budget - 1)
    elif isinstance(e, Nondet):
        nondets.append(sign)
        const = 0
    else:
        raise TypeError(f"unknown expression {e!r}")
    for node in reversed(spine):
        const += _linear_form(node.right, sign if node.op == "+" else -sign, coeffs, nondets, m, budget)
    return const


def _canonical(e: Expr, m: RewriteMap, budget: int | None) -> Expr:
    """Canonical linear form of `e` rewritten by `m`, in one walk:
    variables in name order (with multiplicity), then any nondeterministic
    occurrences, then the constant term."""
    coeffs: dict[str, int] = {}
    nondets: list[int] = []
    const = _linear_form(e, 1, coeffs, nondets, m, budget)
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


def simplify(e: Expr) -> Expr:
    """Canonical linear form of `e` as written (no rules applied)."""
    return _canonical(e, _NO_RULES, 0)


def rewrite_and_simplify(m: RewriteMap, e: Expr, max_chain: int | None = None) -> Expr:
    """Canonical linear form of `e` with at most `max_chain` successive rule
    applications along any chain (None follows chains to the end)."""
    return _canonical(e, m, max_chain)


def record(m: RewriteMap, var: str, rhs: Expr) -> RewriteMap:
    """Chronological recording of an assignment to `var` whose right-hand
    side the caller has put in canonical form as `rhs`: rewritten through
    `m`, so the rule refers to current values only, or only simplified when
    chains are truncated at evaluation time instead.

    The old value of `var` is dead: rules mentioning it on either side are
    dropped.  A nondeterministic right-hand side merely invalidates, and so
    does a self-referential one (e.g. ``x = x + 1`` with no rule for x),
    which cannot be expressed as a rule about current values.
    """
    out = m.drop_mentioning(var)
    if expr_has_nondet(rhs) or var in expr_vars(rhs):
        return out
    return RewriteMap(out.rules + ((var, rhs),))


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
    its rewritten, simplified form; the meet of the two interval results is
    used.  By default chains are followed exhaustively, and an assignment
    records the rewritten expression it was just evaluated on, so stored
    rules refer to current values only.  With ``truncate_depth=d``, an
    assignment records only ``simplify`` of its right-hand side, and
    evaluation follows at most ``d`` rule applications along any chain.
    Truncation is not monotone: a shallower depth can give strictly more
    precise intervals (see the module docstring).
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
    # Per assignment label, what a truncated run records: `simplify` of its
    # right-hand side, which depends on the label alone.
    simplified: dict[int, Expr] = {}

    def transfer(label, state: _State) -> _State:
        env, rules = state
        if env.bottom:
            return _BOTTOM_STATE
        if isinstance(label, AssignLabel):
            memo = rewritten.get(id(label))
            if memo is None or memo[0] is not rules:
                rhs = rewrite_and_simplify(rules, label.expr, depth)
                stored = rhs if depth is None else simplified.get(id(label))
                if stored is None:
                    stored = simplified[id(label)] = simplify(label.expr)
                memo = rewritten[id(label)] = (rules, rhs, record(rules, label.var, stored))
            plain = eval_expr(label.expr, env)
            new_env = env.set(label.var, plain.meet(eval_expr(memo[1], env)))
            if new_env.bottom:
                return _BOTTOM_STATE
            return _new(_State, (new_env, memo[2]))
        if isinstance(label, AssumeLabel):
            memo = rewritten.get(id(label))
            if memo is None or memo[0] is not rules:
                memo = rewritten[id(label)] = (rules, _rewritten_cond(label.cond, rules, depth))
            env = filter_cond(label.cond, env)
            env = filter_cond(memo[1], env)
            return _new(_State, (env, rules)) if not env.bottom else _BOTTOM_STATE
        return state

    states = chaotic_iteration(
        cfg, _State(entry_env, _NO_RULES), _BOTTOM_STATE, transfer, widen_delay, narrow_passes
    )
    envs = {loc: s.env for loc, s in states.items()}
    return AnalysisResult(envs, assert_verdicts(cfg, envs))
