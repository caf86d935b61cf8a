"""Exact least-fixpoint solving of min/max/plus-constant bound equations.

Programs in a restricted fragment (assignments ``v = c`` and ``v = v + c``,
guards comparing ``v`` with constants, joins, loops) induce one equation per
location for the least inductive upper bound of ``v`` there: guards that cap
the bound contribute ``min``, joins contribute ``max``, increments add a
constant, and the entry contributes its bound as a constant.  Lower bounds
come from the same machinery run on the negated program (``v -> -v``), so
there is a single solving code path.  Bound expressions and systems are
records (``lang.class_checked``), so ``BMin(a, b) != BMax(a, b)``.

Two independent solvers compute the least solution over ZZ extended with
symbolic infinities:

* ``solve_exhaustive`` lists what each equation can reduce to under its
  min/max choices (a constant, or one variable plus an offset), enumerates
  every combination of those links, which are exactly the systems that every
  argument selection of every min/max node induces, solves each chain
  system, and keeps solutions that actually solve the original equations;
  the pointwise least survivor is the least fixpoint.
* ``solve_policy_iteration`` folds out the copies ``x = y`` first, which
  is exact (each equals the end of its chain of copies at every fixpoint),
  then splits the rest into the strongly connected components of its
  references and solves them in dependency order.  An equation on no cycle
  is evaluated once.  On each cyclic component it ascends through
  selections of the component's max nodes only and solves each induced
  min-system exactly: a counting pass finds the variables that must leave
  -oo, and a Bellman-Ford pass from +oo computes the greatest solution on
  them (+oo where no constant is reachable).  Strict-improvement switching
  keeps the current valuation feasible, which makes that greatest solution
  the least one above it.  No step's cost depends on the sizes of the
  constants, and a round costs only the size of its component.

Both must agree with each other and, on bounded programs, with
``bounded_concrete_oracle``, which enumerates values one at a time with
``lru.explore``, the package's per-state explicit-state search.

A caveat that matters for exactness: an equation in this language cannot
express "bottom unless the guard is satisfiable" (every expressible map moves
by at most one when its input moves by one, but that gate needs an infinite
jump).  Guards therefore refine only the bound they cap and pass through
otherwise, which matches the least inductive invariant exactly whenever every
guard edge is live at that invariant; a dead guard can only make the solved
bound larger, never smaller.
"""

from __future__ import annotations

import itertools
import operator
import sys
from collections import deque
from typing import Mapping, NamedTuple

from .cfg import AccessLabel, AssignLabel, AssumeLabel, Cfg
from .intervals import EMPTY, NEG_INF, POS_INF, Bound, Interval, _Inf, _new, badd
from .lang import FLIPPED_OP, BinOp, CondNondet, Const, Expr, Var, class_checked, pretty_cond, pretty_expr
from .lru import explore


class UnsupportedConstructError(Exception):
    """The graph leaves the extractable fragment; names the offending label."""


class CapExceededError(Exception):
    """The exhaustive solver refuses systems with too many min/max nodes."""


class RangeExceededError(Exception):
    """The concrete oracle saw a value outside its declared range."""


# ---------------------------------------------------------------------------
# Expressions and systems
# ---------------------------------------------------------------------------


@class_checked
class BConst(NamedTuple):
    value: Bound


@class_checked
class BRef(NamedTuple):
    name: str


@class_checked
class BAdd(NamedTuple):
    expr: "BoundExpr"
    offset: int


@class_checked
class BMin(NamedTuple):
    left: "BoundExpr"
    right: "BoundExpr"


@class_checked
class BMax(NamedTuple):
    left: "BoundExpr"
    right: "BoundExpr"


BoundExpr = BConst | BRef | BAdd | BMin | BMax


def badd_expr(e: BoundExpr, c: int) -> BoundExpr:
    if c == 0:
        return e
    if isinstance(e, BConst):
        return BConst(badd(e.value, c))
    if isinstance(e, BAdd):
        return badd_expr(e.expr, e.offset + c)
    return BAdd(e, c)


def bmin(a: BoundExpr, b: BoundExpr) -> BoundExpr:
    if a == b:
        return a
    if isinstance(a, BConst):
        if a.value is POS_INF:
            return b
        if a.value is NEG_INF:
            return a
        if isinstance(b, BConst):
            return a if a.value <= b.value else b
    if isinstance(b, BConst):
        if b.value is POS_INF:
            return a
        if b.value is NEG_INF:
            return b
    return BMin(a, b)


def bmax(a: BoundExpr, b: BoundExpr) -> BoundExpr:
    if a == b:
        return a
    if isinstance(a, BConst):
        if a.value is NEG_INF:
            return b
        if a.value is POS_INF:
            return a
        if isinstance(b, BConst):
            return a if a.value >= b.value else b
    if isinstance(b, BConst):
        if b.value is NEG_INF:
            return a
        if b.value is POS_INF:
            return b
    return BMax(a, b)


@class_checked
class BoundSystem(NamedTuple):
    """Equations in insertion order; every referenced variable is defined."""

    equations: tuple[tuple[str, BoundExpr], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.equations)


def eval_bexpr(e: BoundExpr, valuation: Mapping[str, Bound]) -> Bound:
    if isinstance(e, BConst):
        return e.value
    if isinstance(e, BRef):
        return valuation[e.name]
    if isinstance(e, BAdd):
        return badd(eval_bexpr(e.expr, valuation), e.offset)
    if isinstance(e, BMin):
        return min(eval_bexpr(e.left, valuation), eval_bexpr(e.right, valuation))
    if isinstance(e, BMax):
        return max(eval_bexpr(e.left, valuation), eval_bexpr(e.right, valuation))
    raise TypeError(f"unknown bound expression {e!r}")


def is_fixpoint(system: BoundSystem, valuation: Mapping[str, Bound]) -> bool:
    return all(eval_bexpr(rhs, valuation) == valuation[name] for name, rhs in system.equations)


# ---------------------------------------------------------------------------
# Extraction from CFGs
# ---------------------------------------------------------------------------


def _excerpt(value, width: int = 60) -> str:
    """`value` as text cut to its first `width` characters, for a one-line
    error.  An int past str()'s digit limit is described, not converted."""
    limit = sys.get_int_max_str_digits()
    if isinstance(value, int) and limit and abs(value) >= 10**limit:
        return f"<an integer of more than {limit} digits>"
    text = str(value)
    return text if len(text) <= width else text[:width] + "..."


def _expr_shape(e: Expr, var: str) -> tuple[str, int]:
    """Classify an assignment right-hand side as ("const", c) or ("inc", c)."""
    if isinstance(e, Const):
        return ("const", e.value)
    if isinstance(e, Var) and e.name == var:
        return ("inc", 0)
    if isinstance(e, BinOp) and isinstance(e.left, Var) and e.left.name == var and isinstance(e.right, Const):
        return ("inc", e.right.value if e.op == "+" else -e.right.value)
    if isinstance(e, BinOp) and e.op == "+" and isinstance(e.right, Var) and e.right.name == var and isinstance(e.left, Const):
        return ("inc", e.left.value)
    shown = _excerpt(pretty_expr(e))
    raise UnsupportedConstructError(f"assignment to {var!r} outside the fragment: {shown!r}")


_COMPARE = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "!=": operator.ne, ">=": operator.ge, ">": operator.gt,
}


def _edge_shape(label, var: str, graph: str) -> tuple[str, int]:
    """What an edge does to `var`: ("keep", 0), ("const", c), ("inc", c),
    ("false", 0) for a guard that never holds, or (relop, c) for the guard
    `var relop c`.  `graph` names the graph in the access error."""
    if isinstance(label, AccessLabel):
        raise UnsupportedConstructError(f"memory access in a {graph}")
    if isinstance(label, AssignLabel):
        if label.var != var:
            raise UnsupportedConstructError(f"assignment to foreign variable {label.var!r}")
        return _expr_shape(label.expr, var)
    if not isinstance(label, AssumeLabel) or isinstance(label.cond, CondNondet):
        return ("keep", 0)
    cond = label.cond
    left, op, right = cond.left, cond.op, cond.right
    if isinstance(left, Const) and isinstance(right, Const):
        return ("keep", 0) if _COMPARE[op](left.value, right.value) else ("false", 0)
    if isinstance(left, Const) and isinstance(right, Var):
        left, op, right = right, FLIPPED_OP[op], left
    if not (isinstance(left, Var) and isinstance(right, Const)):
        raise UnsupportedConstructError(f"guard outside the fragment: {_excerpt(pretty_cond(cond))!r}")
    if left.name != var:
        raise UnsupportedConstructError(f"guard on foreign variable: {_excerpt(pretty_cond(cond))!r}")
    return (op, right.value)


def _bound_shapes(cfg: Cfg, var: str) -> dict[str, list[tuple[BRef, str, int]]]:
    """Per location, ``(BRef(src), op, c)`` with ``(op, c)`` from
    `_edge_shape` for each incoming edge, in edge order.  Each edge is
    classified once per graph and variable (``Cfg.bound_shapes``), and the
    first edge outside the fragment raises."""
    shapes = cfg.bound_shapes.get(var)
    if shapes is None:
        shapes = {loc: [] for loc in cfg.locations}
        for edge in cfg.edges:
            op, c = _edge_shape(edge.label, var, "numeric fragment graph")
            if op == "==" or op == "!=":
                # An equality's complement shaves one endpoint, which no
                # min/max/plus-constant expression can do exactly.
                raise UnsupportedConstructError(
                    f"(dis)equality guard outside the fragment: {_excerpt(pretty_cond(edge.label.cond))!r}"
                )
            shapes[edge.dst].append((BRef(edge.src), op, c))
        cfg.bound_shapes[var] = shapes
    return shapes


def extract_upper_bounds(
    cfg: Cfg, var: str, entry_bound: Bound, negate: bool = False
) -> BoundSystem:
    """One equation per location for the least upper bound of `var`.

    With ``negate=True`` the graph is read as operating on ``-var`` (constants
    and increments flip sign, guard directions reverse), which turns the same
    extraction into a lower-bound solver; `entry_bound` must already be the
    bound of the negated variable in that case.  Both orientations read one
    classification of the edges (``_bound_shapes``).
    """
    sign = -1 if negate else 1
    equations: list[tuple[str, BoundExpr]] = []
    for loc, ins in _bound_shapes(cfg, var).items():
        if loc == cfg.entry:
            equations.append((loc, BConst(entry_bound)))
            continue
        rhs: BoundExpr | None = None
        for base, op, c in ins:
            if op == "keep":
                expr: BoundExpr = base
            elif op == "const":
                expr = BConst(sign * c)
            elif op == "inc":
                expr = badd_expr(base, sign * c)
            elif op == "false":
                expr = BConst(NEG_INF)
            else:
                if negate:
                    op, c = FLIPPED_OP[op], -c
                if op == "<":
                    expr = bmin(base, BConst(c - 1))
                elif op == "<=":
                    expr = bmin(base, BConst(c))
                else:  # > or >=: no upper refinement is expressible
                    expr = base
            # bmax(BConst(-oo), e) is e, so the fold starts at the first one
            rhs = expr if rhs is None else bmax(rhs, expr)
        equations.append((loc, BConst(NEG_INF) if rhs is None else rhs))
    return BoundSystem(tuple(equations))


# ---------------------------------------------------------------------------
# Exhaustive case analysis
# ---------------------------------------------------------------------------


def _selector_nodes(system: BoundSystem) -> int:
    """The number of min/max nodes in `system`."""
    return sum(_count_selectors(rhs) for _, rhs in system.equations)


def _count_selectors(e: BoundExpr) -> int:
    # Module-level, as ``_compile_node`` is, so that counting leaves no reference cycle.
    if isinstance(e, (BMin, BMax)):
        return 1 + _count_selectors(e.left) + _count_selectors(e.right)
    return _count_selectors(e.expr) if isinstance(e, BAdd) else 0


def _links(e: BoundExpr) -> list[tuple[str, Bound | str, int]]:
    """Every ("const", v, 0) or ("ref", w, offset) that `e` reduces to under
    some choice of argument at each of its min/max nodes."""
    if isinstance(e, BConst):
        return [("const", e.value, 0)]
    if isinstance(e, BRef):
        return [("ref", e.name, 0)]
    if isinstance(e, BAdd):
        return [
            ("const", badd(payload, e.offset), 0) if kind == "const" else ("ref", payload, off + e.offset)
            for kind, payload, off in _links(e.expr)
        ]
    return _links(e.left) + _links(e.right)


def _resolve_links(links: dict[str, tuple[str, Bound | str, int]]) -> tuple[dict[str, tuple], int]:
    """Resolve the functional graph of one link per variable.

    Returns per variable either ("const", value) or ("cycle", k): the
    variable is grounded in a constant, or its chain ends in the k-th closed
    cycle.  A cycle is only ever tried at an infinity, which absorbs every
    offset, so none is kept for it.  Each chain is walked until it reaches a
    constant, an already resolved variable or a revisited one, and the walked
    path is then resolved back to front.
    """
    resolution: dict[str, tuple] = {}
    n_cycles = 0
    for start in links:
        path: dict[str, None] = {}  # insertion-ordered; membership in O(1)
        cur = start
        while cur not in resolution:
            kind, payload, _ = links[cur]
            if kind == "const":
                resolution[cur] = ("const", payload)
            elif cur in path:
                resolution[cur] = ("cycle", n_cycles)
                n_cycles += 1
            else:
                path[cur] = None
                cur = payload
        for v in reversed(path):
            if v not in resolution:  # only a cycle's entry is resolved already
                _, w, off = links[v]
                res = resolution[w]
                resolution[v] = ("const", badd(res[1], off)) if res[0] == "const" else res
    return resolution, n_cycles


def solve_exhaustive(system: BoundSystem, cap: int = 20) -> dict[str, Bound]:
    """Least solution by enumerating every combination of the equations'
    links (``_links``), with at most `cap` min/max nodes in the system.

    These are the link systems of all argument selections of all min/max
    nodes: choices in different equations are independent, every leaf is
    reached by some choice, and a node in a branch that is not taken only
    repeats a system.  Chains grounded in constants propagate directly;
    closed cycles are tried at both infinities.  Assembled valuations are
    kept only if they solve the original system, which makes every survivor
    a genuine fixpoint.  The least fixpoint is always among the survivors:
    picking, per node, an argument that attains the extremum both at the
    least fixpoint and at its Kleene stage yields constant-grounded chains
    for every finite component (the stage strictly decreases along the
    selected links) and sign-homogeneous cycles for the infinite ones.  The
    pointwise minimum of the survivors is therefore the answer and must
    itself be a survivor.
    """
    nodes = _selector_nodes(system)
    if nodes > cap:
        raise CapExceededError(f"{nodes} min/max nodes exceed the cap of {cap}")
    names = system.names()
    candidates: list[dict[str, Bound]] = []
    seen: set[tuple] = set()
    for choice in itertools.product(*(_links(rhs) for _, rhs in system.equations)):
        resolution, n_cycles = _resolve_links(dict(zip(names, choice)))
        for combo in itertools.product((NEG_INF, POS_INF), repeat=n_cycles):
            val = {v: x if tag == "const" else combo[x] for v, (tag, x) in resolution.items()}
            if is_fixpoint(system, val):
                key = tuple(val[n] for n in names)
                if key not in seen:
                    seen.add(key)
                    candidates.append(val)
    if not candidates:
        raise RuntimeError("no selection yields a fixpoint; the system is inconsistent")
    least = {n: min(c[n] for c in candidates) for n in names}
    if not any(c == least for c in candidates):
        raise RuntimeError("pointwise minimum of fixpoints is not itself a fixpoint")
    return least


# ---------------------------------------------------------------------------
# Ascending policy iteration
# ---------------------------------------------------------------------------


def _compile(system: BoundSystem) -> tuple[list[tuple], list[list[int]], list[tuple[int, int]], list[int]]:
    """Right-hand sides as nested tuples over variable indices, copies folded out.

    A copy ``x = y`` reads the first non-copy equation along its chain of
    copies, or one extra equation ``-oo`` where the chain closes a cycle of
    copies only (see solve_policy_iteration), and only the other equations
    are compiled.  Each chain is walked once, its copies marked meanwhile.

    Nodes are ("const", value), ("ref", index), ("add", child, offset),
    ("min", left, right) and ("max", node, left, right), where `node` is the
    max node's position in the policy list.  Returns the compiled right-hand
    sides, the indices each one references, the range of policy positions
    each one holds (an equation's max nodes are numbered consecutively),
    and the compiled index each variable of `system` reads, in order."""
    where: dict[str, int] = {}
    copied: dict[str, str] = {}
    kept = []
    for name, e in system.equations:
        if type(e) is BRef:
            copied[name] = e.name
        else:
            where[name] = len(kept)
            kept.append(e)
    bottom = len(kept)  # the extra -oo equation, and the mark of the chain being walked
    for name in copied:
        path = []
        while name not in where:
            where[name] = bottom
            path.append(name)
            name = copied[name]
        where.update(dict.fromkeys(path, where[name]))
    if bottom in where.values():
        kept.append(BConst(NEG_INF))
    refs: list[list[int]] = []
    spans: list[tuple[int, int]] = []
    n_max = [0]
    rhs = []
    for e in kept:
        first = n_max[0]
        refs.append([])
        rhs.append(_compile_node(e, where, refs[-1], n_max))
        spans.append((first, n_max[0]))
    return rhs, refs, spans, list(map(where.__getitem__, system.names()))


def _compile_node(e: BoundExpr, index: dict[str, int], uses: list[int], n_max: list[int]) -> tuple:
    """One node of ``_compile``, numbering max nodes from ``n_max[0]`` in
    preorder.  A module-level function, so that a compilation leaves no
    reference cycle (a nested recursive closure refers to itself)."""
    if isinstance(e, BConst):
        return ("const", e.value)
    if isinstance(e, BRef):
        uses.append(index[e.name])
        return ("ref", uses[-1])
    if isinstance(e, BAdd):
        return ("add", _compile_node(e.expr, index, uses, n_max), e.offset)
    if isinstance(e, BMin):
        return ("min", _compile_node(e.left, index, uses, n_max), _compile_node(e.right, index, uses, n_max))
    n_max[0] += 1
    return ("max", n_max[0] - 1, _compile_node(e.left, index, uses, n_max),
            _compile_node(e.right, index, uses, n_max))


def _components(refs: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of the graph with an edge from each
    variable to every variable it references, each listed after every
    component it references (Tarjan's algorithm, with an explicit stack).
    A variable whose component is out gets the number `n`, which no low
    link reaches, so no separate on-stack flag is kept."""
    n = len(refs)
    number = [-1] * n
    low = [0] * n
    stack: list[int] = []
    out: list[list[int]] = []
    count = 0
    for root in range(n):
        if number[root] >= 0:
            continue
        number[root] = low[root] = count
        count += 1
        work = [(root, iter(refs[root]), len(stack))]
        stack.append(root)
        while work:
            v, todo, at = work[-1]
            for w in todo:
                if number[w] < 0:
                    number[w] = low[w] = count
                    count += 1
                    work.append((w, iter(refs[w]), len(stack)))
                    stack.append(w)
                    break
                if number[w] < low[v]:
                    low[v] = number[w]
            else:
                work.pop()
                if low[v] == number[v]:
                    component = stack[at:]
                    del stack[at:]
                    for w in component:
                        number[w] = n
                    out.append(component)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return out


def _evaluate_and_switch(e: tuple, rho: list[Bound], policy: list[int]) -> Bound:
    """Value of `e` at `rho`; every max node below `e` whose unselected
    argument is strictly larger there switches to it."""
    tag = e[0]
    if tag == "const":
        return e[1]
    if tag == "ref":
        return rho[e[1]]
    if tag == "add":
        return badd(_evaluate_and_switch(e[1], rho, policy), e[2])
    left = _evaluate_and_switch(e[-2], rho, policy)
    right = _evaluate_and_switch(e[-1], rho, policy)
    if tag == "min":
        return min(left, right)
    node = e[1]
    if policy[node] == 0 and right > left:
        policy[node] = 1
    elif policy[node] == 1 and left > right:
        policy[node] = 0
    return max(left, right)


def _flatten(
    e: tuple, policy: list[int], position: dict[int, int], rho: list[Bound]
) -> tuple[Bound, list[tuple[int, int]]]:
    """`e` under `policy` as a min over terms: the least constant term (+oo
    if there is none) and the (position, offset) references to the
    variables in `position`.  A reference to any other variable counts as
    the constant term of its value in `rho`."""
    least: Bound = POS_INF
    refs: list[tuple[int, int]] = []
    stack = [(e, 0)]
    while stack:
        sub, off = stack.pop()
        tag = sub[0]
        if tag == "const":
            least = min(least, badd(sub[1], off))
        elif tag == "ref":
            if sub[1] in position:
                refs.append((position[sub[1]], off))
            else:
                least = min(least, badd(rho[sub[1]], off))
        elif tag == "add":
            stack.append((sub[1], off + sub[2]))
        elif tag == "min":
            stack.append((sub[1], off))
            stack.append((sub[2], off))
        else:
            stack.append((sub[2 + policy[sub[1]]], off))
    return least, refs


def _solve_min_system(
    flat: list[tuple[Bound, list[tuple[int, int]]]], rho: list[Bound]
) -> list[Bound]:
    """Least solution above `rho` of ``x_i = min(k, x_j + c for (j, c) in
    refs)`` with ``(k, refs) = flat[i]``, given that `rho` is feasible (see
    solve_policy_iteration).

    A variable leaves -oo iff it is above -oo in `rho` or all of its terms
    are (a counting worklist).  On those live variables the greatest
    solution is computed by Bellman-Ford from +oo: a variable's value is the
    least constant it reaches along term references plus the offsets on the
    way, and +oo when it reaches none.
    """
    n = len(flat)
    consts = [k for k, _ in flat]
    users: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (_, refs) in enumerate(flat):
        for j, c in refs:
            users[j].append((i, c))

    live = [v is not NEG_INF for v in rho]
    pending = [len(refs) for _, refs in flat]
    order = [i for i in range(n) if live[i] or (pending[i] == 0 and consts[i] is not NEG_INF)]
    for i in order:
        live[i] = True
    for j in order:  # grows while it is walked
        for i, _ in users[j]:
            if not live[i]:
                pending[i] -= 1
                if pending[i] == 0 and consts[i] is not NEG_INF:
                    live[i] = True
                    order.append(i)
    # Only a variable above -oo in `rho` can be live with a -oo term; its
    # least solution would drop below `rho`.
    for j in range(n):
        if (consts[j] is NEG_INF and live[j]) or (
            not live[j] and any(live[i] for i, _ in users[j])
        ):
            raise RuntimeError("policy iteration fell below the current valuation")

    # None stands for +oo
    dist = [k if alive and not isinstance(k, _Inf) else None for k, alive in zip(consts, live)]
    queued = [d is not None for d in dist]
    queue = deque(i for i in range(n) if queued[i])
    limit = (n + 1) ** 2
    pops = 0
    while queue:
        j = queue.popleft()
        queued[j] = False
        pops += 1
        if pops > limit:
            raise RuntimeError("negative cycle in a policy's min-system")
        reach = dist[j]
        for i, c in users[j]:
            if live[i] and (dist[i] is None or reach + c < dist[i]):
                dist[i] = reach + c
                if not queued[i]:
                    queued[i] = True
                    queue.append(i)

    out: list[Bound] = []
    for i in range(n):
        value = NEG_INF if not live[i] else POS_INF if dist[i] is None else dist[i]
        if value < rho[i]:
            raise RuntimeError("policy iteration fell below the current valuation")
        out.append(value)
    return out


def solve_policy_iteration(system: BoundSystem) -> dict[str, Bound]:
    """Ascending policy iteration over the max nodes, one strongly connected
    component of the reference graph at a time.

    Copies are folded out first (``_compile``), which is exact: a copy
    equals the end of its chain at every fixpoint, and a cycle of copies
    only may take any value, so by monotonicity the least one puts it at -oo.

    Components are solved in dependency order, so every variable outside
    the current one that it references is solved already and acts as a
    constant.  That order yields the least fixpoint mu of the whole system.
    Take a component C, with mu already found on the components before it,
    and let nu be the least fixpoint of C's equations at those values.  mu
    on C is a fixpoint of them, so nu <= mu there.  Conversely, the
    valuation that is nu on C and mu elsewhere takes every right-hand side
    to at most its variable: the earlier components are unchanged, C gets
    nu, and every other component sees values no larger than mu's.  By
    Knaster-Tarski mu lies below every such valuation, so mu = nu on C.

    An equation that is a component of its own and does not reference
    itself is evaluated once.  Any other component starts from -oo on its
    variables and the policy that selects, at each of its max nodes, an
    argument attaining the maximum there (the left one on ties).  Each round
    solves the min-system the policy induces on the component exactly
    (``_solve_min_system``), with the solved variables it references folded
    into its constants, then switches every max node of the component whose
    other argument is strictly larger at the new valuation; it stops when no
    node switches, and the component's valuation is then a fixpoint of its
    equations.

    Within a component, a valuation is feasible for a policy when no cycle
    of the policy's references among its finite variables is tight there
    (every reference on the cycle attains the value of the variable that
    holds it).  The all--oo start is feasible, and switching keeps it
    feasible, because a reference through a switched max node lies strictly
    above its variable's value.  Above a feasible valuation, any solution of
    the min-system lower than the greatest one on the live variables would
    contain a tight cycle, so the greatest solution is the least one above
    the valuation and never passes the component's least fixpoint (Gawlitza
    and Seidl, ESOP 2007).  It is feasible in turn: a cycle tight there has
    weight zero, so it was tight at the previous valuation.  Strict
    improvement bounds the rounds, and no round's cost depends on the sizes
    of the constants.
    """
    rhs, refs, spans, reads = _compile(system)
    rho: list[Bound] = [NEG_INF] * len(rhs)
    policy = [0] * (spans[-1][1] if spans else 0)
    for component in _components(refs):
        if len(component) == 1 and component[0] not in refs[component[0]]:
            i = component[0]
            rho[i] = _evaluate_and_switch(rhs[i], rho, policy)  # its switches are never read
            continue
        position = {i: p for p, i in enumerate(component)}
        switching = [i for i in component if spans[i][0] < spans[i][1]]
        for i in switching:
            _evaluate_and_switch(rhs[i], rho, policy)
        flat = [_flatten(rhs[i], policy, position, rho) for i in component]
        local: list[Bound] = [NEG_INF] * len(component)
        while True:
            local = _solve_min_system(flat, local)
            for i, value in zip(component, local):
                rho[i] = value
            changed = []
            for i in switching:
                lo, hi = spans[i]
                before = policy[lo:hi]
                _evaluate_and_switch(rhs[i], rho, policy)
                if policy[lo:hi] != before:
                    changed.append(i)
            if not changed:
                break
            for i in changed:
                flat[position[i]] = _flatten(rhs[i], policy, position, rho)
    solution = dict(zip(system.names(), map(rho.__getitem__, reads)))
    if not is_fixpoint(system, solution):
        raise RuntimeError("policy iteration did not land on a fixpoint")
    return solution


# ---------------------------------------------------------------------------
# Explicit-state oracle and the combined interval view
# ---------------------------------------------------------------------------


def bounded_concrete_oracle(
    cfg: Cfg,
    var: str,
    entry: Interval,
    value_range: tuple[int, int] = (-1024, 1100),
    budget: int = 1_000_000,
) -> dict[str, tuple[int, int] | None]:
    """Exact per-location hull of the reachable values of `var`.

    Enumerates (location, value) pairs with ``lru.explore``; the program
    may declare no variable but `var`.  Every value must stay within
    `value_range` (otherwise the program is not oracle-suitable and
    RangeExceededError is raised); nondeterministic expressions are
    rejected, nondeterministic branch conditions explore both sides.
    """
    lo, hi = value_range
    variables = cfg.variables if cfg.variables else (var,)
    if var not in variables:
        raise ValueError(f"unknown variable {var!r}")
    if any(v != var for v in variables):
        raise UnsupportedConstructError(
            "the concrete oracle requires a single-variable program"
        )
    if entry.is_empty:
        return {loc: None for loc in cfg.locations}
    if isinstance(entry.lo, _Inf) or isinstance(entry.hi, _Inf):
        raise RangeExceededError("entry interval must be finite for enumeration")
    if entry.lo < lo or entry.hi > hi:
        raise RangeExceededError(f"entry interval {_excerpt(entry)} outside {_excerpt(value_range)}")

    def check(value: int) -> int:
        if value < lo or value > hi:
            raise RangeExceededError(f"value {_excerpt(value)} outside {_excerpt(value_range)}")
        return value

    def step(label):
        op, c = _edge_shape(label, var, "numeric graph")
        if op == "keep":
            return lambda value: value
        if op == "const":
            return lambda value: check(c)
        if op == "inc":
            return lambda value: check(value + c)
        if op == "false":
            return lambda value: None
        holds = _COMPARE[op]
        return lambda value: value if holds(value, c) else None

    reached = explore(cfg, range(entry.lo, entry.hi + 1), step, budget)
    return {
        loc: (min(vals), max(vals)) if (vals := reached.get(loc)) else None
        for loc in cfg.locations
    }


def solve_intervals_exact(
    cfg: Cfg, var: str, entry: Interval, solver=solve_policy_iteration
) -> dict[str, Interval]:
    """Exact least-invariant intervals for `var` from the two bound systems."""
    upper = solver(extract_upper_bounds(cfg, var, entry.hi))
    lower_neg = solver(extract_upper_bounds(cfg, var, -entry.lo, negate=True))
    locations = cfg.locations
    los = map(operator.neg, map(lower_neg.__getitem__, locations))
    return {
        loc: EMPTY if hi is NEG_INF or lo is POS_INF or lo > hi else _new(Interval, (lo, hi))
        for loc, lo, hi in zip(locations, los, map(upper.__getitem__, locations))
    }
