"""Labeled control-flow graphs and the two ways to obtain one.

A graph is a set of named locations with a distinguished entry (which has no
incoming edges) and labeled edges.  Labels are assignments, assumptions
(branch conditions and their complements), memory accesses carrying a unique
site id, or no-ops.  Labels, edges and graphs are records
(``lang.class_checked``).  Structured programs are translated one statement
at a time; access graphs are read from a line-oriented text format::

    loc <name>
    entry <name>
    edge <src> <dst> [access <block>]

with ``#`` comments.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from typing import NamedTuple

from .lang import (
    Assert,
    Assign,
    AccessStmt,
    Cmp,
    Cond,
    CondNondet,
    Expr,
    If,
    ParseError,
    Program,
    Stmt,
    While,
    class_checked,
    negate_cond,
)


@class_checked
class Nop(NamedTuple):
    pass


@class_checked
class AssignLabel(NamedTuple):
    var: str
    expr: Expr


@class_checked
class AssumeLabel(NamedTuple):
    cond: Cond


@class_checked
class AccessLabel(NamedTuple):
    block: str
    site: int


Label = Nop | AssignLabel | AssumeLabel | AccessLabel


@class_checked
class Edge(NamedTuple):
    src: str
    label: Label
    dst: str


@class_checked
class AssertSite(NamedTuple):
    """A checkable assertion: condition `cond` must hold at location `loc`."""

    sid: int
    loc: str
    cond: Cmp


@class_checked
class Cfg(namedtuple("Cfg", "locations entry edges asserts variables", defaults=((), ()))):
    """Tuples of ``locations``, ``Edge``s, ``AssertSite``s and ``variables``, and
    the ``entry``; a record with an instance dict for ``out`` and the properties."""

    def __init__(self, *fields, **named):
        out: dict[str, list[Edge]] = {loc: [] for loc in self.locations}
        for e in self.edges:
            out[e.src].append(e)
        self._out = out

    def out(self, loc: str) -> list[Edge]:
        return self._out[loc]

    def blocks(self) -> tuple[str, ...]:
        """Distinct accessed blocks, sorted."""
        return tuple(sorted({e.label.block for e in self.edges if isinstance(e.label, AccessLabel)}))

    @cached_property
    def access_sites(self) -> tuple[tuple[int, str, str], ...]:
        """``(site, block, src)`` per access edge, in edge order."""
        return tuple((e.label.site, e.label.block, e.src)
                     for e in self.edges if isinstance(e.label, AccessLabel))

    @cached_property
    def _search(self) -> tuple[tuple[str, ...], frozenset[str]]:
        """``_depth_first`` of the graph, run once per graph and frozen, so
        that every reader sees the same result."""
        postorder, targets = _depth_first(self)
        return tuple(postorder), frozenset(targets)

    @cached_property
    def access_index(self) -> "AccessIndex":
        """The graph with locations and blocks interned to integers, built
        once per graph for the analyses that run over it many times."""
        order = list(reversed(self._search[0]))
        reached = set(order)
        order += [loc for loc in self.locations if loc not in reached]
        where = {loc: i for i, loc in enumerate(order)}
        blocks = {b: i for i, b in enumerate(self.blocks())}
        succ = tuple(
            tuple(
                (where[e.dst], 1 << blocks[e.label.block] if isinstance(e.label, AccessLabel) else 0)
                for e in self._out[loc]
            )
            for loc in order
        )
        pred: list[list[int]] = [[] for _ in order]
        for src, edges in enumerate(succ):
            for dst, _bit in edges:
                pred[dst].append(src)
        return AccessIndex(tuple(order), where, blocks, succ, tuple(map(tuple, pred)))

    @cached_property
    def age_passes(self) -> dict:
        """``agebounds.age_pass`` results keyed by associativity and initial
        contents, so that each analysis of one graph reads the same pass."""
        return {}

    @cached_property
    def bound_shapes(self) -> dict:
        """``boundsolve`` edge classifications keyed by variable, so that
        both bound systems of one variable read the same classification."""
        return {}


@class_checked
class AccessIndex(NamedTuple):
    """Locations are numbered in reverse postorder of a depth-first search
    from the entry (so the entry is 0), followed by the unreachable ones,
    and blocks in sorted order; ``where`` maps a location to its number.
    ``succ[loc]`` lists ``(dst, bit)`` per out-edge in edge order, where bit
    is ``1 << block`` for an access and 0 on an edge that accesses nothing;
    ``pred[loc]`` lists the source of each in-edge."""

    locations: tuple[str, ...]
    where: dict[str, int]
    blocks: dict[str, int]
    succ: tuple[tuple[tuple[int, int], ...], ...]
    pred: tuple[tuple[int, ...], ...]

    def reaching(self, targets: Iterable[str]) -> list[bool]:
        """Per location number, whether some location of `targets` can be
        reached from it (a location reaches itself): a backward search."""
        live = [False] * len(self.locations)
        stack = [self.where[loc] for loc in targets]
        while stack:
            loc = stack.pop()
            if not live[loc]:
                live[loc] = True
                stack.extend(self.pred[loc])
        return live


# ---------------------------------------------------------------------------
# Structured translation
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self):
        self.locations: list[str] = []
        self.edges: list[Edge] = []
        self.asserts: list[AssertSite] = []
        self.next_site = 0
        self.next_assert = 0

    def fresh(self) -> str:
        name = f"L{len(self.locations)}"
        self.locations.append(name)
        return name

    def edge(self, src: str, label: Label, dst: str) -> None:
        self.edges.append(Edge(src, label, dst))

    def branch(self, src: str, cond: Cond, yes: str, no: str) -> None:
        """The two edges out of an ``if`` or ``while`` head: no-ops for
        ``*``, otherwise the condition and its negation."""
        if isinstance(cond, CondNondet):
            self.edge(src, Nop(), yes)
            self.edge(src, Nop(), no)
        else:
            self.edge(src, AssumeLabel(cond), yes)
            self.edge(src, AssumeLabel(negate_cond(cond)), no)

    def stmt(self, s: Stmt, src: str) -> str:
        if isinstance(s, Assign):
            dst = self.fresh()
            self.edge(src, AssignLabel(s.var, s.expr), dst)
            return dst
        if isinstance(s, AccessStmt):
            dst = self.fresh()
            self.edge(src, AccessLabel(s.block, self.next_site), dst)
            self.next_site += 1
            return dst
        if isinstance(s, Assert):
            dst = self.fresh()
            self.asserts.append(AssertSite(self.next_assert, src, s.cond))
            self.next_assert += 1
            # Execution continues only on the asserted condition.
            self.edge(src, AssumeLabel(s.cond), dst)
            return dst
        if isinstance(s, If):
            join = self.fresh()
            then_in = self.fresh()
            else_in = self.fresh()
            self.branch(src, s.cond, then_in, else_in)
            then_out = self.block(s.then, then_in)
            self.edge(then_out, Nop(), join)
            else_out = self.block(s.orelse, else_in)
            self.edge(else_out, Nop(), join)
            return join
        if isinstance(s, While):
            # `src` is the loop head; the body's exit loops back to it.
            exit_loc = self.fresh()
            body_in = self.fresh()
            self.branch(src, s.cond, body_in, exit_loc)
            body_out = self.block(s.body, body_in)
            self.edge(body_out, Nop(), src)
            return exit_loc
        raise TypeError(f"unknown statement {s!r}")

    def block(self, stmts: tuple[Stmt, ...], src: str) -> str:
        cur = src
        for s in stmts:
            cur = self.stmt(s, cur)
        return cur


def build_cfg(program: Program) -> Cfg:
    """Translate a structured program.

    One location per program point.  The entry location never gains incoming
    edges: a leading no-op edge separates it from the first program point, so
    a loop at the start of the program is safe.  Declaration initializers do
    not produce edges; they determine the default entry environment instead
    (see :func:`entry_environment` users).
    """
    b = _Builder()
    entry = b.fresh()
    start = b.fresh()
    b.edge(entry, Nop(), start)
    b.block(program.body, start)
    return Cfg(
        locations=tuple(b.locations),
        entry=entry,
        edges=tuple(b.edges),
        asserts=tuple(b.asserts),
        variables=program.variables,
    )


# ---------------------------------------------------------------------------
# Access-graph input format
# ---------------------------------------------------------------------------


def parse_access_graph(text: str) -> Cfg:
    locations: list[str] = []
    seen: set[str] = set()
    entry: str | None = None
    raw_edges: list[tuple[str, str, str | None, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "loc" and len(parts) == 2:
            if parts[1] in seen:
                raise ParseError(f"duplicate location name {parts[1]!r}", lineno, 1)
            seen.add(parts[1])
            locations.append(parts[1])
        elif parts[0] == "entry" and len(parts) == 2:
            if entry is not None:
                raise ParseError("entry declared twice", lineno, 1)
            entry = parts[1]
        elif parts[0] == "edge" and len(parts) in (3, 5):
            block = None
            if len(parts) == 5:
                if parts[3] != "access":
                    raise ParseError(f"expected 'access', got {parts[3]!r}", lineno, 1)
                block = parts[4]
            raw_edges.append((parts[1], parts[2], block, lineno))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno, 1)
    if entry is None:
        raise ParseError("no entry declared", 1, 1)
    if entry not in seen:
        raise ParseError(f"entry {entry!r} is not a declared location", 1, 1)
    edges: list[Edge] = []
    site = 0
    for src, dst, block, lineno in raw_edges:
        if src not in seen:
            raise ParseError(f"edge from undeclared location {src!r}", lineno, 1)
        if dst not in seen:
            raise ParseError(f"edge to undeclared location {dst!r}", lineno, 1)
        if dst == entry:
            raise ParseError("entry location must have no incoming edges", lineno, 1)
        if block is None:
            edges.append(Edge(src, Nop(), dst))
        else:
            edges.append(Edge(src, AccessLabel(block, site), dst))
            site += 1
    return Cfg(locations=tuple(locations), entry=entry, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Helpers shared by the analyses
# ---------------------------------------------------------------------------


def _depth_first(cfg: Cfg) -> tuple[list[str], set[str]]:
    """Depth-first search from the entry, following edges in creation order:
    the locations it reaches in postorder, and the targets of its back
    edges."""
    postorder: list[str] = []
    targets: set[str] = set()
    color: dict[str, int] = {}  # 0 unvisited / missing, 1 on stack, 2 done
    stack: list[tuple[str, int]] = [(cfg.entry, 0)]
    color[cfg.entry] = 1
    while stack:
        loc, idx = stack[-1]
        outs = cfg.out(loc)
        if idx < len(outs):
            stack[-1] = (loc, idx + 1)
            nxt = outs[idx].dst
            c = color.get(nxt, 0)
            if c == 1:
                targets.add(nxt)
            elif c == 0:
                color[nxt] = 1
                stack.append((nxt, 0))
        else:
            color[loc] = 2
            postorder.append(loc)
            stack.pop()
    return postorder, targets


def back_edge_targets(cfg: Cfg) -> set[str]:
    """Targets of depth-first back edges; used as widening points.

    The DFS follows edges in creation order from the entry, so the result is
    deterministic.  Every cycle contains at least one back edge, hence
    widening at these locations cuts all cycles.  A new set on each call
    (callers may change it); the search itself runs once per graph.
    """
    return set(cfg._search[1])
