"""The benchmark's own references, independent of the program under test.

* Cache workloads: a concrete single-set LRU simulator driven along seeded
  random paths.  An observed hit forbids ``always-miss``, an observed miss
  forbids ``always-hit``, and a site is reachable exactly when plain graph
  search reaches its source (guards are erased in access graphs).
* Interval workloads: a concrete interpreter over a control-flow graph built
  from the generator's statement tree, with the same location names as the
  tool's structured translation (``L0`` entry, ``L1`` first program point,
  then one fresh location per program point in translation order).  Every
  visited value must lie in the reported interval, and no assertion reported
  proved may fail.

Each ``check_*`` function returns a list of human-readable problems; an
empty list means the output agrees with the reference.
"""

from __future__ import annotations

import random

INF = {"-oo": float("-inf"), "+oo": float("inf")}


# ---------------------------------------------------------------------------
# Cache: concrete LRU along sampled paths
# ---------------------------------------------------------------------------


def cache_reference(rng: random.Random, graph: dict, assoc: int, unknown_init: bool,
                    paths: int = 16, steps: int = 64) -> dict:
    n_locs, edges = graph["n_locs"], graph["edges"]
    out: list[list[int]] = [[] for _ in range(n_locs)]
    for idx, (src, _, _) in enumerate(edges):
        out[src].append(idx)
    sites = {}  # edge index -> site id, in edge order
    for idx, (_, _, block) in enumerate(edges):
        if block is not None:
            sites[idx] = len(sites)

    reachable = {0}
    stack = [0]
    while stack:
        loc = stack.pop()
        for idx in out[loc]:
            dst = edges[idx][1]
            if dst not in reachable:
                reachable.add(dst)
                stack.append(dst)

    blocks = sorted({b for _, _, b in edges if b is not None})
    hit_seen: set[int] = set()
    miss_seen: set[int] = set()
    for _ in range(paths):
        if unknown_init:
            universe = blocks + [f"~fresh{i}" for i in range(assoc)]
            cache = rng.sample(universe, rng.randint(0, assoc))
        else:
            cache = []
        loc = 0
        for _ in range(steps):
            if not out[loc]:
                break
            idx = rng.choice(out[loc])
            _, dst, block = edges[idx]
            if block is not None:
                if block in cache:
                    hit_seen.add(sites[idx])
                    cache.remove(block)
                else:
                    miss_seen.add(sites[idx])
                    del cache[assoc - 1:]
                cache.insert(0, block)
            loc = dst
    reachable_sites = {sites[i] for i in sites if edges[i][0] in reachable}
    return {"sites": len(sites), "reachable": reachable_sites, "hit": hit_seen, "miss": miss_seen}


def _site_problems(ref: dict, site: int, verdict: str, who: str) -> list[str]:
    problems = []
    if (verdict == "unreachable") == (site in ref["reachable"]):
        problems.append(f"site {site}: {who} says {verdict}, graph search disagrees")
    if verdict == "always-miss" and site in ref["hit"]:
        problems.append(f"site {site}: {who} says always-miss, a hit was observed")
    if verdict == "always-hit" and site in ref["miss"]:
        problems.append(f"site {site}: {who} says always-hit, a miss was observed")
    return problems


def check_cache(report: dict, ref: dict, compare: bool) -> list[str]:
    results = report.get("results", [])
    problems = []
    if sorted(r["site"] for r in results) != list(range(ref["sites"])):
        return ["report does not list every access site exactly once"]
    for r in results:
        site = r["site"]
        if compare:
            exact, oracle, approx = r["exact"], r["oracle"], r["approx"]
            if exact != oracle:
                problems.append(f"site {site}: exact {exact} != oracle {oracle}")
            if approx not in ("unknown", oracle):
                problems.append(f"site {site}: approx {approx} contradicts oracle {oracle}")
            problems += _site_problems(ref, site, oracle, "oracle")
        else:
            if r["method"] not in ("approx", "exact"):
                problems.append(f"site {site}: unexpected method tag {r['method']!r}")
            problems += _site_problems(ref, site, r["verdict"], r["method"])
    if compare and report.get("disagreements"):
        problems.append(f"report lists disagreements: {report['disagreements']}")
    return problems


# ---------------------------------------------------------------------------
# Intervals: concrete interpreter over the structured translation
# ---------------------------------------------------------------------------


class _Graph:
    """Locations ``L<k>`` in creation order; ``out[k]`` lists
    ``(kind, payload, dst)`` with kind ``nop``, ``assign`` or ``assume``."""

    def __init__(self, body: list):
        self.out: list[list[tuple]] = []
        self.asserts: list[tuple[int, int, tuple]] = []  # (sid, loc, cond)
        entry = self.fresh()
        start = self.fresh()
        self.out[entry].append(("nop", None, start))
        self.block(body, start)

    def fresh(self) -> int:
        self.out.append([])
        return len(self.out) - 1

    def block(self, stmts: list, src: int) -> int:
        for s in stmts:
            src = self.stmt(s, src)
        return src

    def branch(self, cond, src: int, yes: int, no: int) -> None:
        if cond is None:
            self.out[src] += [("nop", None, yes), ("nop", None, no)]
        else:
            self.out[src] += [("assume", cond, yes), ("assume", _negate(cond), no)]

    def stmt(self, s: tuple, src: int) -> int:
        kind = s[0]
        if kind == "assign":
            dst = self.fresh()
            self.out[src].append(("assign", (s[1], s[2]), dst))
            return dst
        if kind == "assert":
            dst = self.fresh()
            self.asserts.append((len(self.asserts), src, s[1]))
            self.out[src].append(("assume", s[1], dst))
            return dst
        if kind == "if":
            join, then_in, else_in = self.fresh(), self.fresh(), self.fresh()
            self.branch(s[1], src, then_in, else_in)
            self.out[self.block(s[2], then_in)].append(("nop", None, join))
            self.out[self.block(s[3], else_in)].append(("nop", None, join))
            return join
        exit_loc, body_in = self.fresh(), self.fresh()
        self.branch(s[1], src, body_in, exit_loc)
        self.out[self.block(s[2], body_in)].append(("nop", None, src))
        return exit_loc


_NEGATE = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


def _negate(cond: tuple) -> tuple:
    return (cond[0], _NEGATE[cond[1]], cond[2])


def _eval(expr: tuple, store: dict, rng: random.Random) -> int:
    total = 0
    for sign, term in expr:
        if term[0] == "const":
            value = term[1]
        elif term[0] == "var":
            value = store[term[1]]
        else:
            value = rng.randint(-100, 100)
        total = total + value if sign == "+" else total - value
    return total


def _holds(cond: tuple, store: dict, rng: random.Random) -> bool:
    left, op, right = _eval(cond[0], store, rng), cond[1], _eval(cond[2], store, rng)
    return {"<": left < right, "<=": left <= right, "==": left == right,
            "!=": left != right, ">=": left >= right, ">": left > right}[op]


def interval_reference(rng: random.Random, program: dict, paths: int = 12, steps: int = 400) -> dict:
    """Sample concrete runs; record the visited stores per location (as
    per-variable min/max) and which assertions failed on some run."""
    graph = _Graph(program["body"])
    assert_at = {loc: sid for sid, loc, _ in graph.asserts}
    inits = program["inits"]
    names = list(inits)
    seen: dict[int, list[list[int]]] = {}  # loc -> [mins, maxs]
    failed: set[int] = set()
    for _ in range(paths):
        store = {v: (c if c is not None else rng.randint(-100, 100)) for v, c in inits.items()}
        loc = 0
        for _ in range(steps):
            values = [store[v] for v in names]
            hull = seen.get(loc)
            if hull is None:
                seen[loc] = [values, list(values)]
            else:
                hull[0] = [min(a, b) for a, b in zip(hull[0], values)]
                hull[1] = [max(a, b) for a, b in zip(hull[1], values)]
            edges = graph.out[loc]
            if not edges:
                break
            if loc in assert_at:
                _, cond, dst = edges[0]
                if not _holds(cond, store, rng):
                    failed.add(assert_at[loc])
                    break
                loc = dst
                continue
            kind, payload, dst = rng.choice(edges) if edges[0][0] == "nop" else edges[0]
            if kind == "assign":
                store[payload[0]] = _eval(payload[1], store, rng)
            elif kind == "assume":
                if not _holds(payload, store, rng):
                    kind, payload, dst = edges[1]
            loc = dst
    return {"locations": len(graph.out), "asserts": len(graph.asserts), "names": names,
            "seen": seen, "failed": failed}


def _bound(value) -> float:
    return INF[value] if isinstance(value, str) else value


def check_intervals(report: dict, ref: dict) -> list[str]:
    results = report.get("results", [])
    if [r["location"] for r in results] != [f"L{k}" for k in range(ref["locations"])]:
        return ["reported locations differ from the structured translation"]
    problems = []
    for loc, (mins, maxs) in ref["seen"].items():
        env = results[loc]["env"]
        if env is None:
            problems.append(f"L{loc}: reported unreachable, but a run visited it")
            continue
        for name, lo, hi in zip(ref["names"], mins, maxs):
            bounds = env.get(name)
            if bounds is None or not (_bound(bounds[0]) <= lo and hi <= _bound(bounds[1])):
                problems.append(f"L{loc}: {name} took [{lo}, {hi}], reported {bounds}")
    verdicts = report.get("asserts", [])
    if len(verdicts) != ref["asserts"]:
        problems.append(f"{len(verdicts)} assertion verdicts, expected {ref['asserts']}")
    for a in verdicts:
        if a["verdict"] == "proved" and a["assert"] in ref["failed"]:
            problems.append(f"assert {a['assert']} reported proved, but a run violated it")
    return problems


def check_fragment(report: dict, expected: list[bool]) -> list[str]:
    got = [a["verdict"] == "proved" for a in report.get("asserts", [])]
    if got != expected:
        wrong = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
        return [f"assertion verdicts differ from the closed-form bounds at {wrong or 'count'}"]
    return []
