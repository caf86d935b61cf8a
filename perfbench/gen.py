"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data: the text
the program under test receives, plus the structure the benchmark's own
references need (an access-graph edge list, or a small statement tree for
interval programs).  Nothing here imports the program under test.

Statement trees use tuples:

* ``("assign", var, expr)`` where ``expr`` is a tuple of ``(sign, term)``
  pairs and a term is ``("const", c)``, ``("var", name)`` or ``("nondet",)``
* ``("if", cond, then_stmts, else_stmts)``
* ``("while", cond, body_stmts)``
* ``("assert", cond)``

A condition is ``None`` for ``*`` or ``(left_expr, op, right_expr)``.
"""

from __future__ import annotations

import random

OPS = ("<", "<=", "==", "!=", ">=", ">")


def stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` integers spread evenly over [lo, hi] in random order, so every
    corpus covers the whole size range whatever the seed."""
    values = [lo + int((hi - lo + 1) * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# Access graphs
# ---------------------------------------------------------------------------


REGION = 10


def access_graph(rng: random.Random, n_locs: int, n_blocks: int, extra: float) -> dict:
    """A connected graph made of consecutive regions of ``REGION`` locations.

    Inside a region every location hangs off one of the few locations created
    just before it, and `extra` random edges per location close loops; the
    last location of a region leads to the first of the next.  Chaining
    regions instead of scattering loops over the whole graph keeps the
    analyses' cost close to a sum of independent parts, which narrows its
    spread from graph to graph.  Three quarters of the edges access a block.
    """
    blocks = [f"b{i}" for i in range(n_blocks)]
    pairs = []
    for start in range(1, n_locs, REGION):
        end = min(n_locs, start + REGION)
        pairs.append((start - 1, start))
        pairs += [(rng.randrange(max(start, i - 4), i), i) for i in range(start + 1, end)]
        pairs += [(rng.randrange(start, end), rng.randrange(start, end))
                  for _ in range(round(extra * (end - start)))]
    edges = [(s, d, rng.choice(blocks) if rng.random() < 0.75 else None) for s, d in pairs]
    lines = [f"loc n{i}" for i in range(n_locs)] + ["entry n0"]
    for s, d, block in edges:
        lines.append(f"edge n{s} n{d}" + (f" access {block}" if block else ""))
    return {"text": "\n".join(lines) + "\n", "n_locs": n_locs, "edges": edges}


# ---------------------------------------------------------------------------
# Solver-fragment programs (one variable, closed-form exact bounds)
# ---------------------------------------------------------------------------


def fragment_program(rng: random.Random, climb: int) -> dict:
    """Loop and branch gadgets on one variable ``v``, each followed by
    assertions of the exact bounds after it (which must be proved) and, inside
    ``if (*)`` so they do not cut the flow, bounds one tighter (which must
    stay unproved).

    Every program runs the same nine gadgets in the same order (policy
    iteration's cost depends on where a loop sits, so a fixed order keeps the
    cost from program to program close); the constants are random and each
    loop climbs about `climb` units (within 20%), so the loop constants land
    around 10^3..10^4.  Gadgets and the exact hull ``[lo, hi]`` of ``v``
    after each:

    * up:     ``while (v < K) { if (*) { v = v + 1; } else { v = v + 2; } }`` -> [K, K+1]
    * climb:  ``while (*) { if (v < K) { v = v + 1; } }``                   -> [lo, K]
    * down:   ``while (v > K) { v = v - 1; }``                              -> [K, K]
    * branch: ``if (v < hi) { v = v + d1; } else { v = v + d2; }`` when lo < hi,
      otherwise ``v = c;``
    """
    lo = hi = rng.randint(2000, 4000)
    lines = [f"int v = {lo};"]
    expected: list[bool] = []
    loop_consts = 0
    for kind in ("up", "branch", "climb", "down", "branch", "up", "climb", "branch", "down"):
        step = rng.randint(climb * 4 // 5, climb * 6 // 5)
        if kind == "branch" and lo < hi:
            t = hi
            d1, d2 = rng.randint(-9, 9), rng.randint(-9, 9)
            lines.append(f"if (v < {t}) {{ v = v + {d1}; }} else {{ v = v + {d2}; }}")
            lo, hi = min(lo + d1, t + d2), max(t - 1 + d1, hi + d2)
        elif kind == "branch":
            c = rng.randint(2000, 4000)
            lines.append(f"v = {c};")
            lo = hi = c
        else:
            if kind == "up":
                k = hi + step
                lines.append(f"while (v < {k}) {{ if (*) {{ v = v + 1; }} else {{ v = v + 2; }} }}")
                lo, hi = k, k + 1
            elif kind == "climb":
                k = hi + step
                lines.append(f"while (*) {{ if (v < {k}) {{ v = v + 1; }} }}")
                hi = k
            else:
                k = lo - step
                lines.append(f"while (v > {k}) {{ v = v - 1; }}")
                lo = hi = k
            loop_consts += k
        lines.append(f"assert (v >= {lo});")
        lines.append(f"assert (v <= {hi});")
        lines.append(f"if (*) {{ assert (v >= {lo + 1}); }}")
        lines.append(f"if (*) {{ assert (v <= {hi - 1}); }}")
        expected += [True, True, False, False]
    return {"text": "\n".join(lines) + "\n", "expected": expected, "loop_consts": loop_consts}


# ---------------------------------------------------------------------------
# General multi-variable programs
# ---------------------------------------------------------------------------


class _ProgramGen:
    """Random structured programs grown until the CFG reaches a target size.

    Besides random assignments, branches, loops and assertions it plants two
    gadgets with known provability: counted loops (``c = 0; while (c < K)``,
    whose bounds need narrowing) and copies (``y = x; z = x - y;
    assert (z == 0);``, provable only with rewrites).
    """

    def __init__(self, rng: random.Random, n_vars: int, target_locs: int):
        self.rng = rng
        self.vars = [f"x{i}" for i in range(n_vars)]
        self.target = target_locs
        self.locs = 2  # entry plus the first program point
        self.locked: set[str] = set()

    def free_var(self) -> str:
        choices = [v for v in self.vars if v not in self.locked]
        return self.rng.choice(choices or self.vars)

    def expr(self) -> tuple:
        terms = []
        for i in range(self.rng.choice((1, 1, 2, 2, 3))):
            r = self.rng.random()
            if r < 0.3:
                term = ("const", self.rng.randint(-20, 20))
            elif r < 0.93:
                term = ("var", self.rng.choice(self.vars))
            else:
                term = ("nondet",)
            terms.append(("+" if i == 0 or self.rng.random() < 0.6 else "-", term))
        return tuple(terms)

    def cond(self):
        if self.rng.random() < 0.25:
            return None
        left = (("+", ("var", self.rng.choice(self.vars))),)
        if self.rng.random() < 0.6:
            right = (("+", ("const", self.rng.randint(-30, 30))),)
        else:
            right = (("+", ("var", self.rng.choice(self.vars))),)
        return (left, self.rng.choice(OPS), right)

    def block(self, depth: int, budget: int) -> list:
        out: list = []
        start = self.locs
        while self.locs - start < budget and self.locs < self.target:
            out.extend(self.stmt(depth))
        return out

    def stmt(self, depth: int) -> list:
        rng = self.rng
        r = rng.random()
        if r < 0.42 or depth >= 3:
            self.locs += 1
            return [("assign", self.free_var(), self.expr())]
        if r < 0.60:
            self.locs += 3
            then = self.block(depth + 1, rng.randint(2, 12))
            orelse = self.block(depth + 1, rng.randint(0, 8))
            return [("if", self.cond(), then, orelse)]
        if r < 0.68:
            self.locs += 2
            return [("while", None, self.block(depth + 1, rng.randint(2, 10)))]
        if r < 0.78:
            return self.counted_loop(depth)
        if r < 0.86:
            return self.copy_gadget()
        # A random assertion may well be false; inside `if (*)` it cannot cut
        # off the rest of the program.
        self.locs += 4
        var = rng.choice(self.vars)
        check = ("assert", ((("+", ("var", var)),), rng.choice(OPS), (("+", ("const", rng.randint(-30, 30))),)))
        return [("if", None, [check], [])]

    def counted_loop(self, depth: int) -> list:
        c = self.free_var()
        k = self.rng.randint(2, 12)
        self.locked.add(c)
        self.locs += 3
        body = self.block(depth + 1, self.rng.randint(2, 10))
        self.locked.discard(c)
        self.locs += 3
        ref = (("+", ("var", c)),)
        body = body + [("assign", c, (("+", ("var", c)), ("+", ("const", 1))))]
        return [
            ("assign", c, (("+", ("const", 0)),)),
            ("while", (ref, "<", (("+", ("const", k)),)), body),
            ("assert", (ref, ">=", (("+", ("const", k)),))),
            ("assert", (ref, "<=", (("+", ("const", k)),))),
        ]

    def copy_gadget(self) -> list:
        if len([v for v in self.vars if v not in self.locked]) < 3:
            self.locs += 1
            return [("assign", self.free_var(), self.expr())]
        x = self.rng.choice(self.vars)
        y, z = self.rng.sample([v for v in self.vars if v not in self.locked and v != x], 2)
        self.locs += 3
        return [
            ("assign", y, (("+", ("var", x)),)),
            ("assign", z, (("+", ("var", x)), ("-", ("var", y)))),
            ("assert", ((("+", ("var", z)),), "==", (("+", ("const", 0)),))),
        ]


def general_program(rng: random.Random, n_vars: int, target_locs: int) -> dict:
    gen = _ProgramGen(rng, n_vars, target_locs)
    inits = {v: (rng.randint(-10, 10) if rng.random() < 0.6 else None) for v in gen.vars}
    body = gen.block(0, target_locs)
    lines = [f"int {v};" if c is None else f"int {v} = {c};" for v, c in inits.items()]
    _emit(body, 0, lines)
    return {"text": "\n".join(lines) + "\n", "inits": inits, "body": body}


def _expr_text(e: tuple) -> str:
    parts = []
    for i, (sign, term) in enumerate(e):
        text = "*" if term[0] == "nondet" else str(term[1])
        if i == 0:
            parts.append(text)
        else:
            parts.append(f"{sign} {text}")
    return " ".join(parts)


def _cond_text(c) -> str:
    return "*" if c is None else f"{_expr_text(c[0])} {c[1]} {_expr_text(c[2])}"


def _emit(stmts: list, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for s in stmts:
        if s[0] == "assign":
            out.append(f"{pad}{s[1]} = {_expr_text(s[2])};")
        elif s[0] == "assert":
            out.append(f"{pad}assert ({_cond_text(s[1])});")
        elif s[0] == "if":
            out.append(f"{pad}if ({_cond_text(s[1])}) {{")
            _emit(s[2], indent + 1, out)
            out.append(f"{pad}}} else {{")
            _emit(s[3], indent + 1, out)
            out.append(f"{pad}}}")
        else:
            out.append(f"{pad}while ({_cond_text(s[1])}) {{")
            _emit(s[2], indent + 1, out)
            out.append(f"{pad}}}")
