"""Traced runs: wrappers around the program's public functions.

``Tracer.install`` replaces each traced name at the place where its callers
look it up (a module attribute or a class attribute) and ``uninstall`` puts
the originals back.  Each wrapped call is a span with a parent; a span's
self time is its duration minus the durations of its child spans.  Spans of
the per-input layers (parse, CFG build, each analysis) are kept in memory
with their input id and written out by ``write_spans``; the five hot inner
functions (antichain insert/union, focused transfer, interval widening,
rewriting) only add to per-name totals, so memory stays flat.

Time spent computing counts from arguments and return values is excluded
from every enclosing span.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# (metric-name prefix, module, attribute, keep spans).  Some spans feed no
# metric of their own (the pipeline, the per-variable exact solve, the
# oracle's state collection): they keep their glue out of ``cli.self_ms``
# or carry a count hook.
_FUNCTIONS = (
    ("lang.parse", "absint.cli", "parse_program", True),
    ("cfg.build", "absint.cli", "build_cfg", True),
    ("cfg.build", "absint.cli", "parse_access_graph", True),
    ("agebounds.approx", "absint.cli", "classify_all_approx", True),
    ("agebounds.approx", "absint.focused", "classify_all_approx", True),
    ("lru.oracle", "absint.cli", "classify_oracle", True),
    ("lru.collect", "absint.lru", "collect_states", True),
    ("focused.pipeline", "absint.focused", "classify_pipeline", True),
    ("focused.exact", "absint.focused", "classify_exact", True),
    ("focused.block", "absint.focused", "analyze_block", True),
    ("focused.transfer", "absint.focused", "transfer", False),
    ("intervals.analyze", "absint.cli", "analyze", True),
    ("rewrite.combined", "absint.rewrite", "analyze_combined", True),
    ("rewrite.rewrite", "absint.rewrite", "rewrite_and_simplify", False),
    ("boundsolve.exact", "absint.boundsolve", "solve_intervals_exact", True),
    ("boundsolve.extract", "absint.boundsolve", "extract_upper_bounds", True),
    ("boundsolve.policy", "absint.boundsolve", "solve_policy_iteration", True),
)

# (metric-name prefix, module, class, method, keep spans)
_METHODS = (
    ("antichain.insert", "absint.antichain", "Antichain", "insert", False),
    ("antichain.union", "absint.antichain", "Antichain", "union", False),
    ("intervals.widen", "absint.intervals", "AbstractEnv", "widen", False),
)


def _max_nodes(system) -> int:
    from absint.boundsolve import BAdd, BMax, BMin

    count = 0
    stack = [rhs for _, rhs in system.equations]
    while stack:
        e = stack.pop()
        if isinstance(e, (BMax, BMin)):
            count += isinstance(e, BMax)
            stack += (e.left, e.right)
        elif isinstance(e, BAdd):
            stack.append(e.expr)
    return count


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # seconds, inclusive
        self.self_time: Counter = Counter()  # seconds, exclusive of child spans
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.input_id = None
        self._stack: list[list] = []  # [span id, child seconds, excluded at start]
        self._next_id = 0
        self._excluded = 0.0  # seconds spent in count hooks, hidden from spans
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def call(self, name: str, keep: bool, fn, args, kwargs, hook=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0, self._excluded]
        self._stack.append(frame)
        start = perf_counter()
        error = None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            error = exc
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start - (self._excluded - frame[2])
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            if keep:
                self.spans.append((span_id, parent, name, start, end, self.input_id))
            if hook is not None:
                t0 = perf_counter()
                hook(args, kwargs, None if error else result, error)
                self._excluded += perf_counter() - t0
        return result

    def root(self, input_id, fn, *args):
        self.input_id = input_id
        return self.call("cli.main", True, fn, args, {})

    # -- count hooks --------------------------------------------------------

    def _hooks(self) -> dict:
        from absint.agebounds import ApproxClass
        from absint.antichain import Orientation
        from absint.lru import OracleBudgetError

        c = self.counts

        def cfg_built(args, kwargs, cfg, error):
            if cfg is not None:
                c["cfg.locations"] += len(cfg.locations)
                c["cfg.edges"] += len(cfg.edges)

        def parsed(args, kwargs, result, error):
            c["lang.input_bytes"] += len(args[0].encode())

        def approx(args, kwargs, table, error):
            if table is not None:
                c["agebounds.sites"] += len(table)
                c["agebounds.resolved"] += sum(v is not ApproxClass.UNKNOWN for v in table.values())

        def collected(args, kwargs, reached, error):
            if isinstance(error, OracleBudgetError):
                c["lru.budget_errors"] += 1
            if reached is not None:
                c["lru.states"] += sum(len(s) for s in reached.values())

        def block(args, kwargs, views, error):
            if views is not None:
                if args[3] is Orientation.KEEP_MAX:
                    c["focused.blocks_analyzed"] += 1
                peak = max((len(v.younger) for v in views.values()), default=0)
                c["focused.peak_antichain"] = max(c["focused.peak_antichain"], peak)

        def inserted(args, kwargs, result, error):
            c["antichain.insert_useful"] += result is not args[0]

        def extracted(args, kwargs, system, error):
            if system is not None:
                c["boundsolve.equations"] += len(system.equations)
                c["boundsolve.max_nodes"] += _max_nodes(system)

        return {
            "build_cfg": cfg_built,
            "parse_access_graph": cfg_built,
            "parse_program": parsed,
            "classify_all_approx": approx,
            "collect_states": collected,
            "analyze_block": block,
            "insert": inserted,
            "extract_upper_bounds": extracted,
        }

    # -- installation -------------------------------------------------------

    def _wrapper(self, name, keep, fn, hook):
        if name == "focused.block":
            from absint.antichain import Orientation

            def wrapper(*args, **kwargs):
                side = "keep_max" if args[3] is Orientation.KEEP_MAX else "keep_min"
                return self.call(f"focused.{side}", keep, fn, args, kwargs, hook)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, keep, fn, args, kwargs, hook)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        hooks = self._hooks()
        for name, module_name, attr, keep in _FUNCTIONS:
            owner = importlib.import_module(module_name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(name, keep, fn, hooks.get(attr)))
        for name, module_name, cls_name, attr, keep in _METHODS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(name, keep, fn, hooks.get(attr)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def deterministic_counts(self) -> dict:
        """Everything a second run over the same inputs must reproduce."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, input_id in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start": start, "end": end, "input": input_id}) + "\n")


def layer_metrics(tracer: Tracer, inputs: int, loop_consts: int) -> dict:
    """Per-layer metrics from one traced pass over `inputs` inputs.

    Times are milliseconds per input (inclusive of child spans unless named
    ``self_ms``); counts are totals over the pass.
    """
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / inputs

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "cli.self_ms": ms(s["cli.main"]),
        "lang.parse_ms": ms(t["lang.parse"]),
        "lang.input_kb": c["lang.input_bytes"] / 1024,
        "cfg.build_ms": ms(t["cfg.build"]),
        "cfg.locations": c["cfg.locations"],
        "cfg.edges": c["cfg.edges"],
        "lru.oracle_ms": ms(t["lru.oracle"]),
        "lru.states": c["lru.states"],
        "lru.budget_errors": c["lru.budget_errors"],
        "agebounds.approx_ms": ms(t["agebounds.approx"]),
        "agebounds.resolved_frac": ratio(c["agebounds.resolved"], c["agebounds.sites"]),
        "focused.keep_max_ms": ms(t["focused.keep_max"]),
        "focused.keep_min_ms": ms(t["focused.keep_min"]),
        "focused.blocks_analyzed": c["focused.blocks_analyzed"],
        "focused.transfers": n["focused.transfer"],
        "focused.peak_antichain": c["focused.peak_antichain"],
        "focused.exact_vs_oracle": ratio(t["focused.exact"], t["lru.oracle"]),
        "antichain.self_ms": ms(s["antichain.insert"] + s["antichain.union"]),
        "antichain.insert_calls": n["antichain.insert"],
        "antichain.union_calls": n["antichain.union"],
        "antichain.insert_useful_frac": ratio(c["antichain.insert_useful"], n["antichain.insert"]),
        "intervals.analyze_ms": ms(t["intervals.analyze"]),
        "intervals.widen_calls": n["intervals.widen"],
        "rewrite.combined_ms": ms(t["rewrite.combined"]),
        "rewrite.rewrite_calls": n["rewrite.rewrite"],
        "boundsolve.extract_ms": ms(t["boundsolve.extract"]),
        "boundsolve.policy_ms": ms(t["boundsolve.policy"]),
        "boundsolve.equations": c["boundsolve.equations"],
        "boundsolve.max_nodes": c["boundsolve.max_nodes"],
        "boundsolve.policy_us_per_const": ratio(1e6 * t["boundsolve.policy"], loop_consts),
    }
