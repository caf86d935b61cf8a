"""Command-line front end.

Two subcommands mirror the two analysis families::

    absint cache     --input FILE --assoc N --method approx|exact|oracle|pipeline|compare
    absint intervals --input FILE --method widen|widen-narrow|policy|exhaustive|oracle|compare

Reports go to stdout as aligned text or JSON (``--format``).  Outputs are
byte-reproducible for identical inputs and flags; wall-clock timings are
only emitted with ``--timings`` (into the report's ``timings`` object, which
is otherwise empty).  One writer produces every JSON report, byte-identical
to ``json.dumps`` with ``indent`` 2 and ``sort_keys``; an intervals report
encodes each distinct environment and interval once and reuses the text
wherever the value appears again.

Exit codes: 0 success, 1 input or usage error (or a failed internal
consistency check), 2 oracle budget or value range exceeded, 3 (intervals, single-method runs) at least one assertion
unproved.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import boundsolve, focused, rewrite
from .agebounds import classify_all_approx
from .cfg import Cfg, build_cfg, parse_access_graph
from .intervals import (
    TOP,
    AbstractEnv,
    AnalysisResult,
    Interval,
    analyze,
    assert_verdicts,
    entry_environment,
)
from .lang import ParseError, parse_program
from .lru import InitPolicy, OracleBudgetError, classify_oracle

SCHEMA_VERSION = 1
TOOL = "absint"
VERSION = "0.1.0"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_UNPROVED = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


class _InternalError(_CliError):
    """A consistency check inside an analysis failed: a defect of the tool,
    reported even where an inapplicable method would be skipped."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 means "budget exceeded" here, so
    # route usage errors through the input-error exit code instead.
    def error(self, message):
        raise _CliError(f"{self.prog}: {message}")


def _load_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path!r}: {exc}")


def _load_cache_cfg(path: str) -> Cfg:
    text = _load_text(path)
    first = next((ln.split("#", 1)[0].strip() for ln in text.splitlines()
                  if ln.split("#", 1)[0].strip()), "")
    try:
        if first.split(maxsplit=1)[:1] in (["loc"], ["entry"], ["edge"]):
            return parse_access_graph(text)
        return build_cfg(parse_program(text))
    except ParseError as exc:
        raise _CliError(f"{path}: {exc}")


def _interval_json(iv: Interval):
    if iv.is_empty:
        return None
    return [b if isinstance(b, int) else repr(b) for b in (iv.lo, iv.hi)]


class _Encoded(str):
    """`_json_text` output reused as a value: the writer indents its lines
    to the depth it is placed at, so one text serves every place."""


def _json_text(value) -> str:
    """`value` byte for byte as ``json.dumps`` writes it with a two-space
    indent and sorted keys.

    Takes only what reports hold (dicts with str keys, lists, str, int,
    float, bool, None and `_Encoded` text) and raises TypeError on anything
    else.  Strings are escaped by the json module's own C routine."""
    parts: list[str] = []
    _encode(value, "\n", parts.append)
    return "".join(parts)


def _encode(value, newline: str, out) -> None:
    # An encoded string holds no raw newline, so in `_Encoded` text every
    # "\n" starts a line, which `newline` indents to the current depth.
    if isinstance(value, str):
        out(value.replace("\n", newline) if type(value) is _Encoded
            else encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out(sep)
            out(encode_basestring_ascii(key))
            out(": ")
            item = value[key]
            # Most values of an intervals report are pre-encoded: place them
            # here instead of making a call per value.
            if type(item) is _Encoded:
                out(item.replace("\n", inner))
            else:
                _encode(item, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(value, list):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out(sep)
            if type(item) is _Encoded:
                out(item.replace("\n", inner))
            else:
                _encode(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(report: dict) -> None:
    sys.stdout.write(_json_text(report) + "\n")


def _write_rows(rows: list[str]) -> None:
    sys.stdout.write("\n".join(rows) + ("\n" if rows else ""))


# ---------------------------------------------------------------------------
# cache subcommand
# ---------------------------------------------------------------------------

_CACHE_METHODS = ("approx", "exact", "oracle", "pipeline", "compare")


def _cache_classify(cfg: Cfg, n: int, init: InitPolicy, method: str) -> dict[int, tuple[str, str]]:
    """site -> (verdict string, method tag)"""
    if method == "approx":
        return {s: (v.value, "approx") for s, v in classify_all_approx(cfg, n, init).items()}
    if method == "exact":
        return {s: (v.value, "exact") for s, v in focused.classify_exact(cfg, n, init).items()}
    if method == "oracle":
        return {s: (v.value, "oracle") for s, v in classify_oracle(cfg, n, init).items()}
    if method == "pipeline":
        return {s: (v.value, tag) for s, (v, tag) in focused.classify_pipeline(cfg, n, init).items()}
    raise _CliError(f"unknown cache method {method!r}")


def run_cache(args) -> int:
    cfg = _load_cache_cfg(args.input)
    init = InitPolicy(args.init)
    sites = sorted(cfg.access_sites)
    timings: dict[str, float] = {}
    started = time.perf_counter()
    methods = ("approx", "exact", "oracle") if args.method == "compare" else (args.method,)
    tables: dict[str, dict[int, tuple[str, str]]] = {}
    for m in methods:
        t0 = time.perf_counter()
        tables[m] = _cache_classify(cfg, args.assoc, init, m)
        if args.timings:
            timings[m] = round(time.perf_counter() - t0, 6)
    if args.timings:
        timings["total"] = round(time.perf_counter() - started, 6)

    results = []
    rows = [f"{'site':>4}  {'block':<8} {'location':<12} " + " ".join(f"{m:<12}" for m in methods)]
    for site, block, loc in sites:
        entry = {"site": site, "block": block, "location": loc}
        for m in methods:
            verdict, tag = tables[m][site]
            if args.method == "compare":
                entry[m] = verdict
            else:
                entry["verdict"] = verdict
                entry["method"] = tag
        results.append(entry)
        cells = " ".join(f"{tables[m][site][0]:<12}" for m in methods)
        rows.append(f"{site:>4}  {block:<8} {loc:<12} {cells}")

    disagreements = []
    if args.method == "compare":
        for site, block, loc in sites:
            a, e, o = tables["approx"][site][0], tables["exact"][site][0], tables["oracle"][site][0]
            if e != o:
                disagreements.append({"site": site, "kind": "exact-vs-oracle", "exact": e, "oracle": o})
            if a != "unknown" and a != e:
                disagreements.append({"site": site, "kind": "approx-vs-exact", "approx": a, "exact": e})
        rows.append("")
        if disagreements:
            rows.append("disagreements:")
            for d in disagreements:
                rows.append(f"  site {d['site']}: {d['kind']} {json.dumps(d, sort_keys=True)}")
        else:
            rows.append("disagreements: none")

    report = {
        "schema": SCHEMA_VERSION,
        "tool": TOOL,
        "version": VERSION,
        "method": args.method,
        "input": args.input,
        "assoc": args.assoc,
        "init": init.value,
        "results": results,
        "timings": timings,
    }
    if args.method == "compare":
        report["disagreements"] = disagreements
    if args.format == "json":
        _write_json(report)
    else:
        _write_rows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# intervals subcommand
# ---------------------------------------------------------------------------

_INTERVAL_METHODS = ("widen", "widen-narrow", "policy", "exhaustive", "oracle", "compare")


def _parse_rewrites(value: str) -> int | None | str:
    if value == "off":
        return "off"
    if value == "full":
        return None
    if value.startswith("truncated:"):
        try:
            depth = int(value.split(":", 1)[1])
        except ValueError:
            raise _CliError(f"bad rewrites depth in {value!r}")
        if depth < 1:
            raise _CliError("rewrites truncation depth must be >= 1")
        return depth
    raise _CliError(f"unknown rewrites mode {value!r} (off, full, truncated:<d>)")


def _engine_result(cfg, env, method, rewrites, widen_delay, narrow_passes) -> AnalysisResult:
    passes = narrow_passes if method == "widen-narrow" else 0
    if rewrites == "off":
        return analyze(cfg, env, widen_delay, passes)
    return rewrite.analyze_combined(cfg, env, rewrites, widen_delay, passes)


def _solver_result(cfg, program, method) -> AnalysisResult:
    solver = boundsolve.solve_policy_iteration if method == "policy" else boundsolve.solve_exhaustive
    per_var: dict[str, dict[str, Interval]] = {}
    for decl in program.decls:
        entry = Interval.const(decl.init.value) if decl.init is not None else Interval.top()
        try:
            per_var[decl.name] = boundsolve.solve_intervals_exact(cfg, decl.name, entry, solver)
        except boundsolve.UnsupportedConstructError as exc:
            raise _CliError(f"program outside the solvable fragment: {exc}")
        except boundsolve.CapExceededError as exc:
            raise _CliError(str(exc))
        except RecursionError:
            raise  # a RuntimeError, but main reports it as deep input
        except RuntimeError as exc:
            raise _InternalError(f"internal solver error: {exc}")
    envs = {loc: AbstractEnv.of({v: per_var[v][loc] for v in per_var}) for loc in cfg.locations}
    return AnalysisResult(envs, assert_verdicts(cfg, envs))


def _oracle_result(cfg, program, value_range) -> AnalysisResult:
    envs = {}
    hulls: dict[str, dict] = {}
    for decl in program.decls:
        if decl.init is None:
            raise _CliError(
                "the concrete oracle requires every declaration to be initialized"
            )
        try:
            hulls[decl.name] = boundsolve.bounded_concrete_oracle(
                cfg, decl.name, Interval.const(decl.init.value), value_range
            )
        except boundsolve.UnsupportedConstructError as exc:
            raise _CliError(f"program outside the oracle fragment: {exc}")
        except (boundsolve.RangeExceededError, OracleBudgetError) as exc:
            raise _CliError(str(exc), EXIT_BUDGET)
    for loc in cfg.locations:
        cells = {v: table[loc] for v, table in hulls.items()}
        envs[loc] = (AbstractEnv.unreachable() if None in cells.values()
                     else AbstractEnv.of({v: Interval(*hull) for v, hull in cells.items()}))
    return AnalysisResult(envs, assert_verdicts(cfg, envs))


def run_intervals(args) -> int:
    text = _load_text(args.input)
    try:
        program = parse_program(text)
        cfg = build_cfg(program)
    except ParseError as exc:
        raise _CliError(f"{args.input}: {exc}")
    if cfg.access_sites:
        raise _CliError("interval analyses require a cache-free program")
    rewrites = _parse_rewrites(args.rewrites)
    if rewrites != "off" and args.method not in ("widen", "widen-narrow", "compare"):
        raise _CliError("--rewrites applies to the widen/widen-narrow methods only")
    env = entry_environment(program)
    value_range = _parse_range(args.range)

    methods = (
        ("widen", "widen-narrow", "policy", "exhaustive", "oracle")
        if args.method == "compare"
        else (args.method,)
    )
    timings: dict[str, float] = {}
    outcomes: dict[str, AnalysisResult] = {}
    skipped: dict[str, str] = {}
    for m in methods:
        t0 = time.perf_counter()
        try:
            if m in ("widen", "widen-narrow"):
                outcomes[m] = _engine_result(cfg, env, m, rewrites, args.widen_delay, args.narrow_passes)
            elif m in ("policy", "exhaustive"):
                outcomes[m] = _solver_result(cfg, program, m)
            elif m == "oracle":
                outcomes[m] = _oracle_result(cfg, program, value_range)
            else:
                raise _CliError(f"unknown intervals method {m!r}")
        except _CliError as exc:
            if args.method != "compare" or isinstance(exc, _InternalError):
                raise
            # comparison runs simply omit methods the input does not support
            skipped[m] = "not applicable to this input"
        if args.timings:
            timings[m] = round(time.perf_counter() - t0, 6)
    methods = tuple(m for m in methods if m in outcomes)

    if args.timings:
        timings["total"] = round(sum(timings.values()), 6)
    verdicts = {m: {v.sid: v.proved for v in outcomes[m].asserts} for m in methods}
    if args.format == "json":
        report = {
            "schema": SCHEMA_VERSION,
            "tool": TOOL,
            "version": VERSION,
            "method": args.method,
            "rewrites": args.rewrites,
            "input": args.input,
            "results": _interval_results(cfg, program, outcomes, methods, args.method == "compare"),
            "asserts": _assert_results(cfg, verdicts, methods, args.method == "compare"),
            "timings": timings,
        }
        if args.method == "compare":
            report["skipped"] = skipped
        _write_json(report)
    else:
        _write_rows(_interval_rows(cfg, program, outcomes, methods, verdicts))
    if args.method != "compare":
        unproved = not all(verdicts[args.method].values())
        return EXIT_UNPROVED if unproved else EXIT_OK
    return EXIT_OK


def _interval_results(cfg, program, outcomes, methods, compare: bool) -> list[dict]:
    """One entry per location; each distinct environment and interval value
    is encoded once, and its text reused wherever the value appears again."""
    variables = program.variables

    @functools.cache
    def interval_text(iv: Interval) -> _Encoded:
        return _Encoded(_json_text(_interval_json(iv)))

    @functools.cache
    def env_text(env: AbstractEnv) -> _Encoded | None:
        if env.bottom:
            return None
        ivs = env.as_dict()
        return _Encoded(_json_text({v: interval_text(ivs.get(v, TOP)) for v in variables}))

    results = []
    for loc in cfg.locations:
        entry = {"location": loc}
        for m in methods:
            entry[m if compare else "env"] = env_text(outcomes[m].envs[loc])
        results.append(entry)
    return results


def _assert_results(cfg, verdicts, methods, compare: bool) -> list[dict]:
    entries = []
    for site in cfg.asserts:
        entry = {"assert": site.sid, "location": site.loc}
        for m in methods:
            entry[m if compare else "verdict"] = "proved" if verdicts[m][site.sid] else "unproved"
        entries.append(entry)
    return entries


def _interval_rows(cfg, program, outcomes, methods, verdicts) -> list[str]:
    variables = program.variables
    width = 18 * max(1, len(variables))
    rows = [f"{'location':<12} " + " ".join(f"{m:<{width}}" for m in methods)]

    @functools.cache
    def cell(env: AbstractEnv) -> str:
        if env.bottom:
            shown = "unreachable"
        else:
            ivs = env.as_dict()
            shown = " ".join(f"{v}={ivs.get(v, TOP)!r:<14}" for v in variables)
        return f"{shown:<{width}}"

    for loc in cfg.locations:
        rows.append(f"{loc:<12} " + " ".join([cell(outcomes[m].envs[loc]) for m in methods]))
    if cfg.asserts:
        rows.append("")
    for site in cfg.asserts:
        states = " ".join(
            f"{m}={'proved' if verdicts[m][site.sid] else 'unproved'}" for m in methods
        )
        rows.append(f"assert {site.sid} at {site.loc}: {states}")
    return rows


def _parse_range(value: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = value.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise _CliError(f"bad range {value!r}, expected lo:hi")
    if lo > hi:
        raise _CliError(f"bad range {value!r}, lo exceeds hi")
    return lo, hi


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# One parser serves every call of main in a process: parse_args leaves it
# unchanged, and building it took about 7% of an in-process run on small
# cache inputs.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="absint", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    cache = sub.add_parser("cache", help="classify memory accesses of one cache set")
    cache.add_argument("--input", required=True, help="toy program or access graph")
    cache.add_argument("--assoc", type=int, required=True, help="associativity (N >= 1)")
    cache.add_argument("--method", choices=_CACHE_METHODS, default="pipeline")
    cache.add_argument("--init", choices=("empty", "unknown"), default="empty")
    cache.add_argument("--format", choices=("text", "json"), default="text")
    cache.add_argument("--timings", action="store_true", help="include wall-clock timings (not byte-reproducible)")
    cache.set_defaults(func=run_cache, least=(("assoc", 1),))

    iv = sub.add_parser("intervals", help="numeric interval analyses and exact solving")
    iv.add_argument("--input", required=True, help="toy program (cache-free)")
    iv.add_argument("--method", choices=_INTERVAL_METHODS, default="widen-narrow")
    iv.add_argument("--widen-delay", type=int, default=0, dest="widen_delay", help="K >= 0")
    iv.add_argument("--narrow-passes", type=int, default=1, dest="narrow_passes", help="K >= 0")
    iv.add_argument("--rewrites", default="off", help="off | full | truncated:<d>")
    iv.add_argument("--range", default="-1024:1100", help="value range for the concrete oracle")
    iv.add_argument("--format", choices=("text", "json"), default="text")
    iv.add_argument("--timings", action="store_true", help="include wall-clock timings (not byte-reproducible)")
    iv.set_defaults(func=run_intervals, least=(("widen_delay", 0), ("narrow_passes", 0)))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for dest, least in args.least:  # (option, its least value)
            if getattr(args, dest) < least:
                raise _CliError(f"--{dest.replace('_', '-')} must be at least {least}")
        return args.func(args)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except OracleBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except RecursionError:
        # The parser and the expression walkers recurse once per nesting
        # level or operand.
        sys.stderr.write("error: input nested too deeply\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
