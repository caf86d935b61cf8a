"""Command-line front end.

Two subcommands mirror the two analysis families::

    absint cache     --input FILE --assoc N --method approx|exact|oracle|pipeline|compare
    absint intervals --input FILE --method widen|widen-narrow|policy|exhaustive|oracle|compare

Reports go to stdout as aligned text or JSON (``--format``).  Outputs are
byte-reproducible for identical inputs and flags; wall-clock timings are
only emitted with ``--timings`` (into the report's ``timings`` object, which
is otherwise empty).  Every JSON report is byte-identical to ``json.dumps``
with ``indent`` 2 and ``sort_keys``.  A report's lists of sites,
assertions and locations come from a fixed template (``_listed``), which
renders each distinct environment and interval of an intervals report once,
at the depth where it is written; one generic writer produces the rest:
the scalars, timings, skipped methods and disagreements.

Exit codes: 0 success, 1 input or usage error (or a failed internal
consistency check), 2 oracle budget (including more distinct blocks than
the cache oracle can name), value range or widening-delay budget exceeded,
3 (intervals, single-method runs) at least one assertion unproved.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__, boundsolve, focused, rewrite
from .agebounds import classify_all_approx
from .cfg import Cfg, build_cfg, parse_access_graph
from .intervals import (
    BOTTOM_ENV,
    TOP,
    AbstractEnv,
    AnalysisResult,
    EMPTY,
    DelayBudgetError,
    Interval,
    _new,
    analyze,
    assert_verdicts,
    entry_environment,
)
from .lang import ParseError, parse_program
from .lru import InitPolicy, OracleBudgetError, classify_oracle

SCHEMA_VERSION = 1
TOOL = "absint"
VERSION = __version__

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
    except (OSError, UnicodeDecodeError) as exc:
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


def _json_text(value, newline: str = "\n") -> str:
    """`value` byte for byte as ``json.dumps`` writes it with a two-space
    indent and sorted keys, its lines indented to follow `newline`.

    Takes only what reports hold (dicts with str keys, lists, str, int,
    float, bool and None) and raises TypeError on anything else.  Strings
    are escaped by the json module's own C routine."""
    parts: list[str] = []
    _encode(value, newline, parts.append)
    return "".join(parts)


def _encode(value, newline: str, out) -> None:
    if isinstance(value, str):
        out(encode_basestring_ascii(value))
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
            _encode(value[key], inner, out)
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
    return {s: (v.value, tag) for s, (v, tag) in focused.classify_pipeline(cfg, n, init).items()}


def run_cache(args) -> int:
    cfg = _load_cache_cfg(args.input)
    init = InitPolicy(args.init)
    sites = sorted(cfg.access_sites)
    timings: dict[str, float] = {}
    started = time.perf_counter()
    compare = args.method == "compare"
    methods = ("approx", "exact", "oracle") if compare else (args.method,)
    tables: dict[str, dict[int, tuple[str, str]]] = {}
    for m in methods:
        t0 = time.perf_counter()
        tables[m] = _cache_classify(cfg, args.assoc, init, m)
        if args.timings:
            timings[m] = round(time.perf_counter() - t0, 6)
    if args.timings:
        timings["total"] = round(time.perf_counter() - started, 6)

    disagreements = []
    if compare:
        for site, block, loc in sites:
            a, e, o = tables["approx"][site][0], tables["exact"][site][0], tables["oracle"][site][0]
            if e != o:
                disagreements.append({"site": site, "kind": "exact-vs-oracle", "exact": e, "oracle": o})
            if a != "unknown" and a != e:
                disagreements.append({"site": site, "kind": "approx-vs-exact", "approx": a, "exact": e})

    if args.format == "json":
        fields = {"assoc": args.assoc, "init": init.value, "timings": timings}
        if compare:
            fields["disagreements"] = disagreements
        columns = [("site", lambda s: int.__repr__(s[0])), ("block", lambda s: encode_basestring_ascii(s[1])),
                   ("location", lambda s: encode_basestring_ascii(s[2]))]
        columns += [(m if compare else "verdict", lambda s, t=tables[m]: encode_basestring_ascii(t[s[0]][0])) for m in methods]
        if not compare:
            columns.append(("method", lambda s, t=tables[args.method]: encode_basestring_ascii(t[s[0]][1])))
        _write_report(args, fields, {"results": _listed(sites, columns)})
        return EXIT_OK

    rows = [f"{'site':>4}  {'block':<8} {'location':<12} " + " ".join(f"{m:<12}" for m in methods)]
    for site, block, loc in sites:
        cells = " ".join(f"{tables[m][site][0]:<12}" for m in methods)
        rows.append(f"{site:>4}  {block:<8} {loc:<12} {cells}")
    if compare:
        rows.append("")
        if disagreements:
            rows.append("disagreements:")
            for d in disagreements:
                rows.append(f"  site {d['site']}: {d['kind']} {json.dumps(d, sort_keys=True)}")
        else:
            rows.append("disagreements: none")
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
            raise _CliError(f"bad rewrites depth in {boundsolve._excerpt(value)!r}")
        if depth < 1:
            raise _CliError("rewrites truncation depth must be >= 1")
        return depth
    raise _CliError(f"unknown rewrites mode {boundsolve._excerpt(value)!r} (off, full, truncated:<d>)")


def _engine_result(cfg, env, method, rewrites, widen_delay, narrow_passes) -> AnalysisResult:
    passes = narrow_passes if method == "widen-narrow" else 0
    if rewrites == "off":
        return analyze(cfg, env, widen_delay, passes)
    return rewrite.analyze_combined(cfg, env, rewrites, widen_delay, passes)


def _solver_result(cfg, program, method) -> AnalysisResult:
    solver = boundsolve.solve_policy_iteration if method == "policy" else boundsolve.solve_exhaustive
    per_var: dict[str, dict[str, Interval]] = {}
    for decl in program.decls:
        entry = Interval.const(decl.init.value) if decl.init is not None else TOP
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
    return _per_location(cfg, per_var)


def _oracle_result(cfg, program, value_range) -> AnalysisResult:
    per_var: dict[str, dict[str, Interval]] = {}
    for decl in program.decls:
        if decl.init is None:
            raise _CliError("the concrete oracle requires every declaration to be initialized")
        try:
            hulls = boundsolve.bounded_concrete_oracle(cfg, decl.name, Interval.const(decl.init.value), value_range)
        except boundsolve.UnsupportedConstructError as exc:
            raise _CliError(f"program outside the oracle fragment: {exc}")
        except (boundsolve.RangeExceededError, OracleBudgetError) as exc:
            raise _CliError(str(exc), EXIT_BUDGET)
        per_var[decl.name] = {loc: EMPTY if hull is None else _new(Interval, hull) for loc, hull in hulls.items()}
    return _per_location(cfg, per_var)


def _per_location(cfg, per_var: dict[str, dict[str, Interval]]) -> AnalysisResult:
    """The result whose environment at each location holds every variable's
    interval there (``per_var[var][loc]``), or bottom where one is ``EMPTY``;
    without variables, every location gets the empty environment."""
    names = tuple(sorted(per_var))
    locations = cfg.locations
    rows = zip(*(map(per_var[v].__getitem__, locations) for v in names)) if names else [()] * len(locations)
    envs = {loc: BOTTOM_ENV if EMPTY in row else _new(AbstractEnv, (names, row, False))
            for loc, row in zip(locations, rows)}
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
            else:
                outcomes[m] = _oracle_result(cfg, program, value_range)
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
    # str() of an int stops at sys.get_int_max_str_digits() digits, and a
    # sum of literals within the limit can pass it.  Either report is built
    # in full before it is written, so stdout stays empty.
    try:
        if args.format == "json":
            compare = args.method == "compare"
            fields = {"rewrites": args.rewrites, "timings": timings}
            if compare:
                fields["skipped"] = skipped
            _write_report(args, fields, {"asserts": _assert_results(cfg, verdicts, methods, compare),
                                         "results": _interval_results(cfg, program, outcomes, methods, compare)})
        else:
            _write_rows(_interval_rows(cfg, program, outcomes, methods, verdicts))
    except ValueError:
        raise _CliError(f"{args.input}: a bound is longer than {sys.get_int_max_str_digits()} digits")
    if args.method != "compare":
        unproved = not all(verdicts[args.method].values())
        return EXIT_UNPROVED if unproved else EXIT_OK
    return EXIT_OK


def _write_report(args, fields: dict, listed: dict) -> None:
    """Write a JSON report: the shared fields and `fields` by the generic writer, `listed` as ``_listed`` parts."""
    fields.update(schema=SCHEMA_VERSION, tool=TOOL, version=VERSION, method=args.method, input=args.input)
    parts = []
    for key in sorted([*fields, *listed]):
        parts += (",\n  " if parts else "{\n  ", encode_basestring_ascii(key), ": ")
        parts += listed[key] if key in listed else (_json_text(fields[key], "\n  "),)
    parts.append("\n}\n")
    sys.stdout.write("".join(parts))


def _listed(items, columns) -> list[str]:
    """A list of objects as text parts, placed as the writer places it
    under a top-level key: entries 4 spaces deep and their fields 6.
    `columns` holds (key, the field's text for an item)."""
    columns = sorted(columns, key=lambda column: column[0])
    labels = [f"{',' if i else '{'}\n      {encode_basestring_ascii(key)}: " for i, (key, _) in enumerate(columns)]
    parts: list[str] = []
    for item in items:
        parts.append(",\n    " if parts else "[\n    ")
        for label, (_, text) in zip(labels, columns):
            parts += (label, text(item))
        parts.append("\n    }")
    parts.append("\n  ]" if parts else "[]")
    return parts


def _interval_results(cfg, program, outcomes, methods, compare: bool) -> list[str]:
    """The report's "results" list (variables 8 spaces deep, bounds 10).
    Each distinct environment and interval is rendered once, and its text
    reused wherever the value appears again."""
    # Every environment lists the program's variables in sorted order.
    keys = [encode_basestring_ascii(v) for v in sorted(program.variables)]

    def bound_text(b) -> str:
        return int.__repr__(b) if isinstance(b, int) else f'"{b!r}"'

    @functools.cache
    def interval_text(iv: Interval) -> str:
        if iv.is_empty:
            return "null"
        return f"[\n          {bound_text(iv.lo)},\n          {bound_text(iv.hi)}\n        ]"

    @functools.cache
    def env_text(env: AbstractEnv) -> str:
        if env.bottom:
            return "null"
        fields = [f"\n        {key}: {interval_text(iv)}" for key, iv in zip(keys, env.values)]
        return "{" + ",".join(fields) + "\n      }" if fields else "{}"

    columns = [("location", encode_basestring_ascii)]
    columns += [(m if compare else "env", lambda loc, envs=outcomes[m].envs: env_text(envs[loc])) for m in methods]
    return _listed(cfg.locations, columns)


def _assert_results(cfg, verdicts, methods, compare: bool) -> list[str]:
    columns = [("assert", lambda site: int.__repr__(site.sid)),
               ("location", lambda site: encode_basestring_ascii(site.loc))]
    columns += [(m if compare else "verdict", lambda site, proved=verdicts[m]:
                 '"proved"' if proved[site.sid] else '"unproved"') for m in methods]
    return _listed(cfg.asserts, columns)


def _interval_rows(cfg, program, outcomes, methods, verdicts) -> list[str]:
    variables = program.variables
    width = 18 * max(1, len(variables))
    rows = [f"{'location':<12} " + " ".join(f"{m:<{width}}" for m in methods)]
    # Declaration order, read from the sorted order every environment lists.
    positions = [*map(sorted(variables).index, variables)]

    @functools.cache
    def cell(env: AbstractEnv) -> str:
        if env.bottom:
            shown = "unreachable"
        else:
            shown = " ".join(f"{v}={env.values[i]!r:<14}" for v, i in zip(variables, positions))
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
        raise _CliError(f"bad range {boundsolve._excerpt(value)!r}, expected lo:hi")
    if lo > hi:
        raise _CliError(f"bad range {boundsolve._excerpt(value)!r}, lo exceeds hi")
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
    # Read "-5:100" after a space as a value, as argparse reads "-5" (no flag starts with "-" and a digit).
    iv._negative_number_matcher = re.compile(r"-\d")
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
        # Values and flag texts are quoted as excerpts where a message is
        # built; what argparse and open() quote in full is cut here.
        sys.stderr.write(f"error: {boundsolve._excerpt(exc, 190)}\n")
        return exc.code
    except (OracleBudgetError, DelayBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except RecursionError:
        # The parser and the expression walkers recurse once per nesting
        # level or operand.
        sys.stderr.write("error: input nested too deeply\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
