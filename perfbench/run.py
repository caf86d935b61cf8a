"""absint benchmark: seeded workloads through the command line, in process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cache-compare --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process per workload runs a closed loop with a single caller: each
generated input goes through ``absint.cli.main([... "--format", "json"])``
one at a time, and its output is checked against the benchmark's own
reference before the next input starts.  The corpus is repeated until
``--seconds`` of wall time have passed and every input was timed once.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Their times are wall-clock times corrected for the speed of the core they
ran on (see ``speed.py``); the uncorrected wall-clock figures are printed
beside them.
``--trace 1`` prints the per-layer metrics of two traced passes over the
first half of the corpus (whose counts must agree exactly), plus the
untraced and traced throughput of the same inputs.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_CHUNK_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _import_program():
    """(Re-)import the program under test from this checkout's sources."""
    for name in [m for m in sys.modules if m == "absint" or m.startswith("absint.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import absint.cli

    if Path(absint.cli.__file__).resolve().parent != SRC / "absint":
        raise ImportError(f"absint was imported from {absint.cli.__file__}, not from {SRC}")
    return absint.cli


def _setup(workload, seed: int, workdir: Path):
    """Imports, seeded corpus generation, input files and references."""
    cli = _import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workload.build(random.Random(f"{workload.name}:{seed}"), workdir)
    return cli, corpus


def _call(main, argv):
    """One timed CLI call with stdout/stderr captured outside the timing;
    returns its start and end (``perf_counter``), exit code and outputs."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed input, not a benchmark error
            code = exc
        end = perf_counter()
    finally:
        sys.stdout, sys.stderr = saved
    return start, end, code, out.getvalue(), err.getvalue()


def _judge(inp, code, text, err) -> tuple[list[str], dict | None]:
    """Problems with one output (empty when correct) and the parsed report."""
    if isinstance(code, Exception):
        return [f"raised {type(code).__name__}: {code}"], None
    if code not in (0, 3):
        return [f"exit {code}: {err.strip()}"], None
    try:
        report = json.loads(text)
    except ValueError:
        return ["output is not JSON"], None
    problems = inp.check(report)
    unproved = any(a.get("verdict") == "unproved" for a in report.get("asserts", []))
    if code != (3 if unproved else 0):
        problems.append(f"exit {code} does not match the reported verdicts")
    return problems, report


def _observe(props: Counter, inp, report: dict, family: str) -> None:
    """Fold one report into the corpus counters behind ``proved_frac`` and
    the printed input properties.  On cache workloads an access site counts
    as proved when classified always-hit or always-miss (a claim about every
    execution)."""
    if family == "intervals":
        verdicts = [a["verdict"] for a in report["asserts"]]
        proved = sum(v == "proved" for v in verdicts)
        tag = "plain" if inp.plain_widen else "other"
        props[f"asserts_{tag}"] += len(verdicts)
        props[f"proved_{tag}"] += proved
        props["locations"] += len(report["results"])
        props["unbounded_locations"] += sum(
            any("-oo" in b or "+oo" in b for b in r["env"].values())
            for r in report["results"] if r["env"])
    else:
        rows = report["results"]
        verdicts = [r.get("verdict", r.get("exact")) for r in rows]
        proved = sum(v in ("always-hit", "always-miss") for v in verdicts)
        for v in verdicts:
            props[f"sites_{v}"] += 1
        props["sites_left_by_agebounds"] += sum(r.get("approx", "unknown") == "unknown"
                                                 and r.get("method") != "approx" for r in rows)
        props["locations"] += inp.locations
    props["claims"] += len(verdicts)
    props["proved"] += proved
    props["reports"] += 1


class Run:
    """Outputs and timings of the calls made so far, plus their verdicts."""

    def __init__(self, workload, corpus, main):
        self.workload, self.corpus, self.main = workload, corpus, main
        self.first: dict[int, tuple] = {}  # input index -> (exit code, output digest)
        self.samples: dict[int, list[tuple]] = {i: [] for i in range(len(corpus))}  # (start, end)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.props: Counter = Counter()

    def one(self, i: int, call=None) -> float:
        inp = self.corpus[i]
        start, end, code, text, err = (call or _call)(self.main, inp.argv)
        self.attempted += 1
        digest = (code if isinstance(code, int) else repr(code), hashlib.sha256(text.encode()).hexdigest())
        if i in self.first:
            ok = self.first[i] == digest
            problems = [] if ok else ["output differs from the first call on this input"]
        else:
            problems, report = _judge(inp, code, text, err)
            self.first[i] = digest
            if report is not None:
                _observe(self.props, inp, report, self.workload.family)
        if problems:
            self.failed += 1
            self.problems.append(f"{inp.name}: {problems[0]}")
        self.samples[i].append((start, end))
        return end - start


def _tail(per_input: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten inputs beyond it, and its value."""
    ordered = sorted(per_input)
    k = max(0, len(ordered) - 11)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _print_table(rows: list[tuple]) -> None:
    for name, value, unit, samples in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<8} n={samples}")


def _properties(run: Run) -> dict:
    """Measured input properties of the corpus (for the workload notes)."""
    c = run.props
    out = {"inputs": len(run.corpus), "proved_frac": c["proved"] / max(1, c["claims"])}
    if run.workload.family == "cache":
        for v in ("always-hit", "always-miss", "variable", "unreachable"):
            out[f"sites_{v}_frac"] = c[f"sites_{v}"] / max(1, c["claims"])
        out["sites_left_by_agebounds_frac"] = c["sites_left_by_agebounds"] / max(1, c["claims"])
        out["mean_sites"] = c["claims"] / max(1, c["reports"])
    else:
        out["mean_asserts"] = c["claims"] / max(1, c["reports"])
        out["locations_with_unbounded_var_frac"] = c["unbounded_locations"] / max(1, c["locations"])
        if c["asserts_plain"]:
            out["proved_frac_widen_narrow"] = c["proved_plain"] / c["asserts_plain"]
            out["proved_frac_rewrites_full"] = c["proved_other"] / max(1, c["asserts_other"])
        else:
            out["mean_loop_consts"] = statistics.mean(i.loop_consts for i in run.corpus)
    out["mean_locations"] = c["locations"] / max(1, c["reports"])
    return out


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        if trace:
            cli, corpus = _setup(workload, seed, workdir)
            return _traced(_prepare(workload, cli, corpus), workload, seed)
        with SpeedProbe() as probe:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = perf_counter()
                cli, corpus = _setup(workload, seed, workdir)
                setups.append((start, perf_counter()))
            return _untraced(_prepare(workload, cli, corpus), probe, setups, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _prepare(workload, cli, corpus) -> Run:
    gc.collect()
    gc.freeze()  # keep the harness's own objects out of the program's collections
    # Warm-up: lazy imports and first-call costs, outside the timing.
    _call(cli.main, corpus[0].argv)
    return Run(workload, corpus, cli.main)


def _untraced(run: Run, probe: SpeedProbe, setups: list[tuple], seconds: float) -> dict:
    begin = perf_counter()
    while True:
        for i in range(len(run.corpus)):
            run.one(i)
            if perf_counter() - begin >= seconds and all(run.samples.values()):
                break
        else:
            continue
        break
    wall = perf_counter() - begin
    # An input's time is the median of its repeats, each corrected for the
    # core's speed while it ran; the raw wall-clock figures are printed too.
    spans = list(run.samples.values())
    per_input = [statistics.median(probe.scaled(s, e) for s, e in reps) for reps in spans]
    raw_per_input = [statistics.median(e - s for s, e in reps) for reps in spans]
    calls = sum(map(len, spans))
    pct, tail = _tail(per_input)
    n_inputs = len(per_input)
    metrics = [
        ("setup_s", statistics.median(probe.scaled(s, e) for s, e in setups), "s", len(setups)),
        ("verdict_p50_ms", 1000 * statistics.median(per_input), "ms", n_inputs),
        ("verdict_tail_ms", 1000 * tail, "ms", n_inputs),
        ("inputs_per_s", n_inputs / sum(per_input), "1/s", n_inputs),
        ("proved_frac", run.props["proved"] / max(1, run.props["claims"]), "fraction", run.props["claims"]),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    ]
    raw = [
        ("wall.setup_s", statistics.median(e - s for s, e in setups), "s", len(setups)),
        ("wall.verdict_p50_ms", 1000 * statistics.median(raw_per_input), "ms", n_inputs),
        ("wall.verdict_tail_ms", 1000 * _tail(raw_per_input)[1], "ms", n_inputs),
        ("wall.inputs_per_s", n_inputs / sum(raw_per_input), "1/s", n_inputs),
        ("wall.core_speed", REFERENCE_CHUNK_S * len(probe.durations) / sum(probe.durations), "ratio",
         len(probe.durations)),
    ]
    print(f"workload {run.workload.name}: {run.workload.why}")
    print(f"  {n_inputs} inputs, {calls} timed calls in {wall:.1f} s, tail = p{pct:.1f}; "
          f"times at reference core speed, wall.* uncorrected")
    _print_table(metrics + [("failed_frac", run.failed / run.attempted, "fraction", run.attempted)] + raw)
    for key, value in _properties(run).items():
        print(f"  property {key} = {value:.4g}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }


def _traced(run: Run, workload, seed: int) -> dict:
    import tracing

    indices = range(len(run.corpus) // 2)  # the first half keeps a traced run short
    untraced = sum(run.one(i) for i in indices)
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            elapsed = sum(run.one(i, lambda main, argv, name=run.corpus[i].name:
                                  _call(lambda a: tracer.root(name, main, a), argv))
                          for i in indices)
        finally:
            tracer.uninstall()
        passes.append((tracer, elapsed))
    counts = [t.deterministic_counts() for t, _ in passes]
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1]) if counts[0].get(k) != counts[1].get(k))
        run.problems.append(f"traced counts differ between two runs: {diff}")
    spans_dir = ROOT / ".bench_work"
    passes[-1][0].write_spans(spans_dir / f"spans-{workload.name}-seed{seed}.jsonl")

    n = len(indices)
    consts = sum(run.corpus[i].loop_consts for i in indices)
    per_pass = [tracing.layer_metrics(t, n, consts) for t, _ in passes]
    metrics = {}
    for name, value in per_pass[0].items():
        if name.endswith("_ms") or name == "focused.exact_vs_oracle" or name.endswith("per_const"):
            value = statistics.mean(p[name] for p in per_pass)
        metrics[name] = value
    metrics["intervals.narrow_ms"] = _narrow_ms([run.corpus[i] for i in indices])
    metrics["trace.untraced_inputs_per_s"] = n / untraced
    metrics["trace.traced_inputs_per_s"] = 2 * n / sum(e for _, e in passes)
    units = {k: ("ms" if k.endswith("_ms") else "us" if k.endswith("per_const")
                 else "KiB" if k.endswith("_kb") else "1/s" if k.endswith("per_s")
                 else "fraction" if k.endswith("_frac") else "ratio" if k.endswith("vs_oracle")
                 else "count") for k in metrics}
    print(f"workload {workload.name} (traced): {n} inputs, counts repeat: {counts[0] == counts[1]}")
    _print_table([(k, v, units[k], n) for k, v in metrics.items()])
    failed = run.failed + (counts[0] != counts[1])
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _narrow_ms(inputs: list) -> float:
    """Mean per plain widen-narrow input of analyze with the workload's
    narrowing pass minus analyze with none, outside the command line."""
    from absint.cfg import build_cfg
    from absint.intervals import analyze, entry_environment
    from absint.lang import parse_program

    plain = [inp for inp in inputs if inp.plain_widen]
    if not plain:
        return 0.0
    delta = 0.0
    for inp in plain:
        program = parse_program(Path(inp.argv[2]).read_text(encoding="utf-8"))
        cfg, env = build_cfg(program), entry_environment(program)
        t0 = perf_counter()
        analyze(cfg, env, 0, 1)
        t1 = perf_counter()
        analyze(cfg, env, 0, 0)
        delta += (t1 - t0) - (perf_counter() - t1)
    return 1000 * delta / len(plain)


def _run_all(args) -> int:
    """Every workload, one child process each, one after another."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if not (SRC / "absint").is_dir():
        print(f"error: no program sources at {SRC / 'absint'}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems")[:20]:
        print(f"  problem: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
