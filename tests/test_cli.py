from __future__ import annotations

import gc
import json
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time
from collections import Counter

import pytest

import absint
from absint import boundsolve, lru
from absint.cli import _json_text, main
from helpers import FUZZ_EXTRA, FUZZ_TOKEN, mutate_tokens, pretty, random_cache_cfg, random_program

PY = [sys.executable, "-m", "absint.cli"]


def run_cli(*args) -> tuple[int, str, str]:
    proc = subprocess.run(PY + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_bytes(*args) -> tuple[int, bytes]:
    proc = subprocess.run(PY + list(args), capture_output=True)
    return proc.returncode, proc.stdout


def test_cache_exact_flag_program(demo_dir):
    code, out, _ = run_cli(
        "cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4",
        "--method", "exact", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    verdicts = sorted((r["site"], r["verdict"]) for r in report["results"])
    assert verdicts == [
        (0, "always-miss"),
        (1, "always-miss"),
        (2, "variable"),
        (3, "variable"),
    ]
    assert report["schema"] == 1
    assert report["tool"] == "absint"
    assert all(r["method"] == "exact" for r in report["results"])


def test_report_package_and_project_share_one_version(demo_dir, capsys):
    # A regex, not tomllib: Python 3.10 has no TOML reader.
    pyproject = (pathlib.Path(__file__).parent.parent / "pyproject.toml").read_text()
    declared = re.search(r'(?m)^version = "([^"]+)"$', pyproject).group(1)
    assert main(["cache", "--input", str(demo_dir / "flag_reuse.ag"), "--assoc", "2",
                 "--method", "approx", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == absint.__version__ == declared


def test_readme_examples_run_as_annotated(monkeypatch, capsys):
    """Each `absint ...` line of README's `Examples:` block, run from the
    repository root, exits with the code its `# exit N` comment names, or
    0 where it names none."""
    root = pathlib.Path(__file__).parent.parent
    block = re.search(r"(?ms)^Examples:\n\n```\n(.*?)^```", (root / "README.md").read_text()).group(1)
    monkeypatch.chdir(root)
    lines = block.splitlines()
    assert lines
    for line in lines:
        command, _, note = line.partition("#")
        program, *argv = shlex.split(command)
        expected = re.match(r"\s*exit (\d+)", note)
        assert program == "absint"
        assert main(argv) == (int(expected.group(1)) if expected else 0), line
        capsys.readouterr()


def test_cache_oracle_matches_exact(demo_dir):
    _, exact_out, _ = run_cli(
        "cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4",
        "--method", "exact", "--format", "json",
    )
    _, oracle_out, _ = run_cli(
        "cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4",
        "--method", "oracle", "--format", "json",
    )
    exact = json.loads(exact_out)
    oracle = json.loads(oracle_out)
    assert [(r["site"], r["verdict"]) for r in exact["results"]] == [
        (r["site"], r["verdict"]) for r in oracle["results"]
    ]


def test_cache_accepts_access_graph_input(demo_dir):
    code, out, _ = run_cli(
        "cache", "--input", str(demo_dir / "flag_reuse.ag"), "--assoc", "4",
        "--method", "exact", "--format", "json",
    )
    assert code == 0
    verdicts = sorted(r["verdict"] for r in json.loads(out)["results"])
    assert verdicts == ["always-miss", "always-miss", "variable", "variable"]


def test_cache_compare_lists_no_disagreements(demo_dir):
    code, out, _ = run_cli(
        "cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4",
        "--method", "compare", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["disagreements"] == []
    for row in report["results"]:
        # the exact rows never claim strictly more than the oracle row
        assert row["exact"] == row["oracle"]


def wide_access_graph(seed: int, n_locs: int = 48, n_blocks: int = 32) -> str:
    """A chain that accesses every block once, then random loops over them."""
    rng = random.Random(seed)
    lines = [f"loc n{i}" for i in range(n_locs)] + ["entry n0"]
    for i in range(1, n_locs):
        block = i - 1 if i <= n_blocks else rng.randrange(n_blocks)
        lines.append(f"edge n{rng.randrange(max(0, i - 3), i)} n{i} access b{block:02d}")
    for _ in range(n_locs // 2):
        src, dst = rng.randrange(1, n_locs), rng.randrange(1, n_locs)
        access = f" access b{rng.randrange(n_blocks):02d}" if rng.random() < 0.7 else ""
        lines.append(f"edge n{src} n{dst}{access}")
    return "\n".join(lines) + "\n"


def test_cache_unknown_init_wide_graph_finishes(tmp_path):
    """32 blocks at associativity 16: unknown contents leave the focus
    present under any of C(32, 15) younger-sets, which must never be listed
    one by one.  The exact analysis seeds KEEP_MAX with the absent
    configuration alone and KEEP_MIN with the empty younger-set."""
    graph = tmp_path / "wide.ag"
    graph.write_text(wide_access_graph(seed=5))
    verdicts = {}
    for method in ("approx", "exact", "pipeline"):
        proc = subprocess.run(
            PY + ["cache", "--input", str(graph), "--assoc", "16", "--init", "unknown",
                  "--method", method, "--format", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        verdicts[method] = {r["site"]: r["verdict"] for r in json.loads(proc.stdout)["results"]}
    decided = {s: v for s, v in verdicts["approx"].items() if v != "unknown"}
    assert decided and len(decided) < len(verdicts["approx"])
    assert verdicts["pipeline"] == verdicts["exact"]
    for site, verdict in decided.items():
        assert verdicts["exact"][site] == verdict, site
    # the oracle's seed count, about 2.4e22, is past the budget before any
    # seed is built
    for method in ("oracle", "compare"):
        proc = subprocess.run(
            PY + ["cache", "--input", str(graph), "--assoc", "16", "--init", "unknown",
                  "--method", method, "--format", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "error: state budget 1000000 exceeded at entry\n"


def test_missing_input_is_exit_1(demo_dir):
    code, _, err = run_cli("cache", "--input", str(demo_dir / "nope.imp"), "--assoc", "4")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "name, data, argv",
    [
        ("bad.imp", b"int x = 1;\xff\n", ["intervals"]),
        ("bad.ag", b"loc a\xff\n", ["cache", "--assoc", "2"]),
    ],
    ids=["intervals", "cache"],
)
def test_invalid_utf8_input_is_one_line_exit_1(tmp_path, capsys, name, data, argv):
    path = tmp_path / name
    path.write_bytes(data)
    code = main([argv[0], "--input", str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_unknown_method_is_exit_1(demo_dir):
    code, _, _ = run_cli(
        "cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4",
        "--method", "wat",
    )
    assert code == 1


def test_syntax_error_is_exit_1(tmp_path):
    bad = tmp_path / "bad.imp"
    bad.write_text("int x;\nx = ;")
    code, _, err = run_cli("intervals", "--input", str(bad))
    assert code == 1
    assert "2:" in err


def test_intervals_widen_narrow_exit_3(demo_dir):
    code, out, _ = run_cli(
        "intervals", "--input", str(demo_dir / "ring_index.imp"),
        "--method", "widen-narrow", "--format", "json",
    )
    assert code == 3
    report = json.loads(out)
    assert report["asserts"][0]["verdict"] == "unproved"
    by_loc = {r["location"]: r for r in report["results"]}
    assert by_loc["L1"]["env"]["i"] == [0, 999]


def test_intervals_policy_proves_and_exits_0(demo_dir):
    code, out, _ = run_cli(
        "intervals", "--input", str(demo_dir / "ring_index.imp"),
        "--method", "policy", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["asserts"][0]["verdict"] == "proved"
    by_loc = {r["location"]: r for r in report["results"]}
    assert by_loc["L1"]["env"]["i"] == [0, 42]


def test_intervals_exhaustive_agrees_with_policy(demo_dir):
    _, pol, _ = run_cli(
        "intervals", "--input", str(demo_dir / "ring_index.imp"), "--method", "policy",
        "--format", "json",
    )
    _, exh, _ = run_cli(
        "intervals", "--input", str(demo_dir / "ring_index.imp"), "--method", "exhaustive",
        "--format", "json",
    )
    assert json.loads(pol)["results"] == json.loads(exh)["results"]


def test_intervals_rewrites_full(demo_dir):
    code, out, _ = run_cli(
        "intervals", "--input", str(demo_dir / "copy_diff.imp"),
        "--method", "widen-narrow", "--rewrites", "full", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    final = report["results"][-1]
    assert final["env"]["z"] == [0, 0]


def test_intervals_rewrites_off_is_coarser(demo_dir):
    _, out, _ = run_cli(
        "intervals", "--input", str(demo_dir / "copy_diff.imp"),
        "--method", "widen-narrow", "--rewrites", "off", "--format", "json",
    )
    assert json.loads(out)["results"][-1]["env"]["z"] == [-1, 1]


def test_intervals_oracle_range_violation_is_exit_2(tmp_path):
    runaway = tmp_path / "runaway.imp"
    runaway.write_text("int i = 0;\nwhile (0 < 1) { i = i + 1; }\n")
    code, _, err = run_cli(
        "intervals", "--input", str(runaway), "--method", "oracle", "--range=-64:64"
    )
    assert code == 2
    assert "outside" in err or "range" in err.lower()


@pytest.mark.parametrize("argv", [["--method", "widen"], ["--method", "compare", "--rewrites", "full"]],
                         ids=["widen", "compare-rewrites"])
def test_huge_widen_delay_is_exit_2_within_the_update_budget(tmp_path, argv):
    # The loop never stabilises, so without a budget the delay would run
    # 10^8 plain updates before the first widening.
    runaway = tmp_path / "runaway.imp"
    runaway.write_text("int i = 0;\nwhile (0 < 1) { i = i + 1; }\n")
    proc = subprocess.run(PY + ["intervals", "--input", str(runaway), "--widen-delay", "100000000"] + argv,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: widening delay budget exceeded: more than 10000 plain updates at loop heads\n")


def test_more_blocks_than_the_oracle_can_name_is_exit_2(tmp_path, capsys, monkeypatch):
    # Inside its search the oracle names each block by one code point;
    # with three blocks and room for two it stops before any state.
    monkeypatch.setattr(lru, "CODE_POINTS", 2)
    path = tmp_path / "three.ag"
    path.write_text("loc n0\nloc n1\nloc n2\nloc n3\nentry n0\n"
                    "edge n0 n1 access a\nedge n1 n2 access b\nedge n2 n3 access c\n")
    for method in ("oracle", "compare"):
        assert main(["cache", "--input", str(path), "--assoc", "2", "--method", method]) == 2
        assert capsys.readouterr() == ("", "error: oracle names at most 2 distinct blocks, got 3\n")


def test_fragment_violation_is_exit_1(tmp_path):
    multi = tmp_path / "multi.imp"
    multi.write_text("int i;\nint j;\ni = i + j;\n")
    code, _, err = run_cli("intervals", "--input", str(multi), "--method", "policy")
    assert code == 1
    assert "fragment" in err


def test_fragment_violation_quotes_a_short_excerpt(tmp_path):
    """The solver's fragment errors quote a capped excerpt of the source
    text, never the repr of the syntax tree: a 500-term sum gives one short
    line (it used to end in a RecursionError), and `compare` skips the
    methods that reject it, as for any input outside their fragment."""
    short = tmp_path / "short.imp"
    short.write_text("int x;\nx = 1 + 2 + x;\n")
    assert run_cli("intervals", "--input", str(short), "--method", "policy") == (
        1, "", "error: program outside the solvable fragment: "
        "assignment to 'x' outside the fragment: '1 + 2 + x'\n",
    )
    long = tmp_path / "long.imp"
    long.write_text("int x = 0;\nx = " + " + ".join(["1"] * 500) + ";\n")
    for method, fragment in (("policy", "solvable"), ("exhaustive", "solvable"),
                             ("oracle", "oracle")):
        code, out, err = run_cli("intervals", "--input", str(long), "--method", method)
        assert (code, out) == (1, ""), method
        assert err.startswith(f"error: program outside the {fragment} fragment: ")
        assert err.count("\n") == 1 and len(err) < 200, err
    code, out, err = run_cli("intervals", "--input", str(long), "--method", "compare",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert set(json.loads(out)["skipped"]) == {"policy", "exhaustive", "oracle"}


@pytest.mark.parametrize("method", ["policy", "exhaustive", "oracle"])
def test_long_sum_outside_the_fragment_is_one_short_line(tmp_path, method):
    """Quoting a 5,000-term sum walks its left spine in a loop; a recursive
    printer ended in `internal solver error: maximum recursion depth`."""
    path = tmp_path / "sum.imp"
    path.write_text("int x = 0;\nx = " + " + ".join(["1"] * 5000) + ";\n")
    code, out, err = run_cli("intervals", "--input", str(path), "--method", method)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 200, err
    assert "outside the" in err and "fragment: " in err, err


@pytest.mark.parametrize("method", ["policy", "compare"])
def test_internal_solver_error_is_one_line_exit_1(demo_dir, monkeypatch, capsys, method):
    def broken(system):
        raise RuntimeError("policy iteration did not land on a fixpoint")

    monkeypatch.setattr(boundsolve, "solve_policy_iteration", broken)
    code = main(["intervals", "--input", str(demo_dir / "ring_index.imp"), "--method", method])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: internal solver error: policy iteration did not land on a fixpoint\n"
    )


@pytest.mark.parametrize("method", ["policy", "compare"])
def test_recursion_in_the_solver_is_not_an_internal_error(demo_dir, monkeypatch, capsys, method):
    def deep(system):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(boundsolve, "solve_policy_iteration", deep)
    code = main(["intervals", "--input", str(demo_dir / "ring_index.imp"), "--method", method])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: input nested too deeply\n")


def test_rewrites_flag_rejected_for_solver_methods(demo_dir):
    code, _, _ = run_cli(
        "intervals", "--input", str(demo_dir / "ring_index.imp"),
        "--method", "policy", "--rewrites", "full",
    )
    assert code == 1


def test_intervals_compare_shows_method_gap(demo_dir):
    code, out, _ = run_cli(
        "intervals", "--input", str(demo_dir / "ring_index.imp"),
        "--method", "compare", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["skipped"] == {}
    head = next(r for r in report["results"] if r["location"] == "L1")
    assert head["widen"]["i"] == [0, "+oo"]
    assert head["widen-narrow"]["i"] == [0, 999]
    assert head["policy"]["i"] == [0, 42]
    assert head["exhaustive"]["i"] == [0, 42]
    assert head["oracle"]["i"] == [0, 42]
    verdicts = report["asserts"][0]
    assert verdicts["widen-narrow"] == "unproved"
    assert verdicts["policy"] == verdicts["oracle"] == "proved"
    # no exact method claims more than the oracle row
    for r in report["results"]:
        for m in ("policy", "exhaustive"):
            assert r[m] == r["oracle"], r["location"]


def test_intervals_compare_skips_inapplicable_methods(demo_dir):
    code, out, _ = run_cli(
        "intervals", "--input", str(demo_dir / "copy_diff.imp"),
        "--method", "compare", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report["skipped"]) == {"policy", "exhaustive", "oracle"}
    assert report["results"][0].get("widen") is not None


@pytest.mark.parametrize(
    "args",
    [
        ("cache", "--assoc", "4", "--method", "compare", "--format", "text"),
        ("cache", "--assoc", "2", "--method", "pipeline", "--format", "json"),
        ("cache", "--assoc", "4", "--method", "oracle", "--format", "json", "--init", "unknown"),
    ],
)
def test_cache_runs_are_byte_reproducible(demo_dir, args):
    full = [args[0], "--input", str(demo_dir / "flag_reuse.imp"), *args[1:]]
    first = run_cli_bytes(*full)
    second = run_cli_bytes(*full)
    assert first == second


@pytest.mark.parametrize(
    "args",
    [
        ("intervals", "--method", "widen-narrow", "--format", "json"),
        ("intervals", "--method", "compare", "--format", "text"),
        ("intervals", "--method", "exhaustive", "--format", "json"),
    ],
)
def test_interval_runs_are_byte_reproducible(demo_dir, args):
    full = [args[0], "--input", str(demo_dir / "ring_index.imp"), *args[1:]]
    first = run_cli_bytes(*full)
    second = run_cli_bytes(*full)
    assert first == second


def test_in_process_main_matches_subprocess(demo_dir, capsys):
    code = main([
        "cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4",
        "--method", "exact", "--format", "json",
    ])
    captured = capsys.readouterr()
    sub_code, sub_out, _ = run_cli(
        "cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4",
        "--method", "exact", "--format", "json",
    )
    assert code == sub_code == 0
    assert captured.out == sub_out


@pytest.mark.parametrize(
    "args",
    [
        ("intervals", "--input", "{ring}", "--method", "bogus"),
        ("cache", "--input", "{ring}", "--assoc", "x"),
        ("intervals",),
        ("nosuch",),
        ("intervals", "--input", "{ring}", "--widen-delay", "-5"),
        ("intervals", "--input", "{ring}", "--narrow-passes", "-3"),
    ],
)
def test_in_process_usage_errors_match_subprocess(demo_dir, capsys, args):
    # main reuses one parser per process; a second in-process call must
    # report the same error as a fresh process.
    full = [a.format(ring=demo_dir / "ring_index.imp") for a in args]
    sub = run_cli(*full)
    for _ in range(2):
        code = main(full)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == sub
    assert sub[0] == 1 and sub[2].startswith("error: ") and sub[2].count("\n") == 1


@pytest.mark.parametrize(
    "source",
    [
        "int x = 0;\n" + "if (*) {\n" * 2000 + "x = 1;\n" + "}\n" * 2000,
    ],
    ids=["nested-if-2000"],
)
def test_deeply_nested_input_is_one_line_exit_1(tmp_path, source):
    path = tmp_path / "deep.imp"
    path.write_text(source)
    code, out, err = run_cli("intervals", "--input", str(path))
    assert (code, out, err) == (1, "", "error: input nested too deeply\n")


LONG_SUMS = {
    "constant": ("int x = 0;\nx = " + " + ".join(["1"] * 3000) + ";\n", {"x": [3000, 3000]}),
    "variable": (
        "int x = 0;\nint y = 2;\nint z = 0;\nx = " + " + ".join(["y"] * 3000) + ";\nz = x - y;\n",
        {"x": [6000, 6000], "y": [2, 2], "z": [5998, 5998]},
    ),
    # A rule this long reaches a join, kept on one branch only or on both.
    "rule-on-one-branch": (
        "int x = 0;\nint y = 2;\nif (*) { x = " + " + ".join(["y"] * 3000)
        + "; } else { x = 1; }\nx = x + 1;\n",
        {"x": [2, 6001], "y": [2, 2]},
    ),
    "rule-on-both-branches": (
        "int x = 0;\nint y = 2;\nif (*) { x = " + " + ".join(["y"] * 3000)
        + "; } else { x = " + " + ".join(["y"] * 3000) + "; }\nx = x + 1;\n",
        {"x": [6001, 6001], "y": [2, 2]},
    ),
}


@pytest.mark.parametrize("method", ["widen", "widen-narrow", "compare"])
def test_long_flat_sum_is_evaluated(tmp_path, capsys, method):
    """A sum of 3,000 terms parses into a left-nested tree far deeper than
    the recursion limit.  It is evaluated exactly, and rewriting it, in
    full or truncated, gives the same environments as not rewriting."""
    for name, (text, want) in LONG_SUMS.items():
        path = tmp_path / f"{name}.imp"
        path.write_text(text)
        results = {}
        for rewrites in ("off", "full", "truncated:1"):
            code = main(["intervals", "--input", str(path), "--method", method,
                         "--rewrites", rewrites, "--format", "json"])
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), (name, rewrites, err)
            results[rewrites] = json.loads(out)["results"]
        last = results["off"][-1]
        envs = [last["widen"], last["widen-narrow"]] if method == "compare" else [last["env"]]
        assert envs == [want] * len(envs), name
        assert results["full"] == results["off"] and results["truncated:1"] == results["off"], name


@pytest.mark.parametrize("method", ["widen-narrow", "compare"])
def test_narrowing_stops_at_a_pass_that_changes_nothing(demo_dir, tmp_path, capsys, method):
    """The narrowing passes stop at the first one that leaves every value
    as it was, so 10^12 passes end at once with the output of 100: on every
    cache-free demo, and on a 3,000-term rule that reaches a join under
    full rewriting."""
    long_rule = tmp_path / "long-rule.imp"
    long_rule.write_text(LONG_SUMS["rule-on-one-branch"][0])
    runs = [(path, fmt, ()) for path in sorted(demo_dir.glob("*.imp"))
            if "access" not in path.read_text() for fmt in ("text", "json")]
    runs.append((long_rule, "json", ("--rewrites", "full")))
    assert len(runs) > 3
    for path, fmt, extra in runs:
        outputs = []
        for passes in ("100", "1000000000000"):
            start = time.perf_counter()
            code = main(["intervals", "--input", str(path), "--method", method,
                         "--narrow-passes", passes, "--format", fmt, *extra])
            elapsed = time.perf_counter() - start
            assert code == 0 and elapsed < 10, (path.name, passes, code, elapsed)
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1], (path.name, fmt)


def _fuzz_cases(demo_dir, rng):
    """(kind, text, argv tail) triples: token mutations of every demo, then
    long flat sums and deeply nested programs."""
    runs = {
        ".imp": (["intervals", "--method", "widen-narrow", "--rewrites", "full"],
                 ["intervals", "--method", "compare", "--range", "-50:50"],
                 ["cache", "--assoc", "2", "--method", "compare"]),
        ".ag": (["cache", "--assoc", "2", "--method", "compare"],
                ["cache", "--assoc", "3", "--method", "pipeline", "--init", "unknown"]),
    }
    demos = sorted(demo_dir.iterdir())
    vocabulary = sorted({t for d in demos for t in FUZZ_TOKEN.findall(d.read_text())} | set(FUZZ_EXTRA))
    for round_ in range(1000):
        demo = demos[round_ % len(demos)]
        text = mutate_tokens(rng, FUZZ_TOKEN.findall(demo.read_text()), vocabulary)
        yield "mutated", text, rng.choice(runs[demo.suffix])
    for n in (1000, 4000):
        for rewrites in ("off", "full", "truncated:1"):
            text = "int x = 0;\nint y = 1;\nx = " + " - ".join(["y"] * n) + ";\nassert (x < 1);\n"
            yield "flat", text, ["intervals", "--method", "widen-narrow", "--rewrites", rewrites]
    for n in (1000, 3000):
        loops = "int x = 0;\n" + "while (x < 1) {\n" * n + "x = x + 1;\n" + "}\n" * n
        yield "nested", loops, ["intervals", "--method", "widen"]
        branches = "int x = 0;\n" + "if (*) {\n" * n + "access(a);\n" + "}\n" * n
        yield "nested", branches, ["cache", "--assoc", "2", "--method", "exact"]


def test_cli_fuzz_ends_in_a_documented_exit(demo_dir, tmp_path, capsys):
    """Seeded token mutations of the demos, long flat sums and deeply nested
    programs: every run exits 0-3 with no traceback, prints nothing on an
    error, and blames nesting only for nested input."""
    rng = random.Random(20261019)
    path = tmp_path / "fuzz.txt"
    exits = Counter()
    for kind, text, argv in _fuzz_cases(demo_dir, rng):
        path.write_text(text, encoding="utf-8")
        code = main([argv[0], "--input", str(path), *argv[1:]])
        out, err = capsys.readouterr()
        exits[kind, code] += 1
        case = (kind, argv, text[:300])
        assert code in (0, 1, 2, 3), case
        assert "Traceback" not in err, case
        if code in (1, 2):
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (case, err)
        else:
            assert err == "", (case, err)
        assert ("nested too deeply" in err) == (kind == "nested"), (case, err)
    assert {code for kind, code in exits if kind == "mutated"} >= {0, 1, 3}, exits


@pytest.mark.parametrize(
    "literal",
    ["²", "٣"],
    ids=["superscript-two", "arabic-indic-three"],
)
def test_non_ascii_digit_is_unexpected_character(tmp_path, literal):
    # str.isdigit accepts both; int() rejects the first and reads the second as 3.
    path = tmp_path / "digit.imp"
    path.write_text(f"int x = {literal};\n", encoding="utf-8")
    code, out, err = run_cli("intervals", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: 1:9: unexpected character {literal!r}\n"


@pytest.mark.parametrize(
    "prefix, position",
    [("int v = ", "1:9"), ("int v;\nv = v - -", "2:10")],
    ids=["initializer", "negative-operand"],
)
def test_literal_past_the_int_digit_limit_is_one_line_exit_1(tmp_path, capsys, prefix, position):
    # int() of a longer decimal text raises ValueError (CPython's guard
    # against quadratic conversions), which the parser reports as its own.
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "literal.imp"
    path.write_text(prefix + "9" * (limit + 1) + ";\n")
    code = main(["intervals", "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {position}: integer literal longer than {limit} digits\n"


@pytest.mark.parametrize(
    "method, fmt",
    [("widen", "text"), ("widen", "json"), ("policy", "text"), ("policy", "json"), ("compare", "json")],
)
def test_bound_past_the_int_digit_limit_is_one_line_exit_1(tmp_path, capsys, method, fmt):
    # Each literal is within the limit, but their sum has one digit more.
    nines = "9" * sys.get_int_max_str_digits()
    path = tmp_path / "bound.imp"
    path.write_text(f"int v = {nines};\nv = v + {nines};\n")
    code = main(["intervals", "--input", str(path), "--method", method, "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: {path}: a bound is longer than {len(nines)} digits\n"


@pytest.mark.parametrize("method", ["oracle", "compare"])
def test_unknown_init_seed_overflow_is_exit_2(tmp_path, method):
    # 9 blocks plus the fresh one at N = 8 give 2,606,501 entry states; the
    # oracle counts them and fails before building any.
    path = tmp_path / "wide.ag"
    lines = [f"loc n{i}" for i in range(10)] + ["entry n0"]
    lines += [f"edge n{i} n{i + 1} access m{i}" for i in range(9)]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli("cache", "--input", str(path), "--assoc", "8",
                             "--method", method, "--init", "unknown")
    assert (code, out, err) == (2, "", "error: state budget 1000000 exceeded at entry\n")


LONG_DIGITS = "9" * 5000


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (["--method", "oracle"], 2, "outside (-1024, 1100)"),
        (["--method", "oracle", "--range=0:{nines}"], 2,
         "value <an integer of more than {limit} digits> outside (0, 999"),
        (["--method", "compare", "--range=0:{nines}"], 1, "a bound is longer than {limit} digits"),
        ([f"--range=0:{LONG_DIGITS}"], 1, "...', expected lo:hi"),
        (["--rewrites", f"truncated:{LONG_DIGITS}"], 1, "bad rewrites depth in 'truncated:999"),
        (["--method", LONG_DIGITS], 1, "argument --method: invalid choice: '999"),
        (["--widen-delay", LONG_DIGITS], 1, "argument --widen-delay: invalid int value: '999"),
    ],
    ids=["oracle-entry", "oracle-value", "compare-value", "range", "rewrites", "method", "widen-delay"],
)
def test_long_values_and_flags_are_one_bounded_line(tmp_path, capsys, argv, code, shown):
    """An oracle error quotes the value, interval and range as excerpts, an
    int past the digit limit is described rather than converted, and a
    long flag text is cut: one line of at most 200 characters."""
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    path = tmp_path / "bound.imp"
    path.write_text(f"int v = {nines};\nv = v + {nines};\n")
    argv = [a.format(nines=nines) for a in argv]
    assert main(["intervals", "--input", str(path), *argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201, err
    assert "Traceback" not in err
    assert shown.format(limit=limit) in err


@pytest.mark.parametrize(
    "source, argv, code, message",
    [
        ("int i = 0;\nwhile (0 < 1) { i = i + 1; }\n", ["--method", "oracle", "--range=-64:64"], 2,
         "value 65 outside (-64, 64)"),
        ("int i = 2000;\n", ["--method", "oracle"], 2, "entry interval [2000, 2000] outside (-1024, 1100)"),
        ("int i = 0;\n", ["--range=5:1"], 1, "bad range '5:1', lo exceeds hi"),
        ("int i = 0;\n", ["--range=5"], 1, "bad range '5', expected lo:hi"),
        ("int i = 0;\n", ["--rewrites", "truncated:x"], 1, "bad rewrites depth in 'truncated:x'"),
        ("int i = 0;\n", ["--rewrites", "some"], 1, "unknown rewrites mode 'some' (off, full, truncated:<d>)"),
    ],
)
def test_short_values_and_flags_are_quoted_whole(tmp_path, capsys, source, argv, code, message):
    path = tmp_path / "p.imp"
    path.write_text(source)
    assert main(["intervals", "--input", str(path), *argv]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "value, code, shown",
    [
        ("-5:100", 0, "L5           i=[3, 3]"),
        ("-50:-7", 2, "entry interval [0, 0] outside (-50, -7)"),
        ("0:100", 0, "assert 0 at L2: oracle=proved"),
        ("-5", 1, "bad range '-5', expected lo:hi"),
        ("5:1", 1, "bad range '5:1', lo exceeds hi"),
        ("5", 1, "bad range '5', expected lo:hi"),
        (f"-0:{LONG_DIGITS}", 1, "...', expected lo:hi"),
    ],
    ids=["negative-low", "negative-both", "nonnegative", "negative-alone", "reversed", "one-bound", "long"],
)
def test_range_with_or_without_equals_sign_reads_alike(tmp_path, capsys, value, code, shown):
    """A negative low bound after a space is the flag's value, not a flag:
    both spellings give the same exit code, report and message."""
    path = tmp_path / "p.imp"
    path.write_text("int i = 0;\nwhile (i < 3) { i = i + 1; }\nassert (i == 3);\n")
    runs = []
    for argv in (["--range", value], [f"--range={value}"]):
        runs.append((main(["intervals", "--input", str(path), "--method", "oracle", *argv]), *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == code and shown in runs[0][1 if code == 0 else 2]


@pytest.mark.parametrize(
    "argv",
    [
        ("cache", "--input", "{demo}/flag_reuse.imp", "--assoc", "4", "--method", "exact", "--format", "{fmt}"),
        ("cache", "--input", "{demo}/flag_reuse.imp", "--assoc", "4", "--method", "compare", "--format", "{fmt}"),
        ("intervals", "--input", "{demo}/ring_index.imp", "--method", "policy", "--format", "{fmt}"),
        ("intervals", "--input", "{demo}/ring_index.imp", "--method", "compare", "--format", "{fmt}"),
    ],
    ids=["cache-exact", "cache-compare", "intervals-policy", "intervals-compare"],
)
def test_timings_add_only_the_timings_object(demo_dir, capsys, argv):
    def run(fmt, *extra):
        code = main([a.format(demo=demo_dir, fmt=fmt) for a in argv] + list(extra))
        out, err = capsys.readouterr()
        assert err == ""
        return code, out

    plain_code, plain = run("json")
    timed_code, timed = run("json", "--timings")
    assert timed_code == plain_code
    plain, timed = json.loads(plain), json.loads(timed)
    assert plain["timings"] == {}
    timings = timed.pop("timings")
    del plain["timings"]
    assert timed == plain
    method = argv[argv.index("--method") + 1]
    if method == "compare":
        methods = {"approx", "exact", "oracle"} if argv[0] == "cache" else {
            "widen", "widen-narrow", "policy", "exhaustive", "oracle"}
    else:
        methods = {method}
    assert set(timings) == methods | {"total"}
    assert all(type(t) is float and t >= 0 for t in timings.values())
    assert run("text", "--timings") == run("text")


# Characters the writer must escape or pass through exactly as json.dumps
# does: quotes, backslashes, every control character, DEL, non-ASCII, line
# and paragraph separators, a lone surrogate and astral code points.
JSON_CHARS = (
    ['"', "\\", "/", "a", "Z", "0", " ", "\x7f", "\u00e9", "\u00ff", "\u2028", "\u2029",
     "\ud800", "\uffff", "\U0001d4b3", "\U0010ffff"]
    + [chr(c) for c in range(0x20)]
)


def _random_text(rng) -> str:
    return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randint(0, 6)))


def _random_scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice((0, 1, -1, rng.randint(-2**16, 2**16), rng.randint(-2**80, 2**80),
                           2**64, 2**64 + 1, -2**64 - 1))
    if kind == 2:
        x = rng.choice((rng.uniform(-1e3, 1e3), rng.uniform(0, 1e-4), rng.uniform(-1e20, 1e20), 0.0, -0.0))
        return round(x, 6)
    return (True, False, None, "")[kind - 3]


def _random_report_value(rng, depth: int = 0):
    roll = rng.random()
    if depth >= 4 or roll < 0.4:
        return _random_scalar(rng)
    width = rng.choice((0, 1, 2, 3, 5))
    if roll < 0.7:
        return {_random_text(rng): _random_report_value(rng, depth + 1) for _ in range(width)}
    return [_random_report_value(rng, depth + 1) for _ in range(width)]


def test_json_writer_matches_json_dumps():
    rng = random.Random(20261018)
    for _ in range(2500):
        value = _random_report_value(rng)
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


# Programs for the intervals writer beyond the demos: no variables,
# non-ASCII names, unreachable locations, and bounds at both infinities.
WRITER_PROGRAMS = (
    "while (*) { }\n",
    "assert (1 < 2);\n",
    "int \u00e9t\u00e9 = 0; int \u0436; int \U0001d4b3 = 2;\n"
    "while (\u00e9t\u00e9 < 5) { \u00e9t\u00e9 = \u00e9t\u00e9 + 1; \u0436 = \u0436 - 1; }\n"
    "assert (\U0001d4b3 < 3);\n",
    "int v = 0; if (1 > 2) { v = 1; } while (2 < 1) { v = v + 1; } assert (v <= 0);\n",
    "int v = 0; int w; while (*) { v = v + 1; } w = w - v;\n",
    "int v = 3; while (*) { if (v > -7) { v = v - 1; } } assert (v >= -7);\n",
)


def test_intervals_json_report_reads_as_json_dumps(demo_dir, tmp_path, capsys):
    """The intervals report is written from a fixed template, not by the
    generic writer: it must read back byte for byte as json.dumps writes it,
    for every method, with and without rewrites."""
    texts = [text for path in sorted(demo_dir.glob("*.imp")) if "access(" not in (text := path.read_text())]
    texts += WRITER_PROGRAMS
    rng = random.Random(20261026)
    texts += [pretty(random_program(rng)) for _ in range(25)]
    runs = [["--method", m] for m in ("widen", "widen-narrow", "policy", "exhaustive", "oracle", "compare")]
    runs += [["--method", m, "--rewrites", "full"] for m in ("widen", "widen-narrow", "compare")]
    written = Counter()
    seen = set()
    for index, text in enumerate(texts):
        path = tmp_path / f"p{index}.imp"
        path.write_text(text, encoding="utf-8")
        for run in runs:
            code = main(["intervals", "--input", str(path), "--format", "json", *run])
            out = capsys.readouterr().out
            if code in (0, 3):
                assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", (text, run)
                written[run[1]] += 1
                seen |= {part for part in ('"+oo"', '"-oo"', "null", '"env": {}', "\\u0436", "\\ud835\\udcb3")
                         if part in out}
            else:
                assert out == ""
    # Every method wrote reports, compare one for every program, and the
    # reports held both infinities, null, an empty environment and escapes.
    assert set(written) == {"widen", "widen-narrow", "policy", "exhaustive", "oracle", "compare"}
    assert written["compare"] == 2 * len(texts)
    assert len(seen) == 6


def _graph_text(cfg, names) -> str:
    """An access graph in the text format, with its locations and blocks
    renamed through `names`."""
    lines = [f"loc {names(loc)}" for loc in cfg.locations] + [f"entry {names(cfg.entry)}"]
    for e in cfg.edges:
        access = f" access {names(e.label.block)}" if hasattr(e.label, "block") else ""
        lines.append(f"edge {names(e.src)} {names(e.dst)}{access}")
    return "\n".join(lines) + "\n"


def test_cache_json_report_reads_as_json_dumps(demo_dir, tmp_path, capsys):
    """The cache report's results are written from the same fixed template
    as the intervals report's: they must read back byte for byte as
    json.dumps writes them, for every method and both initial contents, in
    compare and single-method form, with escaped names and no sites."""
    texts = [(demo_dir / "flag_reuse.ag").read_text(), (demo_dir / "flag_reuse.imp").read_text(),
             "loc a\nentry a\n"]
    rng = random.Random(20261020)
    odd = ['"q"', "\\b", "\u00e9t\u00e9", "\u0436", "\U0001d4b3"]
    for i in range(30):
        cfg = random_cache_cfg(rng, 8, 4)
        prefix = {name: rng.choice(odd) if i % 3 == 0 else "" for name in (*cfg.locations, *cfg.blocks())}
        texts.append(_graph_text(cfg, lambda name: prefix[name] + name))
    texts += [pretty(random_program(rng, cache_mode=True)) for _ in range(10)]
    written = Counter()
    seen = set()
    for index, text in enumerate(texts):
        path = tmp_path / (f"g{index}.imp" if "access(" in text else f"g{index}.ag")
        path.write_text(text, encoding="utf-8")
        for method in ("approx", "exact", "oracle", "pipeline", "compare"):
            for init in ("empty", "unknown"):
                code = main(["cache", "--input", str(path), "--assoc", str(1 + index % 3), "--method", method,
                             "--init", init, "--format", "json"])
                out = capsys.readouterr().out
                assert code == 0, (text, method, init)
                assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", (text, method, init)
                written[method] += 1
                seen |= {part for part in ('"results": []', "\\u0436", "\\ud835\\udcb3", '\\"q\\"', "\\\\b",
                                           '"disagreements": []') if part in out}
    assert set(written.values()) == {2 * len(texts)}
    assert len(seen) == 6


@pytest.mark.parametrize("value", [(1, 2), {1, 2}, b"x", object(), {1: "a"}, {"a": [(1,)]}, {("a",): 1}])
def test_json_writer_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_demo_runs_leave_no_reference_cycles(demo_dir, capsys, monkeypatch):
    """After a warm-up, a run on a demo frees everything it built by
    reference counting: with the cyclic collector paused around the run,
    a collection afterwards finds nothing."""
    monkeypatch.chdir(demo_dir.parent)
    runs = []
    for path in sorted(demo_dir.glob("*.imp")):
        for extra in (("--method", "compare"), ("--rewrites", "full"), ("--rewrites", "truncated:1")):
            runs.append(["intervals", "--input", f"demo/{path.name}", *extra])
    for name in ("flag_reuse.ag", "flag_reuse.imp"):
        for extra in (("--method", "compare"), ("--method", "pipeline", "--init", "unknown")):
            runs.append(["cache", "--input", f"demo/{name}", "--assoc", "4", *extra])
    for argv in runs:
        main(argv)
    left = {}
    for argv in runs:
        gc.collect()
        gc.disable()
        try:
            main(argv)
            left[" ".join(argv)] = gc.collect()
        finally:
            gc.enable()
    capsys.readouterr()
    assert left == dict.fromkeys(left, 0)
