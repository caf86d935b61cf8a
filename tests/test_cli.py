from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest

from absint import boundsolve
from absint.cli import _Encoded, _json_text, main

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


@pytest.mark.parametrize("method", ["widen", "widen-narrow", "compare"])
def test_long_flat_sum_is_evaluated(tmp_path, method):
    """A sum of 3,000 terms parses into a left-nested tree far deeper than
    the recursion limit; without rewrites it is evaluated exactly."""
    path = tmp_path / "sum.imp"
    path.write_text("int x = 0;\nx = " + " + ".join(["1"] * 3000) + ";\n")
    code, out, err = run_cli("intervals", "--input", str(path), "--method", method,
                             "--rewrites", "off", "--format", "json")
    assert (code, err) == (0, ""), err
    last = json.loads(out)["results"][-1]
    envs = [last["widen"], last["widen-narrow"]] if method == "compare" else [last["env"]]
    assert envs == [{"x": [3000, 3000]}] * len(envs)


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


def test_json_writer_places_encoded_text_at_any_depth():
    # Text encoded once reads exactly as the value does inside any containers.
    rng = random.Random(20261019)
    for _ in range(1000):
        value = _random_report_value(rng)
        keys = [_random_text(rng) if rng.random() < 0.5 else None for _ in range(rng.randint(0, 4))]

        def nest(inner):
            for key in keys:
                inner = [inner, 1] if key is None else {key: inner, "~": 1}
            return inner

        reused = nest(_Encoded(_json_text(value)))
        assert _json_text(reused) == json.dumps(nest(value), indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [(1, 2), {1, 2}, b"x", object(), {1: "a"}, {"a": [(1,)]}, {("a",): 1}])
def test_json_writer_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        _json_text(value)
