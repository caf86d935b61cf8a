"""Byte-exact goldens for the interval and rewrite analyses.

Three pins, checked against every later change of the fixpoint engine:

* the SHA-256 of the stdout (and the exit code) of ``absint intervals`` on
  every ``demo/*.imp`` over a fixed set of methods, knobs and formats;
* one SHA-256 over the final environments and assertion verdicts of
  ``analyze`` and ``analyze_combined`` on 150 seeded random programs, and
  one more over ``analyze_combined`` on the same programs at truncation
  depths 2 and 3 and at a widening delay of 1 (recorded before rules
  became linear forms);
* one SHA-256 over the exit codes and ``--format json`` stdout of
  ``absint intervals --method widen-narrow``, with and without
  ``--rewrites full``, on a few seeded programs of 300-800 locations (the
  size of the benchmark's programs, where the engine's shortcuts are
  exercised far more often than on the small ones).

* one SHA-256 over the reached cache states of ``collect_states`` on
  random and region access graphs, at several associativities and both
  initial-content policies (budget errors pinned by their message);
* one SHA-256 over the must and may bounds of ``helpers.analyze_approx``
  (sorted, or None where unreached) at every location of the same graphs,
  at several associativities and both initial-content policies;
* one SHA-256 over the whole result of ``focused.analyze_block`` (every
  location's view, in the order the result lists its locations) on random
  and region access graphs, for every block and one block no edge
  accesses, at several associativities, for both orientations with empty
  contents and for KEEP_MIN with unknown contents;
* one SHA-256 over the two facts the exact verdicts read, the KEEP_MAX
  absent flag and whether the KEEP_MIN store is nonempty, at every location
  of the same runs under both initial-content policies;
* one SHA-256 over the whole result of ``focused.analyze_block`` where
  stores hold hundreds of sets: wide graphs with 2^k incomparable sets at
  one location, with and without a second set size, and a 250-location
  region graph at N = 16, for every block, both orientations and both
  initial-content policies (recorded before stores became flat sets);
* one SHA-256 over the hulls, or the error, of ``bounded_concrete_oracle``
  on fragment programs and on programs it must reject or that stray out of
  range;
* the SHA-256 of the stdout (and the exit code) of ``absint cache`` with
  the oracle and compare methods on every ``demo/`` file;
* one SHA-256 over the exit codes and ``--format json`` stdout of
  ``intervals`` and ``cache --method compare`` on demos copied to a file
  whose name holds a quote, a backslash, a non-ASCII letter and an astral
  code point (the report echoes it in its ``"input"`` field);
* one SHA-256 per Unicode version over the lexer's tokens, or its error,
  for every BMP code point at the start of a token, after a letter and
  after a digit;
* one SHA-256 over the AST, or the error with its line and column, of
  ``parse_program`` on the demos, seeded long and fragment programs, token
  mutations of all of them and the lexer's odd texts;
* one SHA-256 over the dump of each system and the result, or the error,
  of ``solve_exhaustive`` at a cap of 12 min/max nodes, on seeded corner
  systems and on the upper and negated systems of seeded fragment programs;
* one SHA-256 over the dump, or the error, of ``extract_upper_bounds`` in
  both orientations, at the declared entry bound and at an unbounded one,
  on seeded fragment and gadget programs and on the oracle's odd programs
  (recorded before extraction began classifying each edge once).

A failing pin means the analysis output changed.  If that is intended,
print the matching ``_..._digest()`` or ``_..._digests()`` function's value
from a session with the new code and replace the value below.
"""

from __future__ import annotations

import hashlib
import random
import unicodedata

import helpers
from absint.antichain import Orientation
from absint.boundsolve import bounded_concrete_oracle, extract_upper_bounds, solve_exhaustive
from absint.cfg import build_cfg
from absint.cli import main
from absint.focused import analyze_block
from absint.intervals import NEG_INF, POS_INF, Interval, analyze, entry_environment
from absint.lang import ParseError, _tokenize, parse_program
from absint.lru import InitPolicy, OracleBudgetError, collect_states
from absint.rewrite import analyze_combined
from helpers import dump_system, pretty

# (run name, extra CLI arguments); each runs in text and in json.
RUNS = (
    ("widen", ("--method", "widen")),
    ("widen-narrow", ("--method", "widen-narrow")),
    ("widen-delay-1", ("--method", "widen", "--widen-delay", "1")),
    ("narrow-passes-2", ("--method", "widen-narrow", "--narrow-passes", "2")),
    ("rewrites-full", ("--method", "widen-narrow", "--rewrites", "full")),
    ("rewrites-truncated-1", ("--method", "widen-narrow", "--rewrites", "truncated:1")),
    ("compare", ("--method", "compare")),
)

CLI_GOLDENS = {
    'copy_diff.imp widen text': (0, '5cf84adfd5b3c158a87463abf2cd37b4d5cdcb86538f21e7db84d2b94af54490'),
    'copy_diff.imp widen json': (0, '78c8bb56aa50ce093a067d1378e8ed2c85cdffc37d3d699fb32a7a9a68208970'),
    'copy_diff.imp widen-narrow text': (0, 'c88f99aefcd728e82f7bc7be5064cb0f47a9ce14f60580ea37e33c9e217538cc'),
    'copy_diff.imp widen-narrow json': (0, 'adf8505e05545e10e1317cc63db094f5d477f7201cf04d3a548590f9cae0652f'),
    'copy_diff.imp widen-delay-1 text': (0, '5cf84adfd5b3c158a87463abf2cd37b4d5cdcb86538f21e7db84d2b94af54490'),
    'copy_diff.imp widen-delay-1 json': (0, '78c8bb56aa50ce093a067d1378e8ed2c85cdffc37d3d699fb32a7a9a68208970'),
    'copy_diff.imp narrow-passes-2 text': (0, 'c88f99aefcd728e82f7bc7be5064cb0f47a9ce14f60580ea37e33c9e217538cc'),
    'copy_diff.imp narrow-passes-2 json': (0, 'adf8505e05545e10e1317cc63db094f5d477f7201cf04d3a548590f9cae0652f'),
    'copy_diff.imp rewrites-full text': (0, 'd8abae7d0497d931ba29f09c43404aadae03081b389eb0f2c333edeab03ef900'),
    'copy_diff.imp rewrites-full json': (0, '4065ce4a8a5e2ee587845b398ae09ce55ee34c9d3190b51b417bce3a1655ba16'),
    'copy_diff.imp rewrites-truncated-1 text': (0, 'd8abae7d0497d931ba29f09c43404aadae03081b389eb0f2c333edeab03ef900'),
    'copy_diff.imp rewrites-truncated-1 json': (0, '9040da2338e5a4546e3876b4f77128daeb0fb29e2c5b9f7db247bc4cc8b80ea5'),
    'copy_diff.imp compare text': (0, 'd64ed14c6a7bd92bc37337b19878a7f0317ba3767397113d7344ba245a66ab1c'),
    'copy_diff.imp compare json': (0, 'f070eb6581214592b4f34577ddf25f6c80e075812f25c6a368572f9ea740dceb'),
    'flag_reuse.imp widen text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp widen json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp widen-narrow text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp widen-narrow json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp widen-delay-1 text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp widen-delay-1 json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp narrow-passes-2 text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp narrow-passes-2 json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp rewrites-full text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp rewrites-full json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp rewrites-truncated-1 text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp rewrites-truncated-1 json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp compare text': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flag_reuse.imp compare json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'guarded_copy.imp widen text': (0, '2d905fc72070aa2a77eb1ab7d71137296c96a737f5ca20cdcb6b86e3f519f1c9'),
    'guarded_copy.imp widen json': (0, '0538885315e47cbdec7454aaf314b0d90f04d6c15be203c38f710d525eff532c'),
    'guarded_copy.imp widen-narrow text': (0, '9a7f241279f47c13af4de46e3a73f4f88e583ed43afa136d74ff804c59427f8a'),
    'guarded_copy.imp widen-narrow json': (0, 'fc1fc324fcc42583d2bcd8ce4c524be0d1249eca2bc53c5c02d46245685ce87f'),
    'guarded_copy.imp widen-delay-1 text': (0, '2d905fc72070aa2a77eb1ab7d71137296c96a737f5ca20cdcb6b86e3f519f1c9'),
    'guarded_copy.imp widen-delay-1 json': (0, '0538885315e47cbdec7454aaf314b0d90f04d6c15be203c38f710d525eff532c'),
    'guarded_copy.imp narrow-passes-2 text': (0, '9a7f241279f47c13af4de46e3a73f4f88e583ed43afa136d74ff804c59427f8a'),
    'guarded_copy.imp narrow-passes-2 json': (0, 'fc1fc324fcc42583d2bcd8ce4c524be0d1249eca2bc53c5c02d46245685ce87f'),
    'guarded_copy.imp rewrites-full text': (0, '9a7f241279f47c13af4de46e3a73f4f88e583ed43afa136d74ff804c59427f8a'),
    'guarded_copy.imp rewrites-full json': (0, '88b339509a5219a0e10e8ad989a4d78acb15fcce23bbafe7fd59111c7da498df'),
    'guarded_copy.imp rewrites-truncated-1 text': (0, 'ad3b9456bb89e23a4888dc32b994d64a19fa55f252a828cf9080a452f61670e9'),
    'guarded_copy.imp rewrites-truncated-1 json': (0, '33b343fa1b05db616b268ff84fa2458bb28ac83464c756432881567fcf1a245b'),
    'guarded_copy.imp compare text': (0, '1473017d1e1deedd63b133a7d78909e85b5bf9aeb1f21869b153e8ce32c2f3d8'),
    'guarded_copy.imp compare json': (0, '48767f1560da8cd78a1055bdb1ac99e3cc1af7735d69d0ad9decc0c666438e66'),
    'ring_index.imp widen text': (3, '80e8114abab3ce75a05553bbc051f3e499ba6e9d0c3a84250b7d66cc190745d8'),
    'ring_index.imp widen json': (3, '25efbbec469f3f7da0fc64044804cde18798c0317c9b08370ff76505e963fd03'),
    'ring_index.imp widen-narrow text': (3, '34910f8169c01f80edec39a3ad14bdef4053177ce5171bdff635c2ff8b6b6557'),
    'ring_index.imp widen-narrow json': (3, 'e736cec817e51ba56c323682c7fea174a258b0b60fba100a4d79ec68c214dd86'),
    'ring_index.imp widen-delay-1 text': (3, '80e8114abab3ce75a05553bbc051f3e499ba6e9d0c3a84250b7d66cc190745d8'),
    'ring_index.imp widen-delay-1 json': (3, '25efbbec469f3f7da0fc64044804cde18798c0317c9b08370ff76505e963fd03'),
    'ring_index.imp narrow-passes-2 text': (3, 'ef5a053e6f5dd7d03a7c21b0ab685323986f8d02754c94b0004c9be26857a84f'),
    'ring_index.imp narrow-passes-2 json': (3, 'dcf239724bed7d22ce3da5141f1b2aae5d6359d640f366196f2d5caaf4ff1376'),
    'ring_index.imp rewrites-full text': (3, '34910f8169c01f80edec39a3ad14bdef4053177ce5171bdff635c2ff8b6b6557'),
    'ring_index.imp rewrites-full json': (3, '9242adf4ad7132aafcd9f5003816132fb5fcd73143113b43c5b4a36378165a52'),
    'ring_index.imp rewrites-truncated-1 text': (3, '34910f8169c01f80edec39a3ad14bdef4053177ce5171bdff635c2ff8b6b6557'),
    'ring_index.imp rewrites-truncated-1 json': (3, 'baf3e5d93ee12d925891a4c949a5e20bcabd321ecaa5bef7a53c3eade67dbe49'),
    'ring_index.imp compare text': (0, 'a48b482d172f4843d66e64f78f8de4f1b5c6b16cbc78e7ed6b15c82f02d38682'),
    'ring_index.imp compare json': (0, 'd63bd95ddc571d7c5fd3393c90658063778d4cac1e61e7cf582839bd7b79a919'),
}

CORPUS_SEED = 20261018
CORPUS_SIZE = 150
CORPUS_GOLDEN = '4fdea8b094af19a8de8996b9900723c0e8fbb369e22e12ee30cfa9ac792c02d1'
# (truncate_depth, widen_delay) of the combined runs CORPUS_GOLDEN leaves out.
COMBINED_RUNS = ((2, 0), (3, 0), (None, 1), (1, 1), (2, 1), (3, 1))
COMBINED_GOLDEN = 'f9e15484c437e50baae72d9405c9a2503864076d7b2697070c4a4b87c417da4d'


LONG_SEED = 20261019
LONG_STMTS = (75, 120, 170)
LONG_GOLDEN = '3b4eee19fa7d723ecf4674bf0ea6e04e56cdddbc08a071ff712433e47ddc3f59'


def _cli_digests(demo_dir, capsys, monkeypatch) -> dict:
    monkeypatch.chdir(demo_dir.parent)
    out = {}
    for path in sorted(demo_dir.glob("*.imp")):
        for name, extra in RUNS:
            for fmt in ("text", "json"):
                code = main(["intervals", "--input", f"demo/{path.name}", *extra, "--format", fmt])
                stdout = capsys.readouterr().out
                digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
                out[f"{path.name} {name} {fmt}"] = (code, digest)
    return out


def _corpus_digest() -> str:
    rng = random.Random(CORPUS_SEED)
    h = hashlib.sha256()
    for index in range(CORPUS_SIZE):
        program = helpers.random_program(rng)
        cfg = build_cfg(program)
        env = entry_environment(program)
        runs = [
            (f"analyze {delay} {passes}", analyze(cfg, env, delay, passes))
            for delay in (0, 1, 2)
            for passes in (0, 1)
        ]
        runs += [
            (f"combined {depth}", analyze_combined(cfg, env, depth, 0, 1))
            for depth in (None, 1)
        ]
        for name, result in runs:
            _hash_result(h, f"#{index} {name}", cfg, result)
    return h.hexdigest()


def _combined_corpus_digest() -> str:
    rng = random.Random(CORPUS_SEED)
    h = hashlib.sha256()
    for index in range(CORPUS_SIZE):
        program = helpers.random_program(rng)
        cfg = build_cfg(program)
        env = entry_environment(program)
        for depth, delay in COMBINED_RUNS:
            result = analyze_combined(cfg, env, depth, delay, 1)
            _hash_result(h, f"#{index} combined {depth} {delay}", cfg, result)
    return h.hexdigest()


def _hash_result(h, name: str, cfg, result) -> None:
    h.update(f"{name}\n".encode())
    for loc in cfg.locations:
        h.update(f"{loc} {result.envs[loc]!r}\n".encode())
    h.update(f"{result.asserts!r}\n".encode())


def _long_digest(tmp_path, capsys, monkeypatch) -> str:
    monkeypatch.chdir(tmp_path)
    rng = random.Random(LONG_SEED)
    h = hashlib.sha256()
    for index, n_stmts in enumerate(LONG_STMTS):
        program = helpers.random_long_program(rng, 6, n_stmts)
        name = f"long{index}.imp"
        (tmp_path / name).write_text(pretty(program))
        for extra in ((), ("--rewrites", "full")):
            code = main(["intervals", "--input", name, "--method", "widen-narrow", *extra,
                         "--format", "json"])
            h.update(f"#{index} {' '.join(extra)} exit {code}\n".encode())
            h.update(capsys.readouterr().out.encode("utf-8"))
    return h.hexdigest()


def test_cli_stdout_goldens(demo_dir, capsys, monkeypatch):
    got = _cli_digests(demo_dir, capsys, monkeypatch)
    assert got == CLI_GOLDENS


def test_random_program_corpus_golden():
    assert _corpus_digest() == CORPUS_GOLDEN


def test_combined_depths_and_delay_golden():
    assert _combined_corpus_digest() == COMBINED_GOLDEN


def test_long_program_json_golden(tmp_path, capsys, monkeypatch):
    assert _long_digest(tmp_path, capsys, monkeypatch) == LONG_GOLDEN


LRU_SEED = 20261020
LRU_RANDOM_GRAPHS = 60
LRU_REGIONS = ((20, 5), (30, 8), (40, 10))
LRU_BUDGET = 50_000
LRU_SMALL_BUDGET = 300
LRU_GOLDEN = '569d7920e9a296a1c6f9c240f576fc90128d86e3d03c7dddfd61dcfa690a4fcd'


def _lru_graphs() -> list:
    rng = random.Random(LRU_SEED)
    graphs = helpers.cache_corpus(LRU_SEED, LRU_RANDOM_GRAPHS)
    return graphs + [helpers.region_cache_cfg(rng, locs, blocks) for locs, blocks in LRU_REGIONS]


def _lru_digest() -> str:
    graphs = _lru_graphs()
    runs = [(n, init, LRU_BUDGET) for n in (1, 2, 4, 6) for init in InitPolicy]
    runs += [(4, init, LRU_SMALL_BUDGET) for init in InitPolicy]
    h = hashlib.sha256()
    for index, cfg in enumerate(graphs):
        for n, init, budget in runs:
            h.update(f"#{index} {n} {init.value} {budget}\n".encode())
            try:
                reached = collect_states(cfg, n, init, budget)
            except OracleBudgetError as exc:
                h.update(f"budget: {exc}\n".encode())
                continue
            for loc in sorted(reached):
                h.update(f"{loc} {sorted(reached[loc])!r}\n".encode())
    return h.hexdigest()


AGEBOUNDS_GOLDEN = '4afb9b3e224f18e8e4e6c26f3e749b3d7649cf58fe937f2205495d0eae96b53d'


def _agebounds_digest() -> str:
    h = hashlib.sha256()
    for index, cfg in enumerate(_lru_graphs()):
        for n in (1, 2, 4, 6):
            for init in InitPolicy:
                h.update(f"#{index} {n} {init.value}\n".encode())
                bounds = helpers.analyze_approx(cfg, n, init)
                for loc in sorted(bounds):
                    b = bounds[loc]
                    shown = None if b is None else (sorted(b.must.items()), sorted(b.may.items()))
                    h.update(f"{loc} {shown!r}\n".encode())
    return h.hexdigest()


FOCUSED_SEED = 20261022
FOCUSED_RANDOM_GRAPHS = 40
FOCUSED_REGIONS = ((20, 5), (40, 8), (60, 10))
# The runs whose whole views are pinned.  KEEP_MAX under unknown contents is
# pinned by its absent flag alone (the facts golden), the one part of its
# views a verdict reads.
FOCUSED_VIEW_RUNS = (
    (Orientation.KEEP_MAX, InitPolicy.EMPTY),
    (Orientation.KEEP_MIN, InitPolicy.EMPTY),
    (Orientation.KEEP_MIN, InitPolicy.UNKNOWN),
)
FOCUSED_VIEWS_GOLDEN = 'b0a7dd7ce14a9a35da6032a483c8bc059882c3cd4e1d51ee9b91db5c32b615be'
FOCUSED_FACTS_GOLDEN = '08b0578245596a86296c06b7f6b978ca37a30cc750c4e3a4908cec64d9e33b71'


def _focused_cases():
    """(index, graph, focus, N) for every block of each graph and one block
    no edge accesses."""
    rng = random.Random(FOCUSED_SEED)
    graphs = helpers.cache_corpus(FOCUSED_SEED, FOCUSED_RANDOM_GRAPHS)
    graphs += [helpers.region_cache_cfg(rng, locs, blocks) for locs, blocks in FOCUSED_REGIONS]
    for index, cfg in enumerate(graphs):
        for focus in cfg.blocks() + ("never-accessed",):
            for n in (2, 4, 6):
                yield index, cfg, focus, n


def _focused_views_digest() -> str:
    h = hashlib.sha256()
    for index, cfg, focus, n in _focused_cases():
        locations = cfg.access_index.locations
        for orientation, init in FOCUSED_VIEW_RUNS:
            views = analyze_block(cfg, focus, n, orientation, init)
            assert dict(views) == {loc: views[loc] for loc in locations}
            h.update(f"#{index} {focus} {n} {orientation.name} {init.value}\n".encode())
            shown = [(loc, v.may_absent, v.younger.orientation.value, v.younger.elements)
                     for loc, v in views.items()]
            h.update(f"{shown!r}\n".encode())
    return h.hexdigest()


def _focused_facts_digest() -> str:
    h = hashlib.sha256()
    for index, cfg, focus, n in _focused_cases():
        for init in InitPolicy:
            vmax = analyze_block(cfg, focus, n, Orientation.KEEP_MAX, init)
            vmin = analyze_block(cfg, focus, n, Orientation.KEEP_MIN, init)
            h.update(f"#{index} {focus} {n} {init.value}\n".encode())
            facts = [(loc, vmax[loc].may_absent, len(vmin[loc].younger) > 0)
                     for loc in cfg.access_index.locations]
            h.update(f"{facts!r}\n".encode())
    return h.hexdigest()


WIDE_SEED = 20261019
# Runs whose stores hold many masks at once: the wide graphs put 2^k
# pairwise incomparable sets of one size (and, mixed, 2^(k-2) more of the
# next size down) at one location, at an associativity that fits them and
# at one that evicts; the region graph is as large as the mid-size oracle
# cross-checks, at N = 16.  Both orientations under both inits.
WIDE_VIEWS_GOLDEN = 'a46e77898b93f08017b5eef330c9a230e5982d999cfd61a48f945304aea30a84'


def _wide_cases():
    """(name, graph, N) for the wide graphs for k <= 10, mixed for
    2 <= k <= 9, and one region graph of 250 locations over 12 blocks."""
    for k in range(1, 11):
        for mixed in (False, True) if 2 <= k <= 9 else (False,):
            cfg = helpers.wide_antichain_cfg(k, mixed)
            for n in (k // 2 + 1, k + 1):
                yield f"wide {k} {mixed}", cfg, n
    yield "region", helpers.region_cache_cfg(random.Random(WIDE_SEED), 250, 12, extra=0.8), 16


def _wide_views_digest() -> str:
    h = hashlib.sha256()
    for name, cfg, n in _wide_cases():
        for focus in cfg.blocks() + ("never-accessed",):
            for orientation in Orientation:
                for init in InitPolicy:
                    views = analyze_block(cfg, focus, n, orientation, init)
                    h.update(f"#{name} {focus} {n} {orientation.name} {init.value}\n".encode())
                    shown = [(loc, v.may_absent, v.younger.elements) for loc, v in views.items()]
                    h.update(f"{shown!r}\n".encode())
    return h.hexdigest()


# (program, variable, entry interval or None for the declared constant,
# value range, budget) for the cases the fragment generator does not make.
NUMERIC_CASES = (
    ("int v = 0; while (v < 100) { v = v + 1; }", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; while (v < 100) { v = v + 1; }", "v", None, (-1024, 1100), 50),
    ("int v = 0; while (v < 100) { v = v + 1; } v = *;", "v", None, (-1024, 1100), 50),
    ("int v = 0; while (0 < 1) { v = v + 1; }", "v", None, (-8, 8), 1_000_000),
    ("int v = 0; while (0 < 1) { v = v - 3; }", "v", None, (-8, 8), 1_000_000),
    ("int v = 2000;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; v = 5000; v = *;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; v = *;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; v = v + v;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; v = 2 - v;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; if (v < v + 1) { v = 1; }", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; int w = 1; v = w;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; access(b); v = 1;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; if (v > 3) { access(b); } v = v + 2;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; if (v > 5) { v = v + v; } v = v + 1;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; while (2 < 1) { v = *; } v = 7;", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; if (1 < 2) { v = 3; } else { v = *; }", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; if (*) { v = v + 1; } else { v = *; }", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; while (v != 5) { v = v + 1; } if (v == 5) { v = 9; }", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; while (10 > v) { v = v + 2; } if (3 <= v) { v = v - 1; }", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; while (v >= -5) { if (v > -2) { v = v - 1; } else { v = v - 2; } }", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; while (*) { if (v < 6) { v = 6 + v; } }", "v", None, (-1024, 1100), 1_000_000),
    ("int v = 0; while (v < 40) { v = v + 1; }", "v", Interval.make(-3, 3), (-1024, 1100), 1_000_000),
    ("int v = 0; while (v < 40) { v = v + 1; }", "v", Interval(POS_INF, NEG_INF), (-1024, 1100), 1_000_000),
    ("int v = 0; while (v < 40) { v = v + 1; }", "v", Interval(NEG_INF, 3), (-1024, 1100), 1_000_000),
    ("int v = 0; while (v < 40) { v = v + 1; }", "v", Interval.make(-2000, 0), (-1024, 1100), 1_000_000),
    ("int v = 0; while (v < 40) { v = v + 1; }", "w", None, (-1024, 1100), 1_000_000),
    ("while (*) { }", "v", Interval.const(4), (-1024, 1100), 1_000_000),
    # Which error comes first depends on the order the values are explored.
    ("int v = 0; if (v > 0) { v = v + 10; } else { v = *; }", "v", Interval.make(-3, 3), (-8, 8), 1_000_000),
    ("int v = 0; if (v < 0) { v = v - 10; } else { v = *; }", "v", Interval.make(-3, 3), (-8, 8), 1_000_000),
)
NUMERIC_SEED = 20261021
NUMERIC_RAW_PROGRAMS = 200
# Re-recorded when the fragment errors began quoting the pretty-printed
# right-hand side instead of its AST repr; only those five messages differ.
NUMERIC_GOLDEN = 'c777885deaddf233fd9ca3766b312d216b7dee191ba89c649b51d5d133c868c4'


def _numeric_outcome(cfg, var, entry, value_range, budget) -> str:
    try:
        hulls = bounded_concrete_oracle(cfg, var, entry, value_range, budget)
    except Exception as exc:  # the error is part of the pinned outcome
        return f"{type(exc).__name__}: {exc}"
    return repr(list(hulls.items()))


def _numeric_oracle_digest(fragment_corpus) -> str:
    h = hashlib.sha256()
    for index, (_, cfg, init, _) in enumerate(fragment_corpus):
        outcome = _numeric_outcome(cfg, helpers.FRAGMENT_VAR, Interval.const(init), (-64, 64), 1_000_000)
        h.update(f"corpus #{index} {outcome}\n".encode())
    rng = random.Random(NUMERIC_SEED)
    for index in range(NUMERIC_RAW_PROGRAMS):
        text, init = helpers.random_fragment_program(rng)
        cfg = build_cfg(parse_program(text))
        outcome = _numeric_outcome(cfg, helpers.FRAGMENT_VAR, Interval.const(init), (-16, 16), 60)
        h.update(f"raw #{index} {outcome}\n".encode())
    for text, var, entry, value_range, budget in NUMERIC_CASES:
        program = parse_program(text)
        if entry is None:
            entry = Interval.const(program.decls[0].init.value)
        outcome = _numeric_outcome(build_cfg(program), var, entry, value_range, budget)
        h.update(f"{text} {var} {entry} {value_range} {budget}: {outcome}\n".encode())
    return h.hexdigest()


CACHE_CLI_GOLDENS = {
    'copy_diff.imp oracle 1 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'copy_diff.imp oracle 1 empty json': (0, 'ba4a9efd9f81befa24ffc5efb538f30efd9c6486b6afb6d7c22e75f9bda019ba'),
    'copy_diff.imp oracle 1 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'copy_diff.imp oracle 1 unknown json': (0, '3b0928082aeea9a9da9c4cfab62cd36ef6e2c2c2b26d9de4b4db627c13e0aea3'),
    'copy_diff.imp oracle 2 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'copy_diff.imp oracle 2 empty json': (0, '47817d86f36eff3f16759bfbda8528384424f6382dd8eb61bc96805d409fdd4d'),
    'copy_diff.imp oracle 2 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'copy_diff.imp oracle 2 unknown json': (0, '9fc3b7ce547174fecbc8ffd425e6101fc3e906ba845c024dbf1fd86edf4f5eb1'),
    'copy_diff.imp oracle 4 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'copy_diff.imp oracle 4 empty json': (0, '9369c940e52c870b840676fb4c88578bfbd921549fbc6631cba3f105bb2b7aab'),
    'copy_diff.imp oracle 4 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'copy_diff.imp oracle 4 unknown json': (0, '7787e026e3dc8d97f98d6698174b1643423eef68972539770059688cf9fedb33'),
    'copy_diff.imp compare 1 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'copy_diff.imp compare 1 empty json': (0, '43d088efd7ea91736a9f9d119f14c50aa9ab18e3ff10a635574192af3bc9198b'),
    'copy_diff.imp compare 1 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'copy_diff.imp compare 1 unknown json': (0, '5c459cf47709a61ea373cc024d9b1e478d802bdb17f5a25207320acf3fb05ea4'),
    'copy_diff.imp compare 2 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'copy_diff.imp compare 2 empty json': (0, '8f49dc6e410535bce642bea24b6cb38049e32d02da27724b0fb4b88c85cf4652'),
    'copy_diff.imp compare 2 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'copy_diff.imp compare 2 unknown json': (0, '5343efd88c9d797e00354578e0ce69a8b79af47bfebf619a83f7dc44da7468f6'),
    'copy_diff.imp compare 4 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'copy_diff.imp compare 4 empty json': (0, '0b08fb16c76067937f3f081b9c2ab7949ac3c5297c0ca66ec30275c5c07a2b11'),
    'copy_diff.imp compare 4 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'copy_diff.imp compare 4 unknown json': (0, 'bc4479079d6dccc152c9ee653af1b9cf24f70aaf922eb64aafc374f8fc0cce54'),
    'flag_reuse.ag oracle 1 empty text': (0, '8662da70a09cf5cb89515ab7fcd4cfa99fe59448fb97e0bffb2c2bcd148b454a'),
    'flag_reuse.ag oracle 1 empty json': (0, 'a0e295bd316f99892ac4b1c94eac9b2059180cad2b737f103611ab066069b478'),
    'flag_reuse.ag oracle 1 unknown text': (0, '95b364144f03bf293f15cc01be229893e5a8d302249d308009c8662c352c7634'),
    'flag_reuse.ag oracle 1 unknown json': (0, 'c200dfc70cbc6a1d4bc1870770f0d5848c2be44d6d3b2cc2f12e09be6263a95a'),
    'flag_reuse.ag oracle 2 empty text': (0, '8662da70a09cf5cb89515ab7fcd4cfa99fe59448fb97e0bffb2c2bcd148b454a'),
    'flag_reuse.ag oracle 2 empty json': (0, '589bc75a28e73c3c7c11941665ef0aeeba43f832597421901dd8f72d25c7f3cf'),
    'flag_reuse.ag oracle 2 unknown text': (0, '95b364144f03bf293f15cc01be229893e5a8d302249d308009c8662c352c7634'),
    'flag_reuse.ag oracle 2 unknown json': (0, '8d9b39d40cd05b05f063bca35ac9b4d53833e0ea18128da9df35866a57f8c8d6'),
    'flag_reuse.ag oracle 4 empty text': (0, '8662da70a09cf5cb89515ab7fcd4cfa99fe59448fb97e0bffb2c2bcd148b454a'),
    'flag_reuse.ag oracle 4 empty json': (0, 'c0f402116160ef446809a026a21d949231cfac1eba4904e96a99db2bed1f4758'),
    'flag_reuse.ag oracle 4 unknown text': (0, '95b364144f03bf293f15cc01be229893e5a8d302249d308009c8662c352c7634'),
    'flag_reuse.ag oracle 4 unknown json': (0, 'ed9a8c7ee005f0a42427023732187cb4580017ac6367c70d0b6b9f7c163d0aec'),
    'flag_reuse.ag compare 1 empty text': (0, '6a5ec32d895d0f9166d4a644e627f3f00573010c96b2f27ab59518f2cb6d3382'),
    'flag_reuse.ag compare 1 empty json': (0, '01d59c0bfdf37da5b620ecdc94201522c7d199245dad08c4e587156a6963050c'),
    'flag_reuse.ag compare 1 unknown text': (0, '2ecf966ee2c5c8f89d25c69321c873b606b44d8a83630ca988dc8c66ad6d56c8'),
    'flag_reuse.ag compare 1 unknown json': (0, 'd44357f73bddfa5f7fc5768eda050f58139ef30df362b7173278c5ffba17267f'),
    'flag_reuse.ag compare 2 empty text': (0, '6a5ec32d895d0f9166d4a644e627f3f00573010c96b2f27ab59518f2cb6d3382'),
    'flag_reuse.ag compare 2 empty json': (0, '081571c7b629b337c658bc61fe11dff1d1d8b01c3a93068872a06cddc4327f37'),
    'flag_reuse.ag compare 2 unknown text': (0, '2ecf966ee2c5c8f89d25c69321c873b606b44d8a83630ca988dc8c66ad6d56c8'),
    'flag_reuse.ag compare 2 unknown json': (0, '2a79fdf6221ad9a98c4ad49c2b492fa642d88567d37c413c4976038aa1846c0a'),
    'flag_reuse.ag compare 4 empty text': (0, '6a5ec32d895d0f9166d4a644e627f3f00573010c96b2f27ab59518f2cb6d3382'),
    'flag_reuse.ag compare 4 empty json': (0, '3896c8987c87a139cf5dbbbcdde240199b01350a3ba8ee26b8562fc1c51ca81b'),
    'flag_reuse.ag compare 4 unknown text': (0, '2ecf966ee2c5c8f89d25c69321c873b606b44d8a83630ca988dc8c66ad6d56c8'),
    'flag_reuse.ag compare 4 unknown json': (0, '4148d2f3d6667ba51e6475c99534a54f5b09921d524e071785f872c18f9311bc'),
    'flag_reuse.imp oracle 1 empty text': (0, '29ae6a8ca577006f3b9ef237750db8233ecd45a91a7825c59f80049f7558d6f7'),
    'flag_reuse.imp oracle 1 empty json': (0, 'def1fdcf1d313373d681b007af6c36fc50a487ff37c0621926cba49af82d67fb'),
    'flag_reuse.imp oracle 1 unknown text': (0, '6d20ead680f1c3b5671abe23b1aeabbd2dce1ccee60e961309c9b7248c4ded2f'),
    'flag_reuse.imp oracle 1 unknown json': (0, 'c80f9473cfb676df79272148afe906cb3b9f9138cb3c48e3cce3b76a12ceae52'),
    'flag_reuse.imp oracle 2 empty text': (0, '29ae6a8ca577006f3b9ef237750db8233ecd45a91a7825c59f80049f7558d6f7'),
    'flag_reuse.imp oracle 2 empty json': (0, '6060fc020833659ef4cb5b4c1116356b51d8bed96be2cfe4bfbc25152362fd38'),
    'flag_reuse.imp oracle 2 unknown text': (0, '6d20ead680f1c3b5671abe23b1aeabbd2dce1ccee60e961309c9b7248c4ded2f'),
    'flag_reuse.imp oracle 2 unknown json': (0, '71c92ad6c7c5c40c421769f39c6a722e52dbbe262f731654aada0e0464a7298b'),
    'flag_reuse.imp oracle 4 empty text': (0, '29ae6a8ca577006f3b9ef237750db8233ecd45a91a7825c59f80049f7558d6f7'),
    'flag_reuse.imp oracle 4 empty json': (0, '63d11ac9531aaf76c4dfce9a7c3e6d78cd6355b4c6956648dd4528ff25bfc6d1'),
    'flag_reuse.imp oracle 4 unknown text': (0, '6d20ead680f1c3b5671abe23b1aeabbd2dce1ccee60e961309c9b7248c4ded2f'),
    'flag_reuse.imp oracle 4 unknown json': (0, 'f19b1f557f93fbaf6b85c08869b6a15bbb37c7edd3b30fed1ca1605b2a82f243'),
    'flag_reuse.imp compare 1 empty text': (0, '2b1a35b393ba3864bddc95cc511906cb32a3240fe9796e4d1d4440ec2f6ba67c'),
    'flag_reuse.imp compare 1 empty json': (0, 'e46c8a026ca24239dee0151721fddf705c8fb2cb4568ef9e9bc16c7bf28c00ab'),
    'flag_reuse.imp compare 1 unknown text': (0, '88ac25d0ff1cc36aab3e61225980d0815d098bb631b4d9d18c23e9772517bbf5'),
    'flag_reuse.imp compare 1 unknown json': (0, '80bc4d4537031c5982378b4fb2b67ec30248a9d665773336017f664174da48e7'),
    'flag_reuse.imp compare 2 empty text': (0, '2b1a35b393ba3864bddc95cc511906cb32a3240fe9796e4d1d4440ec2f6ba67c'),
    'flag_reuse.imp compare 2 empty json': (0, 'a7bc9700117158e160682ad95c58ec513cf0224114aeb55bbe17ba1cb9be55be'),
    'flag_reuse.imp compare 2 unknown text': (0, '88ac25d0ff1cc36aab3e61225980d0815d098bb631b4d9d18c23e9772517bbf5'),
    'flag_reuse.imp compare 2 unknown json': (0, '087993e9847bd1394de2f47a167ab21529e5ec8bcb85e1b70bd31e6d1288d30a'),
    'flag_reuse.imp compare 4 empty text': (0, '2b1a35b393ba3864bddc95cc511906cb32a3240fe9796e4d1d4440ec2f6ba67c'),
    'flag_reuse.imp compare 4 empty json': (0, 'd3ba31dbfaff4ce6747f5626e7e83b5bd0ea4860dd0bc9a70fb527f36207f859'),
    'flag_reuse.imp compare 4 unknown text': (0, '88ac25d0ff1cc36aab3e61225980d0815d098bb631b4d9d18c23e9772517bbf5'),
    'flag_reuse.imp compare 4 unknown json': (0, '24fcc3cbc9d56abf2dab4af161cbee5a25bfc9ef63cbd2ad1dff9a6444b25fa8'),
    'guarded_copy.imp oracle 1 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'guarded_copy.imp oracle 1 empty json': (0, '26cb695c9567ca994662de08a580bfd5901e8ba99f42ce4afbbb8044c08f66db'),
    'guarded_copy.imp oracle 1 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'guarded_copy.imp oracle 1 unknown json': (0, '0839d6911ac0185726174becebde908c270262f072305f144b20e0a2281394d1'),
    'guarded_copy.imp oracle 2 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'guarded_copy.imp oracle 2 empty json': (0, '9701b14e39df3975dc21bed841d30fc782f70f4a97164eb10c5561e3fa45fc16'),
    'guarded_copy.imp oracle 2 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'guarded_copy.imp oracle 2 unknown json': (0, 'aa90da1aade6ce900a7a0e085e0370f563225d260569797979697bf1b0d02c9c'),
    'guarded_copy.imp oracle 4 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'guarded_copy.imp oracle 4 empty json': (0, 'a8ea18b825db3ee0f8f84d82504d098a8b3d7271353015e7386d7726859afb03'),
    'guarded_copy.imp oracle 4 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'guarded_copy.imp oracle 4 unknown json': (0, 'cc4df9c16d579eb7de684afd165943260925a826af0f2d9e7a3e93f95000f168'),
    'guarded_copy.imp compare 1 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'guarded_copy.imp compare 1 empty json': (0, 'b27d750179b8de7a8c82ed54127c2b871d3d3b1dff81b920aeefe54d1e1c05bb'),
    'guarded_copy.imp compare 1 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'guarded_copy.imp compare 1 unknown json': (0, '53d73bcd1e3528675f3317e3aed399facb4fdeb6cd8aab7d37d3254a6aa4c99e'),
    'guarded_copy.imp compare 2 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'guarded_copy.imp compare 2 empty json': (0, '41294871d99345c1aa7447b6fce1e4af6d668c5eaa1a8393aedf951329a66453'),
    'guarded_copy.imp compare 2 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'guarded_copy.imp compare 2 unknown json': (0, '581f5288d979fac427d3c36de6e01fd1ed50c439963b81b1af4cadd324bad658'),
    'guarded_copy.imp compare 4 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'guarded_copy.imp compare 4 empty json': (0, '884fcd3643ec6fb7157313b2b7301f38880fce6d93a5bcbe4d0a8cadd83955ed'),
    'guarded_copy.imp compare 4 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'guarded_copy.imp compare 4 unknown json': (0, 'eeb5dd2aacb254fde499b3535e6782fead8291005310f48605088f7b0d5bfbf0'),
    'ring_index.imp oracle 1 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'ring_index.imp oracle 1 empty json': (0, 'edcba49b4467dbfbcebbdff7ee38de495df7c343d0d004f2eb80b152250af285'),
    'ring_index.imp oracle 1 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'ring_index.imp oracle 1 unknown json': (0, 'f5ff9e3d8cdd441c720ded19af9a88b1153aa55abbf9617ca1536b2239c8569c'),
    'ring_index.imp oracle 2 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'ring_index.imp oracle 2 empty json': (0, '83f088805f8fc36127d7797423307f6ebfd40581d8e0d6318a566f06c01542d1'),
    'ring_index.imp oracle 2 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'ring_index.imp oracle 2 unknown json': (0, '5e10c24ae3eccc3a02023e13c8e03bd055489a7014f695e138ee3fd9c936ef8a'),
    'ring_index.imp oracle 4 empty text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'ring_index.imp oracle 4 empty json': (0, '01fcaffa2b160141dbdf8cf1ebe3d29670b972689e77ba216423939e125489bd'),
    'ring_index.imp oracle 4 unknown text': (0, 'c5df30d76ac8ee1db254184a54a8d7877e4e84a2fe3d1dbfb5ed5c6a11027d5e'),
    'ring_index.imp oracle 4 unknown json': (0, '13ae284e4baecc689f924447b45f36d591a8590858a1bf6e10f6ff9fd6abb012'),
    'ring_index.imp compare 1 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'ring_index.imp compare 1 empty json': (0, '2457c988d8a03a6e52d2108fe8da46d5b25c2d6e2e6bb8819d6685495ed6e550'),
    'ring_index.imp compare 1 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'ring_index.imp compare 1 unknown json': (0, '3388e53e67796dadff71f1b2c6e8653179b4264edbd333bf5c0947393d2b47aa'),
    'ring_index.imp compare 2 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'ring_index.imp compare 2 empty json': (0, '2ed4b885fa3bff9c70600532ad6ff7743fae687f59b21a300b889c37780be553'),
    'ring_index.imp compare 2 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'ring_index.imp compare 2 unknown json': (0, '980646479039c2ff5b506565d5c1d74b9dfce785328072222058960d6465dfbe'),
    'ring_index.imp compare 4 empty text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'ring_index.imp compare 4 empty json': (0, '9435dea46d8106d0bd564de0947e01beb63a6963b1269935e0d017f1fc873228'),
    'ring_index.imp compare 4 unknown text': (0, '187c085185e5caf666b47ba3482ebc221aff05c570b95bcdff28f79dccf06b1b'),
    'ring_index.imp compare 4 unknown json': (0, 'eacb15397ee0408e814c27a3bf2721e47d22987f35d991b2d9189ce056cf84cc'),
}


def _cache_cli_digests(demo_dir, capsys, monkeypatch) -> dict:
    monkeypatch.chdir(demo_dir.parent)
    out = {}
    for path in sorted(demo_dir.iterdir()):
        for method in ("oracle", "compare"):
            for n in (1, 2, 4):
                for init in ("empty", "unknown"):
                    for fmt in ("text", "json"):
                        code = main(["cache", "--input", f"demo/{path.name}", "--assoc", str(n),
                                     "--method", method, "--init", init, "--format", fmt])
                        stdout = capsys.readouterr().out
                        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
                        out[f"{path.name} {method} {n} {init} {fmt}"] = (code, digest)
    return out


ODD_NAME = 'q"b\\\u00e9\U0001d4b3.imp'
ODD_NAME_RUNS = (
    ("copy_diff.imp", ("intervals", "--method", "compare")),
    ("ring_index.imp", ("intervals", "--method", "widen-narrow", "--rewrites", "full")),
    ("flag_reuse.imp", ("cache", "--assoc", "2", "--method", "compare", "--init", "empty")),
    ("flag_reuse.imp", ("cache", "--assoc", "1", "--method", "compare", "--init", "unknown")),
)
ODD_NAME_GOLDEN = '672f0d7e2fc6101191249e54362cda406aba99fb4da5ab52dbd82385ed7acb84'


def _odd_name_digest(demo_dir, tmp_path, capsys, monkeypatch) -> str:
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for demo, (command, *extra) in ODD_NAME_RUNS:
        (tmp_path / ODD_NAME).write_bytes((demo_dir / demo).read_bytes())
        code = main([command, "--input", ODD_NAME, *extra, "--format", "json"])
        h.update(f"{demo} {command} {' '.join(extra)} exit {code}\n".encode())
        h.update(capsys.readouterr().out.encode("utf-8"))
    return h.hexdigest()


LEXER_TEXTS = (
    "x # trailing comment", "x\n# c", "# only", "\r\n\tint x = 1;\r\n", "a<==b!=c>=d>e<f=g",
    "!x", "12ab", "x\x0by", "x\u00a0y", "_a1 __ a_", "-1+-2", "if(x){}else{}",
    "int\n  y\n    = 3 ;  # c\n\n z", "\u0663", "a\u00b2", "\u00b2a", "1\u0663",
)
# Keyed by `unicodedata.unidata_version`: which code points are letters,
# digits or word characters changes with the Unicode version, and Python
# 3.10, 3.11, 3.12 and 3.13 ship 13.0, 14.0, 15.0 and 15.1.
LEXER_GOLDEN = {
    '13.0.0': 'bf89de54fb81f0084ee3f4d2003e19782eac3e0260368704ae970e1668d81879',
    '14.0.0': '72e5e6ae1414236845f033df07f22e80f2ca2b5f2d976356b4288b9835edaf36',
    '15.0.0': '67aceaea768d0187b534fb18eb921e7dd9abb32c83c8fa74dd5f2b79e26e963b',
    '15.1.0': '1d4db36605771a06660506296f111c1833c8d2c1eb651aeb4809fb6fc5897bc8',
}


def _lex_outcome(text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in _tokenize(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def _lexer_digest() -> str:
    h = hashlib.sha256()
    texts = [ctx + chr(cp) for cp in range(0x10000) for ctx in ("", "a", "1")]
    for text in texts + list(LEXER_TEXTS):
        h.update(repr((text, _lex_outcome(text))).encode("utf-8", "backslashreplace"))
    return h.hexdigest()


PARSE_SEED = 20261024
PARSE_LONG_PROGRAMS = 6
PARSE_FRAGMENT_PROGRAMS = 60
PARSE_MUTATIONS = 1000
PARSE_GOLDEN = 'bdfa4e0c4266101442b32c094aee4695b9f42c6772d85ac33c48fc59739098e0'


def _parse_outcome(text: str):
    try:
        return repr(parse_program(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def _parse_digest(demo_dir) -> str:
    rng = random.Random(PARSE_SEED)
    sources = [d.read_text() for d in sorted(demo_dir.iterdir())]
    sources += [pretty(helpers.random_long_program(rng, rng.randint(2, 8), rng.randint(10, 40)))
                for _ in range(PARSE_LONG_PROGRAMS)]
    sources += [helpers.random_fragment_program(rng)[0] for _ in range(PARSE_FRAGMENT_PROGRAMS)]
    vocabulary = sorted({t for s in sources for t in helpers.FUZZ_TOKEN.findall(s)} | set(helpers.FUZZ_EXTRA))
    texts = sources + [
        helpers.mutate_tokens(rng, helpers.FUZZ_TOKEN.findall(sources[i % len(sources)]), vocabulary)
        for i in range(PARSE_MUTATIONS)
    ]
    h = hashlib.sha256()
    for text in texts + list(LEXER_TEXTS):
        h.update(repr((text, _parse_outcome(text))).encode("utf-8", "backslashreplace"))
    return h.hexdigest()


EXHAUSTIVE_SEED = 20261023
EXHAUSTIVE_CORNER_SYSTEMS = 250
EXHAUSTIVE_FRAGMENT_PROGRAMS = 125
EXHAUSTIVE_CAP = 12
EXHAUSTIVE_GOLDEN = 'e50a57a2097b8fa2cbc060a743c5eb32d2c34f9b9334c67f8b01a458db4332b0'


def _exhaustive_outcome(system) -> str:
    try:
        result = solve_exhaustive(system, cap=EXHAUSTIVE_CAP)
    except Exception as exc:  # the error is part of the pinned outcome
        return f"{type(exc).__name__}: {exc}"
    return repr(sorted(result.items()))


def _exhaustive_digest() -> str:
    rng = random.Random(EXHAUSTIVE_SEED)
    systems = [helpers.corner_system(rng, rng.randint(1, 6)) for _ in range(EXHAUSTIVE_CORNER_SYSTEMS)]
    for _ in range(EXHAUSTIVE_FRAGMENT_PROGRAMS):
        text, init = helpers.random_fragment_program(rng)
        cfg = build_cfg(parse_program(text))
        systems.append(extract_upper_bounds(cfg, helpers.FRAGMENT_VAR, init))
        systems.append(extract_upper_bounds(cfg, helpers.FRAGMENT_VAR, -init, negate=True))
    h = hashlib.sha256()
    for system in systems:
        h.update(f"{dump_system(system)}{_exhaustive_outcome(system)}\n".encode())
    return h.hexdigest()


EXTRACT_SEED = 20261026
EXTRACT_FRAGMENT_PROGRAMS = 300
EXTRACT_GOLDEN = '0d534c63aafa264e074ac672470910dcec5ed28d1ee6ec31874f6e82ae66b777'


def _extract_outcome(cfg, var, entry_bound, negate) -> str:
    try:
        return dump_system(extract_upper_bounds(cfg, var, entry_bound, negate))
    except Exception as exc:  # the error is part of the pinned outcome
        return f"{type(exc).__name__}: {exc}\n"


def _extract_digest() -> str:
    rng = random.Random(EXTRACT_SEED)
    cases = [(*helpers.random_fragment_program(rng), helpers.FRAGMENT_VAR)
             for _ in range(EXTRACT_FRAGMENT_PROGRAMS)]
    cases += [(helpers.gadget_chain_program(rng, repeats)[0], 0, helpers.FRAGMENT_VAR)
              for repeats in (1, 2, 3)]
    cases += [(text, 3, var) for text, var, *_ in NUMERIC_CASES]
    h = hashlib.sha256()
    for index, (text, init, var) in enumerate(cases):
        cfg = build_cfg(parse_program(text))
        h.update(f"#{index}\n".encode())
        for upper, lower in ((init, -init), (POS_INF, POS_INF)):
            h.update(_extract_outcome(cfg, var, upper, False).encode())
            h.update(_extract_outcome(cfg, var, lower, True).encode())
    return h.hexdigest()


def test_lru_states_golden():
    assert _lru_digest() == LRU_GOLDEN


def test_agebounds_golden():
    assert _agebounds_digest() == AGEBOUNDS_GOLDEN


def test_focused_views_golden():
    assert _focused_views_digest() == FOCUSED_VIEWS_GOLDEN


def test_focused_facts_golden():
    assert _focused_facts_digest() == FOCUSED_FACTS_GOLDEN


def test_wide_views_golden():
    assert _wide_views_digest() == WIDE_VIEWS_GOLDEN


def test_numeric_oracle_golden(fragment_corpus_small):
    assert _numeric_oracle_digest(fragment_corpus_small) == NUMERIC_GOLDEN


def test_cache_cli_stdout_goldens(demo_dir, capsys, monkeypatch):
    assert _cache_cli_digests(demo_dir, capsys, monkeypatch) == CACHE_CLI_GOLDENS


def test_lexer_golden():
    version = unicodedata.unidata_version
    assert version in LEXER_GOLDEN, (
        f"no lexer digest recorded for Unicode {version}; record _lexer_digest() "
        f"under {version!r} after checking the tokens of the new letters and digits"
    )
    assert _lexer_digest() == LEXER_GOLDEN[version]


def test_parse_golden(demo_dir):
    assert _parse_digest(demo_dir) == PARSE_GOLDEN


def test_odd_input_name_json_golden(demo_dir, tmp_path, capsys, monkeypatch):
    assert _odd_name_digest(demo_dir, tmp_path, capsys, monkeypatch) == ODD_NAME_GOLDEN


def test_solve_exhaustive_golden():
    assert _exhaustive_digest() == EXHAUSTIVE_GOLDEN


def test_extract_upper_bounds_golden():
    assert _extract_digest() == EXTRACT_GOLDEN
