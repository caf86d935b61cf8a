"""Byte-exact goldens for the interval and rewrite analyses.

Three pins, checked against every later change of the fixpoint engine:

* the SHA-256 of the stdout (and the exit code) of ``absint intervals`` on
  every ``demo/*.imp`` over a fixed set of methods, knobs and formats;
* one SHA-256 over the final environments and assertion verdicts of
  ``analyze`` and ``analyze_combined`` on 150 seeded random programs;
* one SHA-256 over the exit codes and ``--format json`` stdout of
  ``absint intervals --method widen-narrow``, with and without
  ``--rewrites full``, on a few seeded programs of 300-800 locations (the
  size of the benchmark's programs, where the engine's shortcuts are
  exercised far more often than on the small ones).

A failing pin means the analysis output changed.  If that is intended,
print ``_cli_digests()``, ``_corpus_digest()`` and ``_long_digest()`` from
a session with the new code and replace the values below.
"""

from __future__ import annotations

import hashlib
import random

import helpers
from absint import analyze, analyze_combined, build_cfg, entry_environment
from absint.cli import main
from absint.lang import pretty

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
            h.update(f"#{index} {name}\n".encode())
            for loc in cfg.locations:
                h.update(f"{loc} {result.envs[loc]!r}\n".encode())
            h.update(f"{result.asserts!r}\n".encode())
    return h.hexdigest()


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



def test_long_program_json_golden(tmp_path, capsys, monkeypatch):
    assert _long_digest(tmp_path, capsys, monkeypatch) == LONG_GOLDEN
