"""The four benchmark workloads: corpus generation, command lines, checks.

Each workload turns a seed into a corpus of ``Input`` records.  The program
under test only ever sees the generated files, through its command line.
The corpus sizes below are chosen so one pass takes 10 to 20 seconds on a
2-core x86-64 machine: a 25-second run then times every input once or
twice.  Many distinct inputs, each timed few times, keep a run's figures
close to those of another seed's corpus; the speed correction in
``speed.py`` makes a single timing of an input enough.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import reference

ASSOC = 6
BLOCKS = 10


@dataclass
class Input:
    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    loop_consts: int = 0
    plain_widen: bool = False  # a widen-narrow run without rewrites
    locations: int = 0  # access graphs only; programs report theirs


@dataclass
class Workload:
    name: str
    family: str  # "cache" or "intervals"
    why: str
    build: Callable[[random.Random, Path], list[Input]]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cache_corpus(rng: random.Random, workdir: Path, count: int, lo: int, hi: int,
                  extra: float, method: str, init: str) -> list[Input]:
    corpus = []
    for i, n_locs in enumerate(gen.stratified(rng, count, lo, hi)):
        graph = gen.access_graph(rng, n_locs, BLOCKS, extra)
        ref = reference.cache_reference(rng, graph, ASSOC, init == "unknown")
        path = _write(workdir / f"g{i:03d}.ag", graph["text"])
        argv = ["cache", "--input", path, "--assoc", str(ASSOC), "--method", method,
                "--init", init, "--format", "json"]
        compare = method == "compare"
        corpus.append(Input(f"g{i:03d}", argv, lambda rep, ref=ref: reference.check_cache(rep, ref, compare),
                            locations=n_locs))
    return corpus


def build_cache_compare(rng: random.Random, workdir: Path) -> list[Input]:
    return _cache_corpus(rng, workdir, 320, 30, 60, 0.8, "compare", "empty")


def build_cache_unknown(rng: random.Random, workdir: Path) -> list[Input]:
    return _cache_corpus(rng, workdir, 288, 20, 40, 0.5, "pipeline", "unknown")


def build_intervals_policy(rng: random.Random, workdir: Path) -> list[Input]:
    corpus = []
    for i in range(80):
        prog = gen.fragment_program(rng, climb=400)
        path = _write(workdir / f"f{i:03d}.imp", prog["text"])
        argv = ["intervals", "--input", path, "--method", "policy", "--format", "json"]
        expected = prog["expected"]
        corpus.append(Input(f"f{i:03d}", argv, lambda rep, e=expected: reference.check_fragment(rep, e),
                            loop_consts=prog["loop_consts"]))
    return corpus


def build_intervals_widen(rng: random.Random, workdir: Path) -> list[Input]:
    corpus = []
    count = 28
    # Pair the two stratified size lists by rank through a fixed permutation
    # (5 is prime to the count), so the corpus's total work (about
    # locations x variables) barely depends on the seed while every program
    # gets its own mix.
    var_counts = sorted(gen.stratified(rng, count, 4, 16))
    sizes = sorted(gen.stratified(rng, count, 200, 1600))
    pairs = [(var_counts[(5 * k) % count], sizes[k]) for k in range(count)]
    rng.shuffle(pairs)
    for i, (n_vars, locs) in enumerate(pairs):
        prog = gen.general_program(rng, n_vars, locs)
        ref = reference.interval_reference(rng, prog)
        path = _write(workdir / f"p{i:03d}.imp", prog["text"])
        base = ["intervals", "--input", path, "--method", "widen-narrow", "--format", "json"]
        check = lambda rep, ref=ref: reference.check_intervals(rep, ref)
        corpus.append(Input(f"p{i:03d}", base, check, plain_widen=True))
        corpus.append(Input(f"p{i:03d}+rw", base + ["--rewrites", "full"], check))
    return corpus


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cache-compare", "cache",
            "approx, exact and oracle site by site on 30-60 location graphs (10 blocks, N=6, empty init); time splits between lru and focused/antichain",
            build_cache_compare,
        ),
        Workload(
            "cache-unknown", "cache",
            "unknown init on 20-40 location graphs: the oracle cannot run, Antichain.insert dominates and the agebounds prefilter decides what reaches focused",
            build_cache_unknown,
        ),
        Workload(
            "intervals-policy", "intervals",
            "single-variable solver-fragment programs whose policy iteration climbs linearly in loop constants of 10^3-10^4; only boundsolve changes show here",
            build_intervals_policy,
        ),
        Workload(
            "intervals-widen", "intervals",
            "4-16 variable programs outside the solver fragment, with and without rewrites: widening, narrowing, parsing and report formatting",
            build_intervals_widen,
        ),
    )
}
