"""The benchmark's tracer (``perfbench/tracing.py``) looks up the functions it
wraps by name when it is installed.  Renaming or deleting one of them breaks
``perfbench/run.py --trace 1``; this test makes that a Tier-1 failure."""

from __future__ import annotations

import importlib
import pathlib
import random

from absint import cli
from helpers import region_cache_cfg
from test_focused import access_graph_text

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

# Layers that every traced benchmark workload relies on.  The tracer also
# wraps ``focused.transfer`` and ``Antichain.insert``/``union``, which the
# analyses no longer call; their counters are not checked here.
LIVE_LAYERS = (
    "cli.main", "lang.parse", "cfg.build", "agebounds.approx", "focused.keep_max",
    "focused.keep_min", "lru.collect", "rewrite.combined", "boundsolve.policy",
)


def test_tracer_installs_on_live_names_and_restores_them(demo_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    # The cheap witnesses decide every site of the demos, so the exact runs
    # are reached through a region graph whose witnesses leave sites open.
    region = tmp_path / "region.ag"
    region.write_text(access_graph_text(region_cache_cfg(random.Random(60), 60, 10)))
    runs = (
        ["cache", "--input", str(demo_dir / "flag_reuse.ag"), "--assoc", "4", "--method", "compare"],
        ["cache", "--input", str(demo_dir / "flag_reuse.imp"), "--assoc", "4", "--init", "unknown"],
        ["cache", "--input", str(region), "--assoc", "4", "--method", "compare"],
        ["cache", "--input", str(region), "--assoc", "4", "--method", "pipeline", "--init", "unknown"],
        ["intervals", "--input", str(demo_dir / "ring_index.imp"), "--method", "compare",
         "--rewrites", "full"],
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a missing name fails here, after earlier ones were wrapped
        saved = list(tracer._saved)
        codes = [tracer.root(index, cli.main, argv) for index, argv in enumerate(runs)]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(runs)
    assert saved
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, (owner, attr)
    assert {name: tracer.calls[name] for name in LIVE_LAYERS if not tracer.calls[name]} == {}
