from __future__ import annotations

import random

import pytest

from absint import cfg as cfg_module
from absint.cfg import (
    AccessLabel,
    AssumeLabel,
    AssignLabel,
    Nop,
    back_edge_targets,
    build_cfg,
    parse_access_graph,
)
from absint.lang import ParseError, parse_program
from helpers import ast_counts, erase_guards, random_program

FLAG = """
int flag;
if (flag > 0) { access(a); } else { access(b); }
if (flag > 0) { access(a); } else { access(b); }
"""


def labeled_edges(cfg):
    return [e for e in cfg.edges if not isinstance(e.label, Nop)]


def test_flag_program_shape():
    cfg = build_cfg(parse_program(FLAG))
    accesses = cfg.access_sites
    assert len(accesses) == 4
    assert sorted(block for _, block, _ in accesses) == ["a", "a", "b", "b"]
    assert sorted(site for site, _, _ in accesses) == [0, 1, 2, 3]
    # two diamonds: four assume edges
    assumes = [e for e in cfg.edges if isinstance(e.label, AssumeLabel)]
    assert len(assumes) == 4


def test_single_assignment_is_one_labeled_edge():
    cfg = build_cfg(parse_program("int x; x = 1;"))
    labeled = labeled_edges(cfg)
    assert len(labeled) == 1
    assert isinstance(labeled[0].label, AssignLabel)


def test_entry_has_no_incoming_edges_even_for_leading_loop():
    cfg = build_cfg(parse_program("int i; while (i < 3) { i = i + 1; }"))
    assert all(e.dst != cfg.entry for e in cfg.edges)


def test_edge_count_law_nested():
    text = """
    int i; int j;
    if (i < 3) {
      while (j < 5) {
        j = j + 1;
        access(a);
      }
    } else {
      assert (j >= 0);
    }
    """
    program = parse_program(text)
    cfg = build_cfg(program)
    k, b, m, s = ast_counts(program)
    assert len(labeled_edges(cfg)) == k + 2 * b + m + s


def test_edge_count_law_random():
    rng = random.Random(77)
    for _ in range(150):
        program = random_program(rng, cache_mode=rng.random() < 0.4)
        cfg = build_cfg(program)
        k, b, m, s = ast_counts(program)
        assert len(labeled_edges(cfg)) == k + 2 * b + m + s


def test_nondet_branch_produces_nop_edges():
    cfg = build_cfg(parse_program("int i; if (*) { i = 1; }"))
    assert not any(isinstance(e.label, AssumeLabel) for e in cfg.edges)


def test_site_ids_unique():
    cfg = build_cfg(parse_program(FLAG))
    sites = [site for site, _, _ in cfg.access_sites]
    assert len(sites) == len(set(sites))


def test_access_graph_minimal():
    cfg = parse_access_graph("loc L0\nloc L1\nentry L0\nedge L0 L1 access a\n")
    assert cfg.entry == "L0"
    assert cfg.access_sites == ((0, "a", "L0"),)
    assert cfg.blocks() == ("a",)


def test_access_graph_comments_and_plain_edges():
    cfg = parse_access_graph(
        "# a diamond\nloc s\nloc t\nloc u\nentry s\nedge s t\nedge s u access b\n"
    )
    assert len(cfg.edges) == 2
    assert cfg.access_sites == ((0, "b", "s"),)


def test_access_graph_dangling_target():
    with pytest.raises(ParseError, match="undeclared location 'L9'"):
        parse_access_graph("loc L0\nentry L0\nedge L0 L9\n")


def test_access_graph_duplicate_location():
    with pytest.raises(ParseError, match="duplicate"):
        parse_access_graph("loc L0\nloc L0\nentry L0\n")


def test_access_graph_entry_incoming_rejected():
    with pytest.raises(ParseError, match="entry"):
        parse_access_graph("loc L0\nloc L1\nentry L0\nedge L1 L0\n")


def test_access_graph_requires_entry():
    with pytest.raises(ParseError, match="entry"):
        parse_access_graph("loc L0\n")


def test_erase_guards_keeps_accesses():
    cfg = build_cfg(parse_program(FLAG))
    erased = erase_guards(cfg)
    assert erased.access_sites == cfg.access_sites
    assert all(isinstance(e.label, (AccessLabel, Nop)) for e in erased.edges)
    assert erased.locations == cfg.locations


def test_back_edge_targets_ring():
    cfg = build_cfg(parse_program("int i; while (i < 9) { i = i + 1; } while (i < 20) { i = i + 2; }"))
    targets = back_edge_targets(cfg)
    assert len(targets) == 2


def test_back_edge_targets_acyclic():
    cfg = build_cfg(parse_program(FLAG))
    assert back_edge_targets(cfg) == set()


def test_one_depth_first_search_per_graph(monkeypatch):
    """Widening points and the interned index read one cached search, and
    every caller of ``back_edge_targets`` gets a set of its own."""
    from absint import analyze, analyze_combined, entry_environment, parse_program

    calls = []
    search = cfg_module._depth_first
    monkeypatch.setattr(cfg_module, "_depth_first", lambda g: calls.append(g) or search(g))
    program = parse_program(
        "int i = 0; int j = 0; while (i < 9) { i = i + 1; while (j < i) { j = j + 1; } }"
    )
    cfg = build_cfg(program)
    env = entry_environment(program)
    analyze(cfg, env)
    analyze_combined(cfg, env, None, 1, 1)
    analyze_combined(cfg, env, 1)
    assert cfg.access_index.locations[0] == cfg.entry
    first = back_edge_targets(cfg)
    assert len(first) == 2
    first.pop()
    assert len(back_edge_targets(cfg)) == 2
    assert calls == [cfg]
