from __future__ import annotations

import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import helpers  # noqa: E402

DEMO = pathlib.Path(__file__).parent.parent / "demo"

# The CLI tests run `python -m absint.cli` in child processes; they import
# the package from this checkout, as the test process does.
SRC = pathlib.Path(__file__).parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def demo_dir() -> pathlib.Path:
    return DEMO


@pytest.fixture(scope="session")
def flag_program_cfg():
    from absint.cfg import build_cfg
    from absint.lang import parse_program

    return build_cfg(parse_program((DEMO / "flag_reuse.imp").read_text()))


@pytest.fixture(scope="session")
def ring_program():
    from absint.lang import parse_program

    return parse_program((DEMO / "ring_index.imp").read_text())


@pytest.fixture(scope="session")
def ring_cfg(ring_program):
    from absint.cfg import build_cfg

    return build_cfg(ring_program)


@pytest.fixture(scope="session")
def cache_corpus_small():
    """300 random access graphs shared by the module-level property tests."""
    return helpers.cache_corpus(seed=20240817, count=300)


@pytest.fixture(scope="session")
def cache_corpus_full():
    """The acceptance corpus: 1000 random access graphs."""
    return helpers.cache_corpus(seed=31337, count=1000)


@pytest.fixture(scope="session")
def fragment_corpus_small():
    return helpers.build_fragment_corpus(seed=777, count=120)


@pytest.fixture(scope="session")
def fragment_corpus_full():
    """The acceptance corpus: 500 oracle-verified fragment programs."""
    return helpers.build_fragment_corpus(seed=424242, count=500)
