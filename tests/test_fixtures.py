"""tools/make_fixtures.py rebuilds the frozen corpora byte for byte (the
benchmark workloads draw from the same pools and templates)."""

import importlib.util
from pathlib import Path

import pytest

from helpers import DATA_DIR

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_fixtures.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["smoke_corpus.json", "use_case_corpus.json"])
def test_generator_reproduces_the_committed_file(name):
    # built in memory: nothing is written
    assert _load_tool().fixture_files()[name].encode("utf-8") == (DATA_DIR / name).read_bytes()
