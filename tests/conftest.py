import sys
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def proper_checks(monkeypatch):
    """Every time an EdgeColouring works out its `proper`, the number of
    edges it colours, in order."""
    from homreflect.graphs import EdgeColouring

    work = EdgeColouring.proper.func
    checked = []

    def counted(colouring):
        checked.append(len(colouring.colours))
        return work(colouring)

    patched = cached_property(counted)
    patched.__set_name__(EdgeColouring, "proper")
    monkeypatch.setattr(EdgeColouring, "proper", patched)
    return checked


@pytest.fixture
def coverage_checks(monkeypatch):
    """Every full check that a colouring covers a graph's edge set, as the
    graph's vertex count, in order."""
    from homreflect import graphs

    work = graphs._covers
    checked = []

    def counted(g, colours):
        checked.append(g.n)
        return work(g, colours)

    monkeypatch.setattr(graphs, "_covers", counted)
    return checked
