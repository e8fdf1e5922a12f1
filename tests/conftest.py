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
    """Every check that a colouring covers its graph's edge set, made when
    the colouring is built, as the graph's vertex count, in order."""
    from homreflect.graphs import EdgeColouring

    work = EdgeColouring.__post_init__
    checked = []

    def counted(colouring):
        checked.append(colouring.graph.n)
        return work(colouring)

    monkeypatch.setattr(EdgeColouring, "__post_init__", counted)
    return checked
