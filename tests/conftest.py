from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from fourlines import graph as graphmod
from fourlines import search as searchmod

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def load_graph():
    """Parse a named fixture file from the fixtures directory."""

    def _load(name: str) -> graphmod.VisibleGraph:
        return graphmod.parse((FIXTURES / f"{name}.graph").read_text())

    return _load


@pytest.fixture
def fresh_pool():
    """No cached worker pool before or after the test, so a test sees every
    pool its searches start, and leaves none forked under its patches."""
    searchmod._drop_pool()
    yield
    searchmod._drop_pool()


def random_graph(
    rng: random.Random,
    max_insertions: int = 8,
    weights=None,
    boundary: bool = False,
) -> graphmod.VisibleGraph:
    """A random insertion history over random small weights."""
    if weights is None:
        weights = [Fraction(rng.randint(0, 5)) for _ in range(4)]
    g = graphmod.new_base(weights, boundary=0 if boundary else None)
    for k in range(rng.randint(0, max_insertions)):
        pairs = list(g.adjacent_pairs())
        a, b = rng.choice(pairs)
        g = g.insert(a, b, f"v{k}")
    return g
