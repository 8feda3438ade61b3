"""Tests for the insertion-tree and CY assembly searches."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from fourlines import search as searchmod
from fourlines.certify import certify
from fourlines.graph import EDGE_PAIRS, _stern_brocot_parents, new_base, parse, serialize
from fourlines.search import (
    SearchConfig,
    cy_edge_enumerate,
    cy_step_up_search,
    generic_search,
    run_search,
    step_edge_enumerate,
)


def brute_force(weights, boundary, budget):
    """Certify every insertion sequence up to the budget, no dedup.

    Returns (minimal volume or None, set of certified canonical forms).
    Deliberately naive; the only concession is skipping the certifier
    on graphs that a dead mark already disqualifies.
    """
    base = new_base(weights, boundary=boundary)
    best = None
    forms = set()
    stack = [base]
    while stack:
        g = stack.pop()
        if all(g.mark(v) >= 1 for v in g.vertices if v != g.boundary):
            rep = certify(g)
            if rep.certified:
                forms.add(g.canonical_form())
                if best is None or rep.volume < best:
                    best = rep.volume
        if g.blowups < budget:
            for a, b in g.adjacent_pairs():
                stack.append(g.insert(a, b, f"n{g.blowups}"))
    return best, forms


def pattern_leaves(pattern):
    """Pairs of a pattern that are parents of no other pair in it."""
    used = set()
    for m in pattern:
        used.update(_stern_brocot_parents(*m))
    return [m for m in pattern if m not in used]


def result_snapshot(result):
    return (
        [(serialize(g), rep.to_json()) for g, rep in result.best],
        result.explored,
    )


# -- configuration ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(weights=(1, 2, 3))
    with pytest.raises(ValueError):
        SearchConfig(weights=(1, 2, 3, 5), max_blowups=-1)
    with pytest.raises(ValueError):
        SearchConfig(weights=(1, 2, 3, 5), mode="downhill")
    with pytest.raises(ValueError):
        SearchConfig(weights=(1, 2, 3, 5), jobs=0)
    cfg = SearchConfig(weights=(1, 2, 3, 5), max_blowups=4)
    assert cfg.weights == (Fraction(1), Fraction(2), Fraction(3), Fraction(5))
    assert cfg.total_weight == 11
    assert cfg.boundary_index is None
    assert SearchConfig(weights=(0, 1, 1, 1), boundary=True).boundary_index == 0


def test_mode_mismatch_rejected():
    generic = SearchConfig(weights=(1, 1, 1, 1), max_blowups=2, mode="generic")
    cy = SearchConfig(weights=(1, 1, 1, 1), max_blowups=2, mode="cy_step_up")
    with pytest.raises(ValueError):
        generic_search(cy)
    with pytest.raises(ValueError):
        cy_step_up_search(generic)


def test_cy_mode_needs_small_boundary_weight():
    cfg = SearchConfig(weights=(2, 3, 4, 5), boundary=True, max_blowups=4)
    with pytest.raises(ValueError):
        cy_step_up_search(cfg)


# -- edge pattern enumeration ----------------------------------------------


def test_cy_edge_patterns_known_examples():
    pats = cy_edge_enumerate(1, 3, 11, 12)
    assert () in pats
    assert any(tuple(sorted(p)) == ((1, 1), (1, 2), (2, 3)) for p in pats)

    pats = cy_edge_enumerate(1, 2, 11, 12)
    chain = ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5))
    assert any(tuple(sorted(p)) == chain for p in pats)


def test_cy_edge_patterns_leaf_weights():
    for w_a, w_b, n in ((1, 2, 11), (1, 3, 11), (2, 5, 11), (1, 1, 3)):
        for pattern in cy_edge_enumerate(w_a, w_b, n, 10):
            assert len(pattern) <= 10
            for m1, m2 in pattern_leaves(pattern):
                assert m1 * w_a + m2 * w_b == n


def test_cy_edge_patterns_ancestor_closed():
    for pattern in cy_edge_enumerate(1, 2, 11, 12):
        members = set(pattern)
        for m in pattern:
            for p in _stern_brocot_parents(*m):
                if p not in ((1, 0), (0, 1)):
                    assert p in members
        # parents come before children in the listed order
        placed = set()
        for m in pattern:
            for p in _stern_brocot_parents(*m):
                if p not in ((1, 0), (0, 1)):
                    assert p in placed
            placed.add(m)


def test_cy_edge_patterns_zero_corner_weight():
    # a weight-0 corner lets weights stagnate along the edge
    pats = cy_edge_enumerate(0, 1, 3, 6)
    assert any(pattern_leaves(p) for p in pats)
    for pattern in pats:
        for m1, m2 in pattern_leaves(pattern):
            assert m2 == 3


def test_cy_edge_patterns_reject_negative_weight():
    with pytest.raises(ValueError):
        cy_edge_enumerate(-1, 2, 11, 5)
    with pytest.raises(ValueError):
        step_edge_enumerate(1, -2, 11, 5)


def test_zero_weight_edge_returns_at_once():
    # every interior vertex of the edge weighs 0, so no white reaches n or n + 1
    start = time.perf_counter()
    assert cy_edge_enumerate(0, 0, 2, 24) == [()]
    assert step_edge_enumerate(0, 0, 2, 24) == []
    assert time.perf_counter() - start < 1.0


def test_cy_search_rejects_zero_total_weight(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated an edge")

    monkeypatch.setattr(searchmod, "_interval_patterns", no_enumeration)
    for boundary in (False, True):
        with pytest.raises(ValueError, match="total weight"):
            run_search(SearchConfig(weights=(0, 0, 0, 0), boundary=boundary, max_blowups=14))


def test_cy_search_rejects_negative_weight():
    with pytest.raises(ValueError, match="nonnegative"):
        run_search(SearchConfig((-1, 2, 3, 5), max_blowups=8))


def test_cy_search_enumerates_each_edge_once(monkeypatch):
    inner = searchmod._interval_patterns
    top_level = []

    def counting(lo, hi, *rest):
        if (lo, hi) == ((1, 0), (0, 1)):
            top_level.append(rest[-1])
        return inner(lo, hi, *rest)

    monkeypatch.setattr(searchmod, "_interval_patterns", counting)
    for weights, boundary in (((1, 2, 3, 5), False), ((1, 2, 3, 5), True), ((0, 1, 1, 1), True)):
        top_level.clear()
        result = cy_step_up_search(SearchConfig(weights, boundary=boundary, max_blowups=10))
        assert result.explored["assembled"] > 0
        assert top_level == [1] * 6  # one pass per edge, allowing one step


def test_huge_jobs_runs_inline_on_one_cpu(monkeypatch):
    """--jobs is clamped to the CPU count, so one CPU starts no pool at all."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("started a process pool")

    config = SearchConfig((1, 2, 3, 5), max_blowups=10)
    expected = cy_step_up_search(config).explored
    monkeypatch.setattr(searchmod.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(searchmod, "ProcessPoolExecutor", NoPool)
    huge = cy_step_up_search(SearchConfig((1, 2, 3, 5), max_blowups=10, jobs=10**6))
    assert huge.explored == expected
    assert expected["assembled"] > 0


def test_generic_search_starts_no_pool(monkeypatch):
    """The generic walk runs in one process whatever --jobs says."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("started a process pool")

    kwargs = dict(weights=(0, 1, 1, 1), boundary=True, max_blowups=7, mode="generic")
    expected = result_snapshot(generic_search(SearchConfig(jobs=1, **kwargs)))
    monkeypatch.setattr(searchmod, "ProcessPoolExecutor", NoPool)
    assert result_snapshot(generic_search(SearchConfig(jobs=4, **kwargs))) == expected
    assert expected[1]["certified"] > 0


def test_corner_touches_match_parent_walk():
    """The closed form counts what walking every pair's parents counts."""
    rng = random.Random(20261018)
    for _ in range(300):
        path = [(1, 0), (0, 1)]  # an edge path from corner (1, 0) to (0, 1)
        pattern = []
        for _ in range(rng.randint(0, 12)):
            k = rng.randrange(len(path) - 1)
            (a1, a2), (b1, b2) = path[k], path[k + 1]
            path.insert(k + 1, (a1 + b1, a2 + b2))
            pattern.append(path[k + 1])
        parents = [p for m in pattern for p in _stern_brocot_parents(*m)]
        expected = (parents.count((1, 0)), parents.count((0, 1)))
        assert searchmod._corner_touches(tuple(pattern)) == expected


def test_step_edge_patterns_have_one_heavy_leaf():
    pats = step_edge_enumerate(1, 2, 11, 12)
    assert pats
    singles = set()
    for pattern in pats:
        weights = sorted(m1 + 2 * m2 for m1, m2 in pattern_leaves(pattern))
        assert weights[-1] == 12
        assert all(w == 11 for w in weights[:-1])
        if len(pattern_leaves(pattern)) == 1:
            singles.add(pattern_leaves(pattern)[0])
    assert (2, 5) in singles and (10, 1) in singles

    # no step leaf exists on the (3, 5) edge at n = 11
    assert step_edge_enumerate(3, 5, 11, 12) == []


def test_cy_edge_patterns_random_budget_monotone():
    rng = random.Random(20260814)
    for _ in range(40):
        w_a = rng.randint(0, 3)
        w_b = rng.randint(1, 5)
        n = rng.randint(2, 9)
        small = set(cy_edge_enumerate(w_a, w_b, n, 4))
        large = set(cy_edge_enumerate(w_a, w_b, n, 6))
        assert small <= large
        assert all(len(p) <= 4 for p in small)


# -- generic search ---------------------------------------------------------


def test_generic_budget_zero_uncertifiable_base():
    res = generic_search(
        SearchConfig(weights=(1, 1, 1, 1), max_blowups=0, mode="generic")
    )
    assert res.best == []
    assert res.minimum is None
    assert res.explored["explored"] == 1


@pytest.mark.parametrize(
    "weights,boundary,budget",
    [
        ((1, 1, 1, 1), False, 3),
        ((1, 1, 1, 1), False, 4),
        ((0, 1, 1, 1), True, 4),
    ],
)
def test_generic_matches_brute_force(weights, boundary, budget):
    cfg = SearchConfig(
        weights=weights, boundary=boundary, max_blowups=budget, mode="generic"
    )
    res = generic_search(cfg)
    oracle_min, oracle_forms = brute_force(
        cfg.weights, cfg.boundary_index, budget
    )
    assert res.minimum == oracle_min
    mine = {g.canonical_form() for g, rep in res.best}
    if oracle_min is None:
        assert mine == set()
    assert res.explored["certified"] == len(oracle_forms)


def test_generic_finds_smallest_boundary_surface():
    cfg = SearchConfig(
        weights=(0, 1, 1, 1), boundary=True, max_blowups=7, mode="generic"
    )
    res = generic_search(cfg)
    assert res.minimum == Fraction(1, 60)
    g, rep = res.best[0]
    assert g.blowups == 7
    assert rep.epsilon1 == Fraction(13, 60)
    assert str(rep.near_cy).startswith("one_step")


def test_cy_results_subset_of_generic():
    kwargs = dict(weights=(0, 1, 1, 1), boundary=True, max_blowups=7)
    gen = generic_search(SearchConfig(mode="generic", **kwargs))
    cy = cy_step_up_search(SearchConfig(mode="cy_step_up", **kwargs))
    assert cy.minimum == gen.minimum == Fraction(1, 60)
    cy_forms = {g.canonical_form() for g, _ in cy.best}
    gen_forms = {g.canonical_form() for g, _ in gen.best}
    assert cy_forms <= gen_forms


# -- CY step-up search -------------------------------------------------------


def test_cy_search_boundary_weight_zero():
    cfg = SearchConfig(
        weights=(0, 1, 1, 1), boundary=True, max_blowups=8, mode="cy_step_up"
    )
    res = cy_step_up_search(cfg)
    assert res.minimum == Fraction(1, 60)
    g, rep = res.best[0]
    assert rep.epsilon1 == Fraction(13, 60)
    assert rep.certified
    assert any(g.blowups == 7 for g, _ in res.best)


def test_cy_search_boundary_unit():
    cfg = SearchConfig(
        weights=(1, 3, 4, 5), boundary=True, max_blowups=8, mode="cy_step_up"
    )
    res = cy_step_up_search(cfg)
    assert res.minimum == Fraction(1, 60)
    g, rep = res.best[0]
    assert str(rep.near_cy) == "boundary_unit"
    assert rep.delta1 == Fraction(1, 13)
    assert rep.volume == rep.epsilon1 * rep.delta1


def test_cy_search_record_462():
    cfg = SearchConfig(
        weights=(1, 2, 3, 5), boundary=True, max_blowups=12, mode="cy_step_up"
    )
    res = cy_step_up_search(cfg)
    assert res.minimum == Fraction(1, 462)
    assert len(res.best) >= 2
    forms = res.forms()
    assert len(set(forms)) == len(forms)
    for g, rep in res.best:
        assert rep.epsilon1 == Fraction(1, 42)
        assert rep.delta1 == Fraction(1, 11)
        assert rep.volume == rep.epsilon1 * rep.delta1
        assert str(rep.near_cy) == "boundary_unit"


def test_cy_search_rho_filter():
    kwargs = dict(
        weights=(1, 2, 3, 5), boundary=True, max_blowups=12, mode="cy_step_up"
    )
    res = cy_step_up_search(SearchConfig(rho_filter=2, **kwargs))
    assert res.best and all(rep.rho == 2 for _, rep in res.best)
    assert res.minimum == Fraction(1, 462)
    plain = cy_step_up_search(SearchConfig(**kwargs))
    assert res.explored["certified"] == plain.explored["certified"]
    assert res.explored["eligible"] <= plain.explored["eligible"]


def test_best_graphs_reserialize_identically():
    cfg = SearchConfig(
        weights=(1, 2, 3, 5), boundary=True, max_blowups=12, mode="cy_step_up"
    )
    res = cy_step_up_search(cfg)
    assert res.best
    for g, rep in res.best:
        again = parse(serialize(g))
        assert again == g
        assert certify(again).to_json() == rep.to_json()


def test_search_deterministic_across_jobs():
    kwargs = dict(
        weights=(1, 2, 3, 5), boundary=True, max_blowups=12, mode="cy_step_up"
    )
    snaps = [
        result_snapshot(cy_step_up_search(SearchConfig(jobs=j, **kwargs)))
        for j in (1, 4, 8)
    ]
    assert snaps[0] == snaps[1] == snaps[2]

    gkwargs = dict(
        weights=(0, 1, 1, 1), boundary=True, max_blowups=7, mode="generic"
    )
    gsnaps = [
        result_snapshot(generic_search(SearchConfig(jobs=j, **gkwargs)))
        for j in (1, 4)
    ]
    assert gsnaps[0] == gsnaps[1]


def test_run_search_dispatch():
    cfg = SearchConfig(
        weights=(0, 1, 1, 1), boundary=True, max_blowups=7, mode="cy_step_up"
    )
    assert run_search(cfg).minimum == Fraction(1, 60)
    gcfg = SearchConfig(weights=(1, 1, 1, 1), max_blowups=2, mode="generic")
    assert run_search(gcfg).best == []
