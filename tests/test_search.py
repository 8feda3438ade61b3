"""Tests for the insertion-tree and CY assembly searches."""

from __future__ import annotations

import os
import random
import sys
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest

from fourlines import search as searchmod
from fourlines.certify import certify, classify_near_cy, edge_summary
from fourlines.graph import (
    EDGE_PAIRS,
    VisibleGraph,
    _stern_brocot_parents,
    canonical_key,
    corner_relabelings,
    new_base,
    parse,
    serialize,
)
from fourlines.search import (
    SearchConfig,
    cy_edge_enumerate,
    cy_step_up_search,
    generic_search,
    run_search,
    step_edge_enumerate,
)


def labelled_content(g):
    """The multiplicity pairs on each edge, read vertex by vertex, unpermuted."""
    content = {pair: [] for pair in EDGE_PAIRS}
    for v in g.vertices:
        if not g.is_corner(v):
            content[g.edge_of(v)].append(g.fraction(v))
    return tuple(tuple(sorted(content[pair])) for pair in EDGE_PAIRS)


def brute_force(weights, boundary, budget):
    """Certify every graph some insertion sequence up to the budget reaches.

    Returns (minimal volume or None, set of certified canonical forms).
    It runs ``certify`` on built graphs and never the glue, which the
    generic search judges its forms by; so it checks the glue end to end.
    Graphs of one base with equal labelled edge content are equal up to
    vertex ids, and so are their subtrees and certificates; the walk
    visits each content once.  That memo is independent of
    ``canonical_form``, which only names the certified forms.  The
    certifier is skipped on graphs that a dead mark already disqualifies.
    """
    base = new_base(weights, boundary=boundary)
    best = None
    forms = set()
    visited = set()
    stack = [base]
    while stack:
        g = stack.pop()
        content = labelled_content(g)
        if content in visited:
            continue
        visited.add(content)
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


def test_edge_enumerators_reject_zero_total_weight():
    # at n = 0 every mediant of two zero corners is a white at n, so the
    # tables would grow about 4x per insertion allowed
    for enumerate_edge in (cy_edge_enumerate, step_edge_enumerate):
        for w_a, w_b in ((1, 2), (0, 0)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="total weight"):
                enumerate_edge(w_a, w_b, 0, 24)
            assert time.perf_counter() - start < 0.1


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


def counting_pool(monkeypatch) -> list:
    """Make ``search`` start counted pools; returns the size of each."""
    sizes = []

    class CountingPool(searchmod.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(searchmod, "ProcessPoolExecutor", CountingPool)
    return sizes


def _die(args):
    os._exit(1)


def _fail(args):
    raise ArithmeticError("worker failed")


def test_huge_jobs_runs_inline_on_one_cpu(monkeypatch, fresh_pool):
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


def test_generic_search_starts_no_pool(monkeypatch, fresh_pool):
    """The generic walk runs in one process whatever --jobs says."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("started a process pool")

    kwargs = dict(weights=(0, 1, 1, 1), boundary=True, max_blowups=7, mode="generic")
    expected = result_snapshot(generic_search(SearchConfig(jobs=1, **kwargs)))
    monkeypatch.setattr(searchmod, "ProcessPoolExecutor", NoPool)
    assert result_snapshot(generic_search(SearchConfig(jobs=4, **kwargs))) == expected
    assert expected[1]["certified"] > 0


def test_cy_searches_share_one_pool(monkeypatch, fresh_pool):
    """The record ladder at --jobs 2 starts one pool for its four searches,
    and each answer equals the inline one."""
    monkeypatch.setattr(searchmod.os, "cpu_count", lambda: 2)
    sizes = counting_pool(monkeypatch)
    for budget in (16, 18, 20, 22):
        config = SearchConfig((1, 2, 3, 5), max_blowups=budget)
        inline = result_snapshot(cy_step_up_search(config))
        assert result_snapshot(cy_step_up_search(replace(config, jobs=2))) == inline
    assert sizes == [2]


@pytest.mark.parametrize("worker,error", [(_die, BrokenProcessPool), (_fail, ArithmeticError)])
def test_failed_pool_is_replaced(monkeypatch, fresh_pool, worker, error):
    """A worker that dies or raises ends the call with that error and drops
    the pool; the next call starts a fresh pool and gets the inline answer."""
    monkeypatch.setattr(searchmod.os, "cpu_count", lambda: 2)
    sizes = counting_pool(monkeypatch)
    config = SearchConfig((1, 2, 3, 5), max_blowups=16)
    cy, step = searchmod._cy_tables(config)
    tasks = [(e, k) for e in range(6) for k in range(len(step[EDGE_PAIRS[e]]))]
    shared = (config, cy, step)
    inline = searchmod._run_tasks(searchmod._cy_worker, shared, tasks, 1)
    with pytest.raises(error):
        searchmod._run_tasks(worker, shared, tasks, 2)
    assert searchmod._pool is None
    assert searchmod._run_tasks(searchmod._cy_worker, shared, tasks, 2) == inline
    assert sizes == [2, 2]


def test_pool_resize_forks_no_thread(monkeypatch, fresh_pool):
    """A search of another size shuts the old pool down before the new one
    forks, so no fork meets a live thread and Python 3.12+ gives no
    fork-with-threads warning.  On 3.12 a fork just after a thread's join
    may warn all the same (there ``join`` returns before the OS thread has
    ended), so the test counts the threads at each fork itself."""
    monkeypatch.setattr(searchmod.os, "cpu_count", lambda: 3)
    sizes = counting_pool(monkeypatch)
    threads_at_fork = []
    real_fork = os.fork

    def counting_fork():
        threads_at_fork.append(threading.active_count())
        return real_fork()

    config = SearchConfig((1, 2, 3, 5), max_blowups=16)
    inline = result_snapshot(cy_step_up_search(config))
    monkeypatch.setattr(os, "fork", counting_fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        snaps = [result_snapshot(cy_step_up_search(replace(config, jobs=j))) for j in (2, 3, 2)]
    assert snaps == [inline] * 3
    assert sizes == [2, 3, 2]
    assert threads_at_fork == [1] * 7
    if sys.version_info >= (3, 13):
        assert [str(w.message) for w in caught] == []


def test_corner_touches_match_parent_walk():
    """The edge summary's closed forms count what walking every pair's
    parents counts: the corner touches, and the black vertices (those
    that are a parent)."""
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
        summary = edge_summary(tuple(pattern))
        assert summary.touches == (parents.count((1, 0)), parents.count((0, 1)))
        assert summary.blacks == len(set(parents) - {(1, 0), (0, 1)})


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


@pytest.mark.parametrize(
    "weights,boundary,budget,explored,certified,best,minimum",
    [
        ((1, 1, 1, 1), False, 8, 187, 0, 0, None),
        ((1, 2, 3, 5), False, 7, 330, 0, 0, None),
        ((0, 0, 1, 1), False, 8, 1632, 0, 0, None),
        ((0, 0, 1, 1), True, 7, 2430, 1, 1, Fraction(1, 15)),
        ((1, 1, 1, 2), True, 7, 1683, 1, 1, Fraction(3, 20)),
        ((0, 0, 0, 1), True, 7, 3867, 1, 1, Fraction(3, 20)),
        ((0, 1, 1, 1), True, 8, 4042, 15, 2, Fraction(1, 60)),
    ],
)
def test_generic_walk_pinned(weights, boundary, budget, explored, certified, best, minimum):
    """The walk's counters pin its pruning: a white at exactly n may stay
    white, and a corner weighing n or more needs only two touches."""
    res = generic_search(SearchConfig(weights, boundary=boundary, max_blowups=budget, mode="generic"))
    assert (res.explored["explored"], res.explored["certified"], res.explored["best"]) == (explored, certified, best)
    assert res.minimum == minimum


def test_generic_walk_builds_no_graph_by_insertion(monkeypatch):
    """The walk grows edge content; graphs are built only from keys."""
    kwargs = dict(weights=(0, 1, 1, 1), boundary=True, max_blowups=7, mode="generic")
    expected = result_snapshot(generic_search(SearchConfig(**kwargs)))

    def no_insert(self, a, b, new_id):
        raise AssertionError("the generic walk inserted into a graph")

    monkeypatch.setattr(VisibleGraph, "insert", no_insert)
    res = generic_search(SearchConfig(**kwargs))
    assert result_snapshot(res) == expected
    assert res.explored == {"explored": 882, "certified": 3, "eligible": 3, "best": 1}
    assert serialize(res.best[0][0]) == (
        "corners C0 C1 C2 C3\nweights 0 1 1 1\nboundary C0\n"
        "insert E12_1_1 C1 C2\ninsert E12_1_2 E12_1_1 C2\ninsert E13_1_1 C1 C3\ninsert E13_2_1 C1 E13_1_1\n"
        "insert E23_1_1 C2 C3\ninsert E23_1_2 E23_1_1 C3\ninsert E23_1_3 E23_1_2 C3\n"
    )


def certified_keys(config) -> set:
    """The keys of every form a search certifies, read off the certified
    forms that ``_result`` gets."""
    keys = set()
    result = searchmod._result

    def recording(certified, *args, **counts):
        keys.update(certified)
        return result(certified, *args, **counts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(searchmod, "_result", recording)
        run_search(config)
    return keys


@pytest.mark.parametrize(
    "weights,budget", [((0, 1, 1, 1), 8), ((0, 0, 1, 1), 7), ((0, 0, 0, 1), 7), ((1, 1, 1, 2), 7)]
)
def test_cy_search_certifies_every_cy_shaped_generic_form(weights, budget):
    """Completeness of the CY assembly: it certifies exactly those forms of
    the exhaustive walk whose report has its shape, every white at n under
    a unit boundary, else one non-corner white at n + 1 and the rest at n."""
    cy = certified_keys(SearchConfig(weights, boundary=True, max_blowups=budget))
    generic = certified_keys(SearchConfig(weights, boundary=True, max_blowups=budget, mode="generic"))

    def cy_shaped(key) -> bool:
        g = VisibleGraph.from_canonical_key(key)
        near = classify_near_cy(g)
        if weights[0] == 1:
            return near.kind == "boundary_unit"
        return near.kind == "one_step" and not g.is_corner(near.vertex)

    assert cy
    assert cy == {key for key in generic if cy_shaped(key)}


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


def test_cy_search_heavy_corner_may_stay_white():
    """A corner weighing n or more needs two touches (mark 1), a lighter
    one three (mark 2).  Of (0,0,0,1) only corner 3 weighs n = 1; asking
    three touches of it too assembles 56 forms instead of 86."""
    res = cy_step_up_search(SearchConfig((0, 0, 0, 1), boundary=True, max_blowups=10))
    assert res.explored == {
        "edge_patterns": 171,
        "tasks": 135,
        "assembled": 86,
        "certified": 14,
        "eligible": 14,
        "best": 1,
    }
    assert res.minimum == Fraction(1, 10)


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


def test_cy_search_builds_each_form_once(monkeypatch):
    """Repeated weights give several combinations of one form; only one of
    them is counted and glued, and only the forms the glue certifies are
    built, so the search builds each certified form and then each winner
    once."""
    real = VisibleGraph.from_edge_content
    built = []

    def counting(cls, *args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(VisibleGraph, "from_edge_content", classmethod(counting))
    res = cy_step_up_search(SearchConfig(weights=(1, 1, 2, 3), boundary=True, max_blowups=12))
    assert res.best
    assert res.explored["certified"] < res.explored["assembled"]
    assert len(built) == res.explored["certified"] + len(res.best)
    assert res.forms() == sorted(res.forms())


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


def bounded_product(tables, budget):
    """Every choice of one summary per table whose patterns hold at most
    ``budget`` pairs in all."""
    if not tables:
        yield ()
        return
    for s in tables[0]:
        if len(s.pattern) <= budget:
            for rest in bounded_product(tables[1:], budget - len(s.pattern)):
                yield (s,) + rest


def keyed_forms(config) -> set:
    """The forms of a CY search by the rule its count replaced: every
    corner-feasible combination within the budget (each task's pattern
    times the other five CY tables), keyed by ``canonical_key``."""
    weights, b_index = config.weights, config.boundary_index
    cy, step = searchmod._cy_tables(config)
    need = searchmod._corner_need(weights, b_index)
    if searchmod._cy_case(config) == 3:
        fixed = [(0, s) for s in cy[EDGE_PAIRS[0]]]
    else:
        fixed = [(e, edge_summary(p)) for e in range(6) for p in step[EDGE_PAIRS[e]]]
    keys = set()
    for e, first in fixed:
        tables = [[first] if f == e else cy[EDGE_PAIRS[f]] for f in range(6)]
        for combo in bounded_product(tables, config.max_blowups):
            touches = [0, 0, 0, 0]
            for (i, j), s in zip(EDGE_PAIRS, combo):
                touches[i] += s.touches[0]
                touches[j] += s.touches[1]
            if all(t >= k for t, k in zip(touches, need)):
                keys.add(canonical_key(weights, b_index, {pair: s.pattern for pair, s in zip(EDGE_PAIRS, combo)}))
    return keys


@pytest.mark.parametrize(
    "weights,boundary,budget,group",
    [
        ((1, 2, 3, 5), False, 14, 1),
        ((1, 1, 2, 3), False, 12, 2),
        ((1, 1, 1, 2), False, 12, 6),
        ((1, 1, 1, 1), False, 12, 24),
        ((1, 2, 3, 5), True, 12, 1),
        ((1, 1, 2, 2), True, 12, 2),
        ((1, 2, 2, 3), True, 14, 2),
        ((1, 1, 1, 1), True, 12, 6),
        ((0, 1, 1, 1), True, 10, 6),
    ],
)
def test_cy_count_equals_distinct_keys(monkeypatch, fresh_pool, weights, boundary, budget, group):
    """The scan counts one combination per orbit of the relabellings that
    keep the corner keys; that count is the number of distinct canonical
    keys among all its combinations, and the forms it certifies are those
    of them that ``certify`` passes, at one worker and at two."""
    monkeypatch.setattr(searchmod.os, "cpu_count", lambda: 2)
    config = SearchConfig(weights, boundary=boundary, max_blowups=budget)
    assert len(corner_relabelings(config.weights, config.boundary_index)[1]) == group
    keys = keyed_forms(config)
    passed = {key for key in keys if certify(VisibleGraph.from_canonical_key(key)).certified}
    assert passed  # a cross-check where both sides find nothing proves nothing
    for jobs in (1, 2):
        config = replace(config, jobs=jobs)
        assert run_search(config).explored["assembled"] == len(keys)
        assert certified_keys(config) == passed


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


@pytest.mark.parametrize(
    "mode,weights,boundary,budget,explored,tasks,minimum",
    [
        ("cy_step_up", (1, 1, 1, 2), False, 16,
         {"edge_patterns": 114, "tasks": 54, "assembled": 929, "certified": 295, "eligible": 295, "best": 3},
         None, Fraction(1, 2485)),
        ("cy_step_up", (1, 1, 2, 3), True, 14,
         {"edge_patterns": 256, "assembled": 421, "certified": 118, "eligible": 118, "best": 1},
         {4, 8, 58}, Fraction(1, 168)),
        ("cy_step_up", (0, 1, 1, 2), True, 12,
         {"edge_patterns": 1577, "tasks": 1098, "assembled": 204, "certified": 62, "eligible": 62, "best": 3},
         None, Fraction(1, 260)),
        ("generic", (0, 1, 1, 2), True, 7,
         {"explored": 2172, "certified": 4, "eligible": 4, "best": 1},
         None, Fraction(1, 60)),
    ],
)
def test_search_invariant_under_corner_order(mode, weights, boundary, budget, explored, tasks, minimum):
    """Every order of the corner weights (the boundary stays first) gives the
    same minimum, forms and counters.  The one exception is ``tasks`` under a
    unit boundary: it counts edge 0's CY table, so it depends on the weight
    at corner 1, and the test pins the set of its values instead."""
    fixed = weights[:1] if boundary else ()
    orders = sorted(set(permutations(weights[len(fixed):])))
    results = [run_search(SearchConfig(fixed + order, boundary, budget, mode)) for order in orders]
    counters = [dict(r.explored) for r in results]
    if tasks is not None:
        assert {c.pop("tasks") for c in counters} == tasks
    assert counters == [explored] * len(orders)
    assert [r.minimum for r in results] == [minimum] * len(orders)
    assert all(r.forms() == results[0].forms() for r in results)


def test_run_search_dispatch():
    cfg = SearchConfig(
        weights=(0, 1, 1, 1), boundary=True, max_blowups=7, mode="cy_step_up"
    )
    assert run_search(cfg).minimum == Fraction(1, 60)
    gcfg = SearchConfig(weights=(1, 1, 1, 1), max_blowups=2, mode="generic")
    assert run_search(gcfg).best == []
