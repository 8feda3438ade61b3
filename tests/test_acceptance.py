"""Acceptance gate: the ten headline checks, one test per line of the
release checklist.

Criteria 1 through 9 pin the record volumes and the closed-form data
with exact Fraction equality and enforce their stated wall-clock
budgets.  Criterion 10 is a battery of property suites, split into
sub-lettered tests so each prints its own pass or fail line.

The whole file is slow by design: on two CPUs the two budget-30
searches take about two seconds each, the certified-population sweep
and the brute-force cross-check about five each.
"""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

from conftest import FIXTURES, deadline
from test_certify import FIXTURE_NAMES
from test_closed_forms import (
    CRITICAL,
    HAND_ENUMERATED,
    MINIMAL_CLASSES,
    rotation_class,
)
from test_invisible import P462A_CLASS
from test_search import brute_force, result_snapshot
from test_singularities import exact_determinant

from fourlines.certify import certify, volume, volume_lattice
from fourlines.closed_forms import (
    effective_lower_bound_log10,
    t_enumerate_minimal,
    t_surface,
    t_surface_chains,
    weighted_hypersurface_k2,
)
from fourlines.graph import BLACK, BOUNDARY, VisibleGraph, parse
from fourlines.invisible import (
    crepant_check,
    search_orthogonal,
    visible_intersections,
)
from fourlines.lattice import DivisorClass, log_pullback, pairing
from fourlines.search import (
    GENERIC,
    SearchConfig,
    _cy_tables,
    _cy_worker,
    _run_tasks,
    run_search,
)
from fourlines.singularities import chain_determinant, solve_discrepancies


def load(name: str):
    return parse((FIXTURES / f"{name}.graph").read_text())


def dets(report):
    return sorted(det for _, det in report.singularities)


def test_criterion_01_fixture_verification():
    with deadline(1.0):
        report = certify(load("p78"))
        assert report.volume == Fraction(1, 78)
        assert report.epsilon1 == Fraction(7, 78)
        assert report.delta1 == Fraction(1, 7)
        assert report.status == "big_nef"
        assert report.certified


def test_criterion_02_smallest_boundary_volume_is_one_sixtieth():
    with deadline(60.0):
        run1 = run_search(
            SearchConfig(weights=(0, 1, 1, 1), boundary=True, max_blowups=8)
        )
        assert run1.minimum == Fraction(1, 60)
        assert {rep.epsilon1 for _, rep in run1.best} == {Fraction(13, 60)}
        run2 = run_search(
            SearchConfig(weights=(1, 3, 4, 5), boundary=True, max_blowups=8)
        )
        assert run2.minimum == Fraction(1, 60)
        ((g, rep),) = run2.best
        assert str(rep.near_cy) == "boundary_unit"
        assert g.total_weight == 13
        assert rep.delta1 == Fraction(1, 13)


def test_criterion_03_boundary_record_462():
    with deadline(600.0):
        result = run_search(
            SearchConfig(weights=(1, 2, 3, 5), boundary=True, max_blowups=12)
        )
        assert result.minimum == Fraction(1, 462)
        forms = result.forms()
        assert len(forms) == len(set(forms)) == 2
        for _, rep in result.best:
            assert rep.volume == Fraction(1, 462)
            assert rep.epsilon1 == Fraction(1, 42)
            assert rep.delta1 == Fraction(1, 11)
            assert rep.epsilon1 * rep.delta1 == rep.volume


def test_boundary_record_462_is_its_family_minimum():
    """The boundary (1,2,3,5) CY family is finite: budget 47 is the first
    that assembles all of it, five more blowups add nothing, and the
    minimum over the whole family is still 1/462."""
    with deadline(60.0):
        below, saturated, beyond = (
            run_search(SearchConfig(weights=(1, 2, 3, 5), boundary=True, max_blowups=b))
            for b in (46, 47, 52)
        )
        assert saturated.minimum == Fraction(1, 462)
        assert saturated.explored["assembled"] == 5888 > below.explored["assembled"]
        assert saturated.explored["certified"] == 28
        assert len(saturated.best) == 4
        assert beyond.explored == saturated.explored
        assert beyond.forms() == saturated.forms()


def test_interior_record_48983_is_its_family_minimum():
    """The interior (1,2,3,5) CY family is finite as well: budget 48 is the
    first that assembles all of it, five more blowups add nothing, and the
    minimum over the whole family is still 1/48983."""
    with deadline(120.0):
        below, saturated, beyond = (
            run_search(SearchConfig(weights=(1, 2, 3, 5), max_blowups=b, jobs=2))
            for b in (47, 48, 53)
        )
        assert below.explored["assembled"] == 33540
        assert saturated.minimum == Fraction(1, 48983)
        assert saturated.explored["assembled"] == 33546
        assert saturated.explored["certified"] == 3062
        assert len(saturated.best) == 7
        assert beyond.explored == saturated.explored
        assert beyond.forms() == saturated.forms()


def test_criterion_04_interior_record_48983():
    with deadline(3600.0):
        result = run_search(
            SearchConfig(
                weights=(1, 2, 3, 5), boundary=False, max_blowups=30, jobs=4
            )
        )
        assert result.minimum == Fraction(1, 48983)
        assert result.minimum == Fraction(1, 11 * 61 * 73)
        by_rho: dict[int, list] = {}
        for g, rep in result.best:
            assert rep.volume == Fraction(1, 48983)
            by_rho.setdefault(rep.rho, []).append((g, rep))
        assert sorted(by_rho) == [2, 3]
        for _, rep in by_rho[2]:
            assert len(rep.singularities) == 3
            assert dets(rep) == [22, 61, 73]
        for _, rep in by_rho[3]:
            assert len(rep.singularities) == 4
            assert dets(rep) == [11, 11, 61, 73]
        # the extra exceptional white on the picard-rank-3 variants is
        # crepant; one assembly order reaches the same surface without it
        crepant_counts = sorted(
            sum(
                1
                for w in g.whites()
                if crepant_check(g, solve_discrepancies(g), w)
            )
            for g, _ in by_rho[3]
        )
        assert crepant_counts == [0, 1, 1, 1]


def test_criterion_05_rank_one_record_6351():
    with deadline(3600.0):
        result = run_search(
            SearchConfig(
                weights=(1, 2, 3, 5),
                boundary=False,
                max_blowups=30,
                rho_filter=1,
                jobs=4,
            )
        )
        assert result.minimum == Fraction(1, 6351)
        assert len(result.best) == 3
        for _, rep in result.best:
            assert rep.rho == 1
            assert dets(rep) == [73, 87]


def test_criterion_06_closed_forms_and_minimal_collections():
    with deadline(1.0):
        t = t_surface(2, 2, 4, 10)
        assert (t.A, t.B1, t.B2, t.k2) == (1, 87, 73, Fraction(1, 6351))
        assert t.ample

        got = t_enumerate_minimal(10)
        assert [tuple(int(x) for x in s.a) for s in got] == MINIMAL_CLASSES
        assert len(got) == 17
        best = min(s.k2 for s in got)
        assert best == Fraction(1, 6351)
        assert [s.a for s in got if s.k2 == best] == [
            rotation_class((2, 2, 4, 10))
        ]

        # the hand enumeration that circulated with the construction is
        # longer: every entry is ample and dominates a rotation of a
        # minimal collection, but 13 of its 22 rotation classes are not
        # themselves minimal
        minimal_rotations = {
            tuple(q[i:] + q[:i]) for q in MINIMAL_CLASSES for i in range(4)
        }
        for entry in HAND_ENUMERATED:
            s = t_surface(*entry)
            assert s.ample
            assert any(
                all(m <= e for m, e in zip(mq, entry))
                for mq in minimal_rotations
            ), entry
        hand_classes = {rotation_class(q) for q in HAND_ENUMERATED}
        assert len(hand_classes) == 22
        assert len(hand_classes & set(MINIMAL_CLASSES)) == 9

        for quad in CRITICAL:
            assert t_surface(*quad).A == 0


def test_criterion_07_weighted_hypersurface_value():
    with deadline(1.0):
        got = weighted_hypersurface_k2(159, 49, 61, 37, 11)
        assert got == Fraction(159, 1216523)


def test_criterion_08_effective_lower_bound_window():
    with deadline(1.0):
        got = effective_lower_bound_log10(Fraction(1, 42))
        assert Decimal("-3.23e10") <= got <= Decimal("-3.21e10")


def test_criterion_09_orthogonal_class_on_the_462_minimizer():
    with deadline(60.0):
        g = load("p462a")
        b = solve_discrepancies(g)
        found = search_orthogonal(g, b, 5)
        assert len(found) == 1
        cand = found[0]
        expected = DivisorClass(g, 3, {v: -m for v, m in P462A_CLASS.items()})
        assert cand.divisor == expected
        assert cand.self_int == -2
        assert cand.k_int == 0
        assert pairing(cand.divisor, log_pullback(g, b)) == 0
        assert visible_intersections(cand) == {
            "F13_11": 1,
            "F15_11": 1,
            "F25_11": 1,
        }


def test_criterion_10a_volume_identity_on_certified_population():
    # the full certified population of the budget-30 record search,
    # checked graph by graph against the lattice pairing
    config = SearchConfig(
        weights=(1, 2, 3, 5), boundary=False, max_blowups=30, jobs=4
    )
    cy, tasks, _ = _cy_tables(config)
    _, certified = _run_tasks(_cy_worker, (config, cy), tasks, config.jobs)
    assert len(certified) >= 1000
    for key, (vol, _) in certified.items():
        g = VisibleGraph.from_canonical_key(key)
        b = solve_discrepancies(g)
        assert volume(g, b) == volume_lattice(g, b) == vol

    # plus whatever random-weight searches certify, for weight diversity
    rng = random.Random(20260814)
    extra = 0
    for _ in range(400):
        weights = tuple(rng.randint(0, 6) for _ in range(4))
        boundary = rng.random() < 0.5
        if boundary:
            weights = (rng.choice((0, 1)),) + weights[1:]
        if sum(weights) == 0:
            continue
        res = run_search(
            SearchConfig(
                weights=weights,
                boundary=boundary,
                max_blowups=rng.randint(4, 7),
            )
        )
        for g, rep in res.best:
            b = solve_discrepancies(g)
            assert volume(g, b) == volume_lattice(g, b) == rep.volume
            extra += 1
    assert extra > 0


def test_criterion_10b_discrepancy_residuals_on_fixtures():
    for name in FIXTURE_NAMES:
        g = load(name)
        b = solve_discrepancies(g)
        assert set(b) == set(g.blacks())
        for j, bj in b.items():
            assert 0 <= bj < 1
            nbrs = g.neighbors(j)
            lhs = -g.mark(j) * bj + sum(
                b[i] for i in nbrs if g.color(i) == BLACK
            )
            rhs = (
                2
                - g.mark(j)
                - sum(1 for i in nbrs if g.color(i) == BOUNDARY)
            )
            assert lhs == rhs, (name, j)


def test_criterion_10c_chain_determinant_recurrence():
    for length in (1, 2, 3):
        for marks in product(range(2, 13), repeat=length):
            assert chain_determinant(list(marks)) == exact_determinant(
                list(marks)
            )
    rng = random.Random(5)
    for _ in range(300):
        marks = [rng.randint(2, 12) for _ in range(rng.randint(4, 15))]
        assert chain_determinant(marks) == exact_determinant(marks)


def test_criterion_10d_chain_marks_match_closed_form_determinants():
    for quad in product(range(2, 13), repeat=4):
        t = t_surface(*quad)
        first, second = t_surface_chains(*quad)
        assert {chain_determinant(first), chain_determinant(second)} == {
            t.B1,
            t.B2,
        }, quad


def test_criterion_10e_generic_search_matches_brute_force():
    """The generic walk certifies only the forms the glue passes; brute
    force certifies every reachable graph with certify alone.  Equal
    minima and certified counts make this the end-to-end oracle for the
    glue on generic walks, and a false rejection would lose a form."""
    for budget in (5, 6, 7):
        cfg = SearchConfig(
            weights=(0, 1, 1, 1),
            boundary=True,
            max_blowups=budget,
            mode=GENERIC,
        )
        result = run_search(cfg)
        oracle_min, oracle_forms = brute_force(
            cfg.weights, cfg.boundary_index, budget
        )
        assert result.minimum == oracle_min
        assert result.explored["certified"] == len(oracle_forms)
        assert set(result.forms()) <= oracle_forms
    # budget 7 is the first at which both sides certify something
    assert oracle_min == Fraction(1, 60)
    assert len(oracle_forms) == 3


def test_criterion_10f_results_independent_of_worker_count():
    for kwargs in (
        dict(weights=(1, 2, 3, 5), boundary=True, max_blowups=12),
        dict(weights=(0, 1, 1, 1), boundary=True, max_blowups=7, mode=GENERIC),
    ):
        snaps = [
            result_snapshot(run_search(SearchConfig(jobs=j, **kwargs)))
            for j in (1, 4, 8)
        ]
        assert snaps[0] == snaps[1] == snaps[2]
