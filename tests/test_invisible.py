from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from fourlines import graph as graphmod
from fourlines import lattice
from fourlines.invisible import (
    D_MAX_LIMIT,
    CandidateClass,
    crepant_check,
    pullback_coefficients,
    search_orthogonal,
    support,
    visible_intersections,
)
from fourlines.lattice import DivisorClass, canonical_class, class_of, log_pullback, pairing
from fourlines.singularities import NotChainError, solve_discrepancies

from conftest import random_graph

# The unique boxed class on the 1/462 surface, as multiplicities of the
# exceptional classes under 3H.
P462A_CLASS = {
    "F13_4": 2,
    "F13_7": 1,
    "F13_11": 1,
    "F15_6": 1,
    "F15_11": 1,
    "F25_7": 1,
    "F25_9": 1,
    "F25_11": 1,
}


def naive_box(graph, b, d_max):
    """Full enumeration of the (d, m) box with no pruning at all.

    Returns sorted integer tuples (d, m_1, ..., m_k) so the comparison is
    insensitive to discovery order.
    """
    coeffs = pullback_coefficients(graph, b)
    ids = [ins.new_id for ins in graph.history]
    rows = []
    for v in graph.vertices:
        cls = class_of(graph, v)
        rows.append((coeffs[v], int(cls.h), [int(cls.e.get(i, 0)) for i in ids]))
    out = []
    for d in range(1, d_max + 1):
        for ms in product(range(2 * d + 1), repeat=len(ids)):
            if d * d - sum(m * m for m in ms) + sum(ms) - 3 * d != -2:
                continue
            pair = [h * d + sum(m * e for m, e in zip(ms, row)) for _, h, row in rows]
            if any(p < 0 for p in pair):
                continue
            if any(c > 0 and p != 0 for (c, _, _), p in zip(rows, pair)):
                continue
            if sum((c * p for (c, _, _), p in zip(rows, pair)), Fraction(0)) != 0:
                continue
            if gcd(d, *ms) != 1:
                continue
            out.append((d,) + tuple(ms))
    return sorted(out)


def as_tuples(candidates, graph):
    ids = [ins.new_id for ins in graph.history]
    return sorted(
        (int(c.divisor.h),) + tuple(int(-c.divisor.e.get(i, 0)) for i in ids)
        for c in candidates
    )


def solved(graph):
    return solve_discrepancies(graph)


def test_candidate_class_validation(load_graph):
    g = load_graph("p462a")
    e = {k: Fraction(-m) for k, m in P462A_CLASS.items()}
    d = DivisorClass(g, 3, e)
    cand = CandidateClass(d, -2, 0)
    assert cand.self_int == -2 and cand.k_int == 0
    with pytest.raises(ValueError):
        CandidateClass(d, -2, 1)
    with pytest.raises(ValueError):
        CandidateClass(d, -1, 0)
    with pytest.raises(ValueError):
        CandidateClass(DivisorClass(g, Fraction(1, 2)), -2, 0)
    # right pairings but wrong genus profile: 3H has 9 + (-9) = 0
    cubic = DivisorClass(g, 3)
    with pytest.raises(ValueError):
        CandidateClass(cubic, 9, -9)


def test_pullback_expression_matches_log_pullback():
    rng = random.Random(404)
    checked = 0
    while checked < 60:
        g = random_graph(rng, max_insertions=7, boundary=bool(rng.getrandbits(1)))
        if g.total_weight == 0:
            continue
        try:
            b = solve_discrepancies(g)
        except (NotChainError, ZeroDivisionError):
            continue
        coeffs = pullback_coefficients(g, b)
        total = sum(
            (coeffs[v] * class_of(g, v) for v in g.vertices), DivisorClass(g)
        )
        assert total == log_pullback(g, b)
        assert lattice.combination(g, coeffs) == total
        assert lattice.combination(g, {}) == DivisorClass(g)
        checked += 1


def test_pullback_coefficients_validation(load_graph):
    g = load_graph("p462a")
    with pytest.raises(ValueError):
        pullback_coefficients(g, {})
    zero = graphmod.new_base([0, 0, 0, 0])
    with pytest.raises(ValueError):
        pullback_coefficients(zero, {})


def test_support_is_the_positive_part(load_graph):
    g = load_graph("p462a")
    b = solved(g)
    sup = support(g, b)
    assert sup == ("L1", "L2", "F13_4", "F15_6", "F23_5", "F23_8")
    coeffs = pullback_coefficients(g, b)
    for v in g.vertices:
        assert (coeffs[v] > 0) == (v in sup)


def test_p462a_unique_class(load_graph):
    g = load_graph("p462a")
    b = solved(g)
    cands = search_orthogonal(g, b, 5)
    assert len(cands) == 1
    cand = cands[0]
    expected = DivisorClass(g, 3, {k: -Fraction(m) for k, m in P462A_CLASS.items()})
    assert cand.divisor == expected
    assert cand.self_int == -2
    assert cand.k_int == 0
    assert pairing(cand.divisor, log_pullback(g, b)) == 0
    assert visible_intersections(cand) == {
        "F13_11": Fraction(1),
        "F15_11": Fraction(1),
        "F25_11": Fraction(1),
    }
    # in particular every supported curve is met in degree zero
    for v in support(g, b):
        assert pairing(cand.divisor, class_of(g, v)) == 0


def test_deeper_graphs_find_the_same_class(load_graph):
    """The 1/462 class is the only one in the box, also far beyond the
    naive oracle's d <= 3."""
    reference = load_graph("p462a")
    ref = search_orthogonal(reference, solved(reference), 3)
    assert len(ref) == 1
    want = {k: v for k, v in ref[0].divisor.coefficients().items() if v}
    for name, d_max in (("p48983", 3), ("p48983_rho3", 3), ("p462a", 50), ("p48983", 30)):
        g = load_graph(name)
        cands = search_orthogonal(g, solved(g), d_max)
        assert len(cands) == 1
        got = {k: v for k, v in cands[0].divisor.coefficients().items() if v}
        assert got == want
        assert cands[0].self_int == -2 and cands[0].k_int == 0


def test_base_graph_has_no_candidates(load_graph):
    g = graphmod.new_base([1, 2, 3, 7])
    assert search_orthogonal(g, {}, 3) == []
    assert search_orthogonal(load_graph("base"), {}, 3) == []


def test_weight_certified_fixtures_are_clean(load_graph):
    # these three carry ample weight systems, so the box finds nothing
    for name in ("kollar60", "p78", "p6351"):
        g = load_graph(name)
        assert search_orthogonal(g, solved(g), 3) == []


def test_d_max_validation(load_graph):
    g = load_graph("p462a")
    b = solved(g)
    with pytest.raises(ValueError):
        search_orthogonal(g, b, 0)
    with pytest.raises(ValueError):
        search_orthogonal(g, b, -2)
    with pytest.raises(ValueError, match=f"at most {D_MAX_LIMIT}"):
        search_orthogonal(g, b, D_MAX_LIMIT + 1)


def test_candidates_respect_the_box(load_graph):
    for name, d_max in (("p462a", 5), ("p48983", 3)):
        g = load_graph(name)
        for cand in search_orthogonal(g, solved(g), d_max):
            d = cand.divisor.h
            assert 1 <= d <= d_max
            assert all(0 <= -m <= 2 * d for m in cand.divisor.e.values())


def test_matches_naive_enumeration(load_graph):
    cases = []
    kollar = load_graph("kollar60")
    cases.append((kollar, 3))
    cases.append((kollar.reweighted([0, 1, 1, 1]), 3))
    cases.append((graphmod.new_base([1, 2, 3, 5]), 3))
    cases.append((load_graph("p462a"), 1))

    rng = random.Random(77)
    small = 0
    while small < 4:
        g = random_graph(rng, max_insertions=6, boundary=bool(rng.getrandbits(1)))
        if g.total_weight == 0 or g.blowups < 3:
            continue
        try:
            solve_discrepancies(g)
        except (NotChainError, ZeroDivisionError):
            continue
        cases.append((g, 2))
        small += 1
    while True:
        g = random_graph(rng, max_insertions=8, boundary=False)
        if g.blowups != 8 or g.total_weight == 0:
            continue
        try:
            solve_discrepancies(g)
        except (NotChainError, ZeroDivisionError):
            continue
        cases.append((g, 3))
        break

    for g, d_max in cases:
        b = {} if not g.blacks() else solve_discrepancies(g)
        assert as_tuples(search_orthogonal(g, b, d_max), g) == naive_box(g, b, d_max)


def test_crepant_check(load_graph):
    rho3 = load_graph("p48983_rho3")
    b3 = solved(rho3)
    assert crepant_check(rho3, b3, "F35_11") is True

    rho2 = load_graph("p48983")
    b2 = solved(rho2)
    assert crepant_check(rho2, b2, "G12") is False

    with pytest.raises(ValueError):
        crepant_check(rho2, b2, "G3")
    with pytest.raises(ValueError):
        crepant_check(rho2, b2, "L1")
