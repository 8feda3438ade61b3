from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from fourlines import graph as graphmod
from fourlines.certify import certify
from fourlines.graph import VisibleGraph, new_base
from fourlines.singularities import (
    Chain,
    NotChainError,
    black_components,
    chain_determinant,
    chains,
    check_log_terminal,
    orbifold_defect,
    solve_discrepancies,
)

from conftest import random_graph


def exact_determinant(marks):
    """Chain intersection determinant by Fraction Gaussian elimination."""
    k = len(marks)
    m = [[Fraction(0)] * k for _ in range(k)]
    for i, a in enumerate(marks):
        m[i][i] = Fraction(a)
        if i + 1 < k:
            m[i][i + 1] = Fraction(-1)
            m[i + 1][i] = Fraction(-1)
    det = Fraction(1)
    for col in range(k):
        pivot = None
        for row in range(col, k):
            if m[row][col] != 0:
                pivot = row
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for row in range(col + 1, k):
            factor = m[row][col] / m[col][col]
            for c in range(col, k):
                m[row][c] -= factor * m[col][c]
    return det


def test_chain_determinant_known_values():
    assert chain_determinant([2, 6]) == 11
    assert chain_determinant([2, 3, 2, 2]) == 11
    assert chain_determinant([3, 11, 2]) == 61
    assert chain_determinant([2, 2, 2, 2, 10, 2]) == 87
    assert chain_determinant([2] * 9 + [4, 2, 2]) == 73
    assert chain_determinant([2, 4, 2, 2, 2]) == 22
    assert chain_determinant([3, 2, 2]) == 7
    assert chain_determinant([]) == 1


def test_chain_determinant_all_twos():
    for k in range(1, 12):
        assert chain_determinant([2] * k) == k + 1


def test_chain_determinant_matches_matrix_small():
    for length in range(1, 4):
        for marks in product(range(2, 8), repeat=length):
            assert chain_determinant(marks) == exact_determinant(marks)


def test_chain_determinant_matches_matrix_sampled():
    rng = random.Random(1234)
    for _ in range(300):
        length = rng.randint(1, 15)
        marks = [rng.randint(2, 12) for _ in range(length)]
        assert chain_determinant(marks) == exact_determinant(marks)


def test_chain_determinant_reversal_invariant():
    rng = random.Random(77)
    for _ in range(200):
        marks = [rng.randint(2, 12) for _ in range(rng.randint(1, 12))]
        assert chain_determinant(marks) == chain_determinant(marks[::-1])


def test_leading_minors_positive():
    # negative-definiteness safety: the leading continuants strictly grow
    rng = random.Random(5)
    for _ in range(100):
        marks = [rng.randint(2, 12) for _ in range(rng.randint(1, 15))]
        prev, cur = 0, 1
        for a in marks:
            prev, cur = cur, a * cur - prev
            assert cur > prev > 0


def test_black_components_base_empty():
    assert black_components(new_base([1, 1, 1, 1])) == []


def test_black_components_p78(load_graph):
    g = load_graph("p78")
    comps = [set(c) for c in black_components(g)]
    assert {"F3", "F5"} in comps
    assert {"G4"} in comps
    assert {"C", "D", "E", "H4", "H5", "H6"} in comps
    assert len(comps) == 3


def test_component_path_order(load_graph):
    g = load_graph("p78")
    for comp in black_components(g):
        for u, v in zip(comp, comp[1:]):
            assert g.adjacent(u, v)


def _star_graph():
    """A graph whose black subgraph has a degree-3 vertex."""
    g = new_base([1, 1, 1, 1], corners=("a", "b", "c", "d"))
    g = g.insert("a", "b", "p1")
    g = g.insert("p1", "a", "p2")
    g = g.insert("p2", "a", "p3")
    g = g.insert("p3", "p2", "q")  # p3 turns black while staying next to a
    g = g.insert("c", "b", "r1")
    g = g.insert("r1", "c", "r2")
    g = g.insert("r2", "c", "r3")
    g = g.insert("d", "b", "s1")
    g = g.insert("s1", "d", "s2")
    g = g.insert("s2", "d", "s3")
    return g


def test_check_log_terminal_detects_star():
    g = _star_graph()
    assert g.mark("a") == 2
    assert g.mark("p3") == 2
    verdict = check_log_terminal(g)
    assert verdict == "black component ('a', 'c', 'd', 'p3') is not a chain (branch vertex present)"
    with pytest.raises(NotChainError):
        solve_discrepancies(g)


def test_check_log_terminal_detects_black_cycle():
    """Three black corners joined by bare edges form a black triangle."""
    heavy = ((1, 1), (2, 1), (3, 1))  # touches the first corner three times
    g = VisibleGraph.from_edge_content(
        ("A", "B", "C", "D"), (1, 1, 1, 1), "D", {e: heavy for e in ((0, 3), (1, 3), (2, 3))}
    )
    assert [g.mark(c) for c in "ABC"] == [2, 2, 2]
    assert black_components(g)[0] == ("A", "B", "C")
    verdict = check_log_terminal(g)
    assert verdict == "black component ('A', 'B', 'C') is not a simple path"
    assert certify(g).reasons == [verdict]


def test_check_log_terminal_ok_on_fixtures(load_graph):
    for name in ("p78", "p462a", "p48983", "p48983_rho3", "p6351", "kollar60"):
        assert check_log_terminal(load_graph(name)) is None


def test_solve_discrepancies_isolated_black():
    # a single mark-3 black vertex away from the boundary solves -3b = -1
    g = new_base([1, 1, 1, 1], corners=("a", "b", "c", "d"))
    g = g.insert("a", "b", "p1")
    g = g.insert("p1", "a", "p2")
    g = g.insert("p1", "p2", "p3")
    assert g.mark("p1") == 3
    b = solve_discrepancies(g)
    assert b["p1"] == Fraction(1, 3)


def test_solve_discrepancies_du_val_zero():
    # all-mark-2 chains off the boundary are Du Val: b vanishes
    g = new_base([1, 1, 1, 1], corners=("a", "b", "c", "d"))
    g = g.insert("a", "b", "p1")
    g = g.insert("p1", "b", "p2")
    b = solve_discrepancies(g)
    assert b == {"p1": Fraction(0)}


def test_solve_discrepancies_p78(load_graph):
    b = solve_discrepancies(load_graph("p78"))
    assert b["F3"] == Fraction(2, 3)
    assert b["F5"] == Fraction(1, 3)
    assert b["G4"] == Fraction(1, 2)
    assert b["C"] == Fraction(12, 13)
    assert b["D"] == Fraction(10, 13)
    assert b["E"] == Fraction(8, 13)
    assert b["H4"] == Fraction(6, 13)
    assert b["H5"] == Fraction(4, 13)
    assert b["H6"] == Fraction(2, 13)


def test_solve_discrepancies_p462a(load_graph):
    b = solve_discrepancies(load_graph("p462a"))
    assert b["F13_4"] == Fraction(2, 3)
    assert b["F15_6"] == Fraction(1, 2)
    assert b["L2"] == Fraction(6, 7)
    assert b["F23_5"] == Fraction(4, 7)
    assert b["F23_8"] == Fraction(2, 7)
    assert b["F13_7"] == Fraction(4, 11)
    assert b["L3"] == Fraction(8, 11)
    assert b["L5"] == Fraction(6, 11)
    assert b["F25_7"] == Fraction(4, 11)
    assert b["F25_9"] == Fraction(2, 11)


def test_boundary_end_closed_form():
    """A chain whose sole boundary contact is one end has b = 1 - 1/det there."""
    rng = random.Random(31337)
    found = 0
    for _ in range(400):
        g = random_graph(rng, max_insertions=8, weights=[1, 1, 2, 3], boundary=True)
        if check_log_terminal(g) is not None:
            continue
        b = solve_discrepancies(g)
        for chain in chains(g):
            ids = chain.vertex_ids
            touching = [v for v in ids if g.adjacent(v, g.boundary)]
            if len(touching) != 1 or touching[0] not in (ids[0], ids[-1]):
                continue
            end = touching[0]
            det = chain.determinant()
            assert b[end] == 1 - Fraction(1, det)
            found += 1
    assert found > 50


def test_interior_closed_form_no_boundary():
    """Without boundary contact, b_j = 1 - (d_{j-1} + d'_{k-j}) / d_k."""
    rng = random.Random(2718)
    checked = 0
    for _ in range(400):
        g = random_graph(rng, max_insertions=9, weights=[1, 2, 3, 5])
        if check_log_terminal(g) is not None:
            continue
        b = solve_discrepancies(g)
        for chain in chains(g):
            marks = chain.marks
            k = len(marks)
            det = chain.determinant()
            left = [1, marks[0]]
            for a in marks[1:]:
                left.append(a * left[-1] - left[-2])
            rev = marks[::-1]
            right = [1, rev[0]]
            for a in rev[1:]:
                right.append(a * right[-1] - right[-2])
            for j, v in enumerate(chain.vertex_ids, start=1):
                expected = 1 - Fraction(left[j - 1] + right[k - j], det)
                assert b[v] == expected
                checked += 1
    assert checked > 100


def test_discrepancies_in_unit_interval_on_fixtures(load_graph):
    for name in ("p78", "p462a", "p48983", "p48983_rho3", "p6351", "kollar60"):
        b = solve_discrepancies(load_graph(name))
        assert all(0 <= x < 1 for x in b.values())


def test_chain_type_validation():
    with pytest.raises(ValueError):
        Chain(("x",), (1,))
    with pytest.raises(ValueError):
        Chain(("x", "y"), (2,))
    assert Chain(("x", "y"), (2, 6)).normalized_marks() == (2, 6)
    assert Chain(("x", "y"), (6, 2)).normalized_marks() == (2, 6)


def test_orbifold_defect():
    assert orbifold_defect([]) == 0
    assert orbifold_defect([2, 2, 2]) == Fraction(3, 2)
    total = orbifold_defect([11, 61, 73, 2])
    assert total == 4 - (Fraction(1, 11) + Fraction(1, 61) + Fraction(1, 73) + Fraction(1, 2))
    assert total > 3
    with pytest.raises(ValueError):
        orbifold_defect([0])
