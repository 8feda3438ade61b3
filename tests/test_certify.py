from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from fourlines.certify import (
    AMPLE,
    BIG_NEF,
    NOT_CERTIFIED,
    certify,
    check_weights,
    classify_near_cy,
    delta1,
    epsilon1,
    find_ample_weights,
    kc_degree,
    volume,
    volume_lattice,
)
from fourlines.graph import new_base
from fourlines.invisible import crepant_check, pullback_coefficients
from fourlines.lattice import DivisorClass, class_of, log_pullback, pairing
from fourlines.singularities import solve_discrepancies

from conftest import random_graph

FIXTURE_NAMES = ("p78", "p462a", "p48983", "p48983_rho3", "p6351", "kollar60")


def dets(report):
    return sorted(det for _, det in report.singularities)


def test_p78_report(load_graph):
    g = load_graph("p78")
    rep = certify(g)
    assert rep.status == BIG_NEF
    assert rep.certified
    assert rep.volume == Fraction(1, 78)
    assert rep.epsilon1 == Fraction(7, 78)
    assert rep.delta1 == Fraction(1, 7)
    assert rep.rho == 1
    assert rep.blowups == 9
    assert rep.near_cy.kind == "boundary_unit"
    assert dets(rep) == [2, 3, 13]
    assert not rep.log_canonical_only
    marks = sorted(chain.normalized_marks() for chain, _ in rep.singularities)
    assert marks == [(2,), (2, 2), (2, 2, 2, 2, 2, 3)]


def test_p78_kc_degrees(load_graph):
    g = load_graph("p78")
    b = solve_discrepancies(g)
    assert kc_degree(g, b, "F7") == Fraction(4, 39)
    assert kc_degree(g, b, "G7") == Fraction(3, 26)
    assert kc_degree(g, b, "H7") == Fraction(1, 13)
    with pytest.raises(ValueError):
        kc_degree(g, b, "C")  # black, not white


def test_every_discrepancy_map_reader_refuses_a_wrong_index_set(load_graph):
    """Each function that takes a discrepancy map raises ValueError unless it
    holds exactly the blacks; a map without them, with a white as well or
    short of one black would change every sum without a word."""
    g = load_graph("p78")
    b = solve_discrepancies(g)
    readers = (
        lambda m: volume(g, m),
        lambda m: volume_lattice(g, m),
        lambda m: kc_degree(g, m, "F7"),
        lambda m: epsilon1(g, m),
        lambda m: log_pullback(g, m),
        lambda m: pullback_coefficients(g, m),
        lambda m: crepant_check(g, m, "F7"),
    )
    assert volume(g, b) == volume_lattice(g, b) == Fraction(1, 78)
    assert kc_degree(g, b, "F7") == Fraction(4, 39)
    assert epsilon1(g, b) == Fraction(7, 78)
    assert not crepant_check(g, b, "F7")
    for read in readers:
        read(b)
        for wrong in ({}, {**b, "F7": Fraction(5)}, {v: x for v, x in b.items() if v != "C"}):
            with pytest.raises(ValueError, match="exactly the black vertices"):
                read(wrong)


def test_p462a_report(load_graph):
    rep = certify(load_graph("p462a"))
    assert rep.status == BIG_NEF
    assert rep.volume == Fraction(1, 462)
    assert rep.epsilon1 == Fraction(1, 42)
    assert rep.delta1 == Fraction(1, 11)
    assert rep.rho == 2
    assert rep.blowups == 11
    assert rep.near_cy.kind == "boundary_unit"
    assert dets(rep) == [2, 3, 7, 22]


def test_p48983_report(load_graph):
    g = load_graph("p48983")
    rep = certify(g)
    assert rep.status == BIG_NEF
    assert rep.volume == Fraction(1, 48983)
    assert rep.epsilon1 is None
    assert rep.delta1 is None
    assert rep.rho == 2
    assert rep.blowups == 21
    assert str(rep.near_cy) == "one_step(G12)"
    assert dets(rep) == [22, 61, 73]
    b = solve_discrepancies(g)
    assert kc_degree(g, b, "G12") == Fraction(1, 4453)
    assert kc_degree(g, b, "F13_11") == Fraction(2, 671)
    assert kc_degree(g, b, "F15_11") == Fraction(3, 671)
    assert kc_degree(g, b, "F23_11") == Fraction(1, 803)
    assert kc_degree(g, b, "F25_11") == Fraction(3, 803)


def test_p48983_rho3_report(load_graph):
    g = load_graph("p48983_rho3")
    rep = certify(g)
    assert rep.status == BIG_NEF
    assert rep.volume == Fraction(1, 48983)
    assert rep.rho == 3
    assert rep.near_cy.kind == "one_step" and rep.near_cy.vertex == "G12"
    assert dets(rep) == [11, 11, 61, 73]
    b = solve_discrepancies(g)
    # the extra blowups make one white crepant, blocking ampleness
    assert kc_degree(g, b, "F35_11") == 0
    assert any("F35_11" in r for r in rep.reasons)


def test_p6351_report(load_graph):
    g = load_graph("p6351")
    rep = certify(g)
    assert rep.status == BIG_NEF
    assert rep.volume == Fraction(1, 6351)
    assert rep.rho == 1
    assert str(rep.near_cy) == "one_step(G12)"
    assert dets(rep) == [73, 87]
    b = solve_discrepancies(g)
    assert kc_degree(g, b, "G12") == Fraction(11, 6351)
    assert kc_degree(g, b, "F15_11") == Fraction(49, 6351)
    assert kc_degree(g, b, "F23_11") == Fraction(37, 6351)
    assert kc_degree(g, b, "F35_11") == Fraction(61, 6351)


def test_kollar60_report(load_graph):
    g = load_graph("kollar60")
    rep = certify(g)
    assert rep.status == BIG_NEF
    assert rep.volume == Fraction(1, 60)
    assert rep.epsilon1 == Fraction(13, 60)
    assert rep.delta1 == Fraction(1, 13)
    assert rep.rho == 1
    assert rep.near_cy.kind == "boundary_unit"
    assert dets(rep) == [3, 4, 5]
    b = solve_discrepancies(g)
    assert kc_degree(g, b, "F13") == Fraction(1, 20)
    assert kc_degree(g, b, "F13b") == Fraction(1, 15)
    assert kc_degree(g, b, "F13c") == Fraction(1, 12)


def test_volume_matches_lattice_on_fixtures(load_graph):
    for name in FIXTURE_NAMES:
        g = load_graph(name)
        b = solve_discrepancies(g)
        assert volume(g, b) == volume_lattice(g, b), name


def test_volume_matches_lattice_random():
    rng = random.Random(8086)
    checked = 0
    for _ in range(300):
        g = random_graph(rng, max_insertions=9, boundary=bool(rng.getrandbits(1)))
        try:
            b = solve_discrepancies(g)
        except ValueError:
            continue
        assert volume(g, b) == volume_lattice(g, b)
        checked += 1
    assert checked > 150


def test_boundary_unit_volume_identity(load_graph):
    # with a unit boundary weight the volume factors as excess / total weight
    for name in ("p78", "p462a", "kollar60"):
        rep = certify(load_graph(name))
        assert rep.near_cy.kind == "boundary_unit"
        assert rep.volume == rep.epsilon1 * rep.delta1


def test_one_step_volume_identity(load_graph):
    for name, stepped in (("p48983", "G12"), ("p6351", "G12")):
        g = load_graph(name)
        rep = certify(g)
        assert rep.near_cy.kind == "one_step"
        b = solve_discrepancies(g)
        assert rep.volume == kc_degree(g, b, stepped) / g.total_weight


def test_kollar60_unit_reweight(load_graph):
    g = load_graph("kollar60")
    rep = certify(g, weights=(0, 1, 1, 1))
    assert rep.status == BIG_NEF
    assert rep.volume == Fraction(1, 60)
    assert rep.near_cy.kind == "one_step" and rep.near_cy.vertex == "F13"
    h = g.reweighted((0, 1, 1, 1))
    b = solve_discrepancies(h)
    assert rep.volume == kc_degree(h, b, "F13") / h.total_weight


def test_base_not_certified():
    rep = certify(new_base([1, 1, 1, 1]))
    assert rep.status == NOT_CERTIFIED
    assert any("mark" in r for r in rep.reasons)


def test_undefined_mark_blocks():
    g = new_base([1, 1, 2, 3], boundary=0).insert("L0", "L1", "p")
    rep = certify(g)
    assert rep.status == NOT_CERTIFIED
    assert any("L1" in r and "mark" in r for r in rep.reasons)


def test_branching_blacks_not_certified():
    g = new_base([1, 1, 1, 1], corners=("a", "b", "c", "d"))
    for new, left, right in (
        ("p1", "a", "b"), ("p2", "p1", "a"), ("p3", "p2", "a"), ("q", "p3", "p2"),
        ("r1", "c", "b"), ("r2", "r1", "c"), ("r3", "r2", "c"),
        ("s1", "d", "b"), ("s2", "s1", "d"), ("s3", "s2", "d"),
    ):
        g = g.insert(left, right, new)
    rep = certify(g)
    assert rep.status == NOT_CERTIFIED
    assert any("chain" in r or "path" in r for r in rep.reasons)


def _all_cy_zero_graph():
    """Boundary of weight zero, every white at the total weight.

    The log pullback collapses to the zero class, so every positivity
    test degenerates at once: excess 0, volume 0.
    """
    g = new_base([0, 1, 1, 1], boundary=0, corners=("B0", "L3", "L4", "L5"))
    for new, left, right in (
        ("F7", "L3", "L4"), ("F10", "F7", "L3"),
        ("F8", "L3", "L5"), ("F13b", "F8", "L5"),
        ("F9", "L4", "L5"), ("F13c", "F9", "L4"),
    ):
        g = g.insert(left, right, new)
    return g


def test_all_cy_zero_volume():
    g = _all_cy_zero_graph()
    rep = certify(g)
    assert rep.status == NOT_CERTIFIED
    assert rep.near_cy.kind == "all_cy"
    assert rep.volume == 0
    assert rep.epsilon1 == 0
    b = solve_discrepancies(g)
    p = log_pullback(g, b)
    assert p == DivisorClass(g)
    for v in g.vertices:
        assert pairing(p, class_of(g, v)) == 0
    assert find_ample_weights(g) is None


def test_classify_near_cy_cases(load_graph):
    assert classify_near_cy(load_graph("p78")).kind == "boundary_unit"
    assert classify_near_cy(load_graph("p48983")).kind == "one_step"
    assert classify_near_cy(_all_cy_zero_graph()).kind == "all_cy"
    assert classify_near_cy(load_graph("p78").reweighted([1, 1, 1, 1])).kind == "general"


def test_epsilon_delta_edge_cases(load_graph):
    g = load_graph("p48983")
    with pytest.raises(ValueError):
        epsilon1(g, solve_discrepancies(g))
    assert delta1(g) is None
    assert delta1(load_graph("p78")) == Fraction(1, 7)


def test_check_weights_modes(load_graph):
    g = load_graph("p78")
    assert check_weights(g) == []
    strict = check_weights(g, strict=True)
    assert len(strict) == 3 and all("white" in s for s in strict)
    h = g.reweighted([0, 1, 2, 3])
    assert check_weights(h) == []
    assert any("boundary" in s for s in check_weights(h, strict=True))
    assert any("boundary" in s for s in check_weights(g.reweighted([-1, 1, 2, 3])))
    assert any("white" in s for s in check_weights(g.reweighted([1, 1, 1, 1])))


def test_find_ample_weights_p78(load_graph):
    g = load_graph("p78")
    w = find_ample_weights(g)
    assert w is not None
    assert check_weights(g.reweighted(w), strict=True) == []
    rep = certify(g, weights=w)
    assert rep.status == AMPLE
    assert rep.reasons == []
    assert rep.volume == Fraction(1, 78)
    assert rep.rho == 1


def test_find_ample_weights_kollar60(load_graph):
    g = load_graph("kollar60")
    w = find_ample_weights(g)
    assert w is not None
    rep = certify(g, weights=w)
    assert rep.status == AMPLE
    assert rep.volume == Fraction(1, 60)


def test_find_ample_weights_p6351(load_graph):
    g = load_graph("p6351")
    w = find_ample_weights(g)
    assert w is not None
    rep = certify(g, weights=w)
    assert rep.status == AMPLE
    assert rep.volume == Fraction(1, 6351)
    assert rep.rho == 1


def test_find_ample_weights_infeasible(load_graph):
    # these stay big-and-nef only: no weights satisfy every strict condition
    assert find_ample_weights(load_graph("p462a")) is None
    assert find_ample_weights(load_graph("p48983")) is None
    assert find_ample_weights(load_graph("p48983_rho3")) is None


def _grid_feasible(g, denominator=6):
    """Brute check of the strict weight conditions on a simplex grid."""
    n_parts = 4
    for cuts in combinations_with_replacement(range(denominator + 1), n_parts - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(denominator - prev)
        w = [Fraction(p, denominator) for p in parts]
        if not check_weights(g.reweighted(w), strict=True):
            return w
    return None


def test_find_ample_weights_agrees_with_grid():
    rng = random.Random(2024)
    hits = misses = 0
    for _ in range(120):
        g = random_graph(rng, max_insertions=6, weights=[1, 1, 2, 3],
                         boundary=bool(rng.getrandbits(1)))
        found = find_ample_weights(g)
        if found is not None:
            assert check_weights(g.reweighted(found), strict=True) == []
            hits += 1
        else:
            # no nonnegative grid point may beat an exact infeasibility proof
            assert _grid_feasible(g) is None
            misses += 1
    assert hits > 10 and misses > 10


def test_report_json_roundtrip(load_graph):
    rep = certify(load_graph("p462a"))
    data = json.loads(rep.to_json())
    assert data == rep.to_dict()
    assert data["volume"] == {"num": 1, "den": 462}
    assert data["epsilon1"] == {"num": 1, "den": 42}
    assert data["delta1"] == {"num": 1, "den": 11}
    assert data["status"] == "big_nef"
    assert data["near_cy"] == "boundary_unit"
    assert data["rho"] == 2
    assert {"chain": [2, 2, 2, 4, 2], "det": 22} in data["singularities"]


def test_log_canonical_flag():
    # two blacks both touching the boundary solve to b = 1 exactly
    g = new_base([0, 0, 0, 1], boundary=0, corners=("a", "b", "c", "d"))
    for new, left, right in (
        ("x1", "b", "d"), ("x2", "x1", "b"), ("x3", "x2", "b"),
        ("y1", "c", "d"), ("y2", "y1", "c"), ("y3", "y2", "c"),
    ):
        g = g.insert(left, right, new)
    assert g.mark("b") == g.mark("c") == 2
    b = solve_discrepancies(g)
    assert b["b"] == b["c"] == 1
    rep = certify(g)
    assert rep.log_canonical_only
    assert rep.status == NOT_CERTIFIED  # the boundary excess degenerates too
