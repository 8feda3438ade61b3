from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from fourlines import graph as graphmod
from fourlines.graph import FormatError, GraphError, VisibleGraph, new_base, parse, serialize

from conftest import random_graph


def test_new_base_shape():
    g = new_base([0, 1, 1, 1])
    assert len(g.vertices) == 4
    assert all(g.mark(v) == -1 for v in g.vertices)
    assert sum(1 for _ in g.adjacent_pairs()) == 6
    assert g.boundary is None


def test_new_base_boundary_flag():
    g = new_base([1, 2, 3, 5], boundary=0)
    assert g.boundary == g.corners[0]
    assert g.color(g.corners[0]) == "boundary"
    with pytest.raises(GraphError):
        new_base([1, 2, 3, 5], boundary=4)


def test_total_weight():
    g = new_base([1, 3, 4, 5])
    assert g.total_weight == 13


def test_insert_weight_additivity():
    g = new_base([1, 2, 3, 5], corners=("a", "b", "c", "d"))
    g = g.insert("a", "c", "x")
    assert g.weight("x") == 4
    g = g.insert("x", "c", "y")
    assert g.weight("y") == 7
    g = g.insert("x", "y", "z")
    assert g.weight("z") == 11


def test_insert_mark_bookkeeping():
    g = new_base([1, 1, 1, 1])
    before = sum(g.mark(v) for v in g.vertices)
    g = g.insert(g.corners[0], g.corners[1], "p")
    after = sum(g.mark(v) for v in g.vertices)
    assert after - before == 3
    assert g.mark("p") == 1
    assert g.mark(g.corners[0]) == 0
    assert g.mark(g.corners[1]) == 0


def test_insert_requires_adjacency():
    g = new_base([1, 1, 1, 1], corners=("a", "b", "c", "d"))
    g = g.insert("a", "b", "x")
    with pytest.raises(GraphError):
        g.insert("a", "b", "y")  # edge a-b was replaced by a-x-b
    with pytest.raises(GraphError):
        g.insert("a", "x", "x")  # duplicate id


@pytest.mark.parametrize("left,right", [("x", "y"), ("c", "x")])
def test_insert_across_edges_is_not_adjacent(left, right):
    """Only consecutive vertices of one edge path are adjacent, so an
    insertion between interior vertices of two edges, or between a corner
    and an interior vertex of an edge it does not bound, fails the
    adjacency check, through insert and through parse."""
    g = new_base([1, 1, 1, 1], corners=("a", "b", "c", "d")).insert("a", "b", "x").insert("c", "d", "y")
    with pytest.raises(GraphError, match="not adjacent"):
        g.insert(left, right, "z")
    with pytest.raises(FormatError, match="not adjacent"):
        parse(serialize(g) + f"insert z {left} {right}\n")


def test_random_bookkeeping_invariants():
    rng = random.Random(20240811)
    for _ in range(200):
        g = random_graph(rng, max_insertions=10)
        n = g.blowups
        assert len(g.vertices) == 4 + n
        assert sum(g.mark(v) for v in g.vertices) == -4 + 3 * n
        assert sum(1 for _ in g.adjacent_pairs()) == 6 + n
        g.check_bookkeeping()


def test_bookkeeping_sees_a_place_table_out_of_step():
    g = new_base([1, 2, 3, 5]).insert("L0", "L1", "x").insert("x", "L1", "y")
    g.check_bookkeeping()
    missing = g.insert("L2", "L3", "z")
    del missing._place["z"]
    with pytest.raises(GraphError, match="place table"):
        missing.check_bookkeeping()
    extra = g.insert("L2", "L3", "z")
    extra._place["L2"] = ((2, 3), (1, 0))
    with pytest.raises(GraphError, match="place table"):
        extra.check_bookkeeping()


def test_interior_weights_are_coprime_combinations():
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng, max_insertions=10, weights=[1, 2, 3, 5])
        for v in g.vertices:
            if g.is_corner(v):
                continue
            i, j = g.edge_of(v)
            m1, m2 = g.fraction(v)
            assert math.gcd(m1, m2) == 1
            expected = m1 * g.initial_weights[i] + m2 * g.initial_weights[j]
            assert g.weight(v) == expected


def test_edge_chains_follow_adjacency():
    g = new_base([1, 2, 3, 5], corners=("a", "b", "c", "d"))
    g = g.insert("a", "c", "w4")
    g = g.insert("w4", "c", "w7")
    g = g.insert("w4", "w7", "w11")
    chains = g.edge_chains()
    assert chains[(0, 2)] == ("w4", "w11", "w7")
    walk = ("a",) + chains[(0, 2)] + ("c",)
    for u, v in zip(walk, walk[1:]):
        assert g.adjacent(u, v)
    for pair, chain in chains.items():
        if pair != (0, 2):
            assert chain == ()


def test_edge_chains_order_vs_full_adjacency():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, max_insertions=12)
        chains = g.edge_chains()
        seen = set()
        for (i, j), chain in chains.items():
            walk = (g.corners[i],) + chain + (g.corners[j],)
            for u, v in zip(walk, walk[1:]):
                assert g.adjacent(u, v)
            seen.update(chain)
        assert len(seen) == g.blowups


def test_p78_interior_mark_sequences(load_graph):
    g = load_graph("p78")
    chains = g.edge_chains()
    marks = {pair: tuple(g.mark(v) for v in chain) for pair, chain in chains.items()}
    # corners: B C D E; boundary B; long edges carry 2-2-1, 2-1, 1-2-2-2
    assert marks[(0, 2)] == (2, 2, 1)
    assert marks[(0, 3)] == (2, 1)
    assert marks[(1, 3)] == (1, 2, 2, 2)
    assert marks[(0, 1)] == ()
    assert marks[(1, 2)] == ()
    assert marks[(2, 3)] == ()
    assert g.mark(g.corners[0]) == 1
    assert g.mark(g.corners[1]) == 3
    assert g.mark(g.corners[2]) == 2
    assert g.mark(g.corners[3]) == 2


def test_parse_serialize_roundtrip(load_graph):
    for name in ("base", "p78", "p462a", "p48983", "p48983_rho3", "p6351", "kollar60"):
        g = load_graph(name)
        assert parse(serialize(g)) == g


def test_parse_empty_history():
    g = parse("corners a b c d\nweights 1 1 1 1\n")
    assert g.blowups == 0


def test_parse_rejects_malformed():
    with pytest.raises(FormatError):
        parse("corners a b c\nweights 1 1 1 1\n")
    with pytest.raises(FormatError):
        parse("corners a b c d\nweights 1 1 one 1\n")
    with pytest.raises(FormatError):
        parse("corners a b c d\nweights 1 1 1 1\nboundary z\n")
    with pytest.raises(FormatError):
        parse("corners a b c d\nweights 1 1 1 1\nfrobnicate\n")
    with pytest.raises(FormatError):
        parse("corners a b c d\nweights 1 1 1 1\ninsert x a b\ninsert y a b\n")
    missing = pytest.raises(FormatError, parse, "weights 1 1 1 1\n")
    assert "corners" in str(missing.value)


def test_parse_bounds_weight_literals():
    start = time.perf_counter()
    err = pytest.raises(FormatError, parse, "corners a b c d\nweights 1e2000000 1 1 1\n")
    assert time.perf_counter() - start < 0.1
    assert "line 2" in str(err.value) and str(graphmod.MAX_WEIGHT_DIGITS) in str(err.value)
    g = parse("corners a b c d\nweights 1/2 3 0 1\n")
    assert g.initial_weights == (Fraction(1, 2), 3, 0, 1)


def test_parse_reports_line_numbers():
    err = pytest.raises(FormatError, parse, "corners a b c d\nweights 1 1 1 1\nbogus x\n")
    assert "line 3" in str(err.value)


def test_parse_comments_and_blank_lines():
    text = "# header\ncorners a b c d\n\nweights 1 1 1 1  # trailing\n"
    g = parse(text)
    assert g.corners == ("a", "b", "c", "d")


def test_canonical_form_full_symmetry():
    base = new_base([1, 1, 1, 1])
    forms = set()
    g1 = base.insert(base.corners[0], base.corners[1], "p")
    g2 = base.insert(base.corners[2], base.corners[3], "q")
    g3 = base.insert(base.corners[1], base.corners[3], "r")
    for g in (g1, g2, g3):
        forms.add(g.canonical_form())
    assert len(forms) == 1


def test_canonical_form_respects_weights():
    base = new_base([1, 1, 2, 3], corners=("a", "b", "c", "d"))
    on_ac = base.insert("a", "c", "p").canonical_form()
    on_bc = base.insert("b", "c", "p").canonical_form()  # a,b have equal weight
    on_ad = base.insert("a", "d", "p").canonical_form()  # c,d do not
    assert on_ac == on_bc
    assert on_ac != on_ad


def test_canonical_form_quotients_interleaving():
    base = new_base([1, 2, 3, 5], corners=("a", "b", "c", "d"))
    g1 = base.insert("a", "b", "x").insert("c", "d", "y").insert("x", "b", "z")
    g2 = base.insert("c", "d", "p").insert("a", "b", "q").insert("q", "b", "r")
    assert g1.canonical_form() == g2.canonical_form()
    assert g1.normalized() == g2.normalized()


def test_canonical_form_distinguishes_sides():
    base = new_base([1, 2, 3, 5], corners=("a", "b", "c", "d"))
    g1 = base.insert("a", "b", "x").insert("x", "a", "y")
    g2 = base.insert("a", "b", "x").insert("x", "b", "y")
    assert g1.canonical_form() != g2.canonical_form()


def test_normalized_preserves_canonical_form():
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng, max_insertions=8, weights=[1, 2, 3, 5])
        ng = g.normalized()
        assert ng.canonical_form() == g.canonical_form()
        assert ng.normalized() == ng
        assert ng.blowups == g.blowups
        if g.boundary is None:
            assert ng.boundary is None


def test_normalized_boundary_and_weights_carry_over():
    g = new_base([1, 2, 3, 5], boundary=0)
    g = g.insert(g.corners[0], g.corners[2], "u")
    ng = g.normalized()
    assert ng.boundary is not None
    assert sorted(ng.initial_weights) == sorted(g.initial_weights)
    assert ng.canonical_form() == g.canonical_form()


def test_reweighted_keeps_structure():
    g = new_base([1, 3, 4, 5]).insert("L0", "L1", "m")
    h = g.reweighted([0, 1, 1, 1])
    assert h.blowups == 1
    assert h.weight("m") == 1
    assert h.mark("m") == g.mark("m")


def test_fraction_parents_match_history():
    rng = random.Random(4242)
    for _ in range(80):
        g = random_graph(rng, max_insertions=10)
        for ins in g.history:
            pa, pb = g.parents(ins.new_id)
            assert {pa, pb} == {ins.left_id, ins.right_id}
            fr = g.fraction(ins.new_id)
            fa = g.fraction(pa) if not g.is_corner(pa) else None
            fb = g.fraction(pb) if not g.is_corner(pb) else None
            if fa and fb:
                assert fr == (fa[0] + fb[0], fa[1] + fb[1])
