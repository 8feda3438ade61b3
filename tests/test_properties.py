"""Seeded property tests of the graph key, the graph builders, the graph
file format, the discrepancy core, the CY edge tables and the glue.

Each fast path is compared with a slow reference: the canonical key with
the minimum over all 24 corner relabelings, the copying ``insert`` and
the piece-merging ``from_edge_content`` with a replay of the whole
history, a vertex's scaled weight with its weight and the blowup rule,
the closed-form Stern-Brocot parents with a descent of the
tree, the integer continuant discrepancies with Fraction Gaussian
elimination, the one-pass edge tables of a CY search with the public
per-edge enumerators, and the glue's verdict from edge summaries with
``certify`` on the built graph and with itself under scaled weights,
certify's one-pass near-CY tag and weight reasons with a white-by-white
Fraction reference, the one walk per black chain with a breadth-first
search, and the generic walk's mark deficit from edge summaries
with the same deficit read vertex by vertex off the built graph.  The
facts by which the glue leaves white corners out are checked on built
graphs: P.H read two ways, and the lemma that a white corner other than
the boundary lets no form past both the degree check and the boundary
excess.  Graph files must round-trip, and damaged ones must fail with
FormatError alone.
"""

from __future__ import annotations

import random
import re
from collections import deque
from fractions import Fraction
from itertools import permutations
from math import comb, gcd

import pytest

from fourlines.graph import (
    EDGE_PAIRS,
    FormatError,
    GraphError,
    VisibleGraph,
    _stern_brocot_parents,
    canonical_key,
    new_base,
    parse,
    serialize,
)
from fourlines import search as searchmod
from fourlines.certify import (
    AMPLE,
    BIG_NEF,
    CHECKS,
    NearCY,
    certify,
    check_weights,
    classify_near_cy,
    edge_summary,
    epsilon1,
    find_ample_weights,
    glue,
    kc_degree,
)
from fourlines.search import SearchConfig, _cy_tables, cy_edge_enumerate, run_search, step_edge_enumerate
from fourlines.singularities import (
    NotChainError,
    _chain_discrepancies,
    black_components,
    chains,
    check_log_terminal,
    solve_discrepancies,
)

from conftest import deadline, random_graph

#: weight vectors with repeated entries give several least relabelings
WEIGHT_VECTORS = ((1, 1, 2, 3), (0, 1, 1, 1), (1, 1, 1, 1), (2, 2, 3, 3), (1, 2, 3, 5))


def grow(rng: random.Random, weights, boundary, max_insertions: int) -> VisibleGraph:
    g = new_base(weights, boundary=boundary)
    for k in range(rng.randint(0, max_insertions)):
        a, b = rng.choice(list(g.adjacent_pairs()))
        g = g.insert(a, b, f"v{k}")
    return g


def random_graphs(seed: int, count: int, max_insertions: int = 10):
    rng = random.Random(seed)
    for _ in range(count):
        weights = list(rng.choice(WEIGHT_VECTORS))
        rng.shuffle(weights)
        yield grow(rng, weights, rng.choice((None, 0, 1, 2, 3)), max_insertions)


def reference_key(g: VisibleGraph) -> str:
    """The least (corner key, edge key) over all 24 corner relabelings."""
    content = {pair: [] for pair in EDGE_PAIRS}
    for v in g.vertices:
        if not g.is_corner(v):
            content[g.edge_of(v)].append(g.fraction(v))
    best = None
    for perm in permutations(range(4)):
        corner_key = tuple(
            (g.initial_weights[c].numerator, g.initial_weights[c].denominator, g.corners[c] == g.boundary)
            for c in perm
        )
        edges_key = []
        for i, j in EDGE_PAIRS:
            a, b = perm[i], perm[j]
            fr = content[(a, b)] if a < b else [(m2, m1) for m1, m2 in content[(b, a)]]
            edges_key.append(tuple(sorted(fr, key=lambda f: (f[0] + f[1], f[0]))))
        key = (corner_key, tuple(edges_key))
        if best is None or key < best:
            best = key
    return repr(best)


def state(g: VisibleGraph) -> dict:
    """Everything the queries of a graph read, vertex by vertex."""
    return {
        "history": g.history,
        "vertices": g.vertices,
        "whites": g.whites(),
        "blacks": g.blacks(),
        "per_vertex": {
            v: (g.mark(v), g.weight(v), g.scaled_weight(v), g.neighbors(v), g.edge_of(v),
                g.fraction(v), g.parents(v), g.children(v), g.color(v))
            for v in g.vertices
        },
    }


def fraction_solve(marks, contacts) -> list[Fraction]:
    """Gaussian elimination of -a_j b_j + b_{j-1} + b_{j+1} = 2 - a_j - contacts_j."""
    k = len(marks)
    rows = []
    for j in range(k):
        row = [Fraction(0)] * k + [Fraction(2 - marks[j] - contacts[j])]
        row[j] = Fraction(-marks[j])
        if j > 0:
            row[j - 1] = Fraction(1)
        if j + 1 < k:
            row[j + 1] = Fraction(1)
        rows.append(row)
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[j][k] / rows[j][j] for j in range(k)]


# -- canonical key ----------------------------------------------------------


def test_pruned_key_equals_full_permutation_key():
    seen_repeated = 0
    for g in random_graphs(seed=4242, count=600):
        assert g.canonical_form() == reference_key(g)
        if len(set(g.initial_weights)) < 4:
            seen_repeated += 1
    assert seen_repeated > 300


def test_pruned_key_after_corner_relabeling():
    """Relabeling the corners of a graph leaves its key unchanged."""
    rng = random.Random(77)
    for g in random_graphs(seed=78, count=200):
        perm = list(range(4))
        rng.shuffle(perm)
        # corner perm[i] of g becomes corner i of h
        corners = tuple(f"K{i}" for i in range(4))
        rename = {g.corners[perm[i]]: corners[i] for i in range(4)}
        weights = [g.initial_weights[perm[i]] for i in range(4)]
        boundary = rename.get(g.boundary)
        h = VisibleGraph(corners, weights, boundary)
        for ins in g.history:
            rename.setdefault(ins.new_id, ins.new_id)
            h = h.insert(rename[ins.left_id], rename[ins.right_id], ins.new_id)
        assert h.canonical_form() == g.canonical_form() == reference_key(h)


def test_key_from_edge_content_equals_graph_key():
    """``canonical_key`` needs only weights, boundary and content, in any order."""
    rng = random.Random(5150)
    repeated = 0
    for g in random_graphs(seed=5151, count=400):
        content = {}
        for pair, pairs in edge_content(g).items():
            if pairs:  # a missing pair is a bare edge
                content[pair] = rng.sample(pairs, len(pairs))
        boundary_index = None if g.boundary is None else g.corners.index(g.boundary)
        key = canonical_key(g.initial_weights, boundary_index, content)
        assert key == g.canonical_key()
        assert repr(key) == reference_key(g)
        assert VisibleGraph.from_canonical_key(key) == g.normalized()
        repeated += len(set(g.initial_weights)) < 4
    assert repeated > 200


# -- builders ----------------------------------------------------------------


def test_normalized_keeps_form_and_bookkeeping():
    for g in random_graphs(seed=909, count=400):
        ng = g.normalized()
        ng.check_bookkeeping()
        assert ng.canonical_form() == g.canonical_form()
        assert ng.normalized() == ng
        assert ng.corners == ("C0", "C1", "C2", "C3")


def edge_content(g: VisibleGraph) -> dict:
    content = {pair: [] for pair in EDGE_PAIRS}
    for v in g.vertices:
        if not g.is_corner(v):
            content[g.edge_of(v)].append(g.fraction(v))
    return {pair: tuple(pairs) for pair, pairs in content.items()}


def replayed(g: VisibleGraph) -> VisibleGraph:
    """``g`` rebuilt by inserting its history one step at a time."""
    replay = VisibleGraph(g.corners, g.initial_weights, g.boundary)
    for ins in g.history:
        replay = replay.insert(ins.left_id, ins.right_id, ins.new_id)
    return replay


def mutable_tables(g: VisibleGraph) -> set[int]:
    """The ids of the dicts, lists and sets a graph holds."""
    return {id(value) for value in vars(g).values() if isinstance(value, (dict, list, set))}


def test_from_edge_content_matches_insertion_replay():
    """The one-shot builder equals inserting the same pairs one at a time.

    The same holds for a build from a canonical key, which hands whole
    weights to the corner-graph cache as ints: under fractional weights and
    a boundary flag it equals the build with Fraction weights, and two
    builds from one key share no mutable table."""
    rng = random.Random(5149)
    fractional = 0
    for g in random_graphs(seed=5150, count=200):
        built = VisibleGraph.from_edge_content(g.corners, g.initial_weights, g.boundary, edge_content(g))
        built.check_bookkeeping()
        assert built.canonical_form() == g.canonical_form()
        assert state(replayed(built)) == state(built)

        h = g.reweighted([Fraction(rng.randint(0, 7), rng.choice((1, 1, 2, 3))) for _ in range(4)])
        corner_key, edges_key = key = h.canonical_key()
        flagged = [f"C{c}" for c, (_, _, flag) in enumerate(corner_key) if flag]
        reference = VisibleGraph.from_edge_content(
            ("C0", "C1", "C2", "C3"), [Fraction(num, den) for num, den, _ in corner_key],
            flagged[0] if flagged else None, dict(zip(EDGE_PAIRS, edges_key)),
        )
        first, second = VisibleGraph.from_canonical_key(key), VisibleGraph.from_canonical_key(key)
        assert first == reference == h.normalized()
        assert state(first) == state(reference) == state(replayed(first))
        assert all(type(w) is Fraction for w in first.initial_weights)
        assert not mutable_tables(first) & mutable_tables(second)
        fractional += bool(flagged) and any(den > 1 for _, den, _ in corner_key)
    assert fractional > 50


def test_inserting_on_a_built_graph_leaves_the_cached_pieces_alone():
    """Graphs built from one content share cached per-edge pieces; insert must not reach them."""
    rng = random.Random(6061)
    for g in random_graphs(seed=6060, count=150, max_insertions=8):
        args = (g.corners, g.initial_weights, g.boundary, edge_content(g))
        built = VisibleGraph.from_edge_content(*args)
        h = built
        for k in range(2):
            a, b = rng.choice(list(h.adjacent_pairs()))
            h = h.insert(a, b, f"extra{k}")
            h.check_bookkeeping()
        again = VisibleGraph.from_edge_content(*args)
        assert state(again) == state(replayed(again)) == state(built)


def test_from_edge_content_rejects_a_pair_without_its_parents():
    # twice in a row: the piece cache must not remember a failed edge as a good one
    for _ in range(2):
        with pytest.raises(GraphError, match="creation parent"):
            VisibleGraph.from_edge_content(("a", "b", "c", "d"), (1, 2, 3, 5), None, {(0, 1): [(1, 2)]})


@pytest.mark.parametrize("pair", [(2, 2), (0, 1), (1, 0), (-1, 2)])
def test_from_edge_content_rejects_a_pair_outside_the_stern_brocot_tree(pair):
    with pytest.raises(GraphError, match="coprime positive"):
        VisibleGraph.from_edge_content(("a", "b", "c", "d"), (1, 2, 3, 5), None, {(1, 3): [(1, 1), pair]})


@pytest.mark.parametrize("key", [(1, 0), (0, 7)])
def test_edge_content_rejects_a_key_outside_edge_pairs(key):
    """A key that is no edge of EDGE_PAIRS is named, not dropped as a bare edge."""
    content = {key: [(1, 1)]}
    with pytest.raises(GraphError, match=re.escape(repr(key))):
        VisibleGraph.from_edge_content(("a", "b", "c", "d"), (1, 2, 3, 5), None, content)
    with pytest.raises(GraphError, match=re.escape(repr(key))):
        canonical_key((1, 2, 3, 5), None, content)


def descended_parents(m1: int, m2: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Creation parents of the coprime positive pair (m1, m2), by descending
    the Stern-Brocot tree from (1, 1), one mediant per step."""
    lo, hi, cur = (1, 0), (0, 1), (1, 1)
    while cur != (m1, m2):
        # compare m1/m2 with cur as fractions (larger = closer to lo)
        if m1 * cur[1] > m2 * cur[0]:
            hi = cur
        else:
            lo = cur
        cur = (lo[0] + hi[0], lo[1] + hi[1])
    return lo, hi


def test_stern_brocot_parents_equal_the_descent():
    pairs = [(m1, m2) for m1 in range(1, 300) for m2 in range(1, 300) if gcd(m1, m2) == 1]
    assert len(pairs) == 54635
    for m1, m2 in pairs:
        assert _stern_brocot_parents(m1, m2) == descended_parents(m1, m2), (m1, m2)


def test_a_lopsided_pair_lacks_its_parents_at_once():
    """The parents of (1, 10**7) are (1, 10**7 - 1) and (0, 1); the descent
    to them takes one step per unit of the second entry."""
    with deadline(0.5), pytest.raises(GraphError, match="lacks a creation parent"):
        VisibleGraph.from_edge_content(("a", "b", "c", "d"), (1, 2, 3, 5), None, {(0, 1): [(1, 10**7)]})


def test_from_edge_content_rejects_an_interior_id_equal_to_a_corner():
    corners = ("a", "b", "E01_1_1", "d")
    with pytest.raises(GraphError, match="duplicate vertex id"):
        VisibleGraph.from_edge_content(corners, (1, 2, 3, 5), None, {(0, 1): [(1, 1)]})


def test_insert_copy_equals_history_replay_and_leaves_parent_alone():
    rng = random.Random(31)
    for g in random_graphs(seed=32, count=200, max_insertions=8):
        before = state(g)
        for a, b in rng.sample(list(g.adjacent_pairs()), 2):
            h = g.insert(a, b, "new")
            h.check_bookkeeping()
            replay = VisibleGraph(g.corners, g.initial_weights, g.boundary, h.history)
            assert state(h) == state(replay)
            # a grandchild must not reach back into h or g either
            h.insert(a, "new", "newer")
            assert state(h) == state(replay)
        assert state(g) == before


def test_scaled_weight_is_the_weight_and_follows_the_blowup_rule():
    """Under fractional corner weights, weight(v) is scaled_weight(v) over the
    common denominator, and an inserted vertex's scaled weight is the sum of
    its two creation parents' (the blowup rule, read off the history)."""
    rng = random.Random(2512)
    fractional = 0
    for g in random_graphs(seed=2511, count=300):
        g = g.reweighted([Fraction(rng.randint(-3, 9), rng.randint(1, 6)) for _ in range(4)])
        scale, ints = g.scaled_weights()
        fractional += scale > 1
        for i, c in enumerate(g.corners):
            assert g.scaled_weight(c) == ints[i]
            assert g.weight(c) == g.initial_weights[i]
        for v in g.vertices:
            assert g.weight(v) == Fraction(g.scaled_weight(v), scale)
        for ins in g.history:
            parents = g.scaled_weight(ins.left_id) + g.scaled_weight(ins.right_id)
            assert g.scaled_weight(ins.new_id) == parents
    assert fractional > 250


# -- graph files -------------------------------------------------------------


def test_parse_inverts_serialize():
    rng = random.Random(8088)
    for g in random_graphs(seed=8080, count=300):
        fractional = g.reweighted([w / rng.choice((1, 2, 3, 7)) for w in g.initial_weights])
        built = VisibleGraph.from_edge_content(g.corners, g.initial_weights, g.boundary, edge_content(g))
        for h in (g, fractional, built, g.normalized()):
            again = parse(serialize(h))
            assert again == h
            assert state(again) == state(h)


def test_damaged_graph_files_raise_only_format_error():
    rng = random.Random(9099)
    texts = [serialize(g) for g in random_graphs(seed=9090, count=40)]
    alphabet = "0123456789/.e-+_# \nabcEFLnv" + "corners weights boundary insert"
    failed = 0
    for trial in range(3000):
        data = bytearray(rng.choice(texts).encode())
        kind = trial % 3
        if kind == 0:  # flip bytes
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        elif kind == 1:  # truncate
            del data[rng.randrange(len(data)):]
        else:  # random text over the format's own characters
            data = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80))).encode()
        try:
            parse(data.decode("utf-8", errors="replace"))
        except FormatError:
            failed += 1
    assert failed > 1500


# -- black components -----------------------------------------------------------


def reference_components(g: VisibleGraph) -> list:
    """(vertices, reason) of each black component, found by breadth-first
    search and listed by creation rank: a path walked from its end of least
    rank with no reason, a branch or a cycle in creation order with the
    reason it is no chain."""
    blacks = [v for v in g.vertices if g.color(v) == "black"]
    links = {v: [w for w in g.neighbors(v) if w in blacks] for v in blacks}
    out, seen = [], set()
    for v in blacks:
        if v in seen:
            continue
        comp, queue = {v}, deque([v])
        while queue:
            for w in links[queue.popleft()]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        ordered = tuple(u for u in blacks if u in comp)
        if any(len(links[u]) > 2 for u in comp):
            out.append((ordered, f"black component {ordered} is not a chain (branch vertex present)"))
        elif all(len(links[u]) == 2 for u in comp):
            out.append((ordered, f"black component {ordered} is not a simple path"))
        else:
            path = [next(u for u in ordered if len(links[u]) < 2)]
            while len(path) < len(comp):
                path.append(next(w for w in links[path[-1]] if w not in path))
            out.append((tuple(path), None))
    return out


def grow_on_edges(rng: random.Random, boundary, max_insertions: int) -> VisibleGraph:
    """A random insertion history on a random set of edges, or on the three
    edges at one corner, half of the insertions next to a corner, so that
    corners turn black and the bare edges between them stay bare."""
    g = new_base((1, 1, 1, 1), boundary=boundary)
    hub = rng.randrange(4)
    edges = [p for p in EDGE_PAIRS if hub in p] if rng.random() < 0.2 else rng.sample(EDGE_PAIRS, rng.randint(1, 6))
    for k in range(rng.randint(0, max_insertions)):
        runs = g.edge_chains()
        i, j = rng.choice(edges)
        walk = (g.corners[i],) + runs[(i, j)] + (g.corners[j],)
        at = rng.choice((0, len(walk) - 2)) if rng.random() < 0.5 else rng.randrange(len(walk) - 1)
        g = g.insert(walk[at], walk[at + 1], f"v{k}")
    return g


def test_chain_walk_equals_a_breadth_first_reference():
    """``black_components``, ``check_log_terminal`` and ``chains``, which walk
    each chain once from its black of least rank, equal a breadth-first
    reference on random insertion histories.  The sample holds branch
    components, black cycles of corners and chains of three or more."""
    rng = random.Random(4242)
    reached = {"branch": 0, "corner cycle": 0, "long chain": 0}
    for _ in range(1500):
        g = grow_on_edges(rng, rng.choice((None, 0, 3)), 24)
        ref = reference_components(g)
        reasons = [r for _, r in ref if r]
        assert black_components(g) == [c for c, _ in ref], g.history
        assert check_log_terminal(g) == (reasons[0] if reasons else None)
        if reasons:
            with pytest.raises(NotChainError) as exc:
                chains(g)
            assert str(exc.value) == reasons[0]
        else:
            assert [(c.vertex_ids, c.marks) for c in chains(g)] == [(c, tuple(map(g.mark, c))) for c, _ in ref]
        reached["branch"] += any(r and "branch" in r for _, r in ref)
        reached["corner cycle"] += any(r and "simple path" in r and all(map(g.is_corner, c)) for c, r in ref)
        reached["long chain"] += any(r is None and len(c) >= 3 for c, r in ref)
    assert all(reached.values()), reached


# -- discrepancies -----------------------------------------------------------


def at_most_one_end_contact(contacts) -> bool:
    """No boundary contact, or one at an end of the chain: its b stay below 1."""
    return sum(contacts) <= 1 and not any(contacts[1:-1])


def test_integer_discrepancies_equal_fraction_solve_on_random_chains():
    """The chain core against Gaussian elimination, and its bounds: every b
    is >= 0, and < 1 with at most one contact at an end; with more
    contacts some b exceed 1."""
    rng = random.Random(1618)
    interior_contacts = below_one = above_one = 0
    for _ in range(1500):
        k = rng.randint(1, 9)
        marks = [rng.choice((2, 2, 2, 3, 4, 5, 9)) for _ in range(k)]
        contacts = [int(rng.random() < 0.3) for _ in range(k)]
        interior_contacts += any(contacts[1:-1])
        det, nums, vol = _chain_discrepancies(tuple(marks), tuple(contacts))
        b = fraction_solve(marks, contacts)
        assert [Fraction(num, det) for num in nums] == b
        assert Fraction(vol, det) == sum(x * (a - 2) for x, a in zip(b, marks))
        assert min(nums) >= 0
        if at_most_one_end_contact(contacts):
            assert max(nums) < det
            below_one += 1
        else:
            above_one += max(nums) > det
    assert interior_contacts > 300
    assert below_one > 300 and above_one > 0


def test_integer_discrepancies_equal_fraction_solve_on_graphs():
    touched = {"end": 0, "interior": 0}
    for g in random_graphs(seed=2024, count=800, max_insertions=12):
        if check_log_terminal(g) is not None:
            continue
        b = solve_discrepancies(g)
        for chain in chains(g):
            ids = chain.vertex_ids
            contacts = [int(g.boundary is not None and g.adjacent(v, g.boundary)) for v in ids]
            assert [b[v] for v in ids] == fraction_solve(chain.marks, contacts)
            assert min(b[v] for v in ids) >= 0
            if at_most_one_end_contact(contacts):
                assert max(b[v] for v in ids) < 1
            if contacts[0] or contacts[-1]:
                touched["end"] += 1
            if any(contacts[1:-1]):
                touched["interior"] += 1
    assert touched["end"] > 50
    assert touched["interior"] > 0


# -- CY edge tables ----------------------------------------------------------


def white_weights(pattern, w_a, w_b) -> list:
    """Weights of the pairs of an edge pattern that are parents of no other pair."""
    parents = {p for m in pattern for p in _stern_brocot_parents(*m)}
    return [m1 * w_a + m2 * w_b for m1, m2 in pattern if (m1, m2) not in parents]


def test_one_pass_edge_tables_equal_the_public_enumerators():
    """``_cy_tables`` against the public enumerators: its CY summaries, its
    tasks (edge 0's CY patterns under a unit boundary, else every edge's
    one-step patterns in EDGE_PAIRS order) and its pattern count, under
    random weights and boundaries, boundary weights other than 0 and 1
    included."""
    rng = random.Random(314)
    choices = (0, 0, 1, 1, 2, 3, 5, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
    tried = with_steps = 0
    cases = set()
    while tried < 60:
        weights = [rng.choice(choices) for _ in range(4)]
        if sum(weights) == 0:
            continue
        tried += 1
        budget = rng.randint(0, 14)
        config = SearchConfig(weights, boundary=rng.random() < 0.5, max_blowups=budget)
        n = config.total_weight
        cy, tasks, patterns = _cy_tables(config)
        step = {(i, j): step_edge_enumerate(weights[i], weights[j], n, budget) for i, j in EDGE_PAIRS}
        for i, j in EDGE_PAIRS:
            assert [s.pattern for s in cy[(i, j)]] == cy_edge_enumerate(weights[i], weights[j], n, budget)
            with_steps += bool(step[(i, j)])
            # the split itself: whites at n, plus exactly one at n + 1 on the step side
            for summary in cy[(i, j)]:
                assert all(w == n for w in white_weights(summary.pattern, weights[i], weights[j]))
            for pattern in step[(i, j)]:
                whites = white_weights(pattern, weights[i], weights[j])
                assert whites.count(n + 1) == 1 and whites.count(n) == len(whites) - 1
        unit_boundary = config.boundary and weights[0] == 1
        cases.add(unit_boundary)
        if unit_boundary:
            assert tasks == [(0, p) for p in cy_edge_enumerate(weights[0], weights[1], n, budget)]
        else:
            assert tasks == [(e, p) for e, pair in enumerate(EDGE_PAIRS) for p in step[pair]]
        assert patterns == sum(len(cy[pair]) + len(step[pair]) for pair in EDGE_PAIRS)
    assert with_steps > 100
    assert cases == {False, True}


def parent_closed_sets(budget: int) -> list[frozenset]:
    """Every parent-closed set of Stern-Brocot pairs with at most ``budget``
    members, grown from the bare edge by inserting a mediant between any
    two neighbours of its path, with no weight pruning."""
    paths = level = {((1, 0), (0, 1))}
    for _ in range(budget):
        level = {
            path[: k + 1] + ((a1 + b1, a2 + b2),) + path[k + 1 :]
            for path in level
            for k, ((a1, a2), (b1, b2)) in enumerate(zip(path, path[1:]))
        }
        paths |= level
    return [frozenset(path[1:-1]) for path in paths]


def test_edge_tables_equal_brute_force():
    """The pruned enumerators against every parent-closed set up to budget
    8 (2,056 of them) filtered by white weights: all at n for a CY table;
    exactly one at n + 1 and the rest at n for a one-step table."""
    budget = 8
    sets = parent_closed_sets(budget)
    assert len(sets) == sum(comb(2 * k, k) // (k + 1) for k in range(budget + 1))  # Catalan numbers
    whites = []
    for members in sets:
        parents = {p for m in members for p in _stern_brocot_parents(*m)}
        whites.append((members, [m for m in members if m not in parents]))
    pairs = set().union(*sets)
    rng = random.Random(2718)
    choices = (0, 0, 1, 1, 2, 3, 5, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
    edges = with_cy = with_steps = 0
    while edges < 200:
        w_a, w_b = rng.choice(choices), rng.choice(choices)
        # a total weight that some white reaches, or one less
        n = rng.randint(0, 5) * w_a + rng.randint(0, 5) * w_b - rng.choice((0, 1))
        if n <= 0:
            continue
        edges += 1
        # 0 for a pair at n, 1 at n + 1, 2 elsewhere
        level = {}
        for m1, m2 in pairs:
            w = m1 * w_a + m2 * w_b
            level[(m1, m2)] = 0 if w == n else 1 if w == n + 1 else 2
        cy, step = set(), set()
        for members, ws in whites:
            off = [level[m] for m in ws if level[m]]
            if not off:
                cy.add(members)
            elif off == [1]:
                step.add(members)
        assert {frozenset(p) for p in cy_edge_enumerate(w_a, w_b, n, budget)} == cy
        assert {frozenset(p) for p in step_edge_enumerate(w_a, w_b, n, budget)} == step
        with_cy += len(cy) > 1  # more than the empty pattern
        with_steps += bool(step)
    assert with_cy >= 100 and with_steps >= 100


# -- the glue ----------------------------------------------------------------

#: the start of certify's reason for each check; a negative degree reads
#: "white v has negative canonical degree", a light white "white v has weight"
REASON_CHECKS = (
    ("non-boundary vertex", "mark"),
    ("black component", "chain"),
    ("discrepancy", "discrepancy"),
    ("boundary excess", "boundary_excess"),
    ("volume", "volume"),
    ("boundary weight", "weights"),
)


def first_failed(report):
    """certify's first failing check, from the first of its reasons."""
    if report.certified:
        return None
    reason = report.reasons[0]
    for start, check in REASON_CHECKS:
        if reason.startswith(start):
            return check
    return "degree" if "negative canonical degree" in reason else "weights"


def glue_calls(config) -> list:
    """(weights, boundary index, patterns) of every form a search hands
    the glue: in the CY mode each assembled combination once, in the
    generic mode each form the walk reaches once."""
    calls = []

    def recording(weights, boundary_index, summaries):
        calls.append((weights, boundary_index, tuple(s.pattern for s in summaries)))
        return real(weights, boundary_index, summaries)

    real = searchmod.glue
    searchmod.glue = recording
    try:
        result = run_search(config)
    finally:
        searchmod.glue = real
    assert len(calls) == result.explored["explored" if config.mode == "generic" else "assembled"]
    return calls


def content_of(g: VisibleGraph) -> tuple:
    """(weights, boundary index, patterns) of a graph, its patterns in EDGE_PAIRS order."""
    boundary_index = None if g.boundary is None else g.corners.index(g.boundary)
    return g.initial_weights, boundary_index, tuple(edge_content(g)[pair] for pair in EDGE_PAIRS)


def test_glue_agrees_with_certify():
    """The glue's verdict, first failing check, volume and rank equal
    certify's on the built graph.  The cases: every combination of the
    budget-22 (1,2,3,5) search and of the 56 boundary searches at budget
    12; every graph of the generic (0,1,1,1) walk at budget 7, two thirds of
    them with a white corner; every combination of the (1,1,1,2) search
    at budget 16, where some paths of black corners repeat a star, and of
    the (1,1,2,3) boundary search at budget 14; all of these again under
    random weights and boundaries; and random insertion graphs.  A false
    rejection would lose a form."""
    cases = glue_calls(SearchConfig((1, 2, 3, 5), max_blowups=22))
    assert len(cases) == 2913
    for a in range(1, 7):
        for b in range(a, 7):
            for c in range(b, 7):
                cases += glue_calls(SearchConfig((1, a, b, c), boundary=True, max_blowups=12))
    cases += glue_calls(SearchConfig((0, 1, 1, 1), boundary=True, max_blowups=7, mode="generic"))
    # repeated weights; at (1,1,1,2) some paths of black corners repeat a star
    cases += glue_calls(SearchConfig((1, 1, 1, 2), max_blowups=16))
    cases += glue_calls(SearchConfig((1, 1, 2, 3), boundary=True, max_blowups=14))
    rng = random.Random(4711)
    choices = (0, 0, 1, 1, 2, 3, 5, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
    for _, boundary_index, patterns in cases[:]:
        weights = [rng.choice(choices) for _ in range(4)]
        boundary_index = rng.choice((None, boundary_index))
        if boundary_index is not None and rng.random() < 0.2:
            weights[boundary_index] = -1  # fails the boundary's own weight condition
        cases.append((weights, boundary_index, patterns))
    for _ in range(2000):
        weights = [rng.choice(choices) for _ in range(4)]
        cases.append(content_of(grow(rng, weights, rng.choice((None, 0, 1, 2, 3)), 14)))

    seen = {check: 0 for check in (None,) + CHECKS}
    mismatches = []
    for weights, boundary_index, patterns in cases:
        boundary = None if boundary_index is None else f"L{boundary_index}"
        g = VisibleGraph.from_edge_content(
            ("L0", "L1", "L2", "L3"), weights, boundary, dict(zip(EDGE_PAIRS, patterns))
        )
        report = certify(g)
        verdict = glue(weights, boundary_index, [edge_summary(p) for p in patterns])
        expected = first_failed(report)
        seen[expected] += 1
        if verdict.failed != expected or (
            expected is None and (verdict.volume, verdict.rho) != (report.volume, report.rho)
        ):
            mismatches.append((g.canonical_form(), verdict, report.reasons[:1]))
    assert mismatches == []
    assert all(seen.values()), seen


def test_glue_is_scale_invariant():
    """Every weight test of the glue is homogeneous, so scaling the weights
    by a positive integer or Fraction changes no verdict: the searches hand
    the glue their weights scaled to integers."""
    cases = glue_calls(SearchConfig((1, 2, 3, 5), max_blowups=22))
    cases += glue_calls(SearchConfig((1, 1, 1, 2), max_blowups=16))
    cases += glue_calls(SearchConfig((1, 1, 2, 3), boundary=True, max_blowups=14))
    cases += glue_calls(SearchConfig((0, 1, 1, 1), boundary=True, max_blowups=7, mode="generic"))
    rng = random.Random(2718)
    choices = (0, 1, 1, 2, 3, 5, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
    verdicts = {check: 0 for check in (None,) + CHECKS}
    for weights, boundary_index, patterns in cases:
        if rng.random() < 0.5:  # random weights reach the weight check's other branches
            weights = [rng.choice(choices) for _ in range(4)]
        summaries = [edge_summary(p) for p in patterns]
        verdict = glue(weights, boundary_index, summaries)
        verdicts[verdict.failed] += 1
        for k in (rng.randint(2, 1000), Fraction(rng.randint(1, 99), rng.randint(2, 99))):
            assert glue([k * w for w in weights], boundary_index, summaries) == verdict, (weights, k, patterns)
    assert all(verdicts.values()), verdicts


def test_a_white_corner_decides_no_verdict_past_the_mark_check():
    """The facts behind the glue's white corners, on every form of the
    generic (0,1,1,1) boundary walk at budget 7 and on random insertion
    graphs, each that passes the mark and chain checks with every b <= 1.
    P.H read off the black corners (F1) equals P.H read along each
    corner's line (F2).  When every interior white has degree >= 0, every
    white corner has too, a boundary exists and its excess is <= 0.  No
    certified graph has a white corner other than the boundary.  Such
    forms pass the degree check and fail at the boundary excess, as does
    the graph below, every degree 0 and its excess 0."""
    corners = ("L0", "L1", "L2", "L3")
    ladder = ((1, 1), (1, 2), (1, 3))
    explicit = VisibleGraph.from_edge_content(corners, (0, 1, 1, 1), "L0", {(1, 2): ladder, (1, 3): ladder})
    b = solve_discrepancies(explicit)
    assert explicit.mark("L1") == 1
    assert {kc_degree(explicit, b, v) for v in explicit.whites()} == {0} == {epsilon1(explicit, b)}
    assert first_failed(certify(explicit)) == "boundary_excess"

    walk = glue_calls(SearchConfig((0, 1, 1, 1), boundary=True, max_blowups=7, mode="generic"))
    graphs = [
        VisibleGraph.from_edge_content(corners, weights, f"L{boundary_index}", dict(zip(EDGE_PAIRS, patterns)))
        for weights, boundary_index, patterns in walk
    ]
    assert explicit.canonical_form() in {g.canonical_form() for g in graphs}
    graphs += random_graphs(seed=9155, count=1500)
    checked = passing = certified = 0
    for g in graphs:
        bd = g.boundary
        if any(v != bd and g.mark(v) <= 0 for v in g.vertices) or check_log_terminal(g) is not None:
            continue
        b = solve_discrepancies(g)
        if max(b.values(), default=0) > 1:
            continue
        checked += 1
        deg = {v: kc_degree(g, b, v) for v in g.whites()}
        if bd is not None:
            deg[bd] = epsilon1(g, b)
        ph = -3 + (bd is not None) + sum(b.get(x, 0) for x in g.corners)
        for c, x in enumerate(g.corners):
            along = deg.get(x, 0)  # a black corner pairs to 0
            for v in g.whites():
                edge = g.edge_of(v)
                if edge is not None and c in edge:
                    along += g.fraction(v)[edge.index(c)] * deg[v]
            assert along == ph, (g.canonical_form(), x)
        white_corners = [x for x in g.corners if x != bd and g.mark(x) == 1]
        if white_corners and all(deg[v] >= 0 for v in g.whites() if not g.is_corner(v)):
            passing += 1
            assert bd is not None and deg[bd] <= 0
            assert min(deg[x] for x in white_corners) >= 0
        if certify(g).certified:
            certified += 1
            assert not white_corners
    assert checked > 500 and passing > 0 and certified > 0


def reference_weight_reasons(g: VisibleGraph, strict: bool) -> list[str]:
    """The weight-condition reasons, read vertex by vertex: n must be
    positive, every white must weigh n or more (more when strict), and the
    boundary 0 or more (more when strict)."""
    n = g.total_weight
    if n <= 0:
        return [f"total weight {n} must be positive"]
    op = ">" if strict else ">="
    out = [f"white {v} has weight {g.weight(v)}, needs {op} {n}"
           for v in g.whites() if g.weight(v) < n or (strict and g.weight(v) == n)]
    if g.boundary is not None:
        w0 = g.weight(g.boundary)
        if w0 < 0 or (strict and w0 == 0):
            out.append(f"boundary weight {w0} must be {op} 0")
    return out


def reference_near_cy(g: VisibleGraph) -> NearCY:
    """The near-CY tag, white by white in Fractions: every white at n, or
    all but one at n and that one at n + 1, with no boundary or one of
    weight 0; every white at n with a boundary of weight 1; else general."""
    n = g.total_weight
    off = [v for v in g.whites() if g.weight(v) != n]
    w0 = None if g.boundary is None else g.weight(g.boundary)
    if w0 is None or w0 == 0:
        if not off:
            return NearCY("all_cy")
        if len(off) == 1 and g.weight(off[0]) == n + 1:
            return NearCY("one_step", off[0])
    elif w0 == 1 and not off:
        return NearCY("boundary_unit")
    return NearCY("general")


def test_certify_weight_reasons_equal_the_loose_and_strict_checks(load_graph):
    """certify's near-CY tag, status and weight reasons, from one integer
    pass over the whites, equal a white-by-white Fraction reference: the
    tag always; the loose reasons after the degree, excess and volume
    reasons of a graph that reaches them; the strict reasons first of all
    on a certified graph, which is ample exactly when it has no reason.
    ``classify_near_cy`` and ``check_weights`` read the same pass.  The
    random graphs have boundary weights of 0 and below, total weights of
    0 and below and fractional weights; the certified record fixtures fail
    the strict check, and the forms of a generic and a unit-boundary search
    hold every tag, whites at n + 1 among them; three fixtures reweighted
    by ``find_ample_weights`` are ample."""
    rng = random.Random(1414)
    choices = (-1, 0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(3, 2))
    graphs = [load_graph(name) for name in ("kollar60", "p78", "p462a", "p6351", "p48983")]
    graphs += [g.reweighted(w) for g in graphs[:4] if (w := find_ample_weights(g))]  # ample
    for config in (SearchConfig((0, 1, 1, 1), True, 6, mode="generic"), SearchConfig((1, 1, 2, 3), True, 10)):
        for weights, boundary_index, patterns in glue_calls(config):
            boundary = None if boundary_index is None else f"L{boundary_index}"
            graphs.append(VisibleGraph.from_edge_content(
                ("L0", "L1", "L2", "L3"), config.weights, boundary, dict(zip(EDGE_PAIRS, patterns))))
    for _ in range(3000):
        weights = [rng.choice(choices) for _ in range(4)]
        graphs.append(random_graph(rng, max_insertions=10, weights=weights, boundary=rng.random() < 0.5))
    reached = {"light white": 0, "boundary 0": 0, "negative boundary": 0, "total": 0, "strict": 0,
               "fractional weight": 0, "white at n + 1": 0, "ample": 0}
    tags = {kind: 0 for kind in ("all_cy", "one_step", "boundary_unit", "general")}
    for g in graphs:
        report = certify(g)
        loose, strict = reference_weight_reasons(g, False), reference_weight_reasons(g, True)
        near = reference_near_cy(g)
        assert report.near_cy == classify_near_cy(g) == near, g.canonical_form()
        assert (check_weights(g), check_weights(g, strict=True)) == (loose, strict)
        tags[near.kind] += 1
        weights = [r for r in report.reasons
                   if r.startswith(("total weight", "boundary weight")) or " has weight " in r]
        if report.certified:  # the strict reasons first, then the degree-0 and log-canonical ones
            assert not loose and report.reasons[: len(strict)] == strict == weights, report.reasons
            assert report.status == (BIG_NEF if report.reasons else AMPLE)
            reached["strict"] += bool(strict)
            reached["ample"] += report.status == AMPLE
        elif any(r.startswith(("non-boundary vertex", "black component", "discrepancy")) for r in report.reasons):
            assert weights == [], report.reasons  # the weights are never checked
        else:  # the loose reasons last, after the degree, excess and volume ones
            assert report.reasons[len(report.reasons) - len(loose) :] == loose == weights, report.reasons
            reached["light white"] += any(" has weight " in r for r in loose)
            reached["total"] += any(r.startswith("total weight") for r in loose)
            reached["boundary 0"] += any(r.startswith("boundary weight 0 ") for r in strict) and g.total_weight > 0
            reached["negative boundary"] += any(r.startswith("boundary weight -") for r in loose)
            reached["fractional weight"] += any("/" in r.split(",")[0] for r in loose if " has weight " in r)
        reached["white at n + 1"] += any(g.weight(v) == g.total_weight + 1 for v in g.whites())
    assert all(reached.values()), reached
    assert all(tags.values()), tags


def reference_deficit(g: VisibleGraph) -> int:
    """Mark increments the graph lacks, vertex by vertex: every vertex but
    the boundary needs mark 1 at weight n or more, else mark 2."""
    n = g.total_weight
    return sum(max(0, (1 if g.weight(v) >= n else 2) - g.mark(v)) for v in g.vertices if v != g.boundary)


def test_mark_deficit_from_summaries_equals_the_graph_formula():
    """The generic walk's pruning bound, read off edge summaries and the
    corner need, equals the vertex-by-vertex deficit of the built graph on
    random graphs with zero, repeated and fractional weights, with and
    without a boundary.  The sample holds both edges of the rule: interior
    whites weighing exactly n, and corners weighing n or more with mark 1
    or less."""
    rng = random.Random(1618)
    choices = (0, 0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(3, 2))
    exact_whites = heavy_corners = checked = 0
    while checked < 2000:
        weights = [rng.choice(choices) for _ in range(4)]
        if sum(weights) <= 0:
            continue
        g = random_graph(rng, max_insertions=10, weights=weights, boundary=rng.random() < 0.5)
        weights, boundary_index, patterns = content_of(g)
        need = searchmod._corner_need(weights, boundary_index)
        deficit = searchmod._mark_deficit(weights, need, [edge_summary(p) for p in patterns])
        assert deficit == reference_deficit(g), g.canonical_form()
        n = g.total_weight
        exact_whites += any(g.weight(v) == n for v in g.whites() if not g.is_corner(v))
        heavy_corners += any(g.weight(c) >= n and g.mark(c) <= 1 for c in g.corners if c != g.boundary)
        checked += 1
    assert exact_whites and heavy_corners, (exact_whites, heavy_corners)
