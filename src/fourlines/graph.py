"""Visible graphs of iterated blowups over four general lines in the plane.

The graph is a subdivided K4.  The four corner vertices stand for the
strict transforms of the lines and the interior vertices of the six
edges stand for exceptional curves over the pairwise intersection
points.  Each vertex carries a mark (minus the self-intersection of the
curve it represents) and a rational weight.  Inserting a new vertex
between two adjacent ones corresponds to blowing up the intersection
point of the two curves: the new vertex starts with mark 1, both
neighbours gain one mark, and the new weight is the sum of the two
neighbour weights.

Interior vertices are tracked together with their multiplicity pair
(m1, m2): the weight of an interior vertex on the edge between corners
a and b equals m1*w(a) + m2*w(b) and the pair is always coprime.  The
pair is the Stern-Brocot coordinate of the vertex inside its edge, and
it determines the creation parents of the vertex uniquely.

A graph's one identity is ``canonical_key`` of the corner weights, boundary
and edge content alone; a corner relabeling is a list of reads into each
edge pattern's two cached orientations.  ``least_reading`` also says
whether the first relabeling reads the least key, which holds for exactly
one edge content of each form, so a search can count forms without keys.
A search deduplicates before it builds, and
``VisibleGraph.from_canonical_key`` builds a key.

An insertion changes only its own edge and that edge's two corners, so
a graph built from edge content is merged from six per-edge pieces cached
on the edge's corner ids and pairs: a search that assembles thousands of
graphs from a few hundred edge patterns applies each pattern once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd
from typing import Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "GraphError",
    "FormatError",
    "MAX_WEIGHT_DIGITS",
    "Insertion",
    "VisibleGraph",
    "EDGE_PAIRS",
    "canonical_key",
    "corner_relabelings",
    "least_reading",
    "WHITE",
    "BLACK",
    "BOUNDARY",
    "UNDEFINED",
    "new_base",
    "parse",
    "parse_weight",
    "serialize",
]

#: the six corner pairs, in the fixed order used everywhere
EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

WHITE = "white"
BLACK = "black"
BOUNDARY = "boundary"
#: non-boundary vertex with mark <= 0; legal only before verification
UNDEFINED = "undefined"

Rational = Union[int, Fraction]


class GraphError(ValueError):
    """Structural misuse of a visible graph."""


class FormatError(GraphError):
    """Malformed graph file."""


@dataclass(frozen=True)
class Insertion:
    """One blowup step: ``new_id`` goes between adjacent ``left_id``, ``right_id``."""

    new_id: str
    left_id: str
    right_id: str


class VisibleGraph:
    """Immutable subdivided-K4 graph; all operations return new graphs."""

    def __init__(
        self,
        corners: Sequence[str],
        weights: Sequence[Rational],
        boundary: Optional[str] = None,
        history: Sequence[Insertion] = (),
    ):
        corners = tuple(corners)
        if len(corners) != 4 or len(set(corners)) != 4:
            raise GraphError("need four distinct corner ids")
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) != 4:
            raise GraphError("need four corner weights")
        if boundary is not None and boundary not in corners:
            raise GraphError(f"boundary {boundary!r} is not a corner")
        self.corners = corners
        self.initial_weights = weights
        self.boundary = boundary

        self._cindex = {c: i for i, c in enumerate(corners)}
        self._mark = {c: -1 for c in corners}
        self._total_weight = sum(weights, Fraction(0))
        # corner weights; interior weights are filled in when first asked for
        self._weight = dict(zip(corners, weights))
        self._adj = {c: frozenset(corners) - {c} for c in corners}
        # interior bookkeeping: edge (pair of corner indexes) and (m1, m2)
        self._edge = {}
        self._frac = {}
        self._parents = {}
        self._children = {c: () for c in corners}
        self._history: list[Insertion] = []
        self._vertices: list[str] = list(corners)

        for ins in history:
            self._apply(ins)
        self._seal()

    @classmethod
    def from_edge_content(
        cls,
        corners: Sequence[str],
        weights: Sequence[Rational],
        boundary: Optional[str],
        content: Mapping[tuple[int, int], Sequence[tuple[int, int]]],
    ) -> "VisibleGraph":
        """Graph carrying the given multiplicity pairs on each edge.

        ``content`` maps corner-index pairs from EDGE_PAIRS to the
        Stern-Brocot pairs of their interior vertices; a missing pair
        means a bare edge.  Insertions run edge by edge in EDGE_PAIRS
        order and, inside an edge, by (m1 + m2, m1), which puts creation
        parents first; the vertex (m1, m2) on edge (i, j) gets the id
        ``E{i}{j}_{m1}_{m2}``.

        The result equals that replay, merged from the cached
        ``_edge_piece`` of each edge into a base graph: the piece tables
        are copied in EDGE_PAIRS order and each corner gains its pieces'
        touch counts, children and edge neighbours.
        """
        g = cls(corners, weights, boundary)
        tables = (g._mark, g._adj, g._edge, g._frac, g._parents, g._children)
        near = {c: [] for c in g.corners}
        for i, j in EDGE_PAIRS:
            ci, cj = g.corners[i], g.corners[j]
            history, vertices, pieces, ends = _edge_piece(i, j, ci, cj, tuple(content.get((i, j), ())))
            g._history += history
            g._vertices += vertices
            for table, piece in zip(tables, pieces):
                table.update(piece)
            for c, (touches, children, end) in zip((ci, cj), ends):
                g._mark[c] += touches
                g._children[c] += children
                near[c].append(end)
        if len(g._mark) != len(g._vertices):  # an interior id equals a corner id
            raise GraphError(f"duplicate vertex id among the corners {g.corners}")
        for c, neighbours in near.items():
            g._adj[c] = frozenset(neighbours)
        g._seal()
        return g

    # -- construction ----------------------------------------------------

    def _apply(self, ins: Insertion) -> None:
        a, b, new = ins.left_id, ins.right_id, ins.new_id
        if new in self._mark:
            raise GraphError(f"duplicate vertex id {new!r}")
        if a not in self._mark or b not in self._mark:
            raise GraphError(f"unknown vertex in insertion {ins}")
        adj = self._adj
        if b not in adj[a]:
            raise GraphError(f"{a!r} and {b!r} are not adjacent")

        ea = self._edge.get(a)
        eb = self._edge.get(b)
        if ea is None and eb is None:
            edge = tuple(sorted((self._cindex[a], self._cindex[b])))
        elif ea is not None and eb is not None:
            if ea != eb:
                raise GraphError(f"{a!r} and {b!r} lie on different edges")
            edge = ea
        else:
            edge = ea if ea is not None else eb
        fa = self._frac_on(a, edge)
        fb = self._frac_on(b, edge)
        self._edge[new] = edge
        self._frac[new] = (fa[0] + fb[0], fa[1] + fb[1])

        self._mark[a] += 1
        self._mark[b] += 1
        self._mark[new] = 1
        # replace the neighbour sets and child tuples of a and b rather
        # than change them: insert() shares them with the parent graph,
        # from_edge_content with the cached edge pieces
        adj[a] = adj[a].difference((b,)).union((new,))
        adj[b] = adj[b].difference((a,)).union((new,))
        adj[new] = frozenset((a, b))
        self._parents[new] = (a, b)
        self._children[a] += (new,)
        self._children[b] += (new,)
        self._children[new] = ()
        self._history.append(ins)
        self._vertices.append(new)

    def _seal(self) -> None:
        """Publish the insertion order and the colour classes once the last
        insertion is applied; whites() and blacks() apply the rule of
        color() to the final marks."""
        self.history: tuple[Insertion, ...] = tuple(self._history)
        self.vertices: tuple[str, ...] = tuple(self._vertices)
        mark, bd = self._mark, self.boundary
        self._whites = tuple(v for v in self.vertices if mark[v] == 1 and v != bd)
        self._blacks = tuple(v for v in self.vertices if mark[v] >= 2 and v != bd)

    def _frac_on(self, v: str, edge: tuple[int, int]) -> tuple[int, int]:
        if v in self._frac:
            return self._frac[v]
        i = self._cindex[v]
        if i == edge[0]:
            return (1, 0)
        if i == edge[1]:
            return (0, 1)
        raise GraphError(f"corner {v!r} does not bound edge {edge}")

    def insert(self, a: str, b: str, new_id: str) -> "VisibleGraph":
        """Blow up the intersection of the adjacent curves ``a`` and ``b``.

        The new graph starts from a copy of this graph's state, so one
        insertion costs time linear in the graph size.
        """
        g = object.__new__(type(self))
        g.__dict__.update(self.__dict__)
        # own copies of the per-vertex tables; _apply never changes the
        # values they hold in place, so those stay shared
        for name in ("_mark", "_weight", "_adj", "_edge", "_frac", "_parents", "_children"):
            setattr(g, name, dict(getattr(self, name)))
        g._history = list(self._history)
        g._vertices = list(self._vertices)
        g._apply(Insertion(new_id, a, b))
        g._seal()
        return g

    def reweighted(self, weights: Sequence[Rational]) -> "VisibleGraph":
        """Same insertion history, new initial corner weights."""
        return VisibleGraph(self.corners, weights, self.boundary, self.history)

    # -- queries ---------------------------------------------------------

    @property
    def blowups(self) -> int:
        return len(self.history)

    def is_corner(self, v: str) -> bool:
        return v in self._cindex

    def mark(self, v: str) -> int:
        return self._mark[v]

    def weight(self, v: str) -> Fraction:
        w = self._weight.get(v)
        if w is None:
            # m1 w(a) + m2 w(b) over the edge a-b, which is the sum of the
            # weights of the two curves whose intersection made v
            (i, j), (m1, m2) = self._edge[v], self._frac[v]
            a, b = self.initial_weights[i], self.initial_weights[j]
            w = self._weight[v] = Fraction(
                m1 * a.numerator * b.denominator + m2 * b.numerator * a.denominator,
                a.denominator * b.denominator,
            )
        return w

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def adjacent(self, a: str, b: str) -> bool:
        return b in self._adj[a]

    def edge_of(self, v: str) -> Optional[tuple[int, int]]:
        """Corner-index pair of the edge an interior vertex lies on."""
        return self._edge.get(v)

    def fraction(self, v: str) -> Optional[tuple[int, int]]:
        """Stern-Brocot multiplicity pair of an interior vertex."""
        return self._frac.get(v)

    def parents(self, v: str) -> Optional[tuple[str, str]]:
        return self._parents.get(v)

    def children(self, v: str) -> tuple[str, ...]:
        return self._children[v]

    def color(self, v: str) -> str:
        if v == self.boundary:
            return BOUNDARY
        m = self._mark[v]
        if m == 1:
            return WHITE
        if m >= 2:
            return BLACK
        return UNDEFINED

    def whites(self) -> tuple[str, ...]:
        return self._whites

    def blacks(self) -> tuple[str, ...]:
        return self._blacks

    @property
    def total_weight(self) -> Fraction:
        return self._total_weight

    def edge_chains(self) -> dict[tuple[int, int], tuple[str, ...]]:
        """Interior vertices of each edge, ordered along the path.

        The order runs from the lower-index corner of the pair to the
        higher one.  A vertex with multiplicity pair (m1, m2) sits closer
        to the first corner the larger m1/m2 is.
        """
        chains: dict[tuple[int, int], list] = {pair: [] for pair in EDGE_PAIRS}
        for v, edge in self._edge.items():
            chains[edge].append(v)
        out = {}
        for pair, vs in chains.items():
            # interior pairs are mediants of (1, 0) and (0, 1): m1, m2 >= 1
            vs.sort(key=lambda v: Fraction(self._frac[v][1], self._frac[v][0]))
            out[pair] = tuple(vs)
        return out

    def adjacent_pairs(self) -> Iterator[tuple[str, str]]:
        """All adjacent pairs, edge by edge along each path; deterministic."""
        chains = self.edge_chains()
        for pair in EDGE_PAIRS:
            walk = (self.corners[pair[0]],) + chains[pair] + (self.corners[pair[1]],)
            for a, b in zip(walk, walk[1:]):
                yield a, b

    # -- invariant helpers -----------------------------------------------

    def check_bookkeeping(self) -> None:
        """Raise if the insertion bookkeeping identities fail."""
        n = self.blowups
        if len(self.vertices) != 4 + n:
            raise GraphError("vertex count mismatch")
        edges = sum(len(self._adj[v]) for v in self.vertices)
        if edges != 2 * (6 + n):
            raise GraphError("edge count mismatch")
        if sum(self._mark.values()) != -4 + 3 * n:
            raise GraphError("mark sum mismatch")
        for v in self.vertices:
            want = 3 if self.is_corner(v) else 2
            if len(self._adj[v]) != want:
                raise GraphError(f"degree of {v!r} is not {want}")

    # -- canonical form ----------------------------------------------------

    def canonical_key(self) -> tuple[tuple, tuple]:
        """``canonical_key`` of this graph's weights, boundary and edge content."""
        content: dict[tuple[int, int], list] = {pair: [] for pair in EDGE_PAIRS}
        for v, edge in self._edge.items():
            content[edge].append(self._frac[v])
        return canonical_key(self.initial_weights, self._cindex.get(self.boundary), content)

    def canonical_form(self) -> str:
        """Label-independent encoding, minimized over corner relabelings.

        Two graphs have equal encodings exactly when a corner permutation
        preserving weights and the boundary flag carries one onto the
        other; the interleaving of insertions across different edges is
        quotiented out as well.  It is the ``repr`` of ``canonical_key``.
        """
        return repr(self.canonical_key())

    @classmethod
    def from_canonical_key(cls, key: tuple[tuple, tuple]) -> "VisibleGraph":
        """The graph with corners C0..C3 that ``key`` describes.

        Graphs with equal keys give identical objects, which keeps search
        output independent of discovery order.
        """
        corner_key, edges_key = key
        corners = ("C0", "C1", "C2", "C3")
        weights = [Fraction(num, den) for num, den, _ in corner_key]
        flagged = [c for c, (_, _, flag) in zip(corners, corner_key) if flag]
        return cls.from_edge_content(
            corners, weights, flagged[0] if flagged else None, dict(zip(EDGE_PAIRS, edges_key))
        )

    def normalized(self) -> "VisibleGraph":
        """Isomorphic graph with deterministic ids and insertion order."""
        return self.from_canonical_key(self.canonical_key())

    # -- equality (structural, id-sensitive) ------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VisibleGraph):
            return NotImplemented
        return (
            self.corners == other.corners
            and self.initial_weights == other.initial_weights
            and self.boundary == other.boundary
            and self.history == other.history
        )

    def __hash__(self) -> int:
        return hash((self.corners, self.initial_weights, self.boundary, self.history))

    def __repr__(self) -> str:
        return (
            f"VisibleGraph(corners={self.corners}, weights={self.initial_weights}, "
            f"boundary={self.boundary!r}, blowups={self.blowups})"
        )


def _creation_order(pair: tuple[int, int]) -> tuple[int, int]:
    """Sort key of multiplicity pairs on one edge; creation parents sort first."""
    return (pair[0] + pair[1], pair[0])


@lru_cache(maxsize=4096)
def _orientations(pattern: tuple[tuple[int, int], ...]) -> tuple[tuple, tuple]:
    """An edge's pairs in creation order as read from its first corner and from its second."""
    return tuple(sorted(pattern, key=_creation_order)), tuple(sorted([(b, a) for a, b in pattern], key=_creation_order))


def canonical_key(
    weights: Sequence[Rational],
    boundary_index: Optional[int],
    content: Mapping[tuple[int, int], Sequence[tuple[int, int]]],
) -> tuple[tuple, tuple]:
    """Least (corner key, edge key) over the corner relabelings.

    ``content`` maps pairs from EDGE_PAIRS to the multiplicity pairs on
    that edge, in any order; a missing pair means a bare edge.  A
    relabeling lists the four (weight, boundary flag) corner keys and,
    edge by edge, the multiplicity pairs seen from its first corner in
    creation order.  The corner key is compared first, so only the
    relabelings that list the corner keys in sorted order can reach the
    minimum; with four distinct corner keys that is one of the 24.  Each is
    a fixed list of reads into the cached ``_orientations`` of the patterns.
    """
    least, relabelings = corner_relabelings(weights, boundary_index)
    return least, least_reading(relabelings, [content.get(pair, ()) for pair in EDGE_PAIRS])[0]


def corner_relabelings(weights: Sequence[Rational], boundary_index: Optional[int]) -> tuple[tuple, tuple[tuple, ...]]:
    """The sorted corner key, which every ``canonical_key`` of these corners
    shares, and the relabelings that can reach the least edge key, as the
    argument ``least_reading`` takes.  Their order, and so which one is
    first, is the same on every call."""
    return _sorting_relabelings(tuple(
        (w.numerator, w.denominator, i == boundary_index) for i, w in enumerate(weights)
    ))


def least_reading(relabelings: tuple[tuple, ...], patterns: Sequence[Sequence[tuple[int, int]]]) -> tuple[tuple, bool]:
    """The least edge key of the six ``patterns`` (in EDGE_PAIRS order) over
    ``relabelings``, and whether the first relabeling reads it.

    The relabelings that keep the corner keys map each edge content onto
    the others of its orbit, and those read the same set of edge keys; the
    first relabeling reads the least of them from exactly one member of
    the orbit, so a search that keeps only the contents for which this
    returns True keeps one content per form.
    """
    sides = [_orientations(tuple(p)) for p in patterns]
    readings = [tuple(sides[e][side] for e, side in reads) for reads in relabelings]
    least = min(readings)
    return least, readings[0] == least


@lru_cache(maxsize=1024)
def _sorting_relabelings(corner_key: tuple) -> tuple[tuple, tuple[tuple, ...]]:
    """The sorted corner key and, for each permutation ``perm`` with
    corner_key[perm[i]] in it, the reads of the new edges (i, j): the index
    in EDGE_PAIRS of old edge {perm[i], perm[j]}, read from its second
    corner (side 1) when perm[i] > perm[j]."""
    least = tuple(sorted(corner_key))
    return least, tuple(
        tuple((EDGE_PAIRS.index(tuple(sorted((perm[i], perm[j])))), int(perm[i] > perm[j])) for i, j in EDGE_PAIRS)
        for perm in permutations(range(4))
        if all(corner_key[perm[i]] == least[i] for i in range(4))
    )


@lru_cache(maxsize=1024)
def _edge_piece(i: int, j: int, ci: str, cj: str, pattern: tuple[tuple[int, int], ...]):
    """Insertions, new ids and interior tables of edge (i, j) from ``ci`` to ``cj``.

    The pairs go through ``_apply`` on a graph of the two corners alone,
    whose marks start at 0 and so end as touch counts; ``ends`` holds each
    corner's touch count, children and neighbour on the edge.  Callers
    copy the tables; their values are ints, tuples and frozensets, which
    ``_apply`` replaces and never mutates.
    """
    p = object.__new__(VisibleGraph)
    p._cindex, p._mark, p._children = {ci: i, cj: j}, {ci: 0, cj: 0}, {ci: (), cj: ()}
    p._adj = {ci: frozenset((cj,)), cj: frozenset((ci,))}
    p._edge, p._frac, p._parents, p._history, p._vertices = {}, {}, {}, [], []
    ids = {(1, 0): ci, (0, 1): cj}
    for m1, m2 in sorted(pattern, key=_creation_order):
        if min(m1, m2) < 1 or gcd(m1, m2) != 1:  # no Stern-Brocot pair; the descent would not end
            raise GraphError(f"pair {(m1, m2)} on edge {(i, j)} is not a coprime positive pair")
        p1, p2 = _stern_brocot_parents(m1, m2)
        if p1 not in ids or p2 not in ids:
            raise GraphError(f"pair {(m1, m2)} on edge {(i, j)} lacks a creation parent")
        ids[(m1, m2)] = f"E{i}{j}_{m1}_{m2}"
        p._apply(Insertion(ids[(m1, m2)], ids[p1], ids[p2]))
    ends = tuple((p._mark.pop(c), p._children.pop(c), *p._adj.pop(c)) for c in (ci, cj))
    tables = (p._mark, p._adj, p._edge, p._frac, p._parents, p._children)
    return tuple(p._history), tuple(p._vertices), tables, ends


@lru_cache(maxsize=4096)
def _stern_brocot_parents(m1: int, m2: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Creation parents of the coprime pair (m1, m2).

    The parents are the unique pair of coordinates (p1, p2), (q1, q2)
    with p1+q1 = m1, p2+q2 = m2 and cross determinant +-1, the corners
    being (1, 0) and (0, 1).
    """
    if (m1, m2) == (1, 1):
        return (1, 0), (0, 1)
    lo, hi = (1, 0), (0, 1)
    cur = (1, 1)
    while cur != (m1, m2):
        # descend: compare m1/m2 with cur as fractions (larger = closer to lo)
        if m1 * cur[1] > m2 * cur[0]:
            hi = cur
        else:
            lo = cur
        cur = (lo[0] + hi[0], lo[1] + hi[1])
    return lo, hi


# -- module-level operations ----------------------------------------------


def new_base(
    weights: Sequence[Rational],
    boundary: Optional[int] = None,
    corners: Sequence[str] = ("L0", "L1", "L2", "L3"),
) -> VisibleGraph:
    """Fresh K4 over four lines; ``boundary`` is a corner index or None."""
    if boundary is not None and not 0 <= boundary <= 3:
        raise GraphError("boundary index out of 0..3")
    bid = None if boundary is None else tuple(corners)[boundary]
    return VisibleGraph(corners, weights, bid)


# -- file format ------------------------------------------------------------
#
#   corners A B C D
#   weights 1 1/2 2 3
#   boundary A          (optional)
#   insert X A B        (zero or more; order is the blowup order)
#
# '#' starts a comment; blank lines are ignored.

#: longest weight literal, and largest exponent in one, that parse accepts;
#: Fraction("1e2000000") alone builds a two-million-digit integer
MAX_WEIGHT_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def parse_weight(text: str) -> Fraction:
    """Exact weight written as an integer, ``p/q`` or decimal literal.

    A malformed literal, or one past MAX_WEIGHT_DIGITS in length or in
    exponent, raises FormatError before Fraction would build it.
    """
    exponent = _EXPONENT.search(text)
    if len(text) > MAX_WEIGHT_DIGITS or (exponent and abs(int(exponent[1])) > MAX_WEIGHT_DIGITS):
        raise FormatError(f"{text!r} is too long or its exponent too large (limit {MAX_WEIGHT_DIGITS})")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"{text!r} is not a rational number") from None


def parse(text: str) -> VisibleGraph:
    corners = None
    weights = None
    boundary = None
    inserts: list[Insertion] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw, args = fields[0], fields[1:]
        if kw == "corners":
            if corners is not None:
                raise FormatError(f"line {lineno}: duplicate corners line")
            if len(args) != 4 or len(set(args)) != 4:
                raise FormatError(f"line {lineno}: need four distinct corner ids")
            corners = tuple(args)
        elif kw == "weights":
            if weights is not None:
                raise FormatError(f"line {lineno}: duplicate weights line")
            if len(args) != 4:
                raise FormatError(f"line {lineno}: need four weights")
            try:
                weights = tuple(parse_weight(a) for a in args)
            except FormatError as exc:
                raise FormatError(f"line {lineno}: bad weight: {exc}") from None
        elif kw == "boundary":
            if boundary is not None:
                raise FormatError(f"line {lineno}: duplicate boundary line")
            if len(args) != 1:
                raise FormatError(f"line {lineno}: boundary takes one corner id")
            boundary = args[0]
        elif kw == "insert":
            if len(args) != 3:
                raise FormatError(f"line {lineno}: insert takes new-id and two vertex ids")
            inserts.append(Insertion(args[0], args[1], args[2]))
        else:
            raise FormatError(f"line {lineno}: unknown directive {kw!r}")
    if corners is None or weights is None:
        raise FormatError("missing corners or weights line")
    if boundary is not None and boundary not in corners:
        raise FormatError(f"boundary {boundary!r} is not a corner")
    try:
        return VisibleGraph(corners, weights, boundary, inserts)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def serialize(graph: VisibleGraph) -> str:
    lines = [
        "corners " + " ".join(graph.corners),
        "weights " + " ".join(str(w) for w in graph.initial_weights),
    ]
    if graph.boundary is not None:
        lines.append(f"boundary {graph.boundary}")
    for ins in graph.history:
        lines.append(f"insert {ins.new_id} {ins.left_id} {ins.right_id}")
    return "\n".join(lines) + "\n"
