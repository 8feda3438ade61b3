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
it determines the creation parents of the vertex uniquely, by one
modular inverse.

A graph's one identity is ``canonical_key`` of the corner weights, boundary
and edge content alone; a corner relabeling is a list of reads into each
edge pattern's two orientations, which a search's edge summaries carry.
``least_reading`` also says whether the first relabeling reads the least
key, which holds for exactly one edge content of each form, so a search
can count forms without keys.
A search deduplicates before it builds, and
``VisibleGraph.from_canonical_key`` builds a key.

A graph's one record is its insertion history, with the marks, the
adjacency and one place table (each interior vertex's edge and pair)
kept in step to check and place the next insertion; the vertex order,
parents and children are read from the history, and the colour classes
from the marks once the last insertion is applied.  Each fact about a
vertex is stated once: ``scaled_weight`` is its weight times the corner
weights' common denominator, which ``weight`` and certify's weight pass
both read, and ``_path_order`` orders an edge's pairs along its path for
``edge_chains`` and ``certify.edge_summary``.

An insertion changes only its own edge and that edge's two corners, so
a graph built from edge content is merged from six per-edge pieces cached
on the edge's corner ids and pairs: a search that assembles thousands of
graphs from a few hundred edge patterns applies each pattern once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

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
        self._scaled = _scaled_weights(weights)

        # read-only, so that every copy shares it
        self._cindex = MappingProxyType({c: i for i, c in enumerate(corners)})
        self._mark = {c: -1 for c in corners}
        self._total_weight = sum(weights, Fraction(0))
        self._adj = {c: frozenset(corners) - {c} for c in corners}
        # each interior vertex's place: its edge (pair of corner indexes)
        # and its multiplicity pair (m1, m2)
        self._place = {}
        # the insertions applied so far; _seal publishes them as ``history``
        self._history: list[Insertion] = []

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
        ``_edge_piece`` of each edge into a copy of the cached graph of the
        four corners alone: the piece's insertions, marks, adjacency and
        place table are copied in EDGE_PAIRS order and each corner gains its
        pieces' touch counts and edge neighbours; ``_seal`` then finds the
        colour classes as for any graph.  A key of ``content`` outside
        EDGE_PAIRS raises GraphError.
        """
        g = _corner_graph(cls, tuple(corners), tuple(weights), boundary)._copy()
        corners, mark, history = g.corners, g._mark, g._history
        near = {c: [] for c in corners}
        for (i, j), pattern in zip(EDGE_PAIRS, _edge_patterns(content)):
            ci, cj = corners[i], corners[j]
            piece = _edge_piece(i, j, ci, cj, tuple(pattern))
            if piece.history:  # a bare edge adds no vertex
                history += piece.history
                mark.update(piece.marks)
                g._adj.update(piece.adj)
                g._place.update(piece.place)
            (ti, ei), (tj, ej) = piece.ends
            mark[ci] += ti
            mark[cj] += tj
            near[ci].append(ei)
            near[cj].append(ej)
        if len(mark) != 4 + len(history):  # an interior id equals a corner id
            raise GraphError(f"duplicate vertex id among the corners {corners}")
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

        # adjacent curves lie on one edge path: an interior one names the
        # edge, and a corner is its first end (1, 0) or its second (0, 1)
        cindex, place = self._cindex, self._place
        here = place.get(a) or place.get(b)
        edge = here[0] if here else tuple(sorted((cindex[a], cindex[b])))
        (a1, a2), (b1, b2) = (place[v][1] if v in place else (1, 0) if cindex[v] == edge[0] else (0, 1) for v in (a, b))
        place[new] = (edge, (a1 + b1, a2 + b2))

        self._mark[a] += 1
        self._mark[b] += 1
        self._mark[new] = 1
        # replace the neighbour sets of a and b rather than change them:
        # insert() shares them with the parent graph, from_edge_content
        # with the cached edge pieces
        adj[a] = adj[a].difference((b,)).union((new,))
        adj[b] = adj[b].difference((a,)).union((new,))
        adj[new] = frozenset((a, b))
        self._history.append(ins)

    def _seal(self) -> None:
        """Publish the history, the vertex order and the colour classes, by
        the rule of color() in vertex order, once the last insertion is
        applied.  The working list goes, and so does a family map copied
        from a parent."""
        self.history: tuple[Insertion, ...] = tuple(self.__dict__.pop("_history"))
        self.vertices: tuple[str, ...] = self.corners + tuple(ins.new_id for ins in self.history)
        mark, boundary = self._mark, self.boundary
        self._whites = tuple(v for v in self.vertices if mark[v] == 1 and v != boundary)
        self._blacks = tuple(v for v in self.vertices if mark[v] >= 2 and v != boundary)
        self.__dict__.pop("_family", None)

    def _copy(self) -> "VisibleGraph":
        """An unsealed copy of this graph's state, with its own tables."""
        g = object.__new__(type(self))
        g.__dict__.update(self.__dict__)
        # own copies of the tables _apply changes; it never changes the
        # values they hold in place, so those stay shared
        for name in ("_mark", "_adj", "_place"):
            setattr(g, name, dict(getattr(self, name)))
        g._history = list(self.history)
        return g

    def insert(self, a: str, b: str, new_id: str) -> "VisibleGraph":
        """Blow up the intersection of the adjacent curves ``a`` and ``b``.

        The new graph starts from a copy of this graph's state, so one
        insertion costs time linear in the graph size.
        """
        g = self._copy()
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
        return Fraction(self.scaled_weight(v), self._scaled[0])

    def scaled_weight(self, v: str) -> int:
        """The weight of ``v`` times the common denominator of the corner
        weights (``scaled_weights``)."""
        ints = self._scaled[1]
        i = self._cindex.get(v)
        if i is not None:
            return ints[i]
        # m1 w(a) + m2 w(b) over the edge a-b, which is the sum of the
        # weights of the two curves whose intersection made v
        (i, j), (m1, m2) = self._place[v]
        return m1 * ints[i] + m2 * ints[j]

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def adjacent(self, a: str, b: str) -> bool:
        return b in self._adj[a]

    def edge_of(self, v: str) -> Optional[tuple[int, int]]:
        """Corner-index pair of the edge an interior vertex lies on."""
        place = self._place.get(v)
        return place and place[0]

    def fraction(self, v: str) -> Optional[tuple[int, int]]:
        """Stern-Brocot multiplicity pair of an interior vertex."""
        place = self._place.get(v)
        return place and place[1]

    @cached_property
    def _family(self) -> dict[str, tuple]:
        """Each vertex's parents (None for a corner) and its children in
        creation order, read from the history on first use."""
        parents, kids = dict.fromkeys(self.corners), {v: [] for v in self.vertices}
        for ins in self.history:
            parents[ins.new_id] = (ins.left_id, ins.right_id)
            kids[ins.left_id].append(ins.new_id)
            kids[ins.right_id].append(ins.new_id)
        return {v: (parents[v], tuple(kids[v])) for v in self.vertices}

    def parents(self, v: str) -> Optional[tuple[str, str]]:
        family = self._family.get(v)
        return family and family[0]

    def children(self, v: str) -> tuple[str, ...]:
        return self._family[v][1]

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

    def scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        """The common denominator of the corner weights, and the corner
        weights times it (``_scaled_weights``)."""
        return self._scaled

    def edge_chains(self) -> dict[tuple[int, int], tuple[str, ...]]:
        """Interior vertices of each edge, ordered along the path.

        The order runs from the lower-index corner of the pair to the
        higher one, by ``_path_order`` of the multiplicity pairs.
        """
        place = self._place
        chains: dict[tuple[int, int], list] = {pair: [] for pair in EDGE_PAIRS}
        for v, (edge, _) in place.items():
            chains[edge].append(v)
        return {pair: tuple(sorted(vs, key=lambda v: _path_order(place[v][1]))) for pair, vs in chains.items()}

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
        # the tables must hold exactly the vertices the history names
        if not self._mark.keys() == self._adj.keys() == set(self.vertices):
            raise GraphError("vertex set mismatch")
        if self._place.keys() != set(self.vertices[4:]):
            raise GraphError("the place table does not hold exactly the interior vertices")
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
        for edge, pair in self._place.values():
            content[edge].append(pair)
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
        # the key's integers go to the corner-graph cache as they are: a
        # Fraction only for a weight that is not whole
        weights = tuple(num if den == 1 else Fraction(num, den) for num, den, _ in corner_key)
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


def _scaled_weights(weights: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """The common denominator of the weights, and the weights times it.
    Every weight test of the glue, of certify's weight pass and of the
    generic walk's ``_mark_deficit`` is homogeneous, so no verdict changes
    on the scaled weights, and the light-white counts the glue and the walk
    share are cached on integers."""
    scale = lcm(*(w.denominator for w in weights))
    return scale, tuple(w.numerator * (scale // w.denominator) for w in weights)


def _path_order(pair: tuple[int, int]) -> Fraction:
    """Sort key of multiplicity pairs along their edge's path, from its first
    corner: (m1, m2) sits closer to it the larger m1/m2 is.  Interior pairs
    are mediants of (1, 0) and (0, 1), so m1, m2 >= 1."""
    return Fraction(pair[1], pair[0])


def _creation_order(pair: tuple[int, int]) -> tuple[int, int]:
    """Sort key of multiplicity pairs on one edge; creation parents sort first."""
    return (pair[0] + pair[1], pair[0])


def _orientations(pattern: Sequence[tuple[int, int]]) -> tuple[tuple, tuple]:
    """An edge's pairs in creation order as read from its first corner and from its second."""
    return tuple(sorted(pattern, key=_creation_order)), tuple(sorted([(b, a) for a, b in pattern], key=_creation_order))


def canonical_key(
    weights: Sequence[Rational],
    boundary_index: Optional[int],
    content: Mapping[tuple[int, int], Sequence[tuple[int, int]]],
) -> tuple[tuple, tuple]:
    """Least (corner key, edge key) over the corner relabelings.

    ``content`` maps pairs from EDGE_PAIRS to the multiplicity pairs on
    that edge, in any order; a missing pair means a bare edge, and any
    other key raises GraphError.  A
    relabeling lists the four (weight, boundary flag) corner keys and,
    edge by edge, the multiplicity pairs seen from its first corner in
    creation order.  The corner key is compared first, so only the
    relabelings that list the corner keys in sorted order can reach the
    minimum; with four distinct corner keys that is one of the 24.  Each is
    a fixed list of reads into the ``_orientations`` of the patterns.
    """
    least, relabelings = corner_relabelings(tuple(weights), boundary_index)
    return least, least_reading(relabelings, [_orientations(p) for p in _edge_patterns(content)])[0]


@lru_cache(maxsize=1024)
def corner_relabelings(weights: tuple, boundary_index: Optional[int]) -> tuple[tuple, tuple[tuple, ...]]:
    """The sorted corner key, which every ``canonical_key`` of these corners
    shares, and the relabelings that can reach the least edge key, as the
    argument ``least_reading`` takes: for each permutation ``perm`` with
    corner_key[perm[i]] == least[i], the reads of the new edges (i, j), the
    index in EDGE_PAIRS of old edge {perm[i], perm[j]}, read from its second
    corner (side 1) when perm[i] > perm[j].  Their order, and so which one
    is first, is the same on every call.
    """
    corner_key = tuple((w.numerator, w.denominator, i == boundary_index) for i, w in enumerate(weights))
    least = tuple(sorted(corner_key))
    return least, tuple(
        tuple((EDGE_PAIRS.index(tuple(sorted((perm[i], perm[j])))), int(perm[i] > perm[j])) for i, j in EDGE_PAIRS)
        for perm in permutations(range(4))
        if all(corner_key[perm[i]] == least[i] for i in range(4))
    )


def least_reading(relabelings: tuple[tuple, ...], sides: Sequence[tuple[tuple, tuple]]) -> tuple[tuple, bool]:
    """The least edge key over ``relabelings`` of the six patterns whose
    ``_orientations`` are ``sides`` (in EDGE_PAIRS order), and whether the
    first relabeling reads it.

    The relabelings that keep the corner keys map each edge content onto
    the others of its orbit, and those read the same set of edge keys; the
    first relabeling reads the least of them from exactly one member of
    the orbit, so a search that keeps only the contents for which this
    returns True keeps one content per form.
    """
    readings = [tuple(sides[e][side] for e, side in reads) for reads in relabelings]
    least = min(readings)
    return least, readings[0] == least


@lru_cache(maxsize=1024)
def _corner_graph(cls: type, corners: tuple, weights: tuple, boundary: Optional[str]) -> VisibleGraph:
    """The graph of the four corners alone, which ``from_edge_content`` copies.

    The key holds the weights as they come: ``from_canonical_key`` passes
    the whole ones as ints, which hash and compare without a Fraction, and
    an equal Fraction finds the same entry."""
    return cls(corners, weights, boundary)


class _Piece(NamedTuple):
    """What the pairs of one edge add to a graph built from edge content:
    its insertions and its interior vertices' tables, but no colour
    classes, which the built graph's ``_seal`` finds."""

    history: tuple[Insertion, ...]
    #: the interior vertices' tables; no other edge changes them
    marks: dict
    adj: dict
    place: dict
    #: per corner, first and second: its touch count and its neighbour on the edge
    ends: tuple[tuple[int, str], tuple[int, str]]


@lru_cache(maxsize=1024)
def _edge_piece(i: int, j: int, ci: str, cj: str, pattern: tuple[tuple[int, int], ...]) -> _Piece:
    """The piece of edge (i, j) from ``ci`` to ``cj`` that carries ``pattern``.

    The pairs go through ``_apply`` on a graph of the two corners alone,
    which holds only the tables ``_apply`` reads and whose marks start at 0
    and so end as touch counts.  Callers copy the tables; their values are
    ints, tuples and frozensets, which ``_apply`` replaces and never mutates.
    """
    p = object.__new__(VisibleGraph)
    p._cindex, p._mark, p._place, p._history = {ci: i, cj: j}, {ci: 0, cj: 0}, {}, []
    p._adj = {ci: frozenset((cj,)), cj: frozenset((ci,))}
    ids = {(1, 0): ci, (0, 1): cj}
    for m1, m2 in sorted(pattern, key=_creation_order):
        if min(m1, m2) < 1 or gcd(m1, m2) != 1:  # no Stern-Brocot pair, so no parents
            raise GraphError(f"pair {(m1, m2)} on edge {(i, j)} is not a coprime positive pair")
        p1, p2 = _stern_brocot_parents(m1, m2)
        if p1 not in ids or p2 not in ids:
            raise GraphError(f"pair {(m1, m2)} on edge {(i, j)} lacks a creation parent")
        ids[(m1, m2)] = f"E{i}{j}_{m1}_{m2}"
        p._apply(Insertion(ids[(m1, m2)], ids[p1], ids[p2]))
    ends = tuple((p._mark.pop(c), *p._adj.pop(c)) for c in (ci, cj))
    return _Piece(tuple(p._history), p._mark, p._adj, p._place, ends)


def _edge_patterns(content: Mapping[tuple[int, int], Sequence[tuple[int, int]]]) -> list[Sequence[tuple[int, int]]]:
    """The pattern of each edge of ``content`` in EDGE_PAIRS order, () for a
    missing one; raises GraphError on a key that is not in EDGE_PAIRS."""
    unknown = content.keys() - EDGE_PAIRS
    if unknown:
        raise GraphError(f"edge content key {min(unknown, key=repr)!r} is not one of {EDGE_PAIRS}")
    return [content.get(pair, ()) for pair in EDGE_PAIRS]


def _stern_brocot_parents(m1: int, m2: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Creation parents of the coprime positive pair (m1, m2).

    The parents are the unique pair of coordinates (p1, p2), (q1, q2)
    with p1+q1 = m1, p2+q2 = m2 and p1*q2 - p2*q1 = 1, the corners being
    (1, 0) and (0, 1).  That determinant equals p1*m2 - p2*m1, so p1 is
    the inverse of m2 modulo m1 in 1..m1 (m1 itself only at m1 = 1), and
    p2 follows.
    """
    p1 = pow(m2, -1, m1) or m1
    p2 = (p1 * m2 - 1) // m1
    return (p1, p2), (m1 - p1, m2 - p2)


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
