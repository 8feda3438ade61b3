"""Volumes, weight conditions, near-CY classification, and certification.

The certificate logic: after contracting all black curves, the (log)
canonical divisor of the contraction is nef as soon as it meets every
remaining curve nonnegatively.  Its degree on a white curve C is

    -1 + (1 if C meets the boundary) + sum of b_i over black neighbours,

its degree on the boundary is the boundary excess, and bigness follows
from a positive self-intersection (the volume).  The weight conditions
give an independent sufficient nef test that is linear in the corner
weights, which is what the searches and the ample-weight finder use.

The sums run on integer numerators over the chain determinants: one
walk of the black subgraph (``singularities._chain_components``) yields
each chain, and the cached chain core (``_chain_discrepancies``) solves
it.  ``certify`` keeps each discrepancy as the core's (numerator,
determinant) pair; ``kc_degree``, ``volume`` and ``epsilon1`` turn their
Fraction maps into pairs once, after ``lattice._check_discrepancies``
finds them indexed by exactly the blacks.  A Fraction is built only for a report
field or a reason, and ``certify`` reads its near-CY tag and its loose
and strict weight failures off one integer pass over the whites.
``glue`` reaches certify's verdict on a graph given by edge content from
cached per-edge summaries, without building the graph.  It solves the chain through each path of
black corners once per tuple of corner stars (``_path_chain``), so a
search that meets the same few hundred stars on thousands of forms only
sends each cached tap to its slot.  It reads only the black corners and
the boundary: a white corner that is not the boundary never decides its
verdict past the mark check, as ``glue`` proves, while ``certify``, the
reference the searches check the glue against, still computes the
degree of every white.  Its weight tests are homogeneous, so
its verdict does not change under a positive scale of the weights, and
the searches hand it integers.  It and ``edge_summary`` take each
chain's volume term from the chain core, the third value of
``singularities._chain_discrepancies``, while ``_volume_ratio`` sums
b (mark - 2) vertex by vertex, so the search's cross-check of the glue
against certify compares two independent volume formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, repeat
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from . import lattice, singularities
from .graph import EDGE_PAIRS, _orientations, _path_order
from .singularities import Chain, NotChainError

if TYPE_CHECKING:
    from .graph import VisibleGraph

__all__ = [
    "AMPLE",
    "BIG_NEF",
    "CHECKS",
    "NOT_CERTIFIED",
    "EdgeSummary",
    "NearCY",
    "SurfaceReport",
    "Verdict",
    "kc_degree",
    "volume",
    "volume_lattice",
    "check_weights",
    "classify_near_cy",
    "epsilon1",
    "delta1",
    "certify",
    "edge_summary",
    "glue",
    "find_ample_weights",
]

Rational = Union[int, Fraction]

AMPLE = "ample_certified"
BIG_NEF = "big_nef"
NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class NearCY:
    """Near-CY classification tag; vertex is set only for one_step."""

    kind: str  # all_cy | one_step | boundary_unit | general
    vertex: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "one_step":
            return f"one_step({self.vertex})"
        return self.kind


@dataclass
class SurfaceReport:
    """Certified summary of one weighted graph."""

    volume: Fraction
    rho: int
    blowups: int
    singularities: list[tuple[Chain, int]]
    epsilon1: Optional[Fraction]
    delta1: Optional[Fraction]
    status: str
    near_cy: NearCY
    reasons: list[str] = field(default_factory=list)
    log_canonical_only: bool = False

    @property
    def certified(self) -> bool:
        return self.status != NOT_CERTIFIED

    def to_dict(self) -> dict:
        def frac(x: Optional[Fraction]):
            if x is None:
                return None
            return {"num": x.numerator, "den": x.denominator}

        return {
            "volume": frac(self.volume),
            "rho": self.rho,
            "blowups": self.blowups,
            "singularities": [
                {"chain": list(chain.normalized_marks()), "det": det}
                for chain, det in self.singularities
            ],
            "epsilon1": frac(self.epsilon1),
            "delta1": frac(self.delta1),
            "status": self.status,
            "near_cy": str(self.near_cy),
            "reasons": list(self.reasons),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


#: a discrepancy map as (numerator, denominator) pairs, one per black vertex
Pairs = Mapping[str, tuple[int, int]]


def _pairs(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> dict[str, tuple[int, int]]:
    """A discrepancy map of Fractions as pairs; raises ValueError unless it
    holds exactly the black vertices (``lattice._check_discrepancies``)."""
    lattice._check_discrepancies(graph, b)
    return {v: (x.numerator, x.denominator) for v, x in b.items()}


def _ratio_sum(terms: Iterable[tuple[int, int]], num: int = 0, den: int = 1) -> tuple[int, int]:
    """num/den plus the (numerator, denominator) terms, as one unreduced pair.

    Every denominator must be positive.  Terms over the running
    denominator, such as the discrepancies of one chain, add without a
    multiplication.
    """
    for n, d in terms:
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    return num, den


def _degree_ratio(graph: "VisibleGraph", b: Pairs, v: str, base: int) -> tuple[int, int]:
    """base plus the b of v's black neighbours, as an unreduced pair; ``b``
    holds exactly the black vertices."""
    return _ratio_sum(filter(None, map(b.get, graph.neighbors(v))), base)


def _kc_ratio(graph: "VisibleGraph", b: Pairs, white: str) -> tuple[int, int]:
    """kc_degree as an unreduced pair: base -1, or 0 next to the boundary."""
    return _degree_ratio(graph, b, white, 0 if graph.boundary in graph.neighbors(white) else -1)


def _volume_ratio(graph: "VisibleGraph", b: Pairs) -> tuple[int, int]:
    """volume as an unreduced pair."""
    mark = graph.mark
    num, den = _ratio_sum([(n * (mark(v) - 2), d) for v, (n, d) in b.items()], 9 - graph.blowups)
    if graph.boundary is not None:
        eps = _degree_ratio(graph, b, graph.boundary, -2)
        num, den = _ratio_sum([eps], num + (mark(graph.boundary) - 2) * den, den)
    return num, den


def kc_degree(graph: "VisibleGraph", b: Mapping[str, Fraction], white: str) -> Fraction:
    """Degree of the contracted (log) canonical divisor on a white curve;
    ``b`` must hold exactly the black vertices."""
    if graph.color(white) != "white":
        raise ValueError(f"{white!r} is not a white vertex")
    return Fraction(*_kc_ratio(graph, _pairs(graph, b), white))


def volume(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> Fraction:
    """Self-intersection of the contracted (log) canonical divisor.

    Computed through adjunction alone: K^2 = 9 - blowups and
    K.E = mark - 2 for every visible curve.  ``b`` must hold exactly the
    black vertices.
    """
    return Fraction(*_volume_ratio(graph, _pairs(graph, b)))


def volume_lattice(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> Fraction:
    """Same volume through the Picard lattice; must agree with volume()."""
    p = lattice.log_pullback(graph, b)
    return lattice.pairing(p, p)


def check_weights(graph: "VisibleGraph", strict: bool = False) -> list[str]:
    """Weight-condition violations; empty means the nef test passes.

    Every white vertex needs weight >= n (> n when strict), where n is
    the total corner weight; with a boundary, its weight must be >= 0
    (> 0 when strict).  The test's coefficients w_v/n - 1 need n > 0.
    """
    return _weight_pass(graph)[1 + strict]


def classify_near_cy(graph: "VisibleGraph") -> NearCY:
    """Near-CY tag of the weighted graph.

    all_cy: every white has weight exactly n (boundary weight 0 if any);
    one_step: as all_cy except a unique white of weight n+1;
    boundary_unit: every white has weight n and the boundary weight is 1.
    """
    return _weight_pass(graph)[0]


def _weight_pass(graph: "VisibleGraph") -> tuple[NearCY, list[str], list[str]]:
    """``classify_near_cy`` and ``check_weights`` loose and strict, from one
    pass over the whites.

    The pass weighs each white in integers, its weight times the common
    denominator of the corner weights (``VisibleGraph.scaled_weight``), and
    compares it with n so scaled; a Fraction is
    built only for a white off weight n whose weight a reason prints or
    whose tag needs n + 1.
    """
    n = graph.total_weight
    sn = str(n)
    scale, ints = graph.scaled_weights()
    total = sum(ints)
    bd = graph.boundary
    off = []  # the whites off weight n, with their scaled weights
    loose, strict = [], []
    for v in graph.whites():
        w = graph.scaled_weight(v)
        if w == total:
            strict.append(f"white {v} has weight {sn}, needs > {sn}")
            continue
        off.append((v, w))
        if w < total:
            wv = graph.weight(v)
            loose.append(f"white {v} has weight {wv}, needs >= {sn}")
            strict.append(f"white {v} has weight {wv}, needs > {sn}")
    w0 = None if bd is None else graph.scaled_weight(bd)
    if total <= 0:
        reason = f"total weight {sn} must be positive"
        loose, strict = [reason], [reason]
    elif w0 is not None:
        if w0 < 0:
            loose.append(f"boundary weight {graph.weight(bd)} must be >= 0")
        if w0 <= 0:
            strict.append(f"boundary weight {graph.weight(bd)} must be > 0")

    # n + 1 and 1 scale to total + scale and scale
    if off and (len(off) > 1 or off[0][1] != total + scale):
        near = NearCY("general")
    elif w0 is None or w0 == 0:
        near = NearCY("one_step", off[0][0]) if off else NearCY("all_cy")
    else:
        near = NearCY("boundary_unit" if not off and w0 == scale else "general")
    return near, loose, strict


def epsilon1(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> Fraction:
    """Boundary excess: -2 plus the b_i over the boundary's black neighbours;
    ``b`` must hold exactly the black vertices."""
    if graph.boundary is None:
        raise ValueError("graph has no boundary")
    return Fraction(*_degree_ratio(graph, _pairs(graph, b), graph.boundary, -2))


def delta1(graph: "VisibleGraph", near: Optional[NearCY] = None) -> Optional[Fraction]:
    """1/n in the boundary_unit case; None otherwise.

    ``near``, when given, must be ``classify_near_cy(graph)``.
    """
    if near is None:
        near = classify_near_cy(graph)
    if near.kind == "boundary_unit":
        return Fraction(1, graph.total_weight)
    return None


def certify(graph: "VisibleGraph", weights: Optional[Sequence[Rational]] = None) -> SurfaceReport:
    """Full certification pipeline; failures come back as statuses.

    The near-CY tag and both weight checks come from one pass over the
    whites (``_weight_pass``): the strict failures lead the reasons of a
    certified graph, the loose ones end those of a graph that reaches the
    weight check.  Each black chain is walked once
    (``singularities._chain_components``) and solved by the cached chain
    core (``singularities._chain_discrepancies``).
    """
    if weights is not None:
        graph = graph.reweighted(weights)

    near, loose, strict = _weight_pass(graph)
    blowups = graph.blowups
    rho = 1 + blowups - len(graph.blacks())

    reasons = []
    # a non-boundary vertex that is neither white nor black has mark <= 0
    if len(graph.whites()) + len(graph.blacks()) + (graph.boundary is not None) < len(graph.vertices):
        reasons = [
            f"non-boundary vertex {v} has mark {graph.mark(v)} <= 0"
            for v in graph.vertices
            if v != graph.boundary and graph.mark(v) <= 0
        ]
    if not reasons:
        try:
            components = singularities._chain_components(graph)
        except NotChainError as exc:
            reasons = [str(exc)]
    if reasons:
        return SurfaceReport(
            volume=Fraction(0), rho=rho, blowups=blowups, singularities=[],
            epsilon1=None, delta1=None, status=NOT_CERTIFIED, near_cy=near,
            reasons=reasons,
        )

    b: dict[str, tuple[int, int]] = {}
    singular = []
    log_canonical_only = False
    for comp in components:
        det, nums, _ = singularities._chain_discrepancies(comp.chain.marks, comp.contacts)
        singular.append((comp.chain, det))
        b.update(zip(comp.vertex_ids, zip(nums, repeat(det))))
        if max(nums) >= det:  # every b >= 0 (singularities._chain_discrepancies)
            for v, num in zip(comp.vertex_ids, nums):
                if num > det:
                    reasons.append(f"discrepancy b[{v}] = {Fraction(num, det)} > 1: not log canonical")
                elif num == det:
                    log_canonical_only = True

    vol = Fraction(*_volume_ratio(graph, b))
    eps = None if graph.boundary is None else Fraction(*_degree_ratio(graph, b, graph.boundary, -2))

    if not reasons:
        # the numerator's sign is the degree's: denominators are positive
        kcs = {v: _kc_ratio(graph, b, v) for v in graph.whites()}
        for v, kc in kcs.items():
            if kc[0] < 0:
                reasons.append(f"white {v} has negative canonical degree {Fraction(*kc)}")
        if eps is not None and eps <= 0:
            reasons.append(f"boundary excess {eps} is not positive")
        if vol <= 0:
            reasons.append(f"volume {vol} is not positive")
        reasons.extend(loose)

    status = NOT_CERTIFIED
    if not reasons:
        # certified; the strict failures, if any, are why it is not ample
        reasons = strict
        reasons.extend(f"white {v} has canonical degree 0" for v, kc in kcs.items() if kc[0] == 0)
        if log_canonical_only:
            reasons.append("a discrepancy equals 1 (log canonical only)")
        status = BIG_NEF if reasons else AMPLE

    return SurfaceReport(
        volume=vol, rho=rho, blowups=blowups, singularities=singular,
        epsilon1=eps, delta1=delta1(graph, near), status=status, near_cy=near,
        reasons=reasons, log_canonical_only=log_canonical_only,
    )


# -- certification from edge summaries ---------------------------------------
#
# A graph built from edge content carries one Stern-Brocot pattern per
# edge, and most of what certify computes depends on one edge alone: a
# black run strictly inside an edge is a chain of its own, and a white
# inside an edge sees only its two path neighbours.  Only the corners
# couple the edges, through their marks.  ``edge_summary`` settles each
# pattern once; ``glue`` joins six summaries at the corners and reaches
# certify's verdict without building the graph.

#: certify's checks in order; a failing Verdict names the first that fails
CHECKS = ("mark", "chain", "discrepancy", "degree", "boundary_excess", "volume", "weights")


class EdgeSummary(NamedTuple):
    """What certification needs of one edge pattern, weights apart.

    The edge runs from end 0, its first corner (the pair (1, 0)), to
    end 1, its second (0, 1).  A black run that reaches an end is that
    end's *tail*; the white that stops a tail, or that meets the corner
    when the tail is empty, is that end's *face*.  A pattern's newest pair
    lies between its two creation parents and so is white: only a bare
    edge has no face, and its tails are empty.  The inner runs lie
    between the two faces; their chains, and the degrees of the whites
    between the faces, are settled here.  An inner run meets no boundary,
    so its discrepancies lie in [0, 1) (``singularities._chain_discrepancies``)
    and pass certify's range check.  Of the tails, ``glue`` solves only the
    boundary's.  Pairs are unreduced (numerator, denominator) pairs.
    """

    pattern: tuple[tuple[int, int], ...]
    #: insertions next to each end's corner: what the edge adds to its mark
    touches: tuple[int, int]
    #: black interior vertices
    blacks: int
    #: each end's tail marks, read from its corner inward
    tails: tuple[tuple[int, ...], tuple[int, ...]]
    #: each face's degree so far: all but its neighbour towards its corner
    faces: Optional[tuple[tuple[int, int], tuple[int, int]]]
    #: one white is the face of both ends
    one_face: bool
    #: a white between the faces has negative degree
    inner_negative: bool
    #: the sum of b (mark - 2) over the inner runs, from the chain core
    inner_volume: tuple[int, int]
    #: the interior whites' pairs
    whites: tuple[tuple[int, int], ...]
    #: the pairs in creation order as read from end 0 and from end 1
    #: (``graph._orientations``): what ``graph.least_reading`` reads of the edge
    reads: tuple[tuple, tuple]


def _touches(pattern: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """The insertions next to each corner of an edge: the pairs (m1, 1)
    touch its first corner, the pairs (1, m2) its second."""
    return sum(m2 == 1 for _, m2 in pattern), sum(m1 == 1 for m1, _ in pattern)


@lru_cache(maxsize=4096)
def edge_summary(pattern: tuple[tuple[int, int], ...]) -> EdgeSummary:
    """Summary of one edge pattern, which must hold the creation parents
    of each of its pairs (as every pattern of a graph does)."""
    path = sorted(pattern, key=_path_order)
    ends = [(1, 0), *path, (0, 1)]
    # the neighbours of q on the path add up to mark(q) * q (Hirzebruch-Jung)
    marks = [(ends[k - 1][0] + ends[k + 1][0]) // ends[k][0] for k in range(1, len(ends) - 1)]
    touches = _touches(pattern)
    blacks = sum(a >= 2 for a in marks)
    white_at = [k for k, a in enumerate(marks) if a == 1]
    if not white_at:  # only a bare edge has no white
        return EdgeSummary(pattern, touches, blacks, ((), ()), None, False, False, (0, 1), (), _orientations(pattern))
    first, last = white_at[0], white_at[-1]
    b: dict[int, tuple[int, int]] = {}  # position of an inner black: its discrepancy
    vol = (0, 1)
    for black, group in groupby(range(first, last), key=lambda k: marks[k] >= 2):
        if black:
            at = list(group)
            run = tuple(marks[k] for k in at)
            det, nums, run_volume = singularities._chain_discrepancies(run, (0,) * len(run))
            vol = _ratio_sum([(run_volume, det)], *vol)
            b.update((k, (num, det)) for k, num in zip(at, nums))

    def degree(k: int, *sides: int) -> tuple[int, int]:
        return _ratio_sum((b[k + d] for d in sides if k + d in b), -1)

    faces = (degree(first), degree(last)) if first == last else (degree(first, 1), degree(last, -1))
    return EdgeSummary(
        pattern, touches, blacks, (tuple(marks[:first]), tuple(marks[:last:-1])), faces,
        first == last, any(degree(k, -1, 1)[0] < 0 for k in white_at[1:-1]), vol,
        tuple(path[k] for k in white_at), _orientations(pattern),
    )


class Verdict(NamedTuple):
    """What ``glue`` finds: the first failing check of CHECKS, or None
    with the volume and Picard rank that certify reports."""

    failed: Optional[str]
    volume: Optional[Fraction] = None
    rho: Optional[int] = None


#: each corner's three edges as (edge index, end, far corner), end 0 when it is the first corner
_ARMS = tuple(
    tuple((e, end, p[1 - end]) for e, p in enumerate(EDGE_PAIRS) for end in (0, 1) if p[end] == c) for c in range(4)
)

# accumulator slots of glue: the boundary excess, then the face of end
# `end` of edge e (one slot for a one-face edge)
_EXCESS = 0

# what a bare arm of a black corner reaches, in its star; a faced arm reads its tail
_BARE, _TO_BOUNDARY = "bare", "boundary"


def _face(summary: EdgeSummary, e: int, end: int) -> int:
    return 1 + 2 * e + (end and not summary.one_face)


def glue(weights: Sequence[Rational], boundary_index: Optional[int], summaries: Sequence[EdgeSummary]) -> Verdict:
    """certify's verdict on a graph given by its edge summaries, unbuilt.

    ``summaries`` holds the EdgeSummary of each edge in EDGE_PAIRS order
    and ``boundary_index`` the boundary corner or None.  A corner's mark
    is -1 plus the touches of its three edges.  A corner meets each of
    its edges through an *arm* of one of two kinds: a faceless arm, a
    bare edge, leads straight to the far corner; a faced arm leads
    through its tail to the face.  A black corner's *star* is its mark
    and, per arm in ``_ARMS`` order, its tail (empty when the corner
    meets the face) or what a bare arm reaches: the boundary or another
    corner.  The black corners joined by bare edges form paths, a lone
    black corner a path of one, and each path's chain is solved once per
    tuple of stars (``_path_chain``); the glue only sends each of its
    taps to a slot.  Each tail of the boundary is a chain of its own,
    solved by the cached chain core.

    The glue reads only the black corners and the boundary.  A white
    corner that is not the boundary reaches it only through the mark
    check: no slot holds its degree, its tails are not solved, and its
    weight is not tested.  No verdict changes.  Write P for K + B + the
    sum of b E over the blacks, pulled back; deg(v) = P.v, a white's
    degree or the boundary's excess; H for a line; and m_x(v) for v's
    pair coordinate at corner x, the one the weights use.  P.H reads

    - (F1) -3 + [a boundary] + the sum of b over the black corners, as H
      meets each corner once and no interior vertex;
    - (F2) P.x + the sum of m_x(v) deg(v) over the interior whites on
      x's edges, for each corner x: line x pulls back to x plus the
      m_x(v) v, and the blacks pair to 0.

    Every b is >= 0, and < 1 on a chain with at most one boundary
    contact, at an end (``singularities._chain_discrepancies``): so the
    boundary's tails need no range check.  Every b is <= 1 too, or the
    discrepancy check fails first.

    *Lemma:* if every interior white has deg >= 0 and c is a white corner
    that is not the boundary, then deg(c) >= 0, a boundary exists and
    its excess is <= 0.  Say some corner x is black; F2 at x gives
    P.H >= 0.  Without a boundary every b is < 1, so F1 asks for a
    boundary, for b = 1 at both corners other than c and the boundary,
    and for P.H = 0.  Such a corner y has no bare arm to c.  At b_y = 1
    row y of the system says the b of y's chain neighbours sum to 2 less
    y's boundary contact.  A tail vertex has no contact, so a b of 1
    there would spread along the tail to its face, which is white.  So a
    sum of 2, or of 1 from a single neighbour, needs black corners over
    bare arms.  With a bare arm to c, y's other two arms lead to the
    boundary and to a black corner: a sum of 2 is out, and a sum of 1
    makes all three arms bare and leaves y no touch.  So c's arms to
    those corners are faced, each a touch of c, and c, white with two
    touches, meets the boundary over its third arm: deg(c) >= 0.  F2 at
    the boundary gives excess <= P.H = 0.  If no corner is black, F1
    gives P.H <= -2 while F2 at c gives P.H >= deg(c) >= -1: there is no
    such form.

    So certify's degree check fails exactly when an interior white is
    negative, and a form with a white corner that is not the boundary
    never reaches the volume or the weight check.  When its interior
    whites pass, F2 at c gives deg(c) = 0: each tail of c is all 2s
    with b = 0, and its taps into the faces would change nothing.

    Every weight test is homogeneous in the weights, so the verdict is
    the same under any positive scale: a search hands in integers.
    """
    bd = boundary_index
    mark = [-1, -1, -1, -1]
    for (i, j), s in zip(EDGE_PAIRS, summaries):
        ti, tj = s.touches
        mark[i] += ti
        mark[j] += tj
    black = [False] * 4
    for c in range(4):
        if c != bd:
            if mark[c] <= 0:
                return Verdict("mark")
            black[c] = mark[c] >= 2

    # each black corner's star, and its links: the black corners at the
    # end of its bare arms; a link or a tail is a black neighbour
    stars: dict[int, tuple] = {}
    links: dict[int, list] = {}
    for c in range(4):
        if not black[c]:
            continue
        star = [mark[c]]
        link = []
        tails = 0
        for e, end, x in _ARMS[c]:
            s = summaries[e]
            if s.faces is not None:
                star.append(s.tails[end])
                tails += bool(s.tails[end])
            elif x == bd:
                star.append(_TO_BOUNDARY)
            else:
                star.append(_BARE)
                if black[x]:
                    link.append(x)
        if len(link) + tails > 2:
            return Verdict("chain")  # a branch at c
        stars[c] = tuple(star)
        links[c] = link

    num = [-2] + [0] * 12
    den = [1] * 13
    for e, s in enumerate(summaries):
        if s.faces is not None:
            num[1 + 2 * e], den[1 + 2 * e] = s.faces[0]
            if not s.one_face:
                num[2 + 2 * e], den[2 + 2 * e] = s.faces[1]

    # each chain's taps as (slot, numerator, determinant): the b there adds to the slot
    taps = []
    bad = False
    volumes = [s.inner_volume for s in summaries]
    walked = set()
    for c in links:
        if c in walked or len(links[c]) == 2:
            continue
        # c ends a path of black corners joined by bare edges
        path, prev = [c], None
        while True:
            step = [x for x in links[path[-1]] if x != prev]
            if not step:
                break
            prev = path[-1]
            path.append(step[0])
        walked.update(path)
        in_range, vol, det, path_taps = _path_chain(tuple(map(stars.__getitem__, path)))
        bad = bad or not in_range
        volumes.append((vol, det))
        for pos, arm, nb in path_taps:
            e, end, _ = _ARMS[path[pos]][arm]
            s = summaries[e]
            taps.append((_EXCESS if s.faces is None else _face(s, e, end), nb, det))
    if len(walked) < len(links):
        return Verdict("chain")  # a cycle through the corners
    if bad:
        return Verdict("discrepancy")

    if bd is not None:
        # the boundary meets the face of each empty tail; each other tail
        # is a chain that meets the boundary at its first vertex and its
        # face at its last
        for e, end, _ in _ARMS[bd]:
            s = summaries[e]
            if s.faces is None:
                continue
            tail, face = s.tails[end], _face(s, e, end)
            if tail:
                det, nums, vol = singularities._chain_discrepancies(tail, (1,) + (0,) * (len(tail) - 1))
                volumes.append((vol, det))
                taps.append((face, nums[-1], det))
                taps.append((_EXCESS, nums[0], det))
            else:
                num[face] += den[face]
    for to, nb, det in taps:
        d = den[to]
        if d == det:
            num[to] += nb
        else:
            num[to], den[to] = num[to] * det + nb * d, d * det
    if any(s.inner_negative for s in summaries) or min(num[1:]) < 0:
        return Verdict("degree")
    blowups = sum(len(s.pattern) for s in summaries)
    vol_num, vol_den = _ratio_sum(volumes, 9 - blowups)
    if bd is not None:
        if num[_EXCESS] <= 0:
            return Verdict("boundary_excess")
        vol_num, vol_den = _ratio_sum([(num[_EXCESS], den[_EXCESS])], vol_num + (mark[bd] - 2) * vol_den, vol_den)
    if vol_num <= 0:
        return Verdict("volume")
    n = sum(weights)
    if (
        n <= 0
        or (bd is not None and weights[bd] < 0)
        or any(_light_whites(s.whites, weights[i], weights[j], n) for s, (i, j) in zip(summaries, EDGE_PAIRS))
    ):
        return Verdict("weights")
    rho = 1 + blowups - sum(s.blacks for s in summaries) - sum(black)
    return Verdict(None, Fraction(vol_num, vol_den), rho)


@lru_cache(maxsize=4096)
def _path_chain(stars: tuple[tuple, ...]) -> tuple[bool, int, int, tuple[tuple[int, int, int], ...]]:
    """The chain through a path of black corners, from their stars in path order.

    The chain runs from the first corner's first tail, read outward, through
    the corners, to the last corner's remaining tail; each tail's outer
    vertex meets its face, and a corner meets the face of each empty tail
    and the boundary over a bare arm.  Returns whether every discrepancy
    is at most 1 (none is below 0), the volume numerator, the determinant
    and the taps as (position in the path, arm, discrepancy numerator).
    """
    marks: list[int] = []
    at_boundary = set()  # indices in marks of the corners that meet the boundary
    sources = []  # (index in marks, position in the path, arm)
    last = len(stars) - 1
    for pos, (mark, *arms) in enumerate(stars):
        tails = [arm for arm, a in enumerate(arms) if isinstance(a, tuple) and a]
        if pos == 0 and tails:  # the head tail, reversed so that it runs towards the corner
            arm = tails.pop(0)
            sources.append((len(marks), pos, arm))
            marks.extend(arms[arm][::-1])
        sources.extend((len(marks), pos, arm) for arm, a in enumerate(arms) if a in ((), _TO_BOUNDARY))
        if _TO_BOUNDARY in arms:
            at_boundary.add(len(marks))
        marks.append(mark)
        if pos == last and tails:
            marks.extend(arms[tails[0]])
            sources.append((len(marks) - 1, pos, tails[0]))
    contacts = tuple(int(k in at_boundary) for k in range(len(marks)))
    det, nums, vol = singularities._chain_discrepancies(tuple(marks), contacts)
    return max(nums) <= det, vol, det, tuple((pos, arm, nums[k]) for k, pos, arm in sources)


@lru_cache(maxsize=4096)
def _light_whites(whites: tuple[tuple[int, int], ...], w_a: Rational, w_b: Rational, n: Rational) -> int:
    """How many white pairs weigh less than n on an edge with corner weights w_a, w_b."""
    return sum(m1 * w_a + m2 * w_b < n for m1, m2 in whites)


def find_ample_weights(graph: "VisibleGraph") -> Optional[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """A weight vector passing every strict weight condition, if one exists.

    Works on normalized weights summing to 1 and eliminates variables
    exactly, so a returned vector is exact and a None answer is a proof
    of infeasibility within the stated constraint system.
    """
    mults = []
    for v in graph.whites():
        m = [0, 0, 0, 0]
        if graph.is_corner(v):
            m[graph.corners.index(v)] = 1
        else:
            i, j = graph.edge_of(v)
            m[i], m[j] = graph.fraction(v)
        mults.append(m)

    # Normalize the total weight to 1, so every white needs m.w > 1 and,
    # with a boundary, w0 > 0; these are the only strict conditions.
    # Substituting w3 = 1 - w0 - w1 - w2 leaves strict inequalities in
    # the free coordinates (w0, w1, w2).
    rows: list[tuple[Fraction, Fraction, Fraction, Fraction]] = []

    def add_gt(a0, a1, a2, a3, c) -> None:
        rows.append((Fraction(a0 - a3), Fraction(a1 - a3), Fraction(a2 - a3), Fraction(c - a3)))

    for m in mults:
        add_gt(m[0], m[1], m[2], m[3], 1)
    if graph.boundary is not None:
        unit = [0, 0, 0, 0]
        unit[graph.corners.index(graph.boundary)] = 1
        add_gt(*unit, 0)

    point = _feasible_point(rows, 3)
    if point is None:
        return None
    w0, w1, w2 = point
    w3 = 1 - w0 - w1 - w2
    weights = (w0, w1, w2, w3)
    if check_weights(graph.reweighted(weights), strict=True):
        raise ArithmeticError(f"weights {weights} fail the strict re-check")
    return weights


def _feasible_point(rows: Sequence[tuple], dim: int) -> Optional[tuple[Fraction, ...]]:
    """A point x with a·x > c for every row (a_1, ..., a_dim, c), or None.

    One Fourier-Motzkin step eliminates x_dim: rows without it carry over,
    and each lower-bound row p (p_dim > 0) with each upper-bound row q
    (q_dim < 0) gives the row p/p_dim - q/q_dim, which holds exactly when
    the two bounds on x_dim leave room.  At the point found for the rest,
    x_dim is 0 when unbounded, 1 past a one-sided bound, else the midpoint.
    """
    if dim == 0:
        return () if all(0 > c for (c,) in rows) else None
    lower = [r for r in rows if r[dim - 1] > 0]
    upper = [r for r in rows if r[dim - 1] < 0]
    rest = [r[: dim - 1] + r[dim:] for r in rows if r[dim - 1] == 0]
    rest += [
        tuple(x / p[dim - 1] - y / q[dim - 1] for x, y in zip(p[: dim - 1] + p[dim:], q[: dim - 1] + q[dim:]))
        for p in lower
        for q in upper
    ]
    point = _feasible_point(rest, dim - 1)
    if point is None:
        return None

    def bound(r: tuple) -> Fraction:  # the x_dim at which row r holds with equality
        return (r[-1] - sum(a * x for a, x in zip(r, point))) / r[dim - 1]

    lo, hi = max(map(bound, lower), default=None), min(map(bound, upper), default=None)
    if lo is None and hi is None:
        val = Fraction(0)
    elif lo is None:
        val = hi - 1
    elif hi is None:
        val = lo + 1
    elif lo < hi:
        val = (lo + hi) / 2
    else:
        raise ArithmeticError(f"empty interval ({lo}, {hi}) after elimination")
    return point + (val,)
