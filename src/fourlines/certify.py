"""Volumes, weight conditions, near-CY classification, and certification.

The certificate logic: after contracting all black curves, the (log)
canonical divisor of the contraction is nef as soon as it meets every
remaining curve nonnegatively.  Its degree on a white curve C is

    -1 + (1 if C meets the boundary) + sum of b_i over black neighbours,

its degree on the boundary is the boundary excess, and bigness follows
from a positive self-intersection (the volume).  The weight conditions
give an independent sufficient nef test that is linear in the corner
weights, which is what the searches and the ample-weight finder use.

The sums run on integer numerators over the chain determinants
(``singularities.discrepancy_numerators``); a Fraction is built only for
a report field or a reason.  ``glue`` reaches certify's verdict on a
graph given by edge content from cached per-edge summaries, without
building the graph; it and ``edge_summary`` take each chain's volume
term from the chain core, the third value of
``singularities._chain_discrepancies``, while ``volume`` sums
b (mark - 2) vertex by vertex, so the search's cross-check of the glue
against certify compares two independent volume formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from . import lattice, singularities
from .graph import EDGE_PAIRS
from .singularities import Chain, Discrepancy, NotChainError

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


#: a discrepancy map: each black vertex to its discrepancy, as a Fraction
#: or as a Discrepancy (``singularities.discrepancy_numerators``)
Discrepancies = Mapping[str, Union[Fraction, Discrepancy]]


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


def _degree_ratio(graph: "VisibleGraph", b: Discrepancies, v: str, base: int) -> tuple[int, int]:
    """base plus the b of v's black neighbours, as an unreduced pair."""
    bd = graph.boundary
    xs = [b[u] for u in graph.neighbors(v) if u != bd and graph.mark(u) >= 2]
    return _ratio_sum(((x.numerator, x.denominator) for x in xs), base)


def _kc_ratio(graph: "VisibleGraph", b: Discrepancies, white: str) -> tuple[int, int]:
    """kc_degree as an unreduced pair: base -1, or 0 next to the boundary."""
    return _degree_ratio(graph, b, white, 0 if graph.boundary in graph.neighbors(white) else -1)


def kc_degree(graph: "VisibleGraph", b: Discrepancies, white: str) -> Fraction:
    """Degree of the contracted (log) canonical divisor on a white curve."""
    if graph.color(white) != "white":
        raise ValueError(f"{white!r} is not a white vertex")
    return Fraction(*_kc_ratio(graph, b, white))


def volume(graph: "VisibleGraph", b: Discrepancies) -> Fraction:
    """Self-intersection of the contracted (log) canonical divisor.

    Computed through adjunction alone: K^2 = 9 - blowups and
    K.E = mark - 2 for every visible curve.  ``b`` must hold exactly the
    black vertices.
    """
    mark = graph.mark
    num, den = _ratio_sum(
        ((x.numerator * (mark(v) - 2), x.denominator) for v, x in b.items()), 9 - graph.blowups
    )
    if graph.boundary is not None:
        eps = _degree_ratio(graph, b, graph.boundary, -2)
        num, den = _ratio_sum([eps], num + (mark(graph.boundary) - 2) * den, den)
    return Fraction(num, den)


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
    n = graph.total_weight
    if n <= 0:
        return [f"total weight {n} must be positive"]
    violations = []
    for v in graph.whites():
        w = graph.weight(v)
        if w < n or (strict and w == n):
            op = ">" if strict else ">="
            violations.append(f"white {v} has weight {w}, needs {op} {n}")
    if graph.boundary is not None:
        w0 = graph.weight(graph.boundary)
        if w0 < 0 or (strict and w0 == 0):
            op = ">" if strict else ">="
            violations.append(f"boundary weight {w0} must be {op} 0")
    return violations


def classify_near_cy(graph: "VisibleGraph") -> NearCY:
    """Near-CY tag of the weighted graph.

    all_cy: every white has weight exactly n (boundary weight 0 if any);
    one_step: as all_cy except a unique white of weight n+1;
    boundary_unit: every white has weight n and the boundary weight is 1.
    """
    n = graph.total_weight
    # the whites off weight n, each weighed once
    off = [(v, w) for v in graph.whites() if (w := graph.weight(v)) != n]
    all_cy = not off
    one_step = len(off) == 1 and off[0][1] == n + 1
    if graph.boundary is None:
        if all_cy:
            return NearCY("all_cy")
        if one_step:
            return NearCY("one_step", off[0][0])
        return NearCY("general")
    w0 = graph.weight(graph.boundary)
    if all_cy and w0 == 1:
        return NearCY("boundary_unit")
    if all_cy and w0 == 0:
        return NearCY("all_cy")
    if one_step and w0 == 0:
        return NearCY("one_step", off[0][0])
    return NearCY("general")


def epsilon1(graph: "VisibleGraph", b: Discrepancies) -> Fraction:
    """Boundary excess: -2 plus the b_i over the boundary's black neighbours."""
    if graph.boundary is None:
        raise ValueError("graph has no boundary")
    return Fraction(*_degree_ratio(graph, b, graph.boundary, -2))


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
    """Full certification pipeline; failures come back as statuses."""
    if weights is not None:
        graph = graph.reweighted(weights)

    near = classify_near_cy(graph)
    blowups = graph.blowups
    rho = 1 + blowups - len(graph.blacks())

    reasons = [
        f"non-boundary vertex {v} has mark {graph.mark(v)} <= 0"
        for v in graph.vertices
        if v != graph.boundary and graph.mark(v) <= 0
    ]
    if not reasons:
        try:
            chain_list = singularities.chains(graph)
        except NotChainError as exc:
            reasons = [str(exc)]
    if reasons:
        return SurfaceReport(
            volume=Fraction(0), rho=rho, blowups=blowups, singularities=[],
            epsilon1=None, delta1=None, status=NOT_CERTIFIED, near_cy=near,
            reasons=reasons,
        )

    b = singularities.discrepancy_numerators(graph, chain_list)
    log_canonical_only = False
    for v, (num, det) in b.items():
        if num > det:
            reasons.append(f"discrepancy b[{v}] = {Fraction(num, det)} > 1: not log canonical")
        elif num == det:
            log_canonical_only = True
        if num < 0:
            reasons.append(f"discrepancy b[{v}] = {Fraction(num, det)} < 0")

    vol = volume(graph, b)
    eps = epsilon1(graph, b) if graph.boundary is not None else None

    if not reasons:
        # the numerator's sign is the degree's: denominators are positive
        kcs = {v: _kc_ratio(graph, b, v)[0] for v in graph.whites()}
        for v, kc in kcs.items():
            if kc < 0:
                reasons.append(f"white {v} has negative canonical degree {kc_degree(graph, b, v)}")
        if eps is not None and eps <= 0:
            reasons.append(f"boundary excess {eps} is not positive")
        if vol <= 0:
            reasons.append(f"volume {vol} is not positive")
        reasons.extend(check_weights(graph, strict=False))

    status = NOT_CERTIFIED
    if not reasons:
        # certified; the strict failures, if any, are why it is not ample
        reasons = check_weights(graph, strict=True)
        reasons.extend(f"white {v} has canonical degree 0" for v, kc in kcs.items() if kc == 0)
        if log_canonical_only:
            reasons.append("a discrepancy equals 1 (log canonical only)")
        status = BIG_NEF if reasons else AMPLE

    return SurfaceReport(
        volume=vol, rho=rho, blowups=blowups,
        singularities=[(chain, b[chain.vertex_ids[0]].denominator) for chain in chain_list],
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
    so its discrepancies lie in [0, 1) and pass certify's range check.
    Pairs are unreduced (numerator, denominator) pairs.
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


@lru_cache(maxsize=4096)
def edge_summary(pattern: tuple[tuple[int, int], ...]) -> EdgeSummary:
    """Summary of one edge pattern, which must hold the creation parents
    of each of its pairs (as every pattern of a graph does)."""
    path = sorted(pattern, key=lambda p: Fraction(p[1], p[0]))
    ends = [(1, 0), *path, (0, 1)]
    # the neighbours of q on the path add up to mark(q) * q (Hirzebruch-Jung)
    marks = [(ends[k - 1][0] + ends[k + 1][0]) // ends[k][0] for k in range(1, len(ends) - 1)]
    touches = (sum(m2 == 1 for _, m2 in pattern), sum(m1 == 1 for m1, _ in pattern))
    blacks = sum(a >= 2 for a in marks)
    white_at = [k for k, a in enumerate(marks) if a == 1]
    if not white_at:  # only a bare edge has no white
        return EdgeSummary(pattern, touches, blacks, ((), ()), None, False, False, (0, 1), ())
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
        tuple(path[k] for k in white_at),
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

# accumulator slots of glue: the white corners 0-3, the boundary excess,
# then the face of end `end` of edge e (one slot for a one-face edge)
_EXCESS = 4


def _face(summary: EdgeSummary, e: int, end: int) -> int:
    return 5 + 2 * e + (end and not summary.one_face)


def glue(weights: Sequence[Rational], boundary_index: Optional[int], summaries: Sequence[EdgeSummary]) -> Verdict:
    """certify's verdict on a graph given by its edge summaries, unbuilt.

    ``summaries`` holds the EdgeSummary of each edge in EDGE_PAIRS order
    and ``boundary_index`` the boundary corner or None.  A corner's mark
    is -1 plus the touches of its three edges.  A corner meets each of
    its edges through an *arm* of one of two kinds: a faceless arm, a
    bare edge, leads straight to the far corner; a faced arm leads
    through its tail to the face.  The black components through the
    corners are joined from the tails and solved through the same cached
    chain core as certify's, which also gives each chain's volume term.
    A chain vertex meets the boundary exactly when it taps the boundary
    excess, so the chain's contacts are read from its taps.
    """
    bd = boundary_index
    mark = [-1, -1, -1, -1]
    for (i, j), s in zip(EDGE_PAIRS, summaries):
        mark[i] += s.touches[0]
        mark[j] += s.touches[1]
    if any(mark[c] <= 0 for c in range(4) if c != bd):
        return Verdict("mark")
    black = [c != bd and mark[c] >= 2 for c in range(4)]

    # black neighbours of each black corner: the black corners at the end
    # of its faceless arms, and the tails of its faced arms as (edge, end,
    # marks read from the corner)
    links: dict[int, list] = {}
    runs: dict[int, list] = {}
    for c in range(4):
        if not black[c]:
            continue
        links[c] = [x for e, _, x in _ARMS[c] if summaries[e].faces is None and black[x]]
        runs[c] = [(e, end, summaries[e].tails[end]) for e, end, _ in _ARMS[c] if summaries[e].tails[end]]
        if len(links[c]) + len(runs[c]) > 2:
            return Verdict("chain")  # a branch at c

    num = [-1 if c != bd and not black[c] else 0 for c in range(4)] + [-2] + [0] * 12
    den = [1] * 17
    for e, s in enumerate(summaries):
        if s.faces is not None:
            num[5 + 2 * e], den[5 + 2 * e] = s.faces[0]
            if not s.one_face:
                num[6 + 2 * e], den[6 + 2 * e] = s.faces[1]
    if bd is not None:  # whites next to the boundary
        for e, end, x in _ARMS[bd]:
            s = summaries[e]
            if s.faces is None:
                if not black[x]:
                    num[x] += 1
            elif not s.tails[end]:
                num[_face(s, e, end)] += den[_face(s, e, end)]

    # a chain is (marks, taps); a tap (position, slot) adds the b there to
    # the slot.  Next to a corner that is not black the slot is _EXCESS for
    # the boundary, else the white corner itself, so a chain vertex meets
    # the boundary exactly when it taps _EXCESS: the taps give the contacts.
    slot = [_EXCESS if c == bd else c for c in range(4)]
    chains = []

    def add_tail(e: int, end: int, run: tuple, marks: list, taps: list, head: bool = False) -> None:
        # run read from its corner outward, which a head run reverses; its
        # outer vertex meets the face
        pos = len(marks) if head else len(marks) + len(run) - 1
        marks.extend(run[::-1] if head else run)
        taps.append((pos, _face(summaries[e], e, end)))

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
        marks: list = []
        taps: list = []
        for tail in runs[path[0]][:1]:
            add_tail(*tail, marks, taps, head=True)
        for corner in path:
            pos = len(marks)
            marks.append(mark[corner])
            for e, end, x in _ARMS[corner]:
                s = summaries[e]
                if s.faces is None:
                    if not black[x]:
                        taps.append((pos, slot[x]))
                elif not s.tails[end]:
                    taps.append((pos, _face(s, e, end)))
        for tail in runs[path[-1]][1 if len(path) == 1 else 0:]:
            add_tail(*tail, marks, taps)
        chains.append((marks, taps))
    if len(walked) < len(links):
        return Verdict("chain")  # a cycle through the corners

    # tails that meet no black corner are chains of their own
    for e, s in enumerate(summaries):
        for end, c in enumerate(EDGE_PAIRS[e]):
            run = s.tails[end]
            if run and not black[c]:
                chains.append((run, [(len(run) - 1, _face(s, e, end)), (0, slot[c])]))

    bad = False
    volumes = [s.inner_volume for s in summaries]
    for marks, taps in chains:
        contacts = [0] * len(marks)
        for pos, to in taps:
            if to == _EXCESS:
                contacts[pos] = 1
        det, nums, vol = singularities._chain_discrepancies(tuple(marks), tuple(contacts))
        bad = bad or max(nums) > det or min(nums) < 0
        volumes.append((vol, det))
        for pos, to in taps:
            d = den[to]
            if d == det:
                num[to] += nums[pos]
            else:
                num[to], den[to] = num[to] * det + nums[pos] * d, d * det
    if bad:
        return Verdict("discrepancy")
    if any(s.inner_negative for s in summaries) or any(num[k] < 0 for k in range(17) if k != _EXCESS):
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
        or any(c != bd and not black[c] and weights[c] < n for c in range(4))
        or (bd is not None and weights[bd] < 0)
        or any(_light_whites(s.whites, weights[i], weights[j], n) for s, (i, j) in zip(summaries, EDGE_PAIRS))
    ):
        return Verdict("weights")
    rho = 1 + blowups - sum(s.blacks for s in summaries) - sum(black)
    return Verdict(None, Fraction(vol_num, vol_den), rho)


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
