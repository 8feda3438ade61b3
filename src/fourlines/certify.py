"""Volumes, weight conditions, near-CY classification, and certification.

The certificate logic: after contracting all black curves, the (log)
canonical divisor of the contraction is nef as soon as it meets every
remaining curve nonnegatively.  Its degree on a white curve C is

    -1 + (1 if C meets the boundary) + sum of b_i over black neighbours,

its degree on the boundary is the boundary excess, and bigness follows
from a positive self-intersection (the volume).  The weight conditions
give an independent sufficient nef test that is linear in the corner
weights, which is what the searches and the ample-weight finder use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from . import lattice, singularities
from .singularities import Chain, NotChainError

if TYPE_CHECKING:
    from .graph import VisibleGraph

__all__ = [
    "AMPLE",
    "BIG_NEF",
    "NOT_CERTIFIED",
    "NearCY",
    "SurfaceReport",
    "kc_degree",
    "volume",
    "volume_lattice",
    "check_weights",
    "classify_near_cy",
    "epsilon1",
    "delta1",
    "certify",
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


def _boundary_adjacent(graph: "VisibleGraph", v: str) -> bool:
    return graph.boundary is not None and graph.adjacent(v, graph.boundary)


def kc_degree(graph: "VisibleGraph", b: Mapping[str, Fraction], white: str) -> Fraction:
    """Degree of the contracted (log) canonical divisor on a white curve."""
    if graph.color(white) != "white":
        raise ValueError(f"{white!r} is not a white vertex")
    total = Fraction(-1)
    if _boundary_adjacent(graph, white):
        total += 1
    for u in graph.neighbors(white):
        if graph.color(u) == "black":
            total += b[u]
    return total


def volume(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> Fraction:
    """Self-intersection of the contracted (log) canonical divisor.

    Computed through adjunction alone: K^2 = 9 - blowups and
    K.E = mark - 2 for every visible curve.
    """
    vol = Fraction(9 - graph.blowups) + sum(
        (b[v] * (graph.mark(v) - 2) for v in graph.blacks()), Fraction(0)
    )
    if graph.boundary is None:
        return vol
    return vol + graph.mark(graph.boundary) - 2 + epsilon1(graph, b)


def volume_lattice(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> Fraction:
    """Same volume through the Picard lattice; must agree with volume()."""
    p = lattice.log_pullback(graph, b)
    return lattice.pairing(p, p)


def check_weights(graph: "VisibleGraph", strict: bool = False) -> list[str]:
    """Weight-condition violations; empty means the nef test passes.

    Every white vertex needs weight >= n (> n when strict), where n is
    the total corner weight; with a boundary, its weight must be >= 0
    (> 0 when strict).
    """
    n = graph.total_weight
    violations = []
    for v in graph.vertices:
        if graph.color(v) != "white":
            continue
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


def epsilon1(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> Fraction:
    """Boundary excess: -2 plus the b_i over the boundary's black neighbours."""
    bd = graph.boundary
    if bd is None:
        raise ValueError("graph has no boundary")
    return Fraction(-2) + sum(
        (b[v] for v in graph.neighbors(bd) if graph.mark(v) >= 2), Fraction(0)
    )


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

    b = singularities.solve_discrepancies(graph, chain_list)
    log_canonical_only = False
    for v, bv in b.items():
        if bv > 1:
            reasons.append(f"discrepancy b[{v}] = {bv} > 1: not log canonical")
        elif bv == 1:
            log_canonical_only = True
        if bv < 0:
            reasons.append(f"discrepancy b[{v}] = {bv} < 0")

    vol = volume(graph, b)
    eps = epsilon1(graph, b) if graph.boundary is not None else None

    if not reasons:
        kcs = {v: kc_degree(graph, b, v) for v in graph.whites()}
        for v, kc in kcs.items():
            if kc < 0:
                reasons.append(f"white {v} has negative canonical degree {kc}")
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
        singularities=[(chain, chain.determinant()) for chain in chain_list],
        epsilon1=eps, delta1=delta1(graph, near), status=status, near_cy=near,
        reasons=reasons, log_canonical_only=log_canonical_only,
    )


def find_ample_weights(graph: "VisibleGraph") -> Optional[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """A weight vector passing every strict weight condition, if one exists.

    Works on normalized weights summing to 1 and eliminates variables
    exactly, so a returned vector is exact and a None answer is a proof
    of infeasibility within the stated constraint system.
    """
    mults = []
    for v in graph.vertices:
        if graph.color(v) != "white":
            continue
        if graph.is_corner(v):
            m = [0, 0, 0, 0]
            m[graph.corners.index(v)] = 1
        else:
            i, j = graph.edge_of(v)
            m1, m2 = graph.fraction(v)
            m = [0, 0, 0, 0]
            m[i], m[j] = m1, m2
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

    point = _feasible_point_3d(rows)
    if point is None:
        return None
    w0, w1, w2 = point
    w3 = 1 - w0 - w1 - w2
    weights = (w0, w1, w2, w3)
    if check_weights(graph.reweighted(weights), strict=True):
        raise ArithmeticError(f"weights {weights} fail the strict re-check")
    return weights


def _feasible_point_3d(
    rows: Sequence[tuple[Fraction, Fraction, Fraction, Fraction]]
) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """A point satisfying a·x > c for every row (a, c), by elimination."""
    point: list[Fraction] = []
    systems = [list(rows)]
    for dim in (3, 2, 1):
        cur = systems[-1]
        nxt = _eliminate_last(cur, dim)
        if nxt is None:
            return None
        systems.append(nxt)
    # systems[3] is a set of 0-dimensional rows: constants that must be > c
    for row in systems[3]:
        if not Fraction(0) > row[-1]:
            return None
    # back-substitute: choose each coordinate inside its open interval
    for dim, cur in zip((1, 2, 3), reversed(systems[:-1])):
        lo, hi = None, None
        for row in cur:
            a = row[dim - 1]
            c = row[-1] - sum(row[i] * point[i] for i in range(dim - 1))
            if a == 0:
                continue
            bound = c / a
            if a > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            val = Fraction(0)
        elif lo is None:
            val = hi - 1
        elif hi is None:
            val = lo + 1
        else:
            if not lo < hi:
                raise ArithmeticError(f"empty interval ({lo}, {hi}) after elimination")
            val = (lo + hi) / 2
        point.append(val)
    return (point[0], point[1], point[2])


def _eliminate_last(
    rows: Sequence[tuple], dim: int
) -> Optional[list[tuple]]:
    """One Fourier-Motzkin step on x_dim (1-indexed), strict inequalities."""
    pos, neg, zero = [], [], []
    for row in rows:
        a = row[dim - 1]
        if a > 0:
            pos.append(row)
        elif a < 0:
            neg.append(row)
        else:
            zero.append(row[: dim - 1] + (row[-1],))
    out = list(zero)
    for rp in pos:
        ap = rp[dim - 1]
        for rn in neg:
            an = rn[dim - 1]
            # lower bound (cp - rest_p)/ap must stay below upper bound
            # (cn - rest_n)/an, which rearranges to the strict row below
            coeffs = tuple(
                rp[i] / ap + rn[i] / (-an) for i in range(dim - 1)
            )
            const = rp[-1] / ap + rn[-1] / (-an)
            out.append(coeffs + (const,))
    # rows now state coeffs·x > const in dimension dim-1; detect trivial
    # contradictions early for speed
    cleaned = []
    for row in out:
        if all(c == 0 for c in row[:-1]):
            if not Fraction(0) > row[-1]:
                return None
            continue
        cleaned.append(row)
    return cleaned
