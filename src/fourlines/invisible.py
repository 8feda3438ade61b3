"""Search for curve classes the visible graph cannot see.

The certificate pipeline reasons about visible curves only: strict
preimages of the four lines and exceptional curves of the blowups.  An
actual curve on the surface that pairs to zero with the contracted (log)
canonical class without being visible itself would escape that
bookkeeping, and it is the one kind of ampleness obstruction the
certificate cannot rule out.  This module enumerates integer candidates
for such classes inside a bounded box of the Picard lattice.

A candidate is a lattice solution only.  Whether it is realized by an
honest curve depends on the geometry of the surface (and on the
characteristic of the ground field); that question is not decided here.

The hunt first checks that the pullback coefficients, summed over the
curve classes in one pass (``lattice.combination``), give
``lattice.log_pullback``; a mismatch raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Mapping

from . import lattice
from .certify import kc_degree
from .lattice import DivisorClass

if TYPE_CHECKING:
    from .graph import VisibleGraph

__all__ = [
    "CandidateClass",
    "pullback_coefficients",
    "support",
    "search_orthogonal",
    "visible_intersections",
    "crepant_check",
]

#: Largest d_max the hunt accepts: 100 already takes seconds on p48983.
D_MAX_LIMIT = 100


@dataclass(frozen=True)
class CandidateClass:
    """An integer class orthogonal to the contracted canonical divisor.

    ``self_int`` and ``k_int`` are the pairings with itself and with the
    canonical class; candidates are filtered to the smooth rational
    profile ``self_int + k_int = -2``.
    """

    divisor: DivisorClass
    self_int: int
    k_int: int

    def __post_init__(self) -> None:
        if not self.divisor.is_integral():
            raise ValueError("candidate classes must have integer coefficients")
        if lattice.pairing(self.divisor, self.divisor) != self.self_int:
            raise ValueError("self_int does not match the divisor")
        k = lattice.canonical_class(self.divisor.graph)
        if lattice.pairing(self.divisor, k) != self.k_int:
            raise ValueError("k_int does not match the divisor")
        if self.self_int + self.k_int != -2:
            raise ValueError("candidate must satisfy self_int + k_int = -2")


def pullback_coefficients(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """Coefficients writing the contracted divisor over the visible curves.

    With total corner weight n, the vertex v contributes

        c_v = w_v / n - 1 + [v is the boundary] + b_v [v is black],

    and the sum of c_v times the strict-transform class of v equals the
    log pullback exactly.  The identity needs no condition beyond n != 0:
    the weighted visible classes add up to n times the hyperplane class,
    and the unweighted ones to the hyperplane class minus the canonical
    class.
    """
    n = graph.total_weight
    if n == 0:
        raise ValueError("total corner weight is zero; no pullback normalization")
    lattice._check_discrepancies(graph, b)
    coeffs: dict[str, Fraction] = {}
    for v in graph.vertices:
        c = graph.weight(v) / n - 1
        if v == graph.boundary:
            c += 1
        if v in b:
            c += b[v]
        coeffs[v] = c
    return coeffs


def support(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> tuple[str, ...]:
    """Visible curves carrying a positive coefficient of the pullback.

    Order: corners first, then inserted vertices in insertion order.
    """
    coeffs = pullback_coefficients(graph, b)
    return tuple(v for v in graph.vertices if coeffs[v] > 0)


def search_orthogonal(graph: "VisibleGraph", b: Mapping[str, Fraction], d_max: int) -> list[CandidateClass]:
    """All boxed integer classes orthogonal to the contracted divisor.

    Enumerates D = d*H - sum(m_i F_i) with 1 <= d <= d_max and
    0 <= m_i <= 2d, keeping those with

      * pairing zero against the log pullback,
      * pairing zero against every visible curve in its support and
        pairing >= 0 against every other visible curve,
      * self-intersection plus canonical degree equal to -2, and
      * content one (primitive representatives only).

    The multiplicity cap 2d is a safety margin over the classical bound d
    for the multiplicities of an irreducible plane curve of degree d;
    candidates outside the box are out of reach by construction.

    The scan places the multiplicities in insertion order, each capped by
    the remaining pairings of the two curves its blowup separated, and
    forced where it settles a curve with a nonzero pullback coefficient.
    d_max runs from 1 to D_MAX_LIMIT; the cost grows about as d_max**4.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if d_max > D_MAX_LIMIT:
        raise ValueError(f"d_max must be at most {D_MAX_LIMIT}")
    coeffs = pullback_coefficients(graph, b)
    if lattice.combination(graph, coeffs) != lattice.log_pullback(graph, b):
        raise ArithmeticError("pullback coefficients do not span the log pullback")

    order = graph.vertices[4:]  # the inserted curves, in insertion order
    position = {v: i for i, v in enumerate(order)}
    parents = [graph.parents(v) for v in order]

    # D pairs to zero with every support curve and with the log pullback,
    # sum(c_v * avail[v]), exactly when every vertex with c_v != 0 ends at
    # avail 0.  avail[v], D's pairing with curve v, never goes negative and
    # c_v <= 0 off the support, so with the support at 0 every term left is
    # <= 0.  A vertex settles at its last child's index (its own if it has
    # none and is not a corner), forcing the multiplicity placed there: 0
    # for the vertex itself, avail[p] for a parent p of it.
    settles: list[list[str]] = [[] for _ in order]
    for v in graph.vertices:
        if coeffs[v] == 0:
            continue
        deps = [position[u] for u in (v, *graph.children(v)) if u in position]
        if not deps:
            # a childless corner pairs to d > 0 with everything fixed
            return []
        settles[max(deps)].append(v)

    found: list[CandidateClass] = []
    for d in range(1, d_max + 1):
        avail: dict[str, int] = {c: d for c in graph.corners}
        ms: list[int] = []

        def scan(i: int) -> None:
            if i == len(order):
                self_int = d * d - sum(m * m for m in ms)
                k_int = sum(ms) - 3 * d
                if self_int + k_int == -2 and gcd(d, *ms) == 1:
                    e = {order[j]: -m for j, m in enumerate(ms) if m}
                    found.append(CandidateClass(DivisorClass(graph, d, e), self_int, k_int))
                return
            v = order[i]
            left, right = parents[i]
            cap = min(2 * d, avail[left], avail[right])
            forced = {0 if s == v else avail[s] for s in settles[i]}
            if len(forced) > 1 or max(forced, default=0) > cap:
                return  # two settled curves disagree, or one is out of reach
            for m in forced or range(cap + 1):
                avail[left] -= m
                avail[right] -= m
                avail[v] = m
                ms.append(m)
                scan(i + 1)
                ms.pop()
                del avail[v]
                avail[left] += m
                avail[right] += m

        scan(0)
    return found


def visible_intersections(candidate: CandidateClass) -> dict[str, Fraction]:
    """Nonzero pairings of a candidate with the visible curve classes."""
    graph = candidate.divisor.graph
    out: dict[str, Fraction] = {}
    for v in graph.vertices:
        p = lattice.pairing(candidate.divisor, lattice.class_of(graph, v))
        if p:
            out[v] = p
    return out


def crepant_check(graph: "VisibleGraph", b: Mapping[str, Fraction], vertex: str) -> bool:
    """Whether contracting the image of a white curve preserves the volume.

    True exactly when the contracted divisor has degree zero on the
    curve, so blowing it down changes nothing of the volume computation.
    Raises ValueError if the vertex is not white.
    """
    return kc_degree(graph, b, vertex) == 0
