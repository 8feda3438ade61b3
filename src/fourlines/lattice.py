"""Picard lattice of the blown-up surface.

The basis is orthogonal: the pullback H of a line, with H^2 = 1, and
one class F per insertion (the total transform of the exceptional
curve), with F^2 = -1.  The class of a visible curve is its strict
transform: a corner starts at H and an inserted vertex starts at its
own F; every later insertion at a vertex subtracts the new F from that
vertex's class.

``combination`` is the one place that applies that rule: it sums any
combination of curve classes into one coefficient map in one pass, so
``class_of`` and ``log_pullback`` copy no class per term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

if TYPE_CHECKING:
    from .graph import VisibleGraph

__all__ = [
    "DivisorClass",
    "class_of",
    "canonical_class",
    "pairing",
    "log_pullback",
]

Rational = Union[int, Fraction]

#: key used for the hyperplane coefficient inside the sparse map
H_KEY = "H"


class DivisorClass:
    """Sparse element of the Picard lattice of one graph."""

    __slots__ = ("graph", "h", "e")

    def __init__(self, graph: "VisibleGraph", h: Rational = 0, e: Mapping[str, Rational] | None = None):
        self.graph = graph
        self.h = Fraction(h)
        self.e: dict[str, Fraction] = {}
        if e:
            for k, v in e.items():
                v = Fraction(v)
                if v:
                    self.e[k] = v

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_graph(self, other)
        e = dict(self.e)
        for k, v in other.e.items():
            s = e.get(k, Fraction(0)) + v
            if s:
                e[k] = s
            else:
                e.pop(k, None)
        return DivisorClass(self.graph, self.h + other.h, e)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __rmul__(self, scalar: Rational) -> "DivisorClass":
        scalar = Fraction(scalar)
        return DivisorClass(self.graph, scalar * self.h, {k: scalar * v for k, v in self.e.items()})

    __mul__ = __rmul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.graph is other.graph and self.h == other.h and self.e == other.e

    def __hash__(self) -> int:
        return hash((id(self.graph), self.h, frozenset(self.e.items())))

    def coefficients(self) -> dict[str, Fraction]:
        """All coefficients including H, for display."""
        out = {H_KEY: self.h}
        out.update(self.e)
        return out

    def is_integral(self) -> bool:
        return self.h.denominator == 1 and all(v.denominator == 1 for v in self.e.values())

    def __repr__(self) -> str:
        parts = []
        if self.h:
            parts.append(f"{self.h}*H")
        for k in sorted(self.e):
            parts.append(f"{self.e[k]}*F[{k}]")
        return " + ".join(parts) if parts else "0"


def _same_graph(c1: DivisorClass, c2: DivisorClass) -> None:
    if c1.graph is not c2.graph:
        raise ValueError("divisor classes live over different graphs")


def combination(graph: "VisibleGraph", coeffs: Mapping[str, Rational]) -> DivisorClass:
    """The sum of coeffs[v] times the strict-transform class of v, in one pass.

    A corner's class starts at H and an inserted vertex's at its own F;
    each child of v subtracts its F from the class of v.
    """
    h = Fraction(0)
    e: dict[str, Fraction] = {}
    for v, c in coeffs.items():
        if graph.is_corner(v):
            h += c
        else:
            e[v] = e.get(v, 0) + c
        for child in graph.children(v):
            e[child] = e.get(child, 0) - c
    return DivisorClass(graph, h, e)


def class_of(graph: "VisibleGraph", vertex: str) -> DivisorClass:
    """Strict-transform class of a visible curve."""
    if vertex not in graph.vertices:
        raise ValueError(f"unknown vertex {vertex!r}")
    return combination(graph, {vertex: 1})


def canonical_class(graph: "VisibleGraph") -> DivisorClass:
    """K of the blown-up surface: -3H plus every exceptional class."""
    e = {ins.new_id: Fraction(1) for ins in graph.history}
    return DivisorClass(graph, Fraction(-3), e)


def pairing(c1: DivisorClass, c2: DivisorClass) -> Fraction:
    """Intersection number; H and the F's are mutually orthogonal."""
    _same_graph(c1, c2)
    total = c1.h * c2.h
    small, large = (c1.e, c2.e) if len(c1.e) <= len(c2.e) else (c2.e, c1.e)
    for k, v in small.items():
        w = large.get(k)
        if w is not None:
            total -= v * w
    return total


def _check_discrepancies(graph: "VisibleGraph", b: Mapping[str, Rational]) -> None:
    """Raise ValueError unless the discrepancy map ``b`` is indexed by
    exactly the black vertices of ``graph``: every function that takes one
    checks it here, since a missing black or an extra vertex changes every
    sum without an error."""
    if b.keys() != set(graph.blacks()):
        raise ValueError("discrepancy vector must be indexed by exactly the black vertices")


def log_pullback(graph: "VisibleGraph", b: Mapping[str, Fraction]) -> DivisorClass:
    """Class of K plus boundary plus the discrepancy part over the blacks.

    ``b`` must be indexed by exactly the black vertices.  The result
    pairs to zero with every black vertex class, and with the boundary
    class it pairs to the boundary excess.
    """
    _check_discrepancies(graph, b)
    coeffs = dict(b) if graph.boundary is None else {graph.boundary: 1, **b}
    return canonical_class(graph) + combination(graph, coeffs)
