"""Black components, discrepancies, and singularity determinants.

Contracting the black curves produces cyclic quotient singularities
exactly when every connected component of the black subgraph is a
simple path (a chain).  The discrepancy coefficients b_i solve, for
every black vertex j with mark a_j,

    -a_j b_j + sum of b_i over black neighbours i of j
        = 2 - a_j - (number of boundary neighbours of j),

which decomposes into one tridiagonal system per chain.

Each chain system is solved in closed form.  For marks a_1..a_k let
d_i be the continuant of a_1..a_i and d'_i that of a_k..a_{k-i+1}
(d_0 = d'_0 = 1), so that d_k is the chain determinant.  The matrix M
with a_j on the diagonal and -1 beside it has the positive inverse
M^-1[i][j] = d_{i-1} d'_{k-j} / d_k for i <= j.  The system reads
M b = M 1 - u, where u_j = 2 - (black neighbours of j) - (boundary
neighbours of j) is nonzero only at the two ends of the chain and at
its boundary contacts, hence

    b_j = 1 - sum over i of u_i d_{min(i,j)-1} d'_{k-max(i,j)} / d_k,

an integer numerator over d_k; with no boundary contact this is
b_j = 1 - (d_{j-1} + d'_{k-j}) / d_k.  The numerators are substituted
back into the system multiplied by d_k, in integers, and any nonzero
residual raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .graph import VisibleGraph

__all__ = [
    "Chain",
    "NotChainError",
    "black_components",
    "check_log_terminal",
    "solve_discrepancies",
    "chain_determinant",
    "orbifold_defect",
]


class NotChainError(ValueError):
    """A black component is not a simple path."""


@dataclass(frozen=True)
class Chain:
    """A black component that is a simple path."""

    vertex_ids: tuple[str, ...]
    marks: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertex_ids) != len(self.marks):
            raise ValueError("ids and marks must have equal length")
        if any(m < 2 for m in self.marks):
            raise ValueError("chain marks must be at least 2")

    def normalized_marks(self) -> tuple[int, ...]:
        """Orientation-independent reading of the marks."""
        return min(self.marks, self.marks[::-1])

    def determinant(self) -> int:
        return chain_determinant(self.marks)


def black_components(graph: "VisibleGraph") -> list[tuple[str, ...]]:
    """Connected components of the subgraph induced on black vertices.

    Components are listed in first-vertex creation order and each
    component's vertices come out in traversal order from its lowest
    endpoint, so output is deterministic.
    """
    blacks = graph.blacks()
    # creation rank among the blacks, which doubles as the black set
    rank = {v: i for i, v in enumerate(blacks)}
    links = {v: [w for w in graph.neighbors(v) if w in rank] for v in blacks}
    seen: set[str] = set()
    components = []
    for v in blacks:
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            for w in links[frontier.pop()]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        components.append(_order_component(comp, links, rank))
    return components


def _order_component(
    comp: set[str], links: dict[str, list[str]], rank: dict[str, int]
) -> tuple[str, ...]:
    """Path order when the component is a path, else creation order.

    ``links`` holds the black neighbours of every black vertex.
    """
    if any(len(links[v]) > 2 for v in comp):
        return tuple(sorted(comp, key=rank.__getitem__))
    ends = sorted((v for v in comp if len(links[v]) <= 1), key=rank.__getitem__)
    if not ends:
        # a cycle, e.g. three black corners joined by bare edges
        return tuple(sorted(comp, key=rank.__getitem__))
    path = [ends[0]]
    prev = None
    while True:
        nxt = [w for w in links[path[-1]] if w != prev]
        if not nxt:
            break
        prev = path[-1]
        path.append(nxt[0])
    return tuple(path)


def _chain_verdict(graph: "VisibleGraph", comp: tuple[str, ...]) -> str | None:
    """None when the black component is a simple path, else a description."""
    comp_set = set(comp)
    degrees = [sum(1 for w in graph.neighbors(v) if w in comp_set) for v in comp]
    if any(d > 2 for d in degrees):
        return f"black component {comp} is not a chain (branch vertex present)"
    if len(comp) > 1 and degrees.count(1) != 2:
        return f"black component {comp} is not a simple path"
    return None


def check_log_terminal(graph: "VisibleGraph") -> str | None:
    """None when every black component is a chain, else a description."""
    try:
        chains(graph)
    except NotChainError as exc:
        return str(exc)
    return None


def chains(graph: "VisibleGraph") -> list[Chain]:
    """Black components as Chain values; raises when one is not a path."""
    components = black_components(graph)
    for comp in components:
        verdict = _chain_verdict(graph, comp)
        if verdict is not None:
            raise NotChainError(verdict)
    return [Chain(comp, tuple(graph.mark(v) for v in comp)) for comp in components]


def solve_discrepancies(
    graph: "VisibleGraph", chain_list: Optional[Sequence[Chain]] = None
) -> dict[str, Fraction]:
    """Exact solution of the discrepancy system, one entry per black vertex.

    ``chain_list``, when given, must be ``chains(graph)``; passing it
    saves finding the black components again.  Raises NotChainError
    when a black component is not a path, and ArithmeticError when the
    integer residual check fails.
    """
    if chain_list is None:
        chain_list = chains(graph)
    boundary = graph.boundary
    out: dict[str, Fraction] = {}
    for chain in chain_list:
        contacts = [
            int(boundary is not None and graph.adjacent(v, boundary)) for v in chain.vertex_ids
        ]
        out.update(zip(chain.vertex_ids, _chain_discrepancies(chain.marks, contacts)))
    return out


def _chain_discrepancies(marks: Sequence[int], contacts: Sequence[int]) -> list[Fraction]:
    """Discrepancies of one chain from its continuants (see the module docstring).

    ``contacts[j]`` is 1 when the j-th vertex meets the boundary, else 0.
    """
    k = len(marks)
    left = _continuants(marks)
    right = _continuants(marks[::-1])
    det = left[k]
    # u_j = 2 - (chain neighbours of j) - (boundary contact of j)
    u = [-c for c in contacts]
    u[0] += 1
    u[-1] += 1
    support = [(i, ui) for i, ui in enumerate(u) if ui]
    nums = []
    for j in range(k):
        num = det
        for i, ui in support:
            lo, hi = (i, j) if i <= j else (j, i)
            num -= ui * left[lo] * right[k - 1 - hi]
        nums.append(num)
    # residual of the system times det: a_j N_j - N_{j-1} - N_{j+1}
    # must equal det * (a_j - 2 + contacts_j) on every row
    for j in range(k):
        res = marks[j] * nums[j] - det * (marks[j] - 2 + contacts[j])
        if j > 0:
            res -= nums[j - 1]
        if j + 1 < k:
            res -= nums[j + 1]
        if res:
            raise ArithmeticError(f"discrepancy residual {res}/{det} on chain {tuple(marks)}")
    return [Fraction(num, det) for num in nums]


def _continuants(marks: Sequence[int]) -> list[int]:
    """The continuants d_0 = 1, d_1 = a_1, ..., d_k of the marks a_1..a_k."""
    out = [1]
    prev = 0
    for a in marks:
        out.append(a * out[-1] - prev)
        prev = out[-2]
    return out


def chain_determinant(marks: Sequence[int]) -> int:
    """Determinant of the chain's intersection matrix, up to sign.

    For marks a_1..a_k this is the continuant d_k with d_0 = 1,
    d_1 = a_1, d_j = a_j d_{j-1} - d_{j-2}; it equals the order of the
    cyclic group of the quotient singularity.
    """
    return _continuants(marks)[-1]


def orbifold_defect(determinants: Sequence[int]) -> Fraction:
    """Sum of 1 - 1/m over the determinants; compare against 3."""
    if any(m < 1 for m in determinants):
        raise ValueError("determinants must be positive")
    return sum((1 - Fraction(1, m) for m in determinants), Fraction(0))
