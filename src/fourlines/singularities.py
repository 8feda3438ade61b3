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
residual raises ArithmeticError.  The same solve also returns the
chain's volume numerator, the sum of b_j (a_j - 2) times d_k, which is
the chain's term in the adjunction sum K^2 = 9 - blowups + sum of
b_v (a_v - 2).  The solution depends only on the marks and the contacts,
so ``_chain_discrepancies`` caches it on them, the one cache per chain
shape: a search meets the same few hundred chains thousands of times.

One walk of the black subgraph (``_components``) finds the components and
gives each chain its Chain value and boundary contacts, ready for the
cached solve; ``black_components``, ``check_log_terminal``, ``chains``,
``solve_discrepancies`` and ``certify`` all read it.  ``certify`` keeps
each discrepancy as its cached (numerator, determinant) pair, and
``solve_discrepancies`` reduces each to a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

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
        if min(self.marks, default=2) < 2:
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
    return [comp.vertex_ids for comp in _components(graph)]


class _Component(NamedTuple):
    """One black component as ``_components`` walks it."""

    vertex_ids: tuple[str, ...]
    #: why the component is no chain, or None for a chain
    verdict: Optional[str]
    #: the component as a Chain, when it is one
    chain: Optional[Chain] = None
    #: 1 where a vertex of the chain meets the boundary, else 0, in path order
    contacts: tuple[int, ...] = ()


def _components(graph: "VisibleGraph") -> list[_Component]:
    """Black components as in ``black_components``, each with its chain verdict.

    Each component is met first at its black of least creation rank, and
    walked once from there along each of its black links, through blacks
    with two black links, until an end, a branch vertex or the start comes
    back.  A path is the two walks joined, read from its end of lower rank,
    and comes with its Chain and boundary contacts; a branch or a cycle is
    listed in creation order with the reason it is no chain.
    """
    blacks = graph.blacks()
    neighbors = graph.neighbors
    # creation rank among the blacks, which doubles as the black set
    rank = {v: i for i, v in enumerate(blacks)}
    links = {v: rank.keys() & neighbors(v) for v in blacks}
    near = () if graph.boundary is None else neighbors(graph.boundary)
    seen: set[str] = set()
    components = []
    for v in blacks:
        if v in seen:
            continue
        arms = []
        branch, closed = len(links[v]) > 2, False
        for w in links[v]:
            arm, ahead = [v, w], links[w]
            while len(ahead) == 2:
                a, b = ahead
                step = b if a == arm[-2] else a
                if step == v:
                    closed = True  # round a cycle
                    break
                arm.append(step)
                ahead = links[step]
            branch = branch or len(ahead) > 2
            arms.append(arm)
        if branch or closed:
            comp, frontier = {v}, [v]
            while frontier:
                for w in links[frontier.pop()]:
                    if w not in comp:
                        comp.add(w)
                        frontier.append(w)
            ordered = tuple(sorted(comp, key=rank.__getitem__))
            reason = "is not a chain (branch vertex present)" if branch else "is not a simple path"
            components.append(_Component(ordered, f"black component {ordered} {reason}"))
            seen |= comp
            continue
        path = arms[1][:0:-1] + arms[0] if len(arms) == 2 else arms[0] if arms else [v]
        if rank[path[-1]] < rank[path[0]]:
            path.reverse()
        seen.update(path)
        path = tuple(path)
        contacts = tuple([int(u in near) for u in path]) if near else (0,) * len(path)
        components.append(_Component(path, None, Chain(path, tuple(map(graph.mark, path))), contacts))
    return components


def check_log_terminal(graph: "VisibleGraph") -> str | None:
    """None when every black component is a chain, else a description."""
    return next((comp.verdict for comp in _components(graph) if comp.verdict), None)


def _chain_components(graph: "VisibleGraph") -> list[_Component]:
    """The walk's components, every one a chain; raises NotChainError when one
    is not a path."""
    components = _components(graph)
    for comp in components:
        if comp.verdict is not None:
            raise NotChainError(comp.verdict)
    return components


def chains(graph: "VisibleGraph") -> list[Chain]:
    """Black components as Chain values; raises when one is not a path."""
    return [comp.chain for comp in _chain_components(graph)]


def solve_discrepancies(graph: "VisibleGraph") -> dict[str, Fraction]:
    """Exact solution of the discrepancy system, one entry per black vertex.

    Raises NotChainError when a black component is not a path, and
    ArithmeticError when the integer residual check fails.  Entries run
    chain by chain.
    """
    out: dict[str, Fraction] = {}
    for comp in _chain_components(graph):
        det, nums, _ = _chain_discrepancies(comp.chain.marks, comp.contacts)
        out.update(zip(comp.vertex_ids, [Fraction(num, det) for num in nums]))
    return out


@lru_cache(maxsize=8192)
def _chain_discrepancies(
    marks: tuple[int, ...], contacts: tuple[int, ...]
) -> tuple[int, tuple[int, ...], int]:
    """Determinant, discrepancy numerators and volume numerator of one
    chain (see the module docstring).

    ``contacts[j]`` is 1 when the j-th vertex meets the boundary, else 0;
    the j-th discrepancy is ``nums[j] / det`` and the chain's volume term
    is ``vol / det``.

    Bounds, which ``certify.glue`` relies on.  z = 1 - b solves M z = u,
    with u as in the module docstring.  So:

    - b = M^-1 (a - 2 + contacts) >= 0, as M^-1 is positive and every
      mark is at least 2: no numerator is negative;
    - b < 1 on a chain with at most one contact, when that contact is at
      an end: then u >= 0 and u != 0, so z > 0.  Every tail and inner
      run of an edge is such a chain;
    - row j read at b_j = 1 says the b of j's chain neighbours sum to
      2 - contacts[j].  So when every b is at most 1, a vertex with b = 1
      and no contact has two chain neighbours, both with b = 1.

    With two contacts, or one inside the chain, b may exceed 1.
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
    return det, tuple(nums), sum(num * (a - 2) for num, a in zip(nums, marks))


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
