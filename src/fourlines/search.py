"""Search for minimal-volume certified surfaces over four weighted lines.

Two modes.  The generic mode walks the full insertion tree up to a
budget, deduplicating by canonical form; it is exhaustive, slow, and
serves as the correctness oracle at small scale.  The CY mode builds
final configurations edge by edge: every edge carries an insertion
pattern whose final whites weigh exactly the total weight n (a "CY
pattern", enumerated through the Stern-Brocot structure of the edge),
and the assembly either keeps the boundary at weight 1 or steps exactly
one white up to n + 1.  Certifying the assembled graphs and keeping the
smallest volume reproduces the record hunts at desk scale.  A CY search
enumerates each edge once, allowing one step, and splits that pass into
the edge's CY and one-step lists.

The generic mode is one depth-first walk in one process.  The CY mode
may fan out over worker processes: work is split into disjoint task
blocks whose results merge as plain set unions keyed by canonical form,
so the output is identical for every worker count.  The CY tables are
built once per search and handed to every worker.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .certify import SurfaceReport, certify
from .graph import EDGE_PAIRS, VisibleGraph, new_base, parse, serialize

__all__ = [
    "GENERIC",
    "CY_STEP_UP",
    "SearchConfig",
    "SearchResult",
    "cy_edge_enumerate",
    "step_edge_enumerate",
    "generic_search",
    "cy_step_up_search",
    "run_search",
]

Rational = Union[int, Fraction]
Pair = tuple[int, int]
Pattern = tuple[Pair, ...]

GENERIC = "generic"
CY_STEP_UP = "cy_step_up"

_CORNERS = ("L0", "L1", "L2", "L3")


@dataclass(frozen=True)
class SearchConfig:
    """Immutable description of one search run.

    ``boundary`` marks the first corner (the one carrying ``weights[0]``)
    as the boundary line.  ``rho_filter`` restricts the minima to
    reports with that Picard rank; everything is still explored.
    """

    weights: tuple[Fraction, Fraction, Fraction, Fraction]
    boundary: bool = False
    max_blowups: int = 0
    mode: str = CY_STEP_UP
    rho_filter: Optional[int] = None
    jobs: int = 1

    def __post_init__(self):
        if len(self.weights) != 4:
            raise ValueError("need four weights")
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if self.max_blowups < 0:
            raise ValueError("max_blowups must be nonnegative")
        if self.mode not in (GENERIC, CY_STEP_UP):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    @property
    def boundary_index(self) -> Optional[int]:
        return 0 if self.boundary else None


@dataclass
class SearchResult:
    """Minima plus exploration counters; fully deterministic per config."""

    best: list[tuple[VisibleGraph, SurfaceReport]]
    explored: dict[str, int]

    @property
    def minimum(self) -> Optional[Fraction]:
        return self.best[0][1].volume if self.best else None

    def forms(self) -> list[str]:
        return [g.canonical_form() for g, _ in self.best]


# -- edge pattern enumeration -------------------------------------------


def _interval_patterns(
    lo: Pair,
    hi: Pair,
    wlo: Fraction,
    whi: Fraction,
    n: Fraction,
    budget: int,
    steps: int,
) -> list[tuple[Pattern, int]]:
    """All insertion patterns inside one open Stern-Brocot interval.

    A pattern is reported as (pairs, steps_used) with parents listed
    before children.  Whites (pairs whose sub-intervals stay empty)
    must weigh exactly n, or n + 1 for at most ``steps`` of them.

    Pruning is exact: inserting the mediant forces some white in its
    subtree to weigh at least the mediant's weight, because the
    multiplicity pairs only grow downward.  For the same reason an
    interval whose two ends weigh 0 holds only whites of weight 0.
    """
    out: list[tuple[Pattern, int]] = [((), 0)]
    if budget < 1 or (wlo == whi == 0 and n > 0):
        return out
    wm = wlo + whi
    if wm > n + steps:
        return out
    med = (lo[0] + hi[0], lo[1] + hi[1])
    if wm == n:
        out.append(((med,), 0))
    elif steps >= 1 and wm == n + 1:
        out.append(((med,), 1))
    for left, s1 in _interval_patterns(lo, med, wlo, wm, n, budget - 1, steps):
        rest = budget - 1 - len(left)
        for right, s2 in _interval_patterns(med, hi, wm, whi, n, rest, steps - s1):
            if not left and not right:
                continue  # the bare mediant was handled as a white above
            out.append(((med,) + left + right, s1 + s2))
    return out


def _pattern_key(pattern: Pattern):
    return (len(pattern), sorted(pattern))


def _edge_tables(
    w_a: Rational, w_b: Rational, n: Rational, max_insertions: int, steps: int
) -> tuple[list[Pattern], list[Pattern]]:
    """One enumeration of an edge, split into its CY and one-step lists.

    A 0-step pattern never holds a mediant heavier than n, so the
    ``steps=1`` pass contains every CY pattern the ``steps=0`` pass finds.
    """
    w_a, w_b = Fraction(w_a), Fraction(w_b)
    if w_a < 0 or w_b < 0:
        raise ValueError("corner weights must be nonnegative")
    pats = _interval_patterns((1, 0), (0, 1), w_a, w_b, Fraction(n), int(max_insertions), steps)
    return tuple(sorted((p for p, s in pats if s == used), key=_pattern_key) for used in (0, 1))


def cy_edge_enumerate(
    w_a: Rational, w_b: Rational, n: Rational, max_insertions: int
) -> list[Pattern]:
    """Insertion patterns on one edge whose whites all weigh exactly n.

    The corners weigh w_a and w_b; an interior vertex with multiplicity
    pair (m1, m2) weighs m1*w_a + m2*w_b.  The empty pattern (no whites
    at all) is always included.  Output is sorted by size.
    """
    return _edge_tables(w_a, w_b, n, max_insertions, 0)[0]


def step_edge_enumerate(
    w_a: Rational, w_b: Rational, n: Rational, max_insertions: int
) -> list[Pattern]:
    """Patterns with exactly one white at n + 1 and every other at n."""
    return _edge_tables(w_a, w_b, n, max_insertions, 1)[1]


def _corner_touches(pattern: Pattern) -> tuple[int, int]:
    """How often the two edge corners appear as insertion parents.

    The corner (1, 0) is a creation parent of exactly the pairs (k, 1),
    and the corner (0, 1) of exactly the pairs (1, k).
    """
    return sum(m2 == 1 for _, m2 in pattern), sum(m1 == 1 for m1, _ in pattern)


# -- shared bookkeeping --------------------------------------------------

# payload per certified canonical form: volume numerator/denominator,
# Picard rank, and the serialized normalized representative
Payload = tuple[int, int, int, str]


def _record(graph: VisibleGraph, form: str, certified: dict[str, Payload]) -> None:
    report = certify(graph)
    if not report.certified:
        return
    normal = graph.normalized()
    certified[form] = (
        report.volume.numerator,
        report.volume.denominator,
        report.rho,
        serialize(normal),
    )


def _select_best(
    certified: dict[str, Payload], rho_filter: Optional[int]
) -> tuple[list[tuple[VisibleGraph, SurfaceReport]], int]:
    eligible = {
        form: payload
        for form, payload in certified.items()
        if rho_filter is None or payload[2] == rho_filter
    }
    if not eligible:
        return [], 0
    vmin = min(Fraction(p[0], p[1]) for p in eligible.values())
    winners = sorted(
        form for form, p in eligible.items() if Fraction(p[0], p[1]) == vmin
    )
    best = []
    for form in winners:
        g = parse(eligible[form][3])
        best.append((g, certify(g)))
    return best, len(eligible)


def _run_tasks(worker, shared, tasks: list, jobs: int) -> tuple[set, dict]:
    """Fan tasks out over processes; merge by plain union.

    Each call of ``worker`` gets ``(shared, chunk)``.  The merged sets
    depend only on the union of tasks, never on the chunking, which is
    what makes the result worker-count independent.  The pool never has
    more workers than tasks or CPUs.
    """
    seen: set[str] = set()
    certified: dict[str, Payload] = {}
    jobs = max(1, min(jobs, len(tasks), os.cpu_count() or 1))
    if jobs == 1:
        chunks = [tasks] if tasks else []
        results = [worker((shared, chunk)) for chunk in chunks]
    else:
        chunks = [tasks[i::jobs] for i in range(jobs)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, [(shared, c) for c in chunks]))
    for part_seen, part_certified in results:
        seen |= part_seen
        certified.update(part_certified)
    return seen, certified


# -- generic mode ---------------------------------------------------------


def _mark_deficit(graph: VisibleGraph, n: Fraction) -> int:
    """Mark increments still required before the graph could certify.

    A vertex of weight below n must turn black (mark 2); one at or
    above n may stay white (mark 1).  Each insertion raises existing
    marks by exactly two in total, giving an admissible lower bound on
    the insertions left.
    """
    need = 0
    for v in graph.vertices:
        if v == graph.boundary:
            continue
        target = 1 if graph.weight(v) >= n else 2
        m = graph.mark(v)
        if m < target:
            need += target - m
    return need


def generic_search(config: SearchConfig) -> SearchResult:
    """Exhaustive insertion-tree search modulo canonical-form dedup.

    One depth-first walk with one ``seen`` set; ``config.jobs`` has no
    effect.  Pruning and the children of a graph depend only on its
    canonical form, so the forms reached do not depend on walk order.
    """
    if config.mode != GENERIC:
        raise ValueError("generic_search needs mode='generic'")
    base = new_base(config.weights, boundary=config.boundary_index)
    n = config.total_weight
    budget = config.max_blowups
    form = base.canonical_form()
    seen = {form}
    certified: dict[str, Payload] = {}
    _record(base, form, certified)
    stack = [base]
    while stack:
        g = stack.pop()
        remaining = budget - g.blowups
        if remaining <= 0 or _mark_deficit(g, n) > 2 * remaining:
            continue
        for a, b in g.adjacent_pairs():
            h = g.insert(a, b, f"n{g.blowups}")
            fh = h.canonical_form()
            if fh in seen:
                continue
            seen.add(fh)
            _record(h, fh, certified)
            stack.append(h)
    best, eligible = _select_best(certified, config.rho_filter)
    return SearchResult(
        best=best,
        explored={
            "explored": len(seen),
            "certified": len(certified),
            "eligible": eligible,
            "best": len(best),
        },
    )


# -- CY step-up mode ------------------------------------------------------


def _cy_tables(config: SearchConfig):
    """Per-edge CY and one-step pattern lists, plus corner touch counts.

    Each edge is enumerated once; the tables go to every worker.
    """
    n, w = config.total_weight, config.weights
    cy, step = {}, {}
    for i, j in EDGE_PAIRS:
        cy[(i, j)], step[(i, j)] = _edge_tables(w[i], w[j], n, config.max_blowups, 1)
    touches = {edge: [_corner_touches(p) for p in pats] for edge, pats in cy.items()}
    return cy, step, touches


def _cy_case(config: SearchConfig) -> int:
    """3 = keep the unit boundary and stay CY; 2 = step one white up."""
    if config.total_weight == 0:
        # no white can then reach n + 1 = 1, and every mediant is CY
        raise ValueError("cy_step_up mode needs a nonzero total weight")
    if config.boundary:
        w0 = config.weights[0]
        if w0 == 1:
            return 3
        if w0 == 0:
            return 2
        raise ValueError("cy_step_up mode needs boundary weight 0 or 1")
    return 2


def _cy_worker(args) -> tuple[set[str], dict[str, Payload]]:
    (config, cy, step, touches), tasks = args
    weights = config.weights
    n = config.total_weight
    budget = config.max_blowups
    b_index = config.boundary_index
    bd = None if b_index is None else _CORNERS[b_index]
    seen: set[str] = set()
    certified: dict[str, Payload] = {}

    def corner_ok(counts) -> bool:
        for c in range(4):
            if c == b_index:
                continue
            mark = -1 + counts[c]
            if mark <= 0:
                return False
            if mark == 1 and weights[c] < n:
                return False
        return True

    def finish(patterns: dict[Pair, Pattern], counts) -> None:
        if not corner_ok(counts):
            return
        g = VisibleGraph.from_edge_content(_CORNERS, weights, bd, patterns)
        form = g.canonical_form()
        if form in seen:
            return
        seen.add(form)
        _record(g, form, certified)

    def scan(free: list[Pair], k: int, patterns, counts, left: int) -> None:
        if k == len(free):
            finish(patterns, counts)
            return
        edge = free[k]
        i, j = edge
        for idx, pat in enumerate(cy[edge]):
            size = len(pat)
            if size > left:
                break  # patterns are sorted by size
            ti, tj = touches[edge][idx]
            counts[i] += ti
            counts[j] += tj
            patterns[edge] = pat
            scan(free, k + 1, patterns, counts, left - size)
            counts[i] -= ti
            counts[j] -= tj
        patterns.pop(edge, None)

    for special, idx in tasks:
        counts = [0, 0, 0, 0]
        if special is None:
            edge = EDGE_PAIRS[0]
            fixed = cy[edge][idx]
        else:
            edge = EDGE_PAIRS[special]
            fixed = step[edge][idx]
        ti, tj = _corner_touches(fixed)
        counts[edge[0]] += ti
        counts[edge[1]] += tj
        free = [e for e in EDGE_PAIRS if e != edge]
        scan(free, 0, {edge: fixed}, counts, budget - len(fixed))
    return seen, certified


def cy_step_up_search(config: SearchConfig) -> SearchResult:
    """Assemble one CY pattern per edge, stepping one white up if needed.

    With a boundary of weight 1 every edge stays CY (the volume is then
    carried by the boundary excess); otherwise exactly one edge uses a
    one-step pattern whose unique off-CY white weighs n + 1.
    """
    if config.mode != CY_STEP_UP:
        raise ValueError("cy_step_up_search needs mode='cy_step_up'")
    case = _cy_case(config)
    cy, step, touches = _cy_tables(config)
    if case == 3:
        tasks = [(None, k) for k in range(len(cy[EDGE_PAIRS[0]]))]
    else:
        tasks = [(e, k) for e in range(6) for k in range(len(step[EDGE_PAIRS[e]]))]
    seen, certified = _run_tasks(_cy_worker, (config, cy, step, touches), tasks, config.jobs)
    best, eligible = _select_best(certified, config.rho_filter)
    return SearchResult(
        best=best,
        explored={
            "edge_patterns": sum(len(v) for v in cy.values())
            + sum(len(v) for v in step.values()),
            "tasks": len(tasks),
            "assembled": len(seen),
            "certified": len(certified),
            "eligible": eligible,
            "best": len(best),
        },
    )


def run_search(config: SearchConfig) -> SearchResult:
    if config.mode == GENERIC:
        return generic_search(config)
    return cy_step_up_search(config)
