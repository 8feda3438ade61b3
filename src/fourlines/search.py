"""Search for minimal-volume certified surfaces over four weighted lines.

Two modes.  The generic mode grows the six edge patterns one insertion
at a time up to a budget; it is exhaustive, slow, and serves as the
correctness oracle at small scale.  The CY mode builds final
configurations edge by edge: every edge carries an insertion pattern
whose final whites weigh exactly the total weight n (a "CY pattern",
enumerated through the Stern-Brocot structure of the edge), and the
assembly either keeps the boundary at weight 1 or steps exactly one
white up to n + 1.  Keeping the smallest certified volume reproduces the
record hunts at desk scale; the (1,2,3,5) families are finite, and
budgets 48 (interior) and 47 (boundary) assemble all of them.  A CY
search enumerates each edge once into its CY and one-step tables.

A form's one identity is its ``graph.canonical_key`` tuple, computed from
the weights, the boundary and the edge content.  The generic walk
deduplicates each new form on it.  The CY scan meets every form once per
member of its orbit under the weight- and boundary-preserving corner
relabellings, and counts a combination only if ``graph.least_reading``
finds that its first relabelling reads the least edge key: one member of
each orbit passes (the canonical-member rule of McKay's isomorph-free
generation), so the count is the number of distinct forms.  With one
relabelling, as whenever the four corner keys differ, every combination
passes untested.  Both modes hand each new form to ``_judge``, which
runs ``certify.glue`` on the summaries of its six edge patterns, without
building a graph.  Only the forms the glue certifies (one in ten on the
(1,2,3,5) record ladder, 15 of 4,042 in the generic (0,1,1,1) walk at
budget 8) are keyed by the CY scan, built from their keys and certified
in full, and certify must agree with the glue's volume and Picard rank
or the search raises ArithmeticError.

The generic mode is one depth-first walk in one process.  The CY mode
may fan out over worker processes: work is split into disjoint task
blocks, each returning its count of forms and its certified forms by
canonical key; the counts add and the certified dicts union, so the
output is identical for every worker count.  The workers form one pool
per process, of ``min(jobs, os.cpu_count())`` processes: the first
search that fans out imports the pool module (which loads
``multiprocessing``) and starts it, every later search of that size
reuses it (a search of another size replaces it, and one that fails
drops it, so the next starts afresh), and ``concurrent.futures`` joins
it when the interpreter exits; a worker whose owner process is gone
ends itself.  The CY tables are built once per search and handed to the
workers.  A task fixes one edge's pattern and is the first level of one
scan over the six edges; every level applies its pattern's corner
touches and insertions alike, and a combination is counted only if each
corner has the touches ``_corner_need`` asks; the generic walk prunes by
the same rule.  Both modes end in ``_result``, which builds the
least-volume forms from their keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Union

from .certify import EdgeSummary, SurfaceReport, certify, edge_summary, glue
from .graph import EDGE_PAIRS, VisibleGraph, canonical_key, corner_relabelings, least_reading

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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
        if self.total_weight <= 0:  # the weight test's c_v = w_v/n - 1 needs n > 0
            raise ValueError(f"total weight {self.total_weight} must be positive")

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
    if budget < 1 or wlo == whi == 0:
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
    if n <= 0:  # at n = 0 every mediant of two zero corners is a white at n: the tables never stop growing
        raise ValueError(f"total weight {n} must be positive")
    try:
        pats = _interval_patterns((1, 0), (0, 1), w_a, w_b, Fraction(n), int(max_insertions), steps)
    except RecursionError:  # one level per Stern-Brocot step: a lopsided ratio descends as deep as the budget
        msg = f"edge with corner weights {w_a} and {w_b}: budget {max_insertions} descends past the recursion limit"
        raise ValueError(msg) from None
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


# -- shared bookkeeping --------------------------------------------------

# a form's one identity is its canonical key; a certified form maps to
# its volume and Picard rank
Key = tuple[tuple, tuple]
Certified = dict[Key, tuple[Fraction, int]]


def _judge(
    weights,
    boundary_index: Optional[int],
    summaries: list[EdgeSummary],
    key_of: Callable[[], Key],
    certified: Certified,
) -> None:
    """Judge a new form by the glue on its edge summaries.  Only for a form
    the glue certifies is ``key_of()`` asked for its key; the form is built
    from it and certified in full, certify must agree with the glue on the
    verdict, the volume and the rank, and the form's volume and rank are
    then kept under the key."""
    verdict = glue(weights, boundary_index, summaries)
    if verdict.failed is not None:
        return
    key = key_of()
    report = certify(VisibleGraph.from_canonical_key(key))
    if not report.certified or (report.volume, report.rho) != (verdict.volume, verdict.rho):
        raise ArithmeticError(
            f"glue certified volume {verdict.volume}, rho {verdict.rho}; certify says "
            f"{report.status}, volume {report.volume}, rho {report.rho} for {key!r}"
        )
    certified[key] = (verdict.volume, verdict.rho)


def _result(certified: Certified, rho_filter: Optional[int], **counts: int) -> SearchResult:
    """The least-volume forms, built from their keys in ``repr`` order: the
    order of their ``canonical_form``, which numbers ``--out`` files.  The
    counters ``certified``, ``eligible`` and ``best`` follow ``counts``."""
    eligible = {key: vol for key, (vol, rho) in certified.items() if rho_filter is None or rho == rho_filter}
    vmin = min(eligible.values(), default=None)
    winners = sorted((key for key, vol in eligible.items() if vol == vmin), key=repr)
    best = [(g, certify(g)) for g in map(VisibleGraph.from_canonical_key, winners)]
    explored = {**counts, "certified": len(certified), "eligible": len(eligible), "best": len(best)}
    return SearchResult(best=best, explored=explored)


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: its module loads
    ``multiprocessing``, which a search that does not fan out never needs.
    It is kept as a module global, where ``_run_tasks`` looks it up."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _watch_owner() -> None:
    """Pool initializer: a daemon thread ends this worker within about a
    second of its parent process going away, for a worker whose owner was
    killed would otherwise wait for work forever.  The parent is the owner
    under the ``fork`` and ``spawn`` start methods, and under
    ``forkserver`` the server, which ends with the owner."""
    import threading
    import time

    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1)
        os._exit(1)

    threading.Thread(target=watch, name="owner-watch", daemon=True).start()


# The CY searches' one worker pool, as (size, pool); see ``_run_tasks``.
_pool: Optional[tuple[int, "ProcessPoolExecutor"]] = None


def _drop_pool(cancel_futures: bool = False) -> None:
    """Shut the cached pool down, waiting for its workers, and forget it."""
    global _pool
    if _pool is not None:
        pool = _pool[1]
        _pool = None
        pool.shutdown(wait=True, cancel_futures=cancel_futures)


def _run_tasks(worker, shared, tasks: list, jobs: int) -> tuple[int, Certified]:
    """Fan tasks out over processes; add the counts, union the certified dicts.

    Each call of ``worker`` gets ``(shared, chunk)`` and returns (count,
    certified) for its chunk.  Each form is counted and certified by
    exactly one task, so the sum and the union depend only on the union
    of tasks, never on the chunking, which is what makes the result
    worker-count independent.  With one task, one CPU or ``jobs`` 1 the
    tasks run inline as one chunk, and the pool module is never imported.
    Otherwise they are striped into ``min(jobs, len(tasks),
    os.cpu_count())`` chunks over the process's one pool of ``min(jobs,
    os.cpu_count())`` workers.  The first call that fans out starts the
    pool and later calls reuse it, workers and caches warm; a call of
    another size shuts the old pool down first.  Any exception while the
    pool runs (a worker's own error, a worker that died, an interrupt)
    shuts the pool down and drops it before it propagates, so the next
    call starts a fresh one.  ``concurrent.futures`` joins the pool at
    interpreter exit, and ``_watch_owner`` ends the workers of an owner
    that was killed.
    """
    global _pool
    count = 0
    certified: Certified = {}
    cpus = os.cpu_count() or 1
    stripes = max(1, min(jobs, len(tasks), cpus))
    if stripes == 1:
        results = [worker((shared, tasks))] if tasks else []
    else:
        size = min(jobs, cpus)
        if _pool is not None and _pool[0] != size:
            _drop_pool()
        if _pool is None:
            pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
            _pool = (size, pool_class(max_workers=size, initializer=_watch_owner))
        try:
            results = list(_pool[1].map(worker, [(shared, tasks[i::stripes]) for i in range(stripes)]))
        except BaseException:
            _drop_pool(cancel_futures=True)
            raise
    for part_count, part_certified in results:
        count += part_count
        certified.update(part_certified)
    return count, certified


# -- generic mode ---------------------------------------------------------


def _corner_need(weights, boundary_index: Optional[int]) -> list[int]:
    """The touches each corner needs, its mark plus one: none for the boundary,
    2 for a corner weighing n or more, which may stay white, else 3."""
    n = sum(weights)
    return [0 if c == boundary_index else 2 if weights[c] >= n else 3 for c in range(4)]


def _mark_deficit(weights, need: list[int], summaries) -> int:
    """Mark increments a form lacks before it could certify (an insertion
    adds two): the touches of ``need`` each corner has not got, and one for
    each interior white lighter than n, which must turn black."""
    n = sum(weights)
    counts = [0, 0, 0, 0]
    deficit = 0
    for (i, j), s in zip(EDGE_PAIRS, summaries):
        counts[i] += s.touches[0]
        counts[j] += s.touches[1]
        deficit += sum(m1 * weights[i] + m2 * weights[j] < n for m1, m2 in s.whites)
    return deficit + sum(max(0, k - c) for k, c in zip(need, counts))


def generic_search(config: SearchConfig) -> SearchResult:
    """Exhaustive insertion-tree search modulo canonical-key dedup.

    One depth-first walk with one ``seen`` set; ``config.jobs`` has no
    effect.  A child inserts the mediant of two neighbours on one edge's
    path, (1, 0) to (0, 1).  Pruning and the children of a form depend
    only on its canonical key, so the forms reached do not depend on walk order.
    """
    if config.mode != GENERIC:
        raise ValueError("generic_search needs mode='generic'")
    weights, b_index = config.weights, config.boundary_index
    need = _corner_need(weights, b_index)
    seen: set[Key] = set()
    certified: Certified = {}
    stack: list[tuple[EdgeSummary, ...]] = []

    def reach(summaries: tuple[EdgeSummary, ...]) -> None:
        key = canonical_key(weights, b_index, {pair: s.pattern for pair, s in zip(EDGE_PAIRS, summaries)})
        if key not in seen:
            seen.add(key)
            _judge(weights, b_index, summaries, lambda: key, certified)
            stack.append(summaries)

    reach((edge_summary(()),) * 6)
    while stack:
        summaries = stack.pop()
        remaining = config.max_blowups - sum(len(s.pattern) for s in summaries)
        if remaining <= 0 or _mark_deficit(weights, need, summaries) > 2 * remaining:
            continue
        for e, s in enumerate(summaries):
            path = ((1, 0), *s.pattern, (0, 1))
            for k in range(len(path) - 1):
                (a1, a2), (b1, b2) = path[k], path[k + 1]
                child = edge_summary(s.pattern[:k] + ((a1 + b1, a2 + b2),) + s.pattern[k:])
                reach(summaries[:e] + (child,) + summaries[e + 1 :])
    return _result(certified, config.rho_filter, explored=len(seen))


# -- CY step-up mode ------------------------------------------------------


def _cy_tables(config: SearchConfig):
    """Per edge, the summaries of its CY patterns and its bare one-step patterns.

    Each edge is enumerated once; the tables go to every worker.  A
    one-step pattern is read only by the task that fixes it, which
    summarises it, so none is summarised under a unit boundary.
    """
    n, w = config.total_weight, config.weights
    cy, step = {}, {}
    for i, j in EDGE_PAIRS:
        cy_patterns, step[(i, j)] = _edge_tables(w[i], w[j], n, config.max_blowups, 1)
        cy[(i, j)] = [edge_summary(p) for p in cy_patterns]
    return cy, step


def _cy_case(config: SearchConfig) -> int:
    """3 = keep the unit boundary and stay CY; 2 = step one white up."""
    if config.boundary:
        w0 = config.weights[0]
        if w0 == 1:
            return 3
        if w0 == 0:
            return 2
        raise ValueError("cy_step_up mode needs boundary weight 0 or 1")
    return 2


def _cy_worker(args) -> tuple[int, Certified]:
    """The number of forms among the tasks' combinations, and those of them
    that certify, by canonical key."""
    (config, cy, step), tasks = args
    weights = config.weights
    b_index = config.boundary_index
    unit_boundary = _cy_case(config) == 3
    need = _corner_need(weights, b_index)
    least, relabelings = corner_relabelings(weights, b_index)
    assembled = 0
    certified: Certified = {}
    # the summary of the pattern on each edge, in EDGE_PAIRS order
    chosen: list[Optional[EdgeSummary]] = [None] * 6

    def read_key() -> Key:
        """The key of the combination in ``chosen`` under one relabelling."""
        return least, least_reading(relabelings, [s.pattern for s in chosen])[0]

    def scan(levels: list[tuple[int, list[EdgeSummary]]], k: int, counts: list[int], left: int) -> None:
        nonlocal assembled
        if k == len(levels):
            if all(map(int.__ge__, counts, need)):
                if len(relabelings) == 1:  # each combination is its own orbit
                    key_of = read_key
                else:  # count the one member of the orbit that its first relabelling reads least
                    reading, first = least_reading(relabelings, [s.pattern for s in chosen])
                    if not first:
                        return
                    key_of = lambda: (least, reading)
                assembled += 1
                _judge(weights, b_index, chosen, key_of, certified)
            return
        e, table = levels[k]
        i, j = EDGE_PAIRS[e]
        for summary in table:
            size = len(summary.pattern)
            if size > left:
                break  # patterns are sorted by size
            ti, tj = summary.touches
            counts[i] += ti
            counts[j] += tj
            chosen[e] = summary
            scan(levels, k + 1, counts, left - size)
            counts[i] -= ti
            counts[j] -= tj

    for e, idx in tasks:
        # a task (e, k) fixes edge e to the k-th pattern of edge 0's CY
        # table under a unit boundary, else of the edge's one-step table
        edge = EDGE_PAIRS[e]
        fixed = cy[edge][idx] if unit_boundary else edge_summary(step[edge][idx])
        levels = [(e, [fixed])] + [(f, cy[EDGE_PAIRS[f]]) for f in range(6) if f != e]
        scan(levels, 0, [0, 0, 0, 0], config.max_blowups)
    return assembled, certified


def cy_step_up_search(config: SearchConfig) -> SearchResult:
    """Assemble one CY pattern per edge, stepping one white up if needed.

    With a boundary of weight 1 every edge stays CY (the volume is then
    carried by the boundary excess); otherwise exactly one edge uses a
    one-step pattern whose unique off-CY white weighs n + 1.
    """
    if config.mode != CY_STEP_UP:
        raise ValueError("cy_step_up_search needs mode='cy_step_up'")
    case = _cy_case(config)
    cy, step = _cy_tables(config)
    if case == 3:
        tasks = [(0, k) for k in range(len(cy[EDGE_PAIRS[0]]))]
    else:
        tasks = [(e, k) for e in range(6) for k in range(len(step[EDGE_PAIRS[e]]))]
    assembled, certified = _run_tasks(_cy_worker, (config, cy, step), tasks, config.jobs)
    edge_patterns = sum(len(v) for v in cy.values()) + sum(len(v) for v in step.values())
    return _result(certified, config.rho_filter, edge_patterns=edge_patterns, tasks=len(tasks), assembled=assembled)


def run_search(config: SearchConfig) -> SearchResult:
    if config.mode == GENERIC:
        return generic_search(config)
    return cy_step_up_search(config)
