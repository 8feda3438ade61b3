"""The benchmark workloads and the checks on their answers.

Each workload is a fixed enumeration: nothing is drawn at random, so
every round of a workload runs the same operations on the same inputs.
An operation is one search call, or one orthogonal-class hunt, together
with the checks on what it returned; it fails if it raises or if any
check fails.  Every operation also returns its answer, a JSON-able
value from which the run checksum is made and which later rounds (and
runs at another worker count) must reproduce exactly.

The expected values come from the paper (the record volumes 1/48983,
1/60 and 1/462 and their singularity data) or from properties every
answer must have (re-certification, the two volume computations
agreeing, a minimum that does not grow with the budget, the Hodge index
theorem), never from a stored earlier output.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable, Optional

import fourlines
import fourlines.cli
from tracer import Tracer


@dataclass
class Round:
    """Outcome of one round of a workload."""

    #: (label, answer, problems) per operation, in a fixed order
    ops: list[tuple[str, object, list[str]]] = field(default_factory=list)
    #: graphs assembled or explored, summed over the search calls
    graphs: int = 0
    #: seconds spent inside the search calls
    search_s: float = 0.0
    #: orthogonal candidate classes found
    candidates: int = 0
    #: wall seconds of each operation, checks included, in the order of ``ops``
    op_wall: list[float] = field(default_factory=list)
    #: seconds of each operation spent inside search calls
    op_search_s: list[float] = field(default_factory=list)
    #: when set, each operation is a root span of this tracer
    tracer: Optional[Tracer] = None

    def op(self, label: str, body: Callable[[list[str]], object]) -> None:
        """Run one operation; ``body`` appends to the problem list it is given."""
        problems: list[str] = []
        span = self.tracer.open("bench.op") if self.tracer else None
        search_s = self.search_s
        t0 = time.perf_counter()
        try:
            answer = body(problems)
        except Exception as exc:  # any raise is a failed operation, not a crash
            answer = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            self.op_wall.append(time.perf_counter() - t0)
            self.op_search_s.append(self.search_s - search_s)
            if span is not None:
                self.tracer.close(span)
        self.ops.append((label, answer, problems))


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _search_answer(minimum, explored: dict, forms) -> list:
    return [str(minimum), sorted(explored.items()), sorted(forms)]


def _timed_search(rnd: Round, config: "fourlines.SearchConfig"):
    t0 = time.perf_counter()
    result = fourlines.run_search(config)
    rnd.search_s += time.perf_counter() - t0
    return result


# -- cy-record-b30, cy-ladder-b22 ------------------------------------------

#: 1/48983 = 1/(11*61*73), the interior record
CY_RECORD = Fraction(1, 11 * 61 * 73)
#: the smallest budget at which the interior search of (1,2,3,5) reaches it
CY_RECORD_BUDGET = 22
#: Picard rank -> sorted determinants of the singular points of the minimisers
CY_RECORD_DETS = {2: [22, 61, 73], 3: [11, 11, 61, 73]}


def cy_record(budgets: tuple[int, ...], rnd: Round, jobs: int, scratch: Path) -> None:
    """Interior searches of (1,2,3,5), one per budget, through the command line's ``main``.

    The minimum may not grow with the budget, since a larger budget
    explores a superset; from ``CY_RECORD_BUDGET`` on it is the record.
    """
    out = Path(tempfile.mkdtemp(prefix="cy-", dir=scratch))
    previous: list[Fraction] = []  # minimum of the last search that gave one
    try:
        for budget in budgets:
            argv = ["search", "--weights", "1,2,3,5", "--max-blowups", str(budget),
                    "--jobs", str(jobs), "--out", str(out)]

            def body(problems: list[str], argv=argv, budget=budget):
                for old in out.glob("min-*.graph"):
                    old.unlink()
                stdout = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(stdout):
                    code = fourlines.cli.main(argv)
                rnd.search_s += time.perf_counter() - t0
                _expect(problems, code == 0, f"exit code {code}")
                explored: dict[str, int] = {}
                minimum = None
                for line in stdout.getvalue().splitlines():
                    key, _, value = line.partition(" ")
                    if key == "minimum":
                        minimum = Fraction(value)
                    elif key != "wrote":
                        explored[key] = int(value)
                rnd.graphs += explored.get("assembled", 0)
                _expect(problems, minimum is not None and minimum > 0, f"minimum {minimum}")
                if budget >= CY_RECORD_BUDGET:
                    _expect(problems, minimum == CY_RECORD, f"minimum {minimum}, want {CY_RECORD}")
                if previous and minimum is not None:
                    _expect(problems, minimum <= previous[-1],
                            f"minimum {minimum} above {previous[-1]} at a smaller budget")
                if minimum is not None:
                    previous.append(minimum)
                files = sorted(out.glob("min-*.graph"))
                _expect(problems, len(files) == explored.get("best"),
                        f"{len(files)} graph files for best={explored.get('best')}")
                forms = []
                dets: dict[int, set[tuple[int, ...]]] = {}
                for path in files:
                    g = fourlines.parse(path.read_text())
                    report = fourlines.certify(g)
                    forms.append(g.canonical_form())
                    _expect(problems, report.certified and report.volume == minimum,
                            f"{path.name} re-certifies to {report.status} {report.volume}")
                    dets.setdefault(report.rho, set()).add(
                        tuple(sorted(det for _, det in report.singularities)))
                if minimum == CY_RECORD:
                    # every minimiser is one of the paper's two kinds; at
                    # budget 30 both kinds are there
                    want = {rho: {tuple(d)} for rho, d in CY_RECORD_DETS.items()}
                    kinds_ok = all(found <= want.get(rho, set()) for rho, found in dets.items())
                    if budget >= 30:
                        kinds_ok = dets == want
                    _expect(problems, bool(dets) and kinds_ok, f"ranks/determinants {dets}, want {want}")
                return _search_answer(minimum, explored, forms)

            rnd.op(f"cy-record-b{budget}", body)
    finally:
        shutil.rmtree(out, ignore_errors=True)


# -- generic-b8 -------------------------------------------------------------


def generic_b8(rnd: Round, jobs: int, scratch: Path) -> None:
    """Exhaustive walk from (0,1,1,1) with boundary, budget 8."""
    config = fourlines.SearchConfig(weights=(0, 1, 1, 1), boundary=True, max_blowups=8,
                                    mode=fourlines.GENERIC, jobs=jobs)

    def body(problems: list[str]):
        result = _timed_search(rnd, config)
        rnd.graphs += result.explored["explored"]
        _expect(problems, result.minimum == Fraction(1, 60), f"minimum {result.minimum}, want 1/60")
        _expect(problems, len(result.best) == result.explored["best"] > 0, "best count")
        for g, report in result.best:
            _expect(problems, report.certified and report.epsilon1 == Fraction(13, 60),
                    f"minimiser {report.status} epsilon1 {report.epsilon1}, want 13/60")
        return _search_answer(result.minimum, result.explored, result.forms())

    rnd.op("generic-b8", body)


# -- boundary-sweep-b12, boundary-sweep-b16 --------------------------------

#: (1,2,3,5) gives 1/462 with epsilon1 = 1/42 and delta1 = 1/11
SWEEP_RECORD = ((1, 2, 3, 5), Fraction(1, 462), Fraction(1, 42), Fraction(1, 11))
SWEEP_VECTORS = tuple(
    (1, a, b, c) for a in range(1, 7) for b in range(a, 7) for c in range(b, 7)
)
HUNT_D_MAX = 8


def _check_candidate(problems: list[str], cand, d_max: int) -> tuple:
    """Plain-integer checks on one orthogonal class D = d*H - sum(m_i F_i).

    D.K = sum(m) - 3d with K = -3H + sum(F).  A primitive class of a
    smooth rational curve has D^2 + D.K = -2 and gcd(d, m...) = 1; a class
    orthogonal to a big and nef class is negative, D^2 < 0 (Hodge index).
    """
    h, e = cand.divisor.h, cand.divisor.e
    d = int(h)
    ms = [int(-v) for v in e.values()]
    _expect(problems, h == d and all(-v == int(-v) for v in e.values()), "non-integral class")
    self_int = d * d - sum(m * m for m in ms)
    k_int = sum(ms) - 3 * d
    _expect(problems, 1 <= d <= d_max and all(0 < m <= 2 * d for m in ms), f"d={d} m={ms} outside the box")
    _expect(problems, (self_int, k_int) == (cand.self_int, cand.k_int),
            f"D^2, D.K = {self_int}, {k_int}; reported {cand.self_int}, {cand.k_int}")
    _expect(problems, self_int + k_int == -2, f"D^2 + D.K = {self_int + k_int}")
    _expect(problems, self_int < 0, f"D^2 = {self_int} is not negative")
    _expect(problems, gcd(d, *ms) == 1, f"gcd(d, m) = {gcd(d, *ms)}")
    return (d, tuple(sorted(e.items())))


def boundary_sweep(budget: int, rnd: Round, jobs: int, scratch: Path) -> None:
    """56 boundary CY searches at one budget, then a hunt on each big and nef minimiser."""
    hunts = []
    for weights in SWEEP_VECTORS:
        config = fourlines.SearchConfig(weights=weights, boundary=True, max_blowups=budget, jobs=jobs)

        def body(problems: list[str], config=config):
            result = _timed_search(rnd, config)
            rnd.graphs += result.explored["assembled"]
            for g, report in result.best:
                b = fourlines.solve_discrepancies(g)
                _expect(problems, report.certified and report.volume == result.minimum > 0,
                        f"minimiser {report.status} {report.volume} vs minimum {result.minimum}")
                lat = fourlines.volume_lattice(g, b)
                _expect(problems, lat == report.volume, f"volume_lattice {lat} != volume {report.volume}")
                if report.status == fourlines.BIG_NEF:
                    hunts.append((config.weights, g, b))
            rec, vol, eps, dlt = SWEEP_RECORD
            if tuple(config.weights) == rec:
                _expect(problems, result.minimum == vol, f"minimum {result.minimum}, want {vol}")
                for _, report in result.best:
                    _expect(problems, (report.epsilon1, report.delta1) == (eps, dlt)
                            and report.epsilon1 * report.delta1 == report.volume,
                            f"epsilon1 {report.epsilon1} delta1 {report.delta1}")
            return _search_answer(result.minimum, result.explored, result.forms())

        rnd.op("search " + ",".join(map(str, weights)), body)

    for weights, g, b in hunts:
        def hunt(problems: list[str], g=g, b=b):
            found = fourlines.search_orthogonal(g, b, HUNT_D_MAX)
            rnd.candidates += len(found)
            return [g.canonical_form(), sorted(
                str(_check_candidate(problems, cand, HUNT_D_MAX)) for cand in found)]

        rnd.op("hunt " + ",".join(map(str, weights)), hunt)


#: name -> (round function, worker count of the untraced run)
WORKLOADS = {
    "cy-ladder-b22": (partial(cy_record, (16, 18, 20, CY_RECORD_BUDGET)), 2),
    "boundary-sweep-b12": (partial(boundary_sweep, 12), 1),
    "cy-record-b30": (partial(cy_record, (30,)), 2),
    "generic-b8": (generic_b8, 1),
    "boundary-sweep-b16": (partial(boundary_sweep, 16), 1),
}
