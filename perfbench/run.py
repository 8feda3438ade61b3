"""Benchmark of the fourlines record searches.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the named workload runs as many whole
rounds as fit in ``--seconds`` (at least three) and the end-to-end
metrics are printed; a time is the sum over the operations of each
one's median time over the run's rounds.  With ``--trace 1`` it runs one
untraced round at each worker count and one traced round at one worker,
and the per-layer metrics are printed.  ``--workload all`` runs every
workload, each in a fresh process.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

No workload draws random input, so ``--seed`` changes nothing; it is
accepted so that every run states one.  Scratch output, the per-run
answers and the trace spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
#: set-up is timed this many times per run, spread over the run, and
#: reported as the median
SETUP_REPEATS = 20
#: every run makes at least this many rounds, so that each operation's
#: median is taken over at least as many passes
MIN_ROUNDS = 3
#: a child of ``--workload all`` that runs longer than this is stopped
CHILD_TIMEOUT_S = 900

PER_LAYER = (
    ("graph.canonical_form", ("calls", "self_s")),
    ("graph.normalized", ("calls", "self_s")),
    ("graph.insert", ("calls", "self_s")),
    ("graph.build", ("calls", "self_s")),
    ("graph.parse", ("calls", "self_s")),
    ("graph.serialize", ("calls", "self_s")),
    ("certify.certify", ("calls", "self_s")),
    ("certify.volume_lattice", ("calls", "self_s")),
    ("singularities.black_components", ("calls", "self_s")),
    ("singularities.solve_discrepancies", ("calls", "self_s")),
    ("search.edge_enumerate", ("calls", "self_s")),
    ("lattice.pairing", ("calls", "self_s")),
    ("lattice.class_of", ("calls", "self_s")),
    ("invisible.search_orthogonal", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    """Larger of this process's peak and its children's peak (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _setup_time(workload: str) -> float:
    """Wall time of a fresh interpreter that imports and prepares only."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-only"],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def _run_round(fn, jobs: int, tracer=None):
    from workloads import Round

    rnd = Round(tracer=tracer)
    gc.collect()  # the previous round's garbage is not this round's time
    t0 = time.perf_counter()
    fn(rnd, jobs, SCRATCH)
    return time.perf_counter() - t0, rnd


def _tally(rounds, workload: str) -> tuple[int, int, str]:
    """Count operations, mark answers that differ from the first round, checksum."""
    reference = [answer for _, answer, _ in rounds[0].ops]
    attempted = failed = 0
    for k, rnd in enumerate(rounds):
        if [answer for _, answer, _ in rnd.ops] != reference:
            for (label, answer, problems), want in zip(rnd.ops, reference):
                if answer != want:
                    problems.append(f"answer differs from that of the first pass (pass {k + 1})")
        for label, _, problems in rnd.ops:
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {workload} {label}: {'; '.join(problems)}", file=sys.stderr)
    blob = json.dumps([[label, answer] for label, answer, _ in rounds[0].ops], sort_keys=True)
    (SCRATCH / f"{workload}-answers.json").write_text(blob + "\n")
    return attempted, failed, hashlib.sha256(blob.encode()).hexdigest()[:16]


def _measure(workload: str, seconds: float) -> tuple[list, dict]:
    from workloads import WORKLOADS

    fn, jobs = WORKLOADS[workload]
    setup, walls, rounds = [], [], []
    start = time.perf_counter()
    while True:
        # set-up is timed between the rounds, in step with the run's clock,
        # so that its median spans the whole run
        due = SETUP_REPEATS * (time.perf_counter() - start) / seconds
        while len(setup) < min(max(1, due), SETUP_REPEATS):
            setup.append(_setup_time(workload))
        wall, rnd = _run_round(fn, jobs)
        walls.append(wall)
        rounds.append(rnd)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + wall > seconds:
            break  # the next round would not fit
    while len(setup) < SETUP_REPEATS:
        setup.append(_setup_time(workload))
    # Each operation at its median over the rounds, summed over the
    # operations: a burst of the neighbours' load that slows a few
    # operations of one round does not move the figure.
    wall_s = sum(statistics.median(t) for t in zip(*(r.op_wall for r in rounds)))
    search_s = sum(statistics.median(t) for t in zip(*(r.op_search_s for r in rounds)))
    metrics = {
        "wall_s": _metric(wall_s, "s"),
        "graphs_per_s": _metric(rounds[0].graphs / search_s, "graphs/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    print(f"rounds {len(rounds)} walls_s {' '.join(f'{w:.3f}' for w in walls)}")
    return rounds, metrics


def _measure_traced(workload: str) -> tuple[list, dict]:
    from tracer import Tracer
    from workloads import WORKLOADS

    fn, jobs = WORKLOADS[workload]
    walls = {}
    rounds = []
    for j in (jobs, 3 - jobs):
        walls[j], rnd = _run_round(fn, j)
        rounds.append(rnd)
    tracer = Tracer()
    missing = tracer.install()
    for name in missing:
        print(f"warning: trace target {name} not found; its metrics read 0", file=sys.stderr)
    try:
        traced_wall, rnd = _run_round(fn, 1, tracer)
    finally:
        tracer.uninstall()
    rounds.append(rnd)
    tracer.write(SCRATCH / f"{workload}-spans.tsv")

    summary = tracer.summary()
    metrics = {}
    for layer, kinds in PER_LAYER:
        calls, self_s = summary.get(layer, (0, 0.0))
        if "calls" in kinds:
            metrics[f"{layer}.calls"] = _metric(calls, "count")
        metrics[f"{layer}.self_s"] = _metric(self_s, "s")
    certify_calls = summary.get("certify.certify", (0, 0.0))[0]
    form_calls = summary.get("graph.canonical_form", (0, 0.0))[0]
    metrics["certify.certified_ratio"] = _metric(
        tracer.certified / certify_calls if certify_calls else 0.0, "ratio")
    metrics["search.self_s"] = _metric(summary.get("search.run_search", (0, 0.0))[1], "s")
    metrics["search.new_form_ratio"] = _metric(
        len(tracer.forms) / form_calls if form_calls else 0.0, "ratio")
    metrics["search.jobs2_speedup"] = _metric(walls[1] / walls[2], "ratio")
    metrics["invisible.candidates"] = _metric(rnd.candidates, "count")
    metrics["trace.overhead_s"] = _metric(traced_wall - walls[1], "s")
    print(f"walls_s jobs=1 {walls[1]:.3f} jobs=2 {walls[2]:.3f} traced {traced_wall:.3f}"
          f" spans {len(tracer.start)}")
    return rounds, metrics


def _run_one(args) -> int:
    if args.trace:
        rounds, metrics = _measure_traced(args.workload)
    else:
        rounds, metrics = _measure(args.workload, args.seconds)
    attempted, failed, checksum = _tally(rounds, args.workload)
    print(f"checksum {args.workload} {checksum}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    print(f"{args.workload} operations attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _run_all(args, names) -> int:
    """Every workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} printed no result (exit code {proc.returncode})", file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0, help="accepted and recorded; inputs are fixed")
    parser.add_argument("--seconds", type=float, default=60.0, help="length of the measured section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "fourlines" / "__init__.py").is_file():
        print(f"error: no fourlines sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # workloads and tracer import fourlines, so every import of them waits
    # until the checkout's sources are on the path
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    SCRATCH.mkdir(exist_ok=True)
    if args.setup_only:
        return 0
    if args.workload == "all":
        return _run_all(args, names)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
