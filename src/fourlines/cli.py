"""Command-line front end.

Subcommands:

  verify        certify a graph file and print the report (--json for JSON)
  search        hunt for minimal-volume certified surfaces
  tsurf         closed forms A, B1, B2, K^2 for a T-surface quadruple
  hypersurface  K^2 of a degree-d hypersurface in weighted projective space
  bound         effective lower bound for log10 of the minimal volume
  invisible     boxed Picard-lattice hunt for orthogonal curve classes

Exit codes: 0 on success (and for certified graphs), 2 for a graph that
fails certification, 1 for usage or input errors.  All rational output
is exact p/q; only `bound` prints a decimal.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import graph as graphmod
from .certify import certify
from .closed_forms import (
    effective_lower_bound_log10,
    t_surface,
    weighted_hypersurface_k2,
)
from .invisible import D_MAX_LIMIT, search_orthogonal, support, visible_intersections
from .search import CY_STEP_UP, GENERIC, SearchConfig, run_search
from .singularities import solve_discrepancies

__all__ = ["main"]

_MODES = {"generic": GENERIC, "cy": CY_STEP_UP}


def _fraction(text: str) -> Fraction:
    try:
        return graphmod.parse_weight(text)
    except graphmod.FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _weights(text: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated weights")
    return tuple(_fraction(p.strip()) for p in parts)


def _print_report(report, stream=None) -> None:
    stream = sys.stdout if stream is None else stream
    print(f"status    {report.status}", file=stream)
    print(f"volume    {report.volume}", file=stream)
    print(f"rho       {report.rho}", file=stream)
    print(f"blowups   {report.blowups}", file=stream)
    sings = " ".join(
        f"[{','.join(str(m) for m in chain.normalized_marks())}]:{det}"
        for chain, det in report.singularities
    )
    print(f"singular  {sings if sings else '-'}", file=stream)
    print(f"epsilon1  {report.epsilon1 if report.epsilon1 is not None else '-'}", file=stream)
    print(f"delta1    {report.delta1 if report.delta1 is not None else '-'}", file=stream)
    print(f"near_cy   {report.near_cy}", file=stream)
    for reason in report.reasons:
        print(f"reason    {reason}", file=stream)


def _load_graph(path: str) -> graphmod.VisibleGraph:
    return graphmod.parse(Path(path).read_text())


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    report = certify(g, weights=args.weights)
    if args.json:
        print(report.to_json())
    else:
        _print_report(report)
    return 0 if report.certified else 2


def _cmd_search(args: argparse.Namespace) -> int:
    config = SearchConfig(
        weights=args.weights,
        boundary=args.boundary,
        max_blowups=args.max_blowups,
        mode=_MODES[args.mode],
        rho_filter=args.rho,
        jobs=args.jobs,
    )
    result = run_search(config)
    for key, value in result.explored.items():
        print(f"{key} {value}")
    if not result.best:
        print("minimum none")
        return 0
    print(f"minimum {result.minimum}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, (g, report) in enumerate(result.best, 1):
            stem = out / f"min-{i:03d}"
            stem.with_suffix(".graph").write_text(graphmod.serialize(g))
            stem.with_suffix(".json").write_text(report.to_json() + "\n")
            print(f"wrote {stem.with_suffix('.graph')} {stem.with_suffix('.json')}")
    return 0


def _cmd_tsurf(args: argparse.Namespace) -> int:
    t = t_surface(*args.a)
    word = "ample" if t.ample else "not_ample"
    print(f"A={t.A} B1={t.B1} B2={t.B2} K2={t.k2} {word}")
    return 0


def _cmd_hypersurface(args: argparse.Namespace) -> int:
    print(weighted_hypersurface_k2(args.degree, *args.w))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    print(effective_lower_bound_log10(args.delta))
    return 0


def _cmd_invisible(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    report = certify(g)
    if not report.certified:
        _print_report(report, stream=sys.stderr)
        return 2
    b = solve_discrepancies(g)
    # searched before anything is printed, so a bad --d-max leaves stdout empty
    candidates = search_orthogonal(g, b, args.d_max)
    print("support " + " ".join(support(g, b)))
    ids = [ins.new_id for ins in g.history]
    print("basis H " + " ".join(ids))
    for cand in candidates:
        vec = [str(int(cand.divisor.h))] + [
            str(int(cand.divisor.e.get(i, 0))) for i in ids
        ]
        hits = " ".join(
            f"{v}:{p}" for v, p in sorted(visible_intersections(cand).items())
        )
        print(
            f"lattice candidate {' '.join(vec)}  D2={cand.self_int} KD={cand.k_int}  hits {hits}"
        )
    print(f"candidates {len(candidates)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourlines",
        description="Log terminal surfaces from blowups of four general lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="certify a graph file and print the report")
    p.add_argument("file", help="graph file to verify")
    p.add_argument(
        "--weights",
        type=_weights,
        default=None,
        help="override the file's corner weights, e.g. 1,2,3,5",
    )
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for minimal-volume certified surfaces")
    p.add_argument("--weights", type=_weights, required=True, help="corner weights, e.g. 1,2,3,5")
    p.add_argument("--boundary", action="store_true", help="keep the first line as boundary")
    p.add_argument("--max-blowups", type=int, required=True, help="insertion budget")
    p.add_argument("--mode", choices=sorted(_MODES), default="cy", help="search mode (default cy)")
    p.add_argument("--rho", type=int, default=None, help="restrict to this Picard rank")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the cy mode (default 1)")
    p.add_argument("--out", default=None, help="directory for the best graphs and reports")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("tsurf", help="closed forms for a T-surface quadruple")
    p.add_argument("a", type=_fraction, nargs=4, metavar="a", help="the four parameters, each >= 2")
    p.set_defaults(func=_cmd_tsurf)

    p = sub.add_parser("hypersurface", help="K^2 of a weighted hypersurface")
    p.add_argument("degree", type=int, help="degree of the hypersurface")
    p.add_argument("w", type=int, nargs=4, metavar="w", help="the four weights")
    p.set_defaults(func=_cmd_hypersurface)

    p = sub.add_parser("bound", help="effective lower bound for log10 of the volume")
    p.add_argument("--delta", type=_fraction, required=True, help="minimal log discrepancy, e.g. 1/42")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("invisible", help="boxed lattice hunt for orthogonal classes")
    p.add_argument("file", help="graph file to analyze")
    p.add_argument(
        "--d-max", type=int, default=3, help=f"largest hyperplane degree, 1 to {D_MAX_LIMIT} (default 3)"
    )
    p.set_defaults(func=_cmd_invisible)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except Exception as exc:
        # a search worker that dies breaks the pool; its error class loads
        # with concurrent.futures, which only a search that fans out needs
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, (OSError, ValueError, BrokenExecutor)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
