"""Command-line front end.

Subcommands: inertia, classify, degree, bound, search, grow, catalog,
check.  Output is one newline-terminated JSON document by default, or CSV
with a header row via --format csv where tabular output makes sense.

Exit codes: 0 success, 1 usage error, 2 invalid input data, 3 internal
inconsistency (arithmetic self-check failure).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import List, Optional

from . import bounds as bounds_mod
from . import criteria
from . import degree as degree_mod
from . import search as search_mod
from .errors import InconsistencyError, MinertiaError
from .hermitian_core import HermitianMatrix, inertia
from .strata import classify_cone, classify_d2, d2_real_dimension

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

_DEFAULTS = search_mod.SearchConfig(seed=0)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    # argparse's wording of this message differs between patch releases
    # (quoted choices or not); this is the one wording on every Python
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


def _emit(doc, out) -> None:
    out.write(json.dumps(doc) + "\n")  # json.dump would skip the C encoder


def _emit_csv(rows: List[list], header: List[str], out) -> None:
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


def _load_matrix(path: str) -> HermitianMatrix:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("matrix file is nested too deeply to be a matrix") from None
    return HermitianMatrix.from_json(obj)


def _parse_range(spec: str):
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {spec!r}")
    return int(lo), int(hi)


def _parse_pencil(spec: str) -> bounds_mod.PencilData:
    # canonical form: b=B,fibers=l1,l2,...
    head, _, tail = spec.partition(",fibers=")
    if not head.startswith("b="):
        raise ValueError(f"pencil must look like b=B[,fibers=l1,l2,...], got {spec!r}")
    b = int(head[2:])
    fibers = [int(x) for x in tail.split(",") if x] if tail else []
    return bounds_mod.PencilData(b=b, fiber_component_counts=tuple(fibers))


def _cmd_inertia(args, out) -> int:
    x = _load_matrix(args.matrix)
    _emit(inertia(x).to_json(), out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    x = _load_matrix(args.matrix)
    doc = {"q": x.q, "d2": classify_d2(x).value, "cone": None, "apex_shift": None}
    if args.cone:
        cone = classify_cone(x)
        doc.update(cone.to_json())
    doc["d2_real_dimension"] = d2_real_dimension(x.q)
    _emit(doc, out)
    return EXIT_OK


def _cmd_degree(args, out) -> int:
    if args.q is None and args.table is None:
        raise ValueError("degree needs --q N or --table A..B")
    if args.q is not None:
        rec = degree_mod.parity_record(args.q)
        _emit(rec.to_json(), out)
        return EXIT_OK
    lo, hi = _parse_range(args.table)
    limit = 0 if args.parity_only else degree_mod.MATERIALIZE_LIMIT
    records = [
        degree_mod.parity_record(q, materialize_limit=limit)
        for q in range(max(lo, 3), hi + 1)
    ]
    if args.format == "csv":
        _emit_csv([rec.csv_row() for rec in records], degree_mod.CSV_HEADER, out)
    else:
        _emit([rec.to_json() for rec in records], out)
    return EXIT_OK


def _cmd_bound(args, out) -> int:
    pencil = _parse_pencil(args.pencil) if args.pencil else None

    def report(q: int) -> bounds_mod.BoundReport:
        assumptions = bounds_mod.Assumptions(
            q=q,
            p_g=args.pg,
            no_irregular_pencils_genus_ge2=args.no_irregular_pencils,
            pencil=pencil,
        )
        return bounds_mod.best_bound(assumptions)

    if args.table:
        lo, hi = _parse_range(args.table)
        reports = [report(q) for q in range(max(lo, 1), hi + 1)]
        if args.format == "csv":
            rows = [[r.q, r.best, ";".join(r.best_names)] for r in reports]
            _emit_csv(rows, ["q", "best", "best_names"], out)
        else:
            _emit([r.to_json() for r in reports], out)
        return EXIT_OK
    if args.q is None:
        raise ValueError("bound needs --q N or --table A..B")
    _emit(report(args.q).to_json(), out)
    return EXIT_OK


def _search_config(args) -> search_mod.SearchConfig:
    # grow has no --float-tolerance flag; its parser sets the default
    return search_mod.SearchConfig(
        seed=args.seed,
        samples=args.samples,
        descent_steps=args.descent_steps,
        float_tolerance=args.float_tolerance,
        workers=args.workers,
    )


def _cmd_search(args, out) -> int:
    cfg = _search_config(args)
    basis = search_mod.random_subspace(args.q, args.dim, args.seed)
    report = search_mod.run_search(basis, cfg)
    _emit(report.to_json(), out)
    return EXIT_OK


def _cmd_grow(args, out) -> int:
    report = search_mod.grow_subspace(args.q, args.target, _search_config(args))
    _emit(report.to_json(), out)
    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_catalog(args, out) -> int:
    records = bounds_mod.catalog()
    if args.format == "csv":
        rows = [
            [r.name, r.q, r.p_g, r.h11, r.no_irregular_pencils, r.note]
            for r in records
        ]
        _emit_csv(rows, ["name", "q", "p_g", "h11", "no_irregular_pencils", "note"], out)
    else:
        _emit([r.to_json() for r in records], out)
    return EXIT_OK


def _cmd_check(args, out) -> int:
    budget = criteria.Budget(full=False)
    failed = []
    for criterion in criteria.CRITERIA:
        name = criterion.__name__
        try:
            report = criterion(budget)
        except Exception as exc:  # report it and run the remaining criteria
            failed.append(name)
            print(f"FAIL {name}: {type(exc).__name__}: {exc}", file=out)
        else:
            print(f"ok   {name}: {report}", file=out)
    if failed:
        raise InconsistencyError(f"failed: {', '.join(failed)}")
    return EXIT_OK


# Built on the first call and kept (parsing leaves it as it is); this saves
# time only where one process calls main() more than once.
@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The program's parser; its ``subcommands`` maps each subcommand's
    name to that subcommand's own parser."""
    parser = _Parser(prog="minertia", description=__doc__)
    parser.subcommands = {}
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name: str, **kwargs) -> _Parser:
        parser.subcommands[name] = subparsers.add_parser(name, **kwargs)
        return parser.subcommands[name]

    p = add_parser("inertia", help="exact signature of a Hermitian matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file, or - for stdin")
    p.set_defaults(func=_cmd_inertia)

    p = add_parser("classify", help="stratum and cone membership")
    p.add_argument("--matrix", required=True)
    p.add_argument("--cone", action="store_true", help="also classify cone membership")
    p.set_defaults(func=_cmd_classify)

    p = add_parser("degree", help="degree of the rank <= 2 locus and parity")
    p.add_argument("--q", type=int)
    p.add_argument("--table", help="range A..B")
    p.add_argument("--parity-only", action="store_true", dest="parity_only")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_degree)

    p = add_parser("bound", help="aggregate h^{1,1} lower bounds")
    p.add_argument("--q", type=int)
    p.add_argument("--table", help="range A..B for a sweep")
    p.add_argument("--pg", type=int)
    p.add_argument(
        "--no-irregular-pencils",
        action="store_true",
        dest="no_irregular_pencils",
        help="assume no irregular pencils of genus >= 2",
    )
    p.add_argument("--pencil", help="b=B[,fibers=l1,l2,...]")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_bound)

    p = add_parser("search", help="falsify minimal inertia >= 2 on a random subspace")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=_DEFAULTS.samples)
    p.add_argument("--descent-steps", type=int, default=_DEFAULTS.descent_steps, dest="descent_steps")
    p.add_argument("--float-tolerance", type=float, default=_DEFAULTS.float_tolerance, dest="float_tolerance")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_search)

    p = add_parser("grow", help="grow a candidate subspace (non-certified)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=_DEFAULTS.samples)
    p.add_argument("--descent-steps", type=int, default=_DEFAULTS.descent_steps, dest="descent_steps")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_grow, float_tolerance=_DEFAULTS.float_tolerance)

    p = add_parser("catalog", help="known-surface table")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_catalog)

    p = add_parser("check", help="the acceptance criteria at a small budget")
    p.set_defaults(func=_cmd_check)

    return parser


def _parse(parser: _Parser, argv: List[str]) -> argparse.Namespace:
    """What ``parser.parse_args(argv)`` returns.  A command line that names
    a subcommand first goes straight to that subcommand's parser; one that
    does not, or that it does not use up, is parsed in full, so every help,
    usage and error text is the full parse's."""
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.subcommand = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args, sys.stdout)
    except (InconsistencyError, AssertionError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (MinertiaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
