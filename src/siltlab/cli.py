"""Command-line interface.

Exit codes: 0 all pass, 1 theorem/predicate failure, 2 input error,
3 undecidable-at-bound encountered under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .algfile import AlgebraFileError, load_algebra_file
from .corpus import enumerate_indecomposables
from .homology import BoundExceededError
from .linalg import MalformedInputError
from .pathalg import AlgebraConstructionError
from .predicates import PREDICATES, RouteDisagreement, is_tilting
from .reps import UndecidableError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNDECIDABLE = 3


def _default_dim_bound() -> int:
    raw = os.environ.get("SILTLAB_MAX_DIM")
    if raw is None:
        return 6
    try:
        value = int(raw)
    except ValueError:
        raise MalformedInputError(
            f"SILTLAB_MAX_DIM must be an integer, got {raw!r}") from None
    if value < 1:
        raise MalformedInputError("SILTLAB_MAX_DIM must be >= 1")
    return value


def _emit(rows, fmt: str):
    if fmt == "table":
        sys.stdout.write(harness.to_table(rows))
    else:
        sys.stdout.write(harness.to_json_lines(rows))


def _load(path, strategy=None):
    parsed = load_algebra_file(path)
    return parsed, harness.load_workbench(
        parsed, strategy=strategy, dim_bound=_default_dim_bound())


def _parse_module_expr(wb, expr: str):
    names = [t.strip() for t in expr.split("+")]
    if not all(names):
        raise MalformedInputError(f"bad module expression {expr!r}")
    indices = []
    for name in names:
        try:
            indices.append(wb.corpus.index_of(name))
        except KeyError:
            known = ", ".join(wb.names)
            raise MalformedInputError(
                f"unknown summand {name!r}; corpus members: {known}"
            ) from None
    return tuple(sorted(set(indices)))


def cmd_algebra_info(args) -> int:
    parsed = load_algebra_file(args.file)
    algebra = parsed.build()
    info = algebra.describe()
    info["schema_version"] = harness.SCHEMA_VERSION
    info["kind"] = "algebra-info"
    info["family"] = parsed.family
    _emit(info, args.format)
    return EXIT_OK


def cmd_indec_list(args) -> int:
    parsed = load_algebra_file(args.file)
    algebra = parsed.build()
    strategy = args.strategy or harness.default_strategy(parsed)
    corpus = enumerate_indecomposables(
        algebra, strategy=strategy, dim_bound=_default_dim_bound())
    rows = [{
        "schema_version": harness.SCHEMA_VERSION,
        "kind": "corpus",
        "strategy": strategy,
        "completeness": corpus.completeness,
        "size": len(corpus),
    }]
    for name, m in zip(corpus.names, corpus.members):
        rows.append({"kind": "member", "name": name,
                     "dims": list(m.dims),
                     "total_dim": m.total_dim})
    _emit(rows, args.format)
    return EXIT_OK


def cmd_check(args) -> int:
    parsed, wb = _load(args.file)
    cand = _parse_module_expr(wb, args.module)
    if args.predicate not in PREDICATES:
        known = ", ".join(sorted(PREDICATES))
        raise MalformedInputError(
            f"unknown predicate {args.predicate!r}; known: {known}")
    if args.route and args.predicate != "tilting":
        raise MalformedInputError(
            f"--route applies to the tilting predicate only, not to "
            f"{args.predicate!r}")
    try:
        if args.route:
            report = is_tilting(wb, cand, routes=(args.route,))
        else:
            report = PREDICATES[args.predicate](wb, cand)
    except (BoundExceededError, UndecidableError) as exc:
        row = {"schema_version": harness.SCHEMA_VERSION,
               "kind": "predicate",
               "module": wb.candidate_name(cand),
               "predicate": args.predicate,
               "verdict": None,
               "undecided": str(exc)}
        _emit(row, args.format)
        return EXIT_UNDECIDABLE if args.strict else EXIT_OK
    row = {"schema_version": harness.SCHEMA_VERSION, "kind": "predicate"}
    row.update(report.row())
    _emit(row, args.format)
    return EXIT_OK if report.verdict else EXIT_FAIL


def cmd_classify(args) -> int:
    parsed, wb = _load(args.file)
    rows = harness.classify(wb, args.max_summands)
    _emit(rows, args.format)
    if args.strict and any(row.get("undecided") for row in rows[1:]):
        return EXIT_UNDECIDABLE
    return EXIT_OK


def cmd_verify_theorems(args) -> int:
    parsed, wb = _load(args.file)
    rows = harness.verify_theorems(wb, args.max_summands)
    _emit(rows, args.format)
    verdict = rows[-1]
    if verdict["failed_total"]:
        return EXIT_FAIL
    if args.strict and any(row.get("undecided") for row in rows[1:]):
        return EXIT_UNDECIDABLE
    return EXIT_OK


def cmd_reproduce_example(args) -> int:
    report = harness.reproduce_example(args.field)
    _emit(report, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siltlab",
        description=("Exact workbench for silting/tilting predicates of "
                     "modules over quotient path algebras"),
    )
    parser.add_argument("--format", choices=("json", "table"),
                        default="json")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when any verdict is undecidable "
                             "at the bound")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="algebra-level queries")
    alg_sub = p_alg.add_subparsers(dest="subcommand", required=True)
    p_info = alg_sub.add_parser("info", help="basis and structure summary")
    p_info.add_argument("file")
    p_info.set_defaults(func=cmd_algebra_info)

    p_indec = sub.add_parser("indec", help="indecomposable enumeration")
    indec_sub = p_indec.add_subparsers(dest="subcommand", required=True)
    p_list = indec_sub.add_parser("list", help="list the corpus")
    p_list.add_argument("file")
    p_list.add_argument("--strategy", choices=("classified", "brute"))
    p_list.set_defaults(func=cmd_indec_list)

    p_check = sub.add_parser("check", help="evaluate one predicate")
    p_check.add_argument("file")
    p_check.add_argument("--module", required=True,
                         help="sum of corpus names, e.g. P2+S2")
    p_check.add_argument("--predicate", required=True)
    p_check.add_argument("--route",
                         choices=("definition", "T123", "vanishing"))
    p_check.set_defaults(func=cmd_check)

    p_classify = sub.add_parser("classify",
                                help="tabulate all predicates over all "
                                     "basic candidates")
    p_classify.add_argument("file")
    p_classify.add_argument("--max-summands", type=int, default=None)
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify-theorems",
                              help="run every theorem instance over the "
                                   "corpus")
    p_verify.add_argument("file")
    p_verify.add_argument("--max-summands", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify_theorems)

    p_repro = sub.add_parser("reproduce-example",
                             help="the two-vertex worked example")
    p_repro.add_argument("--field", type=int, default=2)
    p_repro.set_defaults(func=cmd_reproduce_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraFileError, AlgebraConstructionError, MalformedInputError,
            FileNotFoundError) as exc:
        print(f"siltlab: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RouteDisagreement as exc:
        print(json.dumps({
            "kind": "route-disagreement",
            "predicate": exc.predicate,
            "module": exc.candidate,
            "verdicts": exc.verdicts,
        }, sort_keys=True))
        return EXIT_FAIL
    except (BoundExceededError, UndecidableError) as exc:
        print(f"siltlab: undecidable: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE if args.strict else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
