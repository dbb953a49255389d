"""Command-line interface.

Subcommands: ``check`` (semi-planarity of a table), ``build`` (axiom report
of the structure), ``classify`` (splitting-case report), ``search``
(exhaustive search over a group), ``verify-paper`` (full verification
checklist), ``export-dot`` (incidence graph), ``gold`` / ``inverse`` (emit
standard tables, pipeable into the other commands).

Exit codes: 0 success / property holds, 1 domain-negative (not semi-planar,
violation found, checklist failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .errors import SearchBudgetError, TableParseError
from .functions import FuncTable, format_table, format_tables, is_semiplanar, parse_table
from .gf2 import gold_table, inverse_table
from .groups import GroupSpec, make_group
from .incidence import Structure, axiom_report_dict, components, export_dot, verify_axioms
from .kernels import BACKEND
from .search import SearchOptions, exhaustive_search, search_result_dict
from .splitting import classify_split, split_report_dict
from .verify import run_checks

_GROUP_RE = re.compile(r"^[0-9]+(x[0-9]+)*$")


class UsageError(Exception):
    pass


def _parse_group(text: str, flag: str = "--group") -> GroupSpec:
    if not _GROUP_RE.match(text):
        raise UsageError(f"{flag}: expected factor list like '6' or '2x2', got {text!r}")
    factors = [int(p) for p in text.split("x")]
    try:
        return make_group(factors)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _load_function(args) -> FuncTable:
    if args.field_e is not None:
        if args.group is not None or args.function is not None:
            raise UsageError("--field-e cannot be combined with --group/--function")
        try:
            if args.alpha is not None:
                return gold_table(args.field_e, args.alpha)
            return inverse_table(args.field_e)
        except ValueError as exc:
            raise UsageError(f"--field-e/--alpha: {exc}") from None
    if args.group is None or args.function is None:
        raise UsageError("need either --group and --function, or --field-e [--alpha]")
    G = _parse_group(args.group)
    text = args.function
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text()
        except OSError as exc:
            raise UsageError(f"--function: cannot read {text[1:]!r}: {exc}") from None
    try:
        return parse_table(text, G, G)
    except TableParseError as exc:
        raise UsageError(f"--function: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"--out: cannot write {out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(data: dict, out: str | None) -> None:
    data = {**data, "backend": BACKEND}
    found = data.get("found")
    if not found:
        _emit(json.dumps(data, indent=2), out)
        return
    # Found lines are digits and commas: join them, not json's Python encoder.
    head, tail = json.dumps({**data, "found": []}, indent=2).split('"found": []')
    _emit(head + '"found": [\n    "' + '",\n    "'.join(found) + '"\n  ]' + tail, out)


def _add_function_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="group factors, e.g. '6' or '2x2'")
    p.add_argument("--function", help="table text '0,1,1,1' or @file")
    p.add_argument("--field-e", type=int, help="use a field table over GF(2^e) instead")
    p.add_argument("--alpha", type=int, help="gold exponent parameter (with --field-e)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", help="write output to a file instead of stdout")


def _cmd_check(args) -> int:
    f = _load_function(args)
    verdict = is_semiplanar(f)
    if args.json:
        witness = None
        if verdict.witness is not None:
            a, y, c = verdict.witness
            witness = {"a": a, "y": y, "count": c}
        _emit_json({"semiplanar": verdict.is_semiplanar, "witness": witness}, args.out)
    elif verdict.is_semiplanar:
        _emit("semi-planar", args.out)
    else:
        a, y, c = verdict.witness
        _emit(f"not semi-planar: f(x+{a})-f(x) = {y} has {c} solutions", args.out)
    return 0 if verdict.is_semiplanar else 1


def _cmd_build(args) -> int:
    f = _load_function(args)
    S = Structure(f)
    report = verify_axioms(S)
    if args.json:
        _emit_json(axiom_report_dict(report), args.out)
    else:
        lines = [
            f"v={report.v} k={report.k} components={report.component_count}",
            f"semi-biplane: {'yes' if report.is_semibiplane else 'no'}",
        ]
        if report.failure:
            kind, i, j, c = report.failure
            lines.append(f"axiom failure: {kind} {i} and {j} share {c}")
        _emit("\n".join(lines), args.out)
    return 0 if report.failure is None else 1


def _cmd_classify(args) -> int:
    f = _load_function(args)
    if not is_semiplanar(f).is_semiplanar:
        _emit("not semi-planar: nothing to classify", args.out)
        return 1
    S = Structure(f)
    report = classify_split(S, components(S))
    data = split_report_dict(report)
    if args.json:
        _emit_json(data, args.out)
    else:
        _emit(
            f"kind={data['kind']} B={data['B']} A={data['A']} g={data['g']} h={data['h']}",
            args.out,
        )
    return 0


def _cmd_search(args) -> int:
    G = _parse_group(args.group)
    opts = SearchOptions(
        fix_zero_at_zero=not args.no_normalize,
        use_pruning=not args.no_prune,
        max_results=args.max_results,
        max_order=args.max_order,
    )
    try:
        result = exhaustive_search(G, G, opts)
    except SearchBudgetError as exc:
        raise UsageError(f"--max-order: {exc}") from None
    if args.json:
        _emit_json(search_result_dict(result, opts.fix_zero_at_zero), args.out)
    else:
        lines = [
            f"group={G.name} normalized={opts.fix_zero_at_zero} "
            f"visited={result.visited} count={result.count} "
            f"elapsed={result.elapsed * 1000:.1f}ms"
        ]
        lines.extend(format_tables(result.values, result.domain.order))
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify_paper(args) -> int:
    results = run_checks(deep=args.deep)
    if args.json:
        payload = {
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
            "passed": all(r.passed for r in results),
        }
        _emit_json(payload, args.out)
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
        good = sum(r.passed for r in results)
        lines.append(f"{good}/{len(results)} checks passed")
        _emit("\n".join(lines), args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_export_dot(args) -> int:
    f = _load_function(args)
    S = Structure(f)
    partition = components(S) if args.components else None
    _emit(export_dot(S, partition), args.out)
    return 0


def _cmd_gold(args) -> int:
    try:
        f = gold_table(args.field_e, args.alpha)
    except ValueError as exc:
        raise UsageError(f"--field-e/--alpha: {exc}") from None
    _emit(format_table(f), args.out)
    return 0


def _cmd_inverse(args) -> int:
    try:
        f = inverse_table(args.field_e)
    except ValueError as exc:
        raise UsageError(f"--field-e: {exc}") from None
    _emit(format_table(f), args.out)
    return 0


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, help="group factors, e.g. '6' or '2x2'")
    p.add_argument("--no-normalize", action="store_true", help="do not pin f(0) = 0")
    p.add_argument("--no-prune", action="store_true", help="disable difference-count pruning")
    # Accepted and ignored: the benchmark's unpruned commands still pass it.
    # The next benchmark change drops it.
    p.add_argument("--no-fiber-limit", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--max-results", type=int, help="store at most this many tables")
    p.add_argument("--max-order", type=int, default=SearchOptions().max_order,
                   help="search-budget guard on the group order")


def _add_verify_paper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--deep", action="store_true",
                   help="include the e=5 construction and the Z2x4 checks")


def _add_export_dot_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--components", action="store_true", help="color by component")
    p.add_argument("--out", help="write output to a file instead of stdout")


def _add_gold_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field-e", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--out")


def _add_inverse_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field-e", type=int, required=True)
    p.add_argument("--out")


# name, help, flag adders, handler: one row per subcommand, in usage order.
_TABLE_IO = (_add_function_flags, _add_output_flags)
_COMMANDS = (
    ("check", "test a table for semi-planarity", _TABLE_IO, _cmd_check),
    ("build", "build the incidence structure and verify the axioms", _TABLE_IO, _cmd_build),
    ("classify", "classify the splitting case of the structure", _TABLE_IO, _cmd_classify),
    ("search", "exhaustively search a group for semi-planar tables",
     (_add_search_flags, _add_output_flags), _cmd_search),
    ("verify-paper", "run the full verification checklist",
     (_add_verify_paper_flags, _add_output_flags), _cmd_verify_paper),
    ("export-dot", "emit the incidence graph in DOT format",
     (_add_function_flags, _add_export_dot_flags), _cmd_export_dot),
    ("gold", "emit the table of x^(2^alpha + 1) over GF(2^e)", (_add_gold_flags,), _cmd_gold),
    ("inverse", "emit the table of x^(2^e - 2) over GF(2^e)", (_add_inverse_flags,), _cmd_inverse),
)
_NAMES = tuple(row[0] for row in _COMMANDS)


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with ``only`` that one.
    The filtered parser's usage line still names every subcommand."""
    parser = argparse.ArgumentParser(
        prog="semibiplane",
        description="Construct and verify semi-biplanes from semi-planar function tables.",
    )
    # A metavar on the full parser would rename "command" in its error messages.
    usage = {} if only is None else {"metavar": "{" + ",".join(_NAMES) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **usage)
    for name, help_text, adders, handler in _COMMANDS:
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for add in adders:
                add(p)
            p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in _NAMES else None
    args = _build_parser(only).parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, ValueError) as exc:  # TableParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
