"""Command-line interface.

Subcommands: validate, genus, graph, subgraph, abbv, classify, random,
report.  Output is JSON by default (`--format text` for a human rendering)
and byte-identical for identical inputs and flags.  Exit codes: 0 success,
1 = the run completed but the data failed a check (failed validation, or a
graph that cannot be built from the data), 2 = usage or IO errors, or
sizes past memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from fpkit.classify import SearchBounds, random_graph_data, survey
from fpkit.data import FixedPointData, _json_text, load_data, serialize_data
from fpkit.genus import (
    chi_series,
    chi_symbolic,
    counting_report,
    default_series_order,
)
from fpkit.identities import abbv_c1_power, all_passed, validate_all
from fpkit.multigraph import (
    BalanceError,
    SignedMultigraph,
    build_multigraph,
    describes,
    export_dot,
    sub_multigraph,
)


def _integer(accept: Callable[[int], bool], message: str) -> Callable[[str], int]:
    """An argparse type: an integer that ``accept`` admits, else ``message``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_even_dimension = _integer(
    lambda value: value >= 2 and value % 2 == 0,
    "dimension must be a positive even integer",
)
_positive = _integer(lambda value: value >= 1, "value must be a positive integer")
_nonnegative = _integer(lambda value: value >= 0, "value must be nonnegative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpkit",
        description=(
            "Exact arithmetic for signed fixed-point data: validation, genus "
            "computation, multigraph construction, and small-scale "
            "classification."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default: json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", parents=[common], help="run the identity suite on a data file"
    )
    p.add_argument("file")
    p.add_argument(
        "--strict",
        action="store_true",
        help="also require symbolic-genus constancy and partition congruence",
    )

    p = sub.add_parser(
        "genus", parents=[common], help="genus report by both computation routes"
    )
    p.add_argument("file")
    p.add_argument(
        "--series-order",
        type=_nonnegative,
        default=None,
        help="truncation order for the reported series expansions",
    )

    p = sub.add_parser(
        "graph", parents=[common], help="build the describing multigraph"
    )
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH", help="also write DOT output to PATH")
    p.set_defaults(modulus=None)

    p = sub.add_parser(
        "subgraph",
        parents=[common],
        help="restrict the multigraph to labels divisible by a modulus",
    )
    p.add_argument("file")
    p.add_argument("--modulus", type=_positive, required=True)
    p.add_argument("--dot", metavar="PATH", help="also write DOT output to PATH")

    p = sub.add_parser(
        "abbv", parents=[common], help="localization sum of c1^power"
    )
    p.add_argument("file")
    p.add_argument("--power", type=_nonnegative, required=True)

    p = sub.add_parser(
        "classify", parents=[common], help="survey every datum within bounds"
    )
    p.add_argument("--points", type=_positive, required=True)
    p.add_argument("--dim", type=_even_dimension, required=True)
    p.add_argument("--max-weight", type=_positive, required=True)
    p.add_argument("--out", metavar="PATH", help="also write the JSON report to PATH")

    p = sub.add_parser(
        "random", parents=[common], help="seed-deterministic random data file"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--points", type=_positive, required=True)
    p.add_argument("--dim", type=_even_dimension, required=True)
    p.add_argument("--max-label", type=_positive, required=True)

    p = sub.add_parser(
        "report", parents=[common], help="all-in-one bundle for a data file"
    )
    p.add_argument("file")

    return parser


# -- rendering -------------------------------------------------------------


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _format_chi_y(chi: "list[int] | tuple[int, ...]") -> str:
    parts: list[str] = []
    for i, c in enumerate(chi):
        if c == 0:
            continue
        if i == 0:
            body = str(c)
        else:
            y = "y" if i == 1 else f"y^{i}"
            if c == 1:
                body = y
            elif c == -1:
                body = f"-{y}"
            else:
                body = f"{c}*{y}"
        parts.append(body)
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _validation_payload(data: FixedPointData, strict: bool) -> dict:
    outcomes = validate_all(data, strict=strict)
    return {
        "name": data.name,
        "strict": strict,
        "checks": [outcome.to_dict() for outcome in outcomes],
        "verdict": all_passed(outcomes),
    }


def _validation_text(payload: dict) -> str:
    lines = [f"validation of {payload['name'] or '<unnamed>'}"]
    for check in payload["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        line = f"  {check['name']}: {status}"
        if not check["passed"]:
            line += f"  witness: {json.dumps(check['witness'])}"
        lines.append(line)
    lines.append(f"verdict: {'pass' if payload['verdict'] else 'FAIL'}")
    return "\n".join(lines)


def cmd_validate(args: argparse.Namespace) -> int:
    data = load_data(args.file)
    payload = _validation_payload(data, args.strict)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(_validation_text(payload))
    return 0 if payload["verdict"] else 1


def cmd_genus(args: argparse.Namespace) -> int:
    data = load_data(args.file)
    order = args.series_order
    if order is None:
        order = default_series_order(data)
    symbolics = [chi_symbolic(data, i) for i in range(data.n + 1)]
    report = counting_report(data, all(symbolic.constant for symbolic in symbolics))
    components = []
    for i, symbolic in enumerate(symbolics):
        series = chi_series(data, i, order)
        if not report.chi[i] == symbolic.constant_term == series.constant_term:
            raise ArithmeticError(
                f"genus routes disagree at component {i}: counting {report.chi[i]}, "
                f"symbolic {symbolic.constant_term}, series {series.constant_term}"
            )
        components.append(
            {
                "i": i,
                "symbolic": str(symbolic.function),
                "constant": symbolic.constant,
                "constant_term": str(symbolic.constant_term),
                "series": list(map(str, series.coefficients())),
            }
        )
    payload = {
        "name": data.name,
        "report": report.to_dict(),
        "chi_y": _format_chi_y(report.chi),
        "txy": list(report.txy),
        "series_order": order,
        "components": components,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        lines = [
            f"genus of {data.name or '<unnamed>'}",
            f"  chi_y = {payload['chi_y']}",
            f"  N = {list(report.N)}",
            f"  todd = {report.todd}",
            f"  symbolic constant: {'yes' if report.symbolic_constant else 'no'}",
        ]
        for entry in components:
            lines.append(
                f"  chi^{entry['i']} = {entry['symbolic']}"
                f" (constant term {entry['constant_term']})"
            )
        print("\n".join(lines))
    return 0


def _graph_payload(graph: SignedMultigraph, data: FixedPointData) -> dict:
    payload = graph.to_dict()
    payload["describes"] = bool(describes(graph, data))
    return payload


def cmd_graph(args: argparse.Namespace) -> int:
    """``graph``, and ``subgraph`` when ``args.modulus`` is set."""
    data = load_data(args.file)
    try:
        graph = build_multigraph(data)
    except BalanceError as exc:
        if args.format == "json":
            _emit_json(exc.to_dict())
        else:
            print(f"error: {exc}")
        return 1
    if args.modulus is None:
        payload = _graph_payload(graph, data)
    else:
        graph = sub_multigraph(graph, args.modulus)
        payload = graph.to_dict()
        payload["modulus"] = args.modulus
    dot = export_dot(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot)
    if args.format == "json":
        _emit_json(payload)
    else:
        sys.stdout.write(dot)
    return 0


def cmd_abbv(args: argparse.Namespace) -> int:
    data = load_data(args.file)
    value = abbv_c1_power(data, args.power)
    payload = {
        "name": data.name,
        "power": value.power,
        "value": str(value.value),
        "zero": value.value == 0,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"sum of sign * c1^{value.power} / prod(weights) = {value.value}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    bounds = SearchBounds(args.points, args.dim // 2, args.max_weight)
    report = survey(bounds)
    payload = report.to_dict()
    text = _json_text(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        lines = [
            f"candidates: {payload['candidates']}",
            f"survivors: {len(payload['survivors'])}",
            "rejected by:",
        ]
        for name, count in payload["rejects"].items():
            lines.append(f"  {name}: {count}")
        if payload["trichotomy"] is not None:
            lines.append("survivor shapes:")
            for case, count in payload["trichotomy"].items():
                lines.append(f"  {case}: {count}")
        lines.append(f"flagged: {len(payload['flagged'])}")
        print("\n".join(lines))
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    data = random_graph_data(args.seed, args.points, args.dim // 2, args.max_label)
    sys.stdout.write(serialize_data(data))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    data = load_data(args.file)
    validation = _validation_payload(data, strict=True)
    # symbolic_constancy tests the property GenusReport.symbolic_constant
    # records, so its verdict is reused instead of a second symbolic pass.
    constant = next(
        check["passed"]
        for check in validation["checks"]
        if check["name"] == "symbolic_constancy"
    )
    genus = counting_report(data, constant).to_dict()
    abbv = [abbv_c1_power(data, j).to_dict() for j in range(data.n)]
    payload: dict = {
        "name": data.name,
        "validation": validation,
        "genus": genus,
        "abbv": abbv,
    }
    ok = validation["verdict"]
    try:
        graph = build_multigraph(data)
    except BalanceError as exc:
        payload["graph"] = exc.to_dict()
        ok = False
    else:
        payload["graph"] = _graph_payload(graph, data)
    if args.format == "json":
        _emit_json(payload)
    else:
        lines = [_validation_text(validation)]
        lines.append(f"chi_y = {_format_chi_y(genus['chi'])}")
        for entry in abbv:
            lines.append(f"abbv power {entry['power']}: {entry['value']}")
        graph_info = payload["graph"]
        if "error" in graph_info:
            lines.append(f"graph: {graph_info['error']}")
        else:
            lines.append(
                f"graph: {len(graph_info['edges'])} edge(s), "
                f"describes={graph_info['describes']}"
            )
        print("\n".join(lines))
    return 0 if ok else 1


#: `main`'s parser, built on the first call and reused, since building it
#: costs about as much as a small command.
_parser = functools.cache(build_parser)

_COMMANDS = {
    "validate": cmd_validate,
    "genus": cmd_genus,
    "graph": cmd_graph,
    "subgraph": cmd_graph,
    "abbv": cmd_abbv,
    "classify": cmd_classify,
    "random": cmd_random,
    "report": cmd_report,
}


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except BalanceError as exc:  # unbuildable data surfacing outside graph cmds
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # sizes, such as weights or a series order, past memory
        print("error: out of memory", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # unreadable files, malformed data
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
