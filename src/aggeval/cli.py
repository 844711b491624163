"""Command line interface.

Four subcommands over a JSON system description:

* ``evaluate``   -- score the system (one method, or the configured
  hierarchy, or a side-by-side summary).
* ``compare``    -- per-node operator table with adequacy warnings.
* ``sweep``      -- CSV trace of the aggregates while one element varies.
* ``priorities`` -- node ranking derived from the network section.

Exit codes: 0 success, 1 usage, unreadable input or stdout closed early,
2 validation failure, 3 at least one adequacy warning (``compare`` only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Sequence

from .core import (
    EvaluationError,
    Method,
    PriorityVector,
    Scale,
    _hybrid,
    _masking_ratio,
    _nam,
    _signed_gap,
    _wlam,
)
from .description import (
    DescriptionError,
    SystemDescription,
    _synthetic_root_id,
    load_description,
)
from .hierarchy import (
    HierarchyValidationError,
    MethodComparison,
    SweepRow,
    _aggregate,
    _check_grid,
    _check_threshold,
    _compare,
    _comparison_row,
    _grid,
    _metrics,
    _postorder,
    _roll,
    _sweep,
    _sweep_path,
)
from .network import HierarchyNode
from .priority import (
    Normalization,
    PriorityBasis,
    PriorityStrategy,
    group_by_priority,
    rank_nodes,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_WARNING = 3

_STRATEGIES = {
    "degree": PriorityStrategy(
        PriorityBasis.DEGREE,
        tie_break=(PriorityBasis.FLOW_VOLUME,),
        normalization=Normalization.MAX_TO_ONE,
    ),
    "betweenness": PriorityStrategy(
        PriorityBasis.BETWEENNESS,
        tie_break=(PriorityBasis.FLOW_VOLUME,),
        normalization=Normalization.MAX_TO_ONE,
    ),
    "flow": PriorityStrategy(
        PriorityBasis.FLOW_VOLUME, normalization=Normalization.MAX_TO_ONE
    ),
    "combined": PriorityStrategy(
        PriorityBasis.COMBINED, normalization=Normalization.MAX_TO_ONE
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for
    validation failures, so usage errors are remapped to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _g(value: float) -> str:
    return f"{value:.6g}"


def _line_out(lines: Iterable[str]) -> None:
    print("\n".join(lines))


def _emit_value(method: Method, value: float, fmt: str) -> None:
    if fmt == "text":
        print(_g(value))
    elif fmt == "json":
        print(json.dumps({"method": method.value, "value": value}, indent=2))
    else:
        _line_out(["method,value", f"{method.value},{value:.6f}"])


def _flat_critical_ids(desc: SystemDescription) -> tuple[str, ...]:
    """Critical subset for a flat wem-then run.

    Preference order: members of the highest-priority group, then the
    elements holding the top explicit priority, then everything.
    """
    if desc.groups:
        best = max(desc.groups, key=lambda g: g.priority)
        return best.members
    explicit = [e for e in desc.elements if e.priority is not None]
    if explicit:
        top = max(e.priority for e in explicit)
        return tuple(e.id for e in explicit if e.priority == top)
    return tuple(e.id for e in desc.elements)


# load_description has checked the flat vector (ids unique, values finite
# and in scale, priorities positive, groups a partition), so flat evaluate,
# compare and sweep run the operator kernels on plain floats, with no
# synthetic root node.  Weights are None, as for the synthetic root's
# children, when no element sets a priority; fsum of unit weights is
# exactly their count, so wlam is the same either way.


def _flat_input(
    desc: SystemDescription,
) -> tuple[list[float], list[float] | None, list[tuple[list[int], float]], list[str]]:
    """Element values, weights, group plan (positions in member order) and ids."""
    elements = desc.elements
    values = [e.evaluation for e in elements]
    ids = [e.id for e in elements]
    weights = None
    if any(e.priority is not None for e in elements):
        weights = [1.0 if e.priority is None else e.priority for e in elements]
    plan = []
    if desc.groups:
        position = {element_id: k for k, element_id in enumerate(ids)}
        plan = [([position[m] for m in g.members], g.priority) for g in desc.groups]
    return values, weights, plan, ids


def _evaluate_method(desc: SystemDescription, method: Method, fmt: str) -> int:
    values, weights, plan, _ = _flat_input(desc)
    if method is Method.WEM:
        _emit_value(method, min(values), fmt)
    elif method is Method.WLAM:
        _emit_value(method, _wlam(values, weights), fmt)
    elif method is Method.NAM:
        _emit_value(method, _nam(values), fmt)
    elif method is Method.HYBRID_GROUPED:
        if not desc.groups:
            raise EvaluationError(
                "the hybrid method needs a groups section in the description"
            )
        _emit_value(method, _hybrid(values, plan), fmt)
    else:
        by_id = {e.id: e.evaluation for e in desc.elements}
        critical_wem = min(by_id[i] for i in _flat_critical_ids(desc))
        aggregate = _wlam(values, weights)
        adequacy = _signed_gap(aggregate, critical_wem)
        if fmt == "text":
            _line_out(
                [
                    f"critical_wem {_g(critical_wem)}",
                    f"aggregate {_g(aggregate)}",
                    f"adequacy {_g(adequacy)}",
                ]
            )
        elif fmt == "json":
            print(
                json.dumps(
                    {
                        "method": method.value,
                        "critical_wem": critical_wem,
                        "aggregate": aggregate,
                        "adequacy": adequacy,
                    },
                    indent=2,
                )
            )
        else:
            _line_out(
                [
                    "method,critical_wem,aggregate,adequacy",
                    f"{method.value},{critical_wem:.6f},"
                    f"{aggregate:.6f},{adequacy:.6f}",
                ]
            )
    return EXIT_OK


def _tree_lines(root: HierarchyNode, scale: Scale, csv: bool) -> list[str]:
    """The roll-up as CSV rows, or as the indented text tree with one line
    per node plus one per warning; a single preorder walk over the tree."""
    rows = _roll(_postorder(root), scale)
    lines = ["node,method,value,adequacy,weakest"] if csv else []
    stack = [(root, "")]
    while stack:
        node, pad = stack.pop()
        node_id = node.id
        value, _, weakest, label, adequacy, warnings = rows[node_id]
        children = node.children
        if csv:
            lines.append(
                f"{node_id},{label},{value:.6f},{adequacy:.6f},{';'.join(weakest)}"
            )
        elif children:
            lines.append(
                f"{pad}{node_id} [{label}] = {value:.6g} "
                f"(adequacy {adequacy:.6g}; weakest {', '.join(weakest)})"
            )
            lines.extend(f"{pad}  warning: {warning}" for warning in warnings)
        else:
            lines.append(f"{pad}{node_id} = {value:.6g}")
        if children:
            pad += "  "
            stack.extend((child, pad) for child in reversed(children))
    return lines


def _evaluate_summary(desc: SystemDescription, fmt: str) -> int:
    """All methods side by side on the flat element vector."""
    values, weights, plan, _ = _flat_input(desc)
    wem_value, wlam_value, nam_value, hybrid_value = _metrics(values, weights, plan)
    sigma_12 = _masking_ratio(wlam_value, wem_value)
    sigma_13 = None if nam_value is None else _masking_ratio(nam_value, wem_value)
    if fmt == "text":
        lines = [f"wem {_g(wem_value)}", f"wlam {_g(wlam_value)}"]
        lines.append(f"nam {_g(nam_value)}" if nam_value is not None else "nam n/a")
        if hybrid_value is not None:
            lines.append(f"hybrid {_g(hybrid_value)}")
        lines.append(f"sigma_12 {_g(sigma_12)}")
        lines.append(
            f"sigma_13 {_g(sigma_13)}" if sigma_13 is not None else "sigma_13 n/a"
        )
        _line_out(lines)
    elif fmt == "json":
        doc = {
            "wem": wem_value,
            "wlam": wlam_value,
            "nam": nam_value,
            "sigma_12": sigma_12,
            "sigma_13": sigma_13,
        }
        if hybrid_value is not None:
            doc["hybrid"] = hybrid_value
        print(json.dumps(doc, indent=2))
    else:
        header = ["wem", "wlam", "nam"]
        row = [f"{wem_value:.6f}", f"{wlam_value:.6f}"]
        row.append("" if nam_value is None else f"{nam_value:.6f}")
        if hybrid_value is not None:
            header.append("hybrid")
            row.append(f"{hybrid_value:.6f}")
        header += ["sigma_12", "sigma_13"]
        row.append(f"{sigma_12:.6f}")
        row.append("" if sigma_13 is None else f"{sigma_13:.6f}")
        _line_out([",".join(header), ",".join(row)])
    return EXIT_OK


# load_description has validated the tree, so the commands below call the
# roll-up past the public functions' second validation pass; argument
# checks still run.  A flat description has no tree: its compare and sweep
# give what compare_methods and sweep give on hierarchy_root's synthetic
# root, computed from the element vector.


def _cmd_evaluate(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    if args.method is not None:
        return _evaluate_method(desc, Method(args.method), args.format)
    if desc.hierarchy is not None:
        if args.format == "json":
            report = _aggregate(desc.hierarchy, desc.scale)
            print(json.dumps(report.to_dict(), indent=2))
        else:
            _line_out(_tree_lines(desc.hierarchy, desc.scale, args.format == "csv"))
        return EXIT_OK
    return _evaluate_summary(desc, args.format)


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _flat_compare(desc: SystemDescription, threshold: float) -> list[MethodComparison]:
    """The synthetic root's row, then one per group; weakest ids in element order."""
    values, weights, plan, ids = _flat_input(desc)
    root_id = _synthetic_root_id(ids)
    low = min(values)
    weakest = tuple(i for i, v in zip(ids, values) if v == low)
    rows = [_comparison_row(root_id, values, weights, plan, weakest, threshold)]
    for group, (positions, _) in zip(desc.groups or (), plan):
        members = [values[k] for k in positions]
        low = min(members)
        weakest = tuple(ids[k] for k in sorted(positions) if values[k] == low)
        rows.append(
            _comparison_row(f"{root_id}/{group.id}", members, None, [], weakest, threshold)
        )
    return rows


def _cmd_compare(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    _check_threshold(args.threshold)
    if desc.hierarchy is None:
        rows = _flat_compare(desc, args.threshold)
    else:
        rows = _compare(desc.hierarchy, desc.scale, args.threshold)
    return _emit_comparison(rows)


def _emit_comparison(rows: list[MethodComparison]) -> int:
    cells = [["node", "wem", "wlam", "nam", "hybrid", "sigma_12", "sigma_13", "warnings"]]
    for row in rows:
        cells.append(
            [
                row.node_id,
                _g(row.wem),
                _g(row.wlam),
                "-" if row.nam is None else _g(row.nam),
                "-" if row.hybrid is None else _g(row.hybrid),
                _g(row.sigma_12),
                "-" if row.sigma_13 is None else _g(row.sigma_13),
                "; ".join(row.warnings) if row.warnings else "-",
            ]
        )
    _line_out(_table(cells))
    if any(row.warnings for row in rows):
        return EXIT_WARNING
    return EXIT_OK


def _sweep_csv(rows: list) -> str:
    with_hybrid = rows[0].hybrid is not None
    header = "varied,wem,wlam,nam" + (",hybrid" if with_hybrid else "")
    lines = [header]
    for row in rows:
        nam_cell = "" if row.nam is None else f"{row.nam:.6f}"
        line = f"{row.varied:g},{row.wem:.6f},{row.wlam:.6f},{nam_cell}"
        if with_hybrid:
            line += f",{row.hybrid:.6f}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _flat_sweep(
    desc: SystemDescription, vary_id: str, start: float, stop: float, steps: int
) -> list[SweepRow]:
    """Root metrics over the element vector with one element's value on the grid."""
    _check_grid(desc.scale, start, stop, steps)
    values, weights, plan, ids = _flat_input(desc)
    if vary_id == _synthetic_root_id(ids):
        raise EvaluationError(f"{vary_id!r} is a subsystem; only leaves can vary")
    if vary_id not in ids:
        raise EvaluationError(f"unknown element id {vary_id!r}")
    slot = ids.index(vary_id)
    rows = []
    for varied in _grid(start, stop, steps):
        values[slot] = float(varied)
        rows.append(SweepRow(varied, *_metrics(values, weights, plan)))
    return rows


def _cmd_sweep(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    if desc.hierarchy is None:
        rows = _flat_sweep(desc, args.vary, args.start, args.stop, args.steps)
    else:
        path = _sweep_path(
            desc.hierarchy, desc.scale, args.vary, args.start, args.stop, args.steps
        )
        rows = _sweep(desc.scale, path, args.start, args.stop, args.steps)
    _emit_sweep(rows, args.out)
    return EXIT_OK


def _emit_sweep(rows: list[SweepRow], out: str | None) -> None:
    text = _sweep_csv(rows)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_priorities(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    if desc.network is None:
        print("error: description has no network section", file=sys.stderr)
        return EXIT_VALIDATION
    strategy = _STRATEGIES[args.strategy]
    ranked = rank_nodes(desc.network, strategy)
    cells = [["rank", "node", "score", "priority"]]
    for position, entry in enumerate(ranked, 1):
        cells.append([str(position), entry.node, _g(entry.score), _g(entry.priority)])
    _line_out(_table(cells))
    if args.group_tolerance is not None:
        priorities = PriorityVector(tuple((r.node, r.priority) for r in ranked))
        groups = group_by_priority(priorities, args.group_tolerance)
        print(f"groups (tolerance {args.group_tolerance:g}):")
        for group in groups:
            print(
                f"{group.id}: priority {_g(group.priority)}, "
                f"members {', '.join(group.members)}"
            )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aggeval",
        description="Aggregate element evaluations of a networked system.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    evaluate_cmd = commands.add_parser(
        "evaluate", help="score the system described in a JSON file"
    )
    evaluate_cmd.add_argument("--input", required=True, help="description file")
    evaluate_cmd.add_argument(
        "--method",
        choices=[m.value for m in Method],
        help="aggregation method over the flat element vector "
        "(default: configured hierarchy, else a side-by-side summary)",
    )
    evaluate_cmd.add_argument(
        "--format", choices=["text", "json", "csv"], default="text"
    )
    evaluate_cmd.set_defaults(handler=_cmd_evaluate)

    compare_cmd = commands.add_parser(
        "compare", help="per-node method comparison with adequacy warnings"
    )
    compare_cmd.add_argument("--input", required=True, help="description file")
    compare_cmd.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="warn when sigma_12 exceeds this value (default 0.5)",
    )
    compare_cmd.set_defaults(handler=_cmd_compare)

    sweep_cmd = commands.add_parser(
        "sweep", help="trace the aggregates while one element's value varies"
    )
    sweep_cmd.add_argument("--input", required=True, help="description file")
    sweep_cmd.add_argument("--vary", required=True, help="leaf element id to vary")
    sweep_cmd.add_argument(
        "--from", dest="start", type=float, required=True, help="first grid value"
    )
    sweep_cmd.add_argument(
        "--to", dest="stop", type=float, required=True, help="last grid value"
    )
    sweep_cmd.add_argument(
        "--steps", type=int, required=True, help="number of grid points (>= 2)"
    )
    sweep_cmd.add_argument("--out", help="write CSV here instead of stdout")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    priorities_cmd = commands.add_parser(
        "priorities", help="rank network nodes and derive priorities"
    )
    priorities_cmd.add_argument("--input", required=True, help="description file")
    priorities_cmd.add_argument(
        "--strategy", required=True, choices=sorted(_STRATEGIES)
    )
    priorities_cmd.add_argument(
        "--group-tolerance",
        type=float,
        help="also group nodes whose priorities differ by at most this",
    )
    priorities_cmd.set_defaults(handler=_cmd_priorities)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else str(exc)
        print(f"error: no such file: {name}", file=sys.stderr)
        return EXIT_USAGE
    except IsADirectoryError as exc:
        print(f"error: not a file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except PermissionError as exc:
        print(f"error: permission denied: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (DescriptionError, HierarchyValidationError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:
        # Finite inputs whose sums or powers exceed the float range: the
        # request cannot be computed, which the exit codes class as invalid.
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (as `| head` does): send what is
        # left to the null device, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
