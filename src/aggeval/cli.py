"""Command line interface.

Four subcommands over a JSON system description:

* ``evaluate``   -- score the system (one method, or the configured
  hierarchy, or a side-by-side summary).
* ``compare``    -- per-node operator table with adequacy warnings.
* ``sweep``      -- CSV trace of the aggregates while one element varies.
* ``priorities`` -- node ranking derived from the network section.

Exit codes (set in ``main`` only): 0 success, 1 usage, a path that cannot
be opened, output that cannot be written or encoded, or stdout closed early,
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
    _signed_gap,
    _wlam,
)
from .description import DescriptionError, SystemDescription, load_description
from .hierarchy import (
    MethodComparison,
    SweepRow,
    _aggregate,
    _check_grid,
    _check_threshold,
    _compare,
    _compile,
    _compile_flat,
    _comparison_row,
    _operate,
    _roll,
    _Sub,
    _sweep,
    _sweep_path,
)
from .network import HierarchyNode
from .priority import (
    Normalization,
    PriorityBasis,
    PriorityStrategy,
    _check_tolerance,
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


# What main prints for these; any other OSError prints its strerror.
_OS_REASONS = {FileNotFoundError: "no such file", IsADirectoryError: "not a file",
               PermissionError: "permission denied"}


def _g(value: float) -> str:
    return f"{value:.6g}"


def _line_out(lines: Iterable[str]) -> None:
    print("\n".join(lines))


def _one_line(texts: list[str]) -> list[str]:
    """Strings of text output with CR and LF written as the two characters
    ``\\r`` and ``\\n``, so each record stays on one line (only ids hold
    either); one scan tells whether any string needs it."""
    joined = "".join(texts)
    if "\r" not in joined and "\n" not in joined:
        return texts
    return [text.replace("\r", "\\r").replace("\n", "\\n") for text in texts]


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_cell(value: str | float | None) -> str:
    """One CSV cell: a number as ``.6f``, None empty, and a string as it is,
    or quoted with its quotes doubled where it holds a comma, a quote, CR
    or LF (RFC 4180)."""
    if value is None:
        return ""
    if not isinstance(value, str):
        return f"{value:.6f}"
    if _needs_quotes(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def _record_out(fields: list[tuple[str, str | float | None]], fmt: str) -> None:
    """One result as a JSON object, a CSV header and row, or text: a
    ``name value`` line per number (None as ``n/a``; strings are left out),
    or the bare number when there is only one."""
    if fmt == "json":
        print(json.dumps(dict(fields), indent=2))
    elif fmt == "csv":
        _line_out([",".join(name for name, _ in fields), ",".join(_csv_cell(v) for _, v in fields)])
    else:
        numbers = [(name, v) for name, v in fields if not isinstance(v, str)]
        if len(numbers) == 1:
            print(_g(numbers[0][1]))
        else:
            _line_out(f"{name} {'n/a' if v is None else _g(v)}" for name, v in numbers)


def _critical_wem(desc: SystemDescription) -> float:
    """Weakest value of a flat wem-then run's critical subset: the members
    of the highest-priority group, else the elements holding the top
    explicit priority, else every element."""
    if desc.groups:
        by_id = {e.id: e.evaluation for e in desc.elements}
        return min(by_id[i] for i in max(desc.groups, key=lambda g: g.priority).members)
    top = max((e.priority for e in desc.elements if e.priority is not None), default=None)
    return min(e.evaluation for e in desc.elements if e.priority == top)


def _evaluate_flat(desc: SystemDescription, method: Method | None, fmt: str) -> None:
    """One method over the flat element vector, or all of them side by side."""
    root = _compile_flat(desc.elements, desc.groups)[0]
    if method is None:
        # sigma_12 is at most 1, so a threshold of 1 builds no warning.
        row = _comparison_row(root.id, root.values, root.weights, root.plan, (), 1.0)
        fields = [("wem", row.wem), ("wlam", row.wlam), ("nam", row.nam),
                  ("sigma_12", row.sigma_12), ("sigma_13", row.sigma_13)]
        if row.hybrid is not None:
            # JSON lists hybrid last, text and CSV right after nam.
            fields.insert(len(fields) if fmt == "json" else 3, ("hybrid", row.hybrid))
    elif method is Method.HYBRID_GROUPED and not desc.groups:
        raise EvaluationError("the hybrid method needs a groups section in the description")
    elif method is Method.WEM_THEN:
        critical_wem = _critical_wem(desc)
        aggregate = _wlam(root.values, root.weights)
        fields = [("method", method.value), ("critical_wem", critical_wem),
                  ("aggregate", aggregate), ("adequacy", _signed_gap(aggregate, critical_wem))]
    else:
        fields = [("method", method.value),
                  ("value", _operate(root._replace(kernel=method), root.values))]
    _record_out(fields, fmt)


def _tree_lines(root: HierarchyNode, scale: Scale, csv: bool) -> list[str]:
    """The roll-up as CSV rows, or as the indented text tree with one line
    per node plus one per warning; a single preorder walk over the tree."""
    subs = _compile(root)
    rows = _roll(subs, scale)
    lines = ["node,method,value,adequacy,weakest"] if csv else []
    # Every node is the root or some entry's child, so one check over those
    # ids tells whether any id cell needs quoting; most trees need none.
    quote = csv and _needs_quotes(root.id + "".join(["".join(sub.ids) for sub in subs]))
    # A leaf is pushed as (pad, id, value), a subsystem as (pad, None, index).
    stack = [("", root.id, float(root.value)) if root.is_leaf else ("", None, len(subs) - 1)]
    while stack:
        pad, node_id, item = stack.pop()
        if node_id is not None:
            if csv:
                if quote:
                    node_id = _csv_cell(node_id)
                lines.append(f"{node_id},leaf,{item:.6f},{0:.6f},{node_id}")
            else:
                lines.append(f"{pad}{node_id} = {item:.6g}")
            continue
        sub = subs[item]
        value, _, weakest, adequacy, warnings = rows[item]
        if csv:
            node_id, weakest = sub.id, ";".join(weakest)
            if quote:
                node_id, weakest = _csv_cell(node_id), _csv_cell(weakest)
            lines.append(f"{node_id},{sub.label},{value:.6f},{adequacy:.6f},{weakest}")
        else:
            lines.append(
                f"{pad}{sub.id} [{sub.label}] = {value:.6g} "
                f"(adequacy {adequacy:.6g}; weakest {', '.join(weakest)})"
            )
            lines.extend(f"{pad}  warning: {warning}" for warning in warnings)
        pad += "  "
        below = sub.below
        stack.extend(
            (pad, None, below[k]) if k in below else (pad, sub.ids[k], sub.values[k])
            for k in reversed(range(len(sub.ids)))
        )
    return lines if csv else _one_line(lines)


# load_description has validated the description, so the commands below
# compile it and call the roll-up past the public functions' second
# validation pass; argument checks still run.  A flat description compiles
# to hierarchy_root's synthetic root without building that tree.


def _compiled(desc: SystemDescription) -> list[_Sub]:
    if desc.hierarchy is None:
        return _compile_flat(desc.elements, desc.groups)
    return _compile(desc.hierarchy)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    if args.method is not None or desc.hierarchy is None:
        _evaluate_flat(desc, args.method and Method(args.method), args.format)
    elif args.format == "json":
        print(json.dumps(_aggregate(desc.hierarchy, desc.scale).to_dict(), indent=2))
    else:
        _line_out(_tree_lines(desc.hierarchy, desc.scale, args.format == "csv"))
    return EXIT_OK


def _table(rows: list[list[str]]) -> list[str]:
    """Left-aligned columns; cells are made one-line before their widths
    are measured."""
    columns = [_one_line(list(column)) for column in zip(*rows)]
    widths = [max(map(len, column)) for column in columns]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in zip(*columns)]


def _cmd_compare(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    _check_threshold(args.threshold)
    return _emit_comparison(_compare(_compiled(desc), desc.scale, args.threshold))


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
    return EXIT_WARNING if any(row.warnings for row in rows) else EXIT_OK


def _sweep_csv(rows: list) -> str:
    with_hybrid = rows[0].hybrid is not None
    header = "varied,wem,wlam,nam" + (",hybrid" if with_hybrid else "")
    lines = [header]
    for row in rows:
        line = f"{row.varied:g},{_csv_cell(row.wem)},{_csv_cell(row.wlam)},{_csv_cell(row.nam)}"
        lines.append(f"{line},{_csv_cell(row.hybrid)}" if with_hybrid else line)
    return "\n".join(lines) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    subs = _compiled(desc)
    _check_grid(desc.scale, args.start, args.stop, args.steps)
    path = _sweep_path(subs, args.vary)
    _emit_sweep(_sweep(subs, desc.scale, path, args.start, args.stop, args.steps), args.out)
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
        raise DescriptionError(["description has no network section"])
    if args.group_tolerance is not None:
        _check_tolerance(args.group_tolerance)
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
        _line_out(_one_line([f"{group.id}: priority {_g(group.priority)}, "
                             f"members {', '.join(group.members)}" for group in groups]))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    return parser


# Built once; the handler is looked up by command name on each call, so a
# replaced module attribute (as a test's patch) is the one that runs.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        code = globals()[f"_cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        # argparse's 2 for bad usage is 1 here, where 2 means invalid input.
        return EXIT_USAGE if exc.code else EXIT_OK
    except BrokenPipeError:
        raise  # entry() ends a closed pipe quietly
    except OSError as exc:
        known = _OS_REASONS.get(type(exc))
        reason = known or (exc.strerror or str(exc)).lower()
        name = exc.filename or (known and str(exc))
        print(f"error: {reason}: {name}" if name else f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeEncodeError as exc:  # stderr backslash-escapes what it cannot encode
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DescriptionError, EvaluationError) as exc:
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
    except OSError:
        # The reader closed the pipe early (as `| head` does), or stdout is
        # full and main has said so: send what is left to the null device,
        # so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
