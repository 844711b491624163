"""Command line interface.

Four subcommands over a JSON system description:

* ``evaluate``   -- score the system (one method, or the configured
  hierarchy, or a side-by-side summary).
* ``compare``    -- per-node operator table with adequacy warnings.
* ``sweep``      -- CSV trace of the aggregates while one element varies.
* ``priorities`` -- node ranking derived from the network section.

Exit codes (set in ``main`` only): 0 success, 1 usage, a path that cannot
be opened, output that cannot be written or encoded, stdout closed early, or
a request that does not fit in memory, 2 validation failure, 3 at least one
adequacy warning (``compare`` only).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Iterable, Sequence

from .core import (
    EvaluationError,
    Method,
    Scale,
    _metrics,
    _signed_gap,
    _wlam,
)
from .description import (
    DescriptionError,
    SystemDescription,
    _compile_flat,
    _lowered,
    load_description,
)
from .hierarchy import (
    MethodComparison,
    SweepRow,
    _aggregate,
    _check_grid,
    _check_threshold,
    _compare,
    _comparison,
    _operate,
    _roll,
    _Sub,
    _sweep,
    _sweep_path,
)
from .priority import (
    PriorityBasis,
    PriorityStrategy,
    _check_tolerance,
    _clusters,
    _ranking,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_WARNING = 3

_FLOW = (PriorityBasis.FLOW_VOLUME,)  # tie-break of the structural bases
_STRATEGIES = {
    "degree": PriorityStrategy(PriorityBasis.DEGREE, _FLOW),
    "betweenness": PriorityStrategy(PriorityBasis.BETWEENNESS, _FLOW),
    "flow": PriorityStrategy(PriorityBasis.FLOW_VOLUME),
    "combined": PriorityStrategy(PriorityBasis.COMBINED),
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


def _critical_wem(root: _Sub) -> float:
    """Weakest value of a flat wem-then run's critical subset: the members
    of the highest-priority group, else the elements holding the top
    explicit priority, else every element."""
    if root.plan:
        return min(root.values[k] for k in max(root.plan, key=lambda group: group[1])[0])
    top = max((p for p in root.priorities if p is not None), default=None)
    return min(v for v, p in zip(root.values, root.priorities) if p == top)


def _evaluate_flat(desc: SystemDescription, method: Method | None, fmt: str) -> None:
    """One method over the flat element vector, or all of them side by side.
    Each aggregate printed is clamped to the scale, as the roll-up's are;
    sigmas and adequacy are taken before clamping."""
    root, scale = _compile_flat(desc)[0], desc.scale
    if method is None:
        # sigma_12 is at most 1, so a threshold of 1 builds no warning.
        row = _comparison(root.id, *_metrics(root.values, root.weights, root.plan), (), 1.0, scale)
        fields = [("wem", row.wem), ("wlam", row.wlam), ("nam", row.nam),
                  ("sigma_12", row.sigma_12), ("sigma_13", row.sigma_13)]
        if row.hybrid is not None:
            # JSON lists hybrid last, text and CSV right after nam.
            fields.insert(len(fields) if fmt == "json" else 3, ("hybrid", row.hybrid))
    elif method is Method.HYBRID_GROUPED and not desc.groups:
        raise EvaluationError("the hybrid method needs a groups section in the description")
    elif method is Method.WEM_THEN:
        critical_wem = _critical_wem(root)
        aggregate = _wlam(root.values, root.weights)
        fields = [("method", method.value), ("critical_wem", critical_wem),
                  ("aggregate", scale.clamp(aggregate)),
                  ("adequacy", _signed_gap(aggregate, critical_wem))]
    else:
        fields = [("method", method.value),
                  ("value", scale.clamp(_operate(root._replace(kernel=method), root.values)))]
    _record_out(fields, fmt)


def _tree_lines(subs: list[_Sub], scale: Scale, csv: bool) -> list[str]:
    """The roll-up of compiled entries as CSV rows, or as the indented text
    tree with one line per node plus one per warning; a single preorder walk
    from the top entry's one child, the root."""
    rows = _roll(subs, scale)
    lines = ["node,method,value,adequacy,weakest"] if csv else []
    # Every node is some entry's child, the root the top entry's, so one check
    # over those ids tells whether any id cell needs quoting; most trees need none.
    quote = csv and _needs_quotes("".join(["".join(sub.ids) for sub in subs]))
    # A run of leaves is pushed as (pad, ids, values), a subsystem as
    # (pad, None, index); a run's lines are made in one comprehension.
    top = subs[-1]
    stack = [("", None, top.below[0]) if top.below else ("", top.ids, top.values)]
    while stack:
        pad, ids, item = stack.pop()
        if ids is not None:
            if quote:
                ids = [_csv_cell(i) for i in ids]
            lines += ([f"{i},leaf,{v:.6f},{0:.6f},{i}" for i, v in zip(ids, item)] if csv
                      else [f"{pad}{i} = {v:.6g}" for i, v in zip(ids, item)])
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
            if warnings:
                lines += [f"{pad}  warning: {warning}" for warning in warnings]
        pad += "  "
        below = sub.below
        if not below:  # leaves only: one run
            stack.append((pad, sub.ids, sub.values))
            continue
        stack.extend(
            (pad, None, below[k]) if k in below else (pad, [sub.ids[k]], [sub.values[k]])
            for k in reversed(range(len(sub.ids)))
        )
    return lines if csv else _one_line(lines)


# load_description has validated and compiled the description, so the
# commands below roll up its _lowered entries past the public functions'
# checked lowering, without building the node tree; argument checks still
# run.  A flat description compiles to hierarchy_root's synthetic root.


def _cmd_evaluate(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    if args.method is not None or vars(desc)["hierarchy"] is None:
        _evaluate_flat(desc, args.method and Method(args.method), args.format)
    elif args.format == "json":
        print(json.dumps(_aggregate(_lowered(desc), desc.scale).to_dict(), indent=2))
    else:
        _line_out(_tree_lines(_lowered(desc), desc.scale, args.format == "csv"))
    return EXIT_OK


def _table(rows: list[list[str]]) -> list[str]:
    """Left-aligned columns; cells are made one-line before their widths
    are measured."""
    columns = [_one_line(list(column)) for column in zip(*rows)]
    # Cells are arguments, never part of the template, so braces in ids are safe.
    line = "  ".join([f"{{:<{max(map(len, column))}}}" for column in columns])
    return [line.format(*row).rstrip() for row in zip(*columns)]


def _cmd_compare(args: argparse.Namespace) -> int:
    desc = load_description(args.input)
    _check_threshold(args.threshold)
    return _emit_comparison(_compare(_lowered(desc)[:-1], desc.scale, args.threshold))


def _emit_comparison(rows: list[MethodComparison]) -> int:
    cells = [["node", "wem", "wlam", "nam", "hybrid", "sigma_12", "sigma_13", "warnings"]]
    cells += [[row.node_id, f"{row.wem:.6g}", f"{row.wlam:.6g}",
               "-" if row.nam is None else f"{row.nam:.6g}",
               "-" if row.hybrid is None else f"{row.hybrid:.6g}", f"{row.sigma_12:.6g}",
               "-" if row.sigma_13 is None else f"{row.sigma_13:.6g}",
               "; ".join(row.warnings) if row.warnings else "-"] for row in rows]
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
    subs = _lowered(desc)[:-1]
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
    net = vars(load_description(args.input))["network"]  # as parsed: lists, not a Network
    if net is None:
        raise DescriptionError(["description has no network section"])
    if args.group_tolerance is not None:
        _check_tolerance(args.group_tolerance)
    rows = _ranking(net, _STRATEGIES[args.strategy])
    cells = [["rank", "node", "score", "priority"]]
    cells += [[str(position), node, _g(score), _g(priority)]
              for position, (node, score, priority) in enumerate(rows, 1)]
    _line_out(_table(cells))
    if args.group_tolerance is not None:
        clusters = _clusters([(node, priority) for node, _, priority in rows], args.group_tolerance)
        print(f"groups (tolerance {args.group_tolerance:g}):")
        _line_out(_one_line([f"g{k}: priority {_g(mean)}, members {', '.join(members)}"
                             for k, (members, mean) in enumerate(clusters, 1)]))
    return EXIT_OK


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggeval",
        description="Aggregate element evaluations of a networked system.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, help: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help)
        # Every string float() reads is a value: argparse's own pattern misses -1e5 and -inf.
        sub._negative_number_matcher = argparse.Namespace(match=_is_float)
        sub.add_argument("--input", required=True, help="description file")
        return sub

    evaluate_cmd = command("evaluate", "score the system described in a JSON file")
    evaluate_cmd.add_argument(
        "--method",
        choices=[m.value for m in Method],
        help="aggregation method over the flat element vector "
        "(default: configured hierarchy, else a side-by-side summary)",
    )
    evaluate_cmd.add_argument(
        "--format", choices=["text", "json", "csv"], default="text"
    )

    compare_cmd = command("compare", "per-node method comparison with adequacy warnings")
    compare_cmd.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="warn when sigma_12 exceeds this value (default 0.5)",
    )

    sweep_cmd = command("sweep", "trace the aggregates while one element's value varies")
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

    priorities_cmd = command("priorities", "rank network nodes and derive priorities")
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
        enabled = gc.isenabled()
        gc.disable()  # a command makes no cyclic garbage
        try:
            code = globals()[f"_cmd_{args.command}"](args)
        finally:
            if enabled:
                gc.enable()
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
    except MemoryError:  # as a sweep grid of more points than fit
        print("error: not enough memory", file=sys.stderr)
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
