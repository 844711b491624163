#!/usr/bin/env python3
"""Check that two source trees of aggeval give the same CLI output.

Usage:

    python3 scripts/same_output.py <first src> <second src> [--fixtures-only]

Each ``src`` is a directory holding the ``aggeval`` package, for example
the ``src`` of a clean checkout of the parent commit and of the working
tree.  One subprocess per side imports ``aggeval`` from its ``src`` and
runs the same fixed command mix through ``aggeval.cli.main``:

* every fixture and generated file with ``evaluate`` in each format, with
  and without each ``--method``;
* ``compare`` at thresholds 0, 0.5, 1 and 2;
* ``sweep`` of the first, the middle and the last element, to stdout and
  to ``--out``;
* ``sweep`` of ids it cannot vary (the hierarchy's root and its first
  subsystem child, a flat file's synthetic root ``system``, an unknown
  id), with one grid point, and with either bound outside the scale, so
  that the order of the sweep's checks is pinned;
* ``priorities`` with every strategy, and combined with a group tolerance.

The generated files are the four benchmark workloads at seeds 1 and 7,
made by ``perfbench/workloads.py``; their own commands run as well.  So
do ``evaluate`` and ``compare`` on copies of two seed-1 files with one
fault each:

* tree-rollup, in the hierarchy: an unknown leaf, a reused leaf, a
  subsystem id shadowing an element, a broken method object, a duplicate
  subsystem id, a bad hybrid partition, an unknown leaf at the bottom of
  the deep chain, and a leaf of the chain's bottom reused at its top,
  before and after the subtree that holds it;
* flat-grouped, in the groups: an unknown member, a member in two
  groups, a non-string member, empty members, a 0 and a ``true``
  priority, a duplicate group id, and an element in no group;

and ``priorities`` (the workload's own command) on copies of seed-1
network-priorities with one fault each in the network: a duplicate node, a
self-loop, an undeclared start and an undeclared end, a duplicate edge, a
non-pair edge, a list as an edge endpoint, a one-node route, a 0 and a
``true`` volume, a route over a missing edge, and an unknown flow key.

They run the parser's reporting checks, or for the duplicate subsystem
id and the bad partition the tree validation, and the network checks,
at workload size.  Two
more copies of seed-1 flat-grouped give every seventh element a
priority, some below 1, one with its groups and one without; the whole
mix of a file runs on each, so the flat summary's ``nam`` without a
value, weighted ``wlam`` and wem-then's top-priority critical set are
covered.
``--fixtures-only`` skips them, but not what follows.  The whole mix of
a file also runs on eleven small generated files: flat means that round
a few ulps above the scale's maximum under nam, under weighted wlam and under hybrid, a
hierarchy that is a single element, four flat files of more than 30
elements, whose nam takes the log path: one with a 0 and values at 1e-6
and 1e6, one in three groups with one priority of 1e308, whose
weighted mean takes its scaled fallback, and two in three groups with an
element named ``system``, a group on nam's direct path whose tied
minimum is listed against child order and one on its log path, the
second with a 0 in its third group; and a grouped flat file with
``0`` and ``-0`` on both sides of its middle element and ties with the
smallest value before it, whose middle element is also swept from ``0``
to ``-0``, so that the printed sign of ``wem`` is pinned; and two hierarchies
with a subsystem under the sweep's overflow rule and the root above it, one
by its values on the scale [0, 1.5e307] and one by leaf priorities of 1e305
and 1e307, whose root's weighted mean takes its scaled fallback.
``compare`` runs with the threshold ``-1e5`` after a space and after
``=``.  The mix ends with usage errors (no command, an unknown command,
a missing ``--input``, a bad ``--method``, ``--steps x``) and with paths
that cannot be opened, for ``--input`` and for ``--out``: a file name
under a file, a name too long for the file system and a symbolic link to
itself.

A library mix runs next to the commands, as ``--library`` entries: the
``repr`` of ``aggregate``, ``compare_methods``, a ``sweep`` of the first
leaf over 11 points of the scale, and ``validate_hierarchy``, or of the
exception each raises.  They run on ``hierarchy_root()`` of each hierarchy
fixture, of the seed-1 tree-rollup and tree-sweep files and of the three
overshoot files, and on two hand-built faulty trees: a reused id over a
subtree with a bad method, and a bad leaf under a bad hybrid partition.
``adequacy_report`` (without and with ``priority_vector()``) and
``check_ordering`` run on ``evaluation_vector()`` of every fixture, of the
eleven small generated files, of seed-1 flat-grouped and of its two
priority copies; where the file has groups, ``check_hybrid_bounds`` and
``hybrid_grouped`` run on its grouped system too.  ``rank_nodes`` with each
CLI strategy, ``derive_priorities`` (combined), ``group_by_priority`` of it
(tolerance 0.05), ``flow_volume`` and ``validate_network`` run on
``desc.network`` of each network fixture and of seed-1 network-priorities,
and on three hand-built networks that fail validation: repeated nodes,
edges from undeclared nodes, and edges to undeclared nodes.  That makes
1555 calls, and 1556 entries with the library surface.

Every call whose exit code, stdout, stderr or written file differs between
the sides is printed.  One more entry compares the library surface: the
sorted ``aggeval.__all__`` with each name's ``__module__`` and
``__qualname__`` (a constant's type name and ``repr``), so a public name
dropped or moved shows up as well.  The exit status is 1 if anything
differs, else 0.

Golden mode compares one side with recorded digests instead:

    python3 scripts/same_output.py <src> --golden tests/data/cli_golden.json
    python3 scripts/same_output.py <src> --golden tests/data/cli_golden.json --record

It hashes each call's stdout, stderr and written file with
``perfbench/reference.py``'s ``digest``, after replacing the repository
root with ``<root>`` and the scratch directory with ``<work>``, so the
digests hold in any checkout.  The golden also pins the sha256 of each
generated input file, the Python version it was recorded with and the
library surface.  The check names every generated file and every call
that differs; calls on a changed generated file are only counted, since
the generator changed under them.  ``--record`` writes the golden from
the given side instead; a change that alters output on purpose records it
again and lists the changed calls.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
PERFBENCH = ROOT / "perfbench"
SEEDS = (1, 7)
OUT = "out.csv"


def _file_commands(path: Path) -> list[list[str]]:
    """The command mix for one description file."""
    source = str(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        ids = [e["id"] for e in doc["elements"]]
        low, high = doc["scale"]["min"], doc["scale"]["max"]
        root = doc.get("hierarchy")
        subsystems = []
        if isinstance(root, dict):
            children = [c["id"] for c in root["children"] if isinstance(c, dict)]
            subsystems = [root["id"], *children[:1]]
    except (ValueError, KeyError, TypeError):
        ids, low, high, subsystems = ["missing"], 0, 100, []
    commands = []
    for fmt in ("text", "json", "csv"):
        for method in (None, "wem", "wlam", "nam", "hybrid", "wem-then"):
            extra = [] if method is None else ["--method", method]
            commands.append(["evaluate", "--input", source, "--format", fmt, *extra])
    for threshold in ("0", "0.5", "1", "2"):
        commands.append(["compare", "--input", source, "--threshold", threshold])
    for vary in dict.fromkeys((ids[0], ids[len(ids) // 2], ids[-1])):
        sweep = ["sweep", "--input", source, "--vary", vary,
                 "--from", str(low), "--to", str(high), "--steps", "11"]
        commands += [sweep, [*sweep, "--out", OUT]]
    for vary in [*subsystems, "system", "no-such-id"]:
        commands.append(["sweep", "--input", source, "--vary", vary,
                         "--from", str(low), "--to", str(high), "--steps", "11"])
    for grid in ((low, high, 1), (low - 1, high, 11), (low, high + 1, 11)):
        for vary in (ids[0], "no-such-id"):
            commands.append(["sweep", "--input", source, "--vary", vary, "--from", str(grid[0]),
                             "--to", str(grid[1]), "--steps", str(grid[2])])
    for strategy in ("betweenness", "combined", "degree", "flow"):
        commands.append(["priorities", "--input", source, "--strategy", strategy])
    commands.append(["priorities", "--input", source, "--strategy", "combined",
                     "--group-tolerance", "0.05"])
    return commands


HIERARCHY_FAULTS = (
    "unknown-leaf", "reused-leaf", "shadowing-id", "broken-method",
    "duplicate-id", "bad-partition", "deep-unknown-leaf",
    "reused-leaf-before-subtree", "reused-leaf-after-subtree",
)
GROUP_FAULTS = (
    "unknown-member", "member-in-two-groups", "non-string-member", "empty-members",
    "zero-priority", "true-priority", "duplicate-group-id", "ungrouped-element",
)


def _hierarchy_faults(doc: dict) -> dict[str, dict]:
    """Copies of a tree-rollup document, each with one hierarchy fault."""
    variants = {}
    for fault in HIERARCHY_FAULTS:
        variant = json.loads(json.dumps(doc))
        root = variant["hierarchy"]
        first, second = root["children"][:2]
        if fault == "unknown-leaf":
            first["children"][0] = "no-such-id"
        elif fault == "reused-leaf":
            second["children"][0] = first["children"][0]
        elif fault == "shadowing-id":
            first["id"] = first["children"][0]
        elif fault == "broken-method":
            first["method"] = {"method": "bogus"}
        elif fault == "duplicate-id":
            second["id"] = first["id"]
        elif fault == "bad-partition":
            root["method"]["groups"].pop()
        else:  # faults in the deep chain, whose nodes hold (leaf, rest)
            top = bottom = root["children"][-1]
            while isinstance(bottom["children"][-1], dict):
                bottom = bottom["children"][-1]
            if fault == "deep-unknown-leaf":  # the parse's last entry
                bottom["children"][-1] = "no-such-id"
            elif fault == "reused-leaf-before-subtree":
                top["children"][0] = bottom["children"][0]
            else:  # a string child read after its subsystem sibling's subtree
                top["children"] = [top["children"][1], bottom["children"][0]]
        variants[fault] = variant
    return variants


def _group_faults(doc: dict) -> dict[str, dict]:
    """Copies of a flat-grouped document, each with one groups fault."""
    variants = {}
    for fault in GROUP_FAULTS:
        variant = json.loads(json.dumps(doc))
        first, second = variant["groups"][:2]
        if fault == "unknown-member":
            first["members"][0] = "no-such-id"
        elif fault == "member-in-two-groups":
            second["members"].append(first["members"][0])
        elif fault == "non-string-member":
            first["members"][1] = 7
        elif fault == "empty-members":
            first["members"] = []
        elif fault == "zero-priority":
            first["priority"] = 0
        elif fault == "true-priority":
            first["priority"] = True
        elif fault == "duplicate-group-id":
            second["id"] = first["id"]
        else:
            first["members"].pop()
        variants[fault] = variant
    return variants


NETWORK_FAULTS = (
    "duplicate-node", "self-loop", "undeclared-start", "undeclared-end", "duplicate-edge",
    "non-pair-edge", "list-endpoint", "one-node-route", "zero-volume", "true-volume",
    "missing-edge-route", "unknown-flow-key",
)


def _network_faults(doc: dict) -> dict[str, dict]:
    """Copies of a network-priorities document, each with one network fault."""
    variants = {}
    for fault in NETWORK_FAULTS:
        variant = json.loads(json.dumps(doc))
        nodes, edges, flows = (variant["network"][key] for key in ("nodes", "edges", "flows"))
        if fault == "duplicate-node":
            nodes.append(nodes[1])
        elif fault == "self-loop":
            edges.append([nodes[0], nodes[0]])
        elif fault == "undeclared-start":
            edges[0][0] = "no-such-node"
        elif fault == "undeclared-end":
            edges[0][1] = "no-such-node"
        elif fault == "duplicate-edge":
            edges.append(list(edges[-1]))
        elif fault == "non-pair-edge":
            edges[0].append(nodes[2])
        elif fault == "list-endpoint":
            edges[0][1] = [edges[0][1]]
        elif fault == "one-node-route":
            flows[0]["route"] = flows[0]["route"][:1]
        elif fault == "zero-volume":
            flows[0]["volume"] = 0
        elif fault == "true-volume":
            flows[0]["volume"] = True
        elif fault == "missing-edge-route":
            taken = set(map(tuple, edges))
            flows[0]["route"] = next([a, b] for a in nodes for b in nodes
                                     if a != b and (a, b) not in taken)
        else:
            flows[0]["weight"] = 1
        variants[fault] = variant
    return variants


FAULT_COPIES = {"tree-rollup": _hierarchy_faults, "flat-grouped": _group_faults,
                "network-priorities": _network_faults}
LIBRARY = "--library"
LIBRARY_CALLS = ("aggregate", "compare_methods", "sweep", "validate_hierarchy")
STRATEGIES = ("betweenness", "combined", "degree", "flow")
NETWORK_CALLS = (*(f"rank_nodes-{name}" for name in STRATEGIES), "derive_priorities",
                 "group_by_priority", "flow_volume", "validate_network")
LIBRARY_WORKLOADS = ("tree-rollup", "tree-sweep")
VECTOR_CALLS = ("adequacy_report", "adequacy_report-priorities", "check_ordering")
GROUP_CALLS = ("check_hybrid_bounds", "hybrid_grouped")


def _library_commands(source: str) -> list[list[str]]:
    """The library mix on one description file or hand-built tree."""
    return [[LIBRARY, call, source] for call in LIBRARY_CALLS]


def _vector_commands(path: Path) -> list[list[str]]:
    """The library's checks on one file's evaluation vector, and on its
    grouped system where the file has a ``groups`` section."""
    try:
        grouped = bool(json.loads(path.read_text(encoding="utf-8")).get("groups"))
    except ValueError:
        grouped = False
    return [[LIBRARY, call, str(path)] for call in VECTOR_CALLS + GROUP_CALLS * grouped]


def _network_commands(source: str) -> list[list[str]]:
    """The library's priority calls on one description's or hand-built network."""
    return [[LIBRARY, call, source] for call in NETWORK_CALLS]


def _faulty_network(aggeval, name: str):
    """A hand-built network that fails validation, which the priority
    functions read all the same."""
    net, flow = aggeval.Network, aggeval.Flow
    if name == "repeated-nodes":
        return net(("a", "b", "c", "a", "b"), (("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")),
                   (flow(("a", "b", "c", "a"), 2.0), flow(("c", "a"), 0.5), flow(("c",), 3.0)))
    if name == "undeclared-starts":  # betweenness skips these edges, degree fails
        return net(("a", "b", "c"), (("a", "b"), ("x", "b"), ("b", "c"), ("y", "z")),
                   (flow(("x", "b", "c"), 1.5), flow(("a", "b"), -1.0)))
    return net(("a", "b", "c"), (("a", "b"), ("b", "y"), ("x", "c"), ("c", "a")),
               (flow(("a", "b", "y")), flow(("c", "a", "b"), 4.0)))


FAULTY_NETWORKS = ("repeated-nodes", "undeclared-starts", "undeclared-ends")


def _faulty_tree(aggeval, name: str):
    """A hand-built tree that fails validation in more than one way."""
    node, config, group = aggeval.HierarchyNode, aggeval.MethodConfig, aggeval.Group
    if name == "reused-id-over-bad-method":
        bad = node("t", children=(node("b", 20.0, 2.0), node("c", 30.0)),
                   config=config(aggeval.Method.NAM))
        return node("r", children=(node("s", children=(node("a", 10.0),)),
                                   node("s", children=(bad, node("d", 40.0)))))
    partition = config(aggeval.Method.HYBRID_GROUPED, groups=(group("g1", ("a", "ghost")),))
    return node("r", children=(node("a", 150.0), node("b", 20.0)), config=partition)


FAULTY_TREES = ("reused-id-over-bad-method", "bad-leaf-under-bad-hybrid")


def _library_call(call: str, source: str) -> str:
    """The ``repr`` of one library call, or of the exception it raises."""
    import aggeval
    from aggeval.cli import _STRATEGIES
    from aggeval.description import load_description

    def grouped():
        return aggeval.GroupedSystem(desc.groups, desc.evaluation_vector())

    def ranked(strategy):
        return lambda: aggeval.rank_nodes(net, _STRATEGIES[strategy])

    calls = {
        "aggregate": lambda: aggeval.aggregate(tree, scale),
        "compare_methods": lambda: aggeval.compare_methods(tree, scale),
        "sweep": lambda: aggeval.sweep(tree, scale, tree.leaf_ids()[0], scale.min, scale.max, 11),
        "validate_hierarchy": lambda: aggeval.validate_hierarchy(tree, scale),
        "adequacy_report": lambda: aggeval.adequacy_report(desc.evaluation_vector()),
        "adequacy_report-priorities": lambda: aggeval.adequacy_report(
            desc.evaluation_vector(), desc.priority_vector()),
        "check_ordering": lambda: aggeval.check_ordering(desc.evaluation_vector()),
        "check_hybrid_bounds": lambda: aggeval.check_hybrid_bounds(grouped()),
        "hybrid_grouped": lambda: aggeval.hybrid_grouped(grouped()),
        **{f"rank_nodes-{name}": ranked(name) for name in STRATEGIES},
        "derive_priorities": lambda: aggeval.derive_priorities(net, _STRATEGIES["combined"]),
        "group_by_priority": lambda: aggeval.group_by_priority(
            aggeval.derive_priorities(net, _STRATEGIES["combined"]), 0.05),
        "flow_volume": lambda: aggeval.flow_volume(net),
        "validate_network": lambda: aggeval.validate_network(net),
    }
    try:  # a fixture the vector calls read may not load
        if source in FAULTY_TREES:
            tree, scale = _faulty_tree(aggeval, source), aggeval.PERCENT
        elif source in FAULTY_NETWORKS:
            net = _faulty_network(aggeval, source)
        else:
            desc = load_description(source)
            tree, scale, net = desc.hierarchy_root(), desc.scale, desc.network
        return repr(calls[call]())
    except Exception as exc:  # an error is a result too
        return f"raised {exc!r}"
PRIORITIES = (0.25, 0.5, 2, 3)


def _priority_copies(doc: dict) -> dict[str, dict]:
    """Copies of a flat-grouped document with priorities on every seventh
    element, with and without its groups."""
    grouped = json.loads(json.dumps(doc))
    for k, element in enumerate(grouped["elements"][::7]):
        element["priority"] = PRIORITIES[k % len(PRIORITIES)]
    flat = {key: value for key, value in grouped.items() if key != "groups"}
    return {"priorities": grouped, "priorities-no-groups": flat}


def _scores(values: list[float], priorities: list[float | None] | None = None,
            ids: Sequence[str] = "abcde") -> list[dict]:
    elements = [{"id": i, "evaluation": v} for i, v in zip(ids, values)]
    for element, priority in zip(elements, priorities or []):
        if priority is not None:
            element["priority"] = priority
    return elements


def _grouped_log_path(zero: bool) -> dict:
    """60 elements, one named ``system``, whose nam takes the log path: a
    group of 10 on nam's direct path, listed against child order, whose
    smallest value two members share; one of 35 on the log path; and one
    of 15, which holds a 0 when ``zero`` is set."""
    ids = ["system", *(f"v{k:02d}" for k in range(1, 60))]
    values = [round(20 + (37 * k) % 71 + k / 8, 3) for k in range(60)]
    values[52] = values[57] = 5.0
    if zero:
        values[20] = 0
    return {"elements": _scores(values, ids=ids),
            "groups": [{"id": "tied", "members": ids[:-11:-1]},
                       {"id": "wide", "members": ids[:20] + ids[35:50], "priority": 2},
                       {"id": "rest", "members": ids[20:35], "priority": 0.5}]}


OVERSHOOT = [100, 99.99999999999999, 100]
WIDE_IDS = [f"w{k:02d}" for k in range(35)]
EDGE_FILES = {  # each on the scale [0, 100] unless it gives its own
    "overshoot-nam": {"elements": _scores([99.9999999999999, 100, 99.99999999999999, 100, 100])},
    "overshoot-wlam": {"elements": _scores(OVERSHOOT, [3.3, 0.3, 3.3])},
    "overshoot-hybrid": {"elements": _scores(OVERSHOOT),
                         "groups": [{"id": "g1", "members": ["a", "c"], "priority": 3.3},
                                    {"id": "g2", "members": ["b"], "priority": 0.3}]},
    "single-element": {"elements": _scores([50]), "hierarchy": "a"},
    "wide-log-edges": {
        "scale": {"min": 0, "max": 1e6},
        "elements": _scores([0, 1e-6, 1e6, *(round(1.37 ** k, 6) for k in range(30))],
                            ids=WIDE_IDS),
    },
    "wide-huge-priority": {
        "elements": _scores([10 + 2.5 * k for k in range(35)], [None] * 7 + [1e308], WIDE_IDS),
        "groups": [{"id": f"g{g}", "members": WIDE_IDS[g::3]} for g in range(3)],
    },
    "grouped-log-path": _grouped_log_path(zero=False),
    "grouped-log-path-zero": _grouped_log_path(zero=True),
    "signed-zeros": {
        "elements": _scores([30, 20, 20, 50, 40, 0.0, -0.0, 20, 60], ids="abcdefghi"),
        "groups": [{"id": "g1", "members": ["a", "b", "c", "e"]},
                   {"id": "g2", "members": ["d", "f", "g", "h", "i"], "priority": 2}],
    },
    "limit-tree": {  # the nam subsystem below the sweep's overflow rule, the root above it
        "scale": {"min": 0, "max": 1.5e307},
        "elements": _scores([1.5e307, 1.2e307, 9e306, 6e306, 3e306, 1.5e307, 1e307],
                            ids="abcdefg"),
        "hierarchy": {
            "id": "root",
            "method": {"method": "hybrid", "groups": [
                {"id": "g1", "members": ["inner", "c", "d"]},
                {"id": "g2", "members": ["e", "f", "g"], "priority": 2}]},
            "children": [{"id": "inner", "method": {"method": "nam"}, "children": ["a", "b"]},
                         "c", "d", "e", "f", "g"],
        },
    },
    "limit-weighted": {  # likewise by the leaf priorities, with the root's scaled fallback
        "scale": {"min": 0, "max": 100},
        "elements": _scores([100, 50, 25, 12.5], [1e305, 2, 1e307], "abcd"),
        "hierarchy": {"id": "root",
                      "children": [{"id": "inner", "children": ["a", "b"]}, "c", "d"]},
    },
}


def _edge_commands(workdir: Path) -> list[list[str]]:
    """The mix of each small generated file, then ``compare`` with a
    negative threshold that has an exponent, which argparse reads as an
    option after a space."""
    commands = []
    for name, doc in EDGE_FILES.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"scale": {"min": 0, "max": 100}, **doc}), encoding="utf-8")
        commands += _file_commands(path) + _vector_commands(path)
        if name.startswith("overshoot-"):
            commands += _library_commands(str(path))
        if name == "signed-zeros":
            commands.append(["sweep", "--input", str(path), "--vary", "e",
                             "--from", "0", "--to", "-0", "--steps", "3"])
    weak = str(FIXTURES / "weak_element.json")
    return [*commands, ["compare", "--input", weak, "--threshold", "-1e5"],
            ["compare", "--input", weak, "--threshold=-1e5"]]


def _error_commands(workdir: Path) -> list[list[str]]:
    """Usage errors, then paths that cannot be opened as ``--input`` and as
    ``--out``."""
    weak = str(FIXTURES / "weak_element.json")
    loop = workdir / "loop"
    loop.symlink_to(loop.name)
    bad_paths = [f"{weak}/x", str(workdir / ("x" * 300)), str(loop)]
    sweep = ["sweep", "--input", weak, "--vary", "s1", "--from", "0", "--to", "100", "--steps"]
    return [[], ["destroy"], ["evaluate"], ["evaluate", "--input", weak, "--method", "median"],
            [*sweep, "x"], *(["evaluate", "--input", path] for path in bad_paths),
            *([*sweep, "3", "--out", path] for path in bad_paths)]


def _perfbench(name: str):
    """A module of ``perfbench/`` by file name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _command_mix(workdir: Path, fixtures_only: bool) -> list[list[str]]:
    commands = []
    for path in sorted(FIXTURES.glob("*.json")):
        commands += _file_commands(path) + _vector_commands(path)
        if '"hierarchy"' in path.read_text(encoding="utf-8"):
            commands += _library_commands(str(path))
        if '"network"' in path.read_text(encoding="utf-8"):
            commands += _network_commands(str(path))
    for name in FAULTY_TREES:
        commands += _library_commands(name)
    for name in FAULTY_NETWORKS:
        commands += _network_commands(name)
    commands += _error_commands(workdir)
    commands += _edge_commands(workdir)
    if fixtures_only:
        return commands
    workloads = _perfbench("workloads")
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            prepared = workloads.materialize(name, seed, str(workdir / f"{name}-{seed}"))
            commands += _file_commands(Path(prepared.path))
            if name in LIBRARY_WORKLOADS and seed == SEEDS[0]:
                commands += _library_commands(prepared.path)
            if name == "network-priorities" and seed == SEEDS[0]:
                commands += _network_commands(prepared.path)
            for command in prepared.commands:
                argv = list(command.argv)
                if command.out_path is not None:
                    argv[argv.index(command.out_path)] = OUT
                commands.append(argv)
            if name in FAULT_COPIES and seed == SEEDS[0]:
                for fault, doc in FAULT_COPIES[name](prepared.doc).items():
                    path = workdir / f"{name}-{seed}-{fault}.json"
                    path.write_text(json.dumps(doc), encoding="utf-8")
                    commands += [[str(path) if arg == prepared.path else arg for arg in c.argv]
                                 for c in prepared.commands]
            if name == "flat-grouped" and seed == SEEDS[0]:
                commands += _vector_commands(Path(prepared.path))
                for label, doc in _priority_copies(prepared.doc).items():
                    path = workdir / f"{name}-{seed}-{label}.json"
                    path.write_text(json.dumps(doc), encoding="utf-8")
                    commands += _file_commands(path) + _vector_commands(path)
    return commands


def _surface(package) -> list[list[str]]:
    """Each public name with where it is defined, or with its type name and
    ``repr`` for a constant."""
    records = []
    for name in sorted(package.__all__):
        value = getattr(package, name)
        qualname = getattr(value, "__qualname__", None)
        if qualname is None:
            records.append([name, type(value).__name__, repr(value)])
        else:
            records.append([name, value.__module__, qualname])
    return records


def _worker(commands_file: str, src: str) -> None:
    """Run every command and library call in-process, then record the
    library surface; write the outcomes as JSON to stdout."""
    import aggeval.cli

    package = Path(aggeval.cli.__file__).resolve().parent
    if package.parent != Path(src):
        sys.exit(f"aggeval imported from {package}, not from {src}")
    results = []
    for argv in json.loads(Path(commands_file).read_text(encoding="utf-8")):
        if argv[:1] == [LIBRARY]:
            results.append([0, _library_call(*argv[1:]), "", None])
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code: object = aggeval.cli.main(argv)
            except BaseException as exc:  # an escaped exception is a result too
                code = f"raised {type(exc).__name__}: {exc}"
        written = None
        if os.path.exists(OUT):
            written = Path(OUT).read_text(encoding="utf-8")
            os.remove(OUT)
        results.append([code, out.getvalue(), err.getvalue(), written])
    results.append(_surface(aggeval))
    json.dump(results, sys.stdout)


def _run_side(src: str, commands_file: Path, workdir: Path) -> list:
    workdir.mkdir()
    src = str(Path(src).resolve())
    # A fixed width, so usage lines wrap the same in every terminal.
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(commands_file), src],
        cwd=workdir, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"worker for {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _surface_change(first: list, second: list) -> str | None:
    """The public names whose records differ, or None."""
    if first == second:
        return None
    changed = {tuple(r) for r in first} ^ {tuple(r) for r in second}
    return ", ".join(sorted({r[0] for r in changed})) or "a name listed twice"


def _golden(commands: list[list[str]], results: list, files: dict, workdir: Path) -> dict:
    """Per call its argv, exit code and output digest, with the repository
    root and the scratch directory replaced by placeholders."""
    digest = _perfbench("reference").digest
    places = sorted([(str(workdir), "<work>"), (str(ROOT), "<root>")], key=lambda p: -len(p[0]))

    def placed(text):
        for path, name in places:
            text = text.replace(path, name)
        return text

    entries = []
    for argv, (code, out, err, written) in zip(commands, results):
        data = None if written is None else placed(written).encode("utf-8")
        code = code if isinstance(code, int) else placed(code)
        entries.append([placed(" ".join(argv)), code, digest(placed(out), placed(err), data)])
    return {"python": "%d.%d" % sys.version_info[:2], "files": files,
            "surface": results[-1], "entries": entries}


def _write_golden(path: Path, golden: dict) -> None:
    """The golden as JSON with one call per line."""
    head = json.dumps({key: golden[key] for key in ("python", "files", "surface")}, indent=1)
    entries = ",\n  ".join(json.dumps(entry) for entry in golden["entries"])
    path.write_text(f'{head[:-2]},\n "entries": [\n  {entries}\n ]\n}}\n', encoding="utf-8")


def _golden_differences(recorded: dict, current: dict) -> tuple[list[str], int]:
    """Lines naming each generated file and call that differs, and how
    many of them differ."""
    lines = []
    if recorded["python"] != current["python"]:
        lines.append(f"note: recorded with Python {recorded['python']}, run with {current['python']}")
    changed_files = sorted(name for name in recorded["files"].keys() | current["files"].keys()
                           if recorded["files"].get(name) != current["files"].get(name))
    lines += [f"differs (generated input): {name}" for name in changed_files]
    outcomes: dict[str, list] = {}
    for argv, code, key in recorded["entries"]:
        outcomes.setdefault(argv, [[], []])[0].append([code, key])
    for argv, code, key in current["entries"]:
        outcomes.setdefault(argv, [[], []])[1].append([code, key])
    differing = skipped = 0
    for argv, (was, now) in outcomes.items():
        if was == now:
            continue
        if any(f"<work>/{name}" in argv for name in changed_files):
            skipped += 1
            continue
        differing += 1
        state = "not in the golden" if not was else "not run" if not now else "differs"
        lines.append(f"{state}: aggeval {argv}")
    surface = _surface_change(recorded["surface"], current["surface"])
    if surface is not None:
        differing += 1
        lines.append(f"differs (library surface): {surface}")
    total = len(current["entries"]) + 1
    lines.append(f"{differing} of {total} calls differ"
                 + (f"; {skipped} more differ on changed generated inputs" if skipped else ""))
    return lines, differing + len(changed_files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", help="src directory of the first side")
    parser.add_argument("second", nargs="?", help="src directory of the second side")
    parser.add_argument("--fixtures-only", action="store_true",
                        help="skip the generated workload files")
    parser.add_argument("--golden", type=Path, metavar="FILE",
                        help="compare the first side with the digests in FILE")
    parser.add_argument("--record", action="store_true", help="write FILE from the first side")
    args = parser.parse_args(argv)
    if (args.second is None) == (args.golden is None) or args.record and args.golden is None:
        parser.error("give a second side or --golden FILE, and --record only with --golden")
    if args.golden is not None and args.fixtures_only:
        parser.error("the golden covers the whole mix; --fixtures-only does not apply")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        commands = _command_mix(workdir, args.fixtures_only)
        files = {path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(workdir.rglob("*.json"))}
        commands_file = workdir / "commands.json"
        commands_file.write_text(json.dumps(commands), encoding="utf-8")
        first = _run_side(args.first, commands_file, workdir / "first")
        if args.golden is not None:
            current = _golden(commands, first, files, workdir)
        else:
            second = _run_side(args.second, commands_file, workdir / "second")
    if args.record:
        _write_golden(args.golden, current)
        print(f"recorded {len(current['entries']) + 1} calls in {args.golden}")
        return 0
    if args.golden is not None:
        lines, differing = _golden_differences(
            json.loads(args.golden.read_text(encoding="utf-8")), current)
        print("\n".join(lines))
        return 1 if differing else 0
    parts = ("exit code", "stdout", "stderr", "written file")
    differing = 0
    for argv_, a, b in zip(commands, first, second):
        changed = [part for part, x, y in zip(parts, a, b) if x != y]
        if changed:
            differing += 1
            print(f"differs ({', '.join(changed)}): aggeval {' '.join(argv_)}")
    surface = _surface_change(first[-1], second[-1])
    if surface is not None:
        differing += 1
        print(f"differs (library surface): {surface}")
    print(f"{differing} of {len(commands) + 1} calls differ")
    return 1 if differing else 0

if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:])
    else:
        sys.exit(main())
