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
* ``sweep`` of the first and the last element, to stdout and to ``--out``;
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
  priority, a duplicate group id, and an element in no group.

They run the parser's reporting checks, or for the duplicate subsystem
id and the bad partition the tree validation, at workload size.  Two
more copies of seed-1 flat-grouped give every seventh element a
priority, some below 1, one with its groups and one without; the whole
mix of a file runs on each, so the flat summary's ``nam`` without a
value, weighted ``wlam`` and wem-then's top-priority critical set are
covered.
``--fixtures-only`` skips them.  Every call whose exit code, stdout,
stderr or written file differs between the sides is printed.  One more
entry compares the library surface: the sorted ``aggeval.__all__`` with
each name's ``__module__`` and ``__qualname__`` (a constant's type name
and ``repr``), so a public name dropped or moved shows up as well.  The
exit status is 1 if anything differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
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
    for vary in dict.fromkeys((ids[0], ids[-1])):
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


FAULT_COPIES = {"tree-rollup": _hierarchy_faults, "flat-grouped": _group_faults}
PRIORITIES = (0.25, 0.5, 2, 3)


def _priority_copies(doc: dict) -> dict[str, dict]:
    """Copies of a flat-grouped document with priorities on every seventh
    element, with and without its groups."""
    grouped = json.loads(json.dumps(doc))
    for k, element in enumerate(grouped["elements"][::7]):
        element["priority"] = PRIORITIES[k % len(PRIORITIES)]
    flat = {key: value for key, value in grouped.items() if key != "groups"}
    return {"priorities": grouped, "priorities-no-groups": flat}


def _command_mix(workdir: Path, fixtures_only: bool) -> list[list[str]]:
    commands = []
    for path in sorted(FIXTURES.glob("*.json")):
        commands += _file_commands(path)
    if fixtures_only:
        return commands
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            prepared = workloads.materialize(name, seed, str(workdir / f"{name}-{seed}"))
            commands += _file_commands(Path(prepared.path))
            for command in prepared.commands:
                argv = list(command.argv)
                if command.out_path is not None:
                    argv[argv.index(command.out_path)] = OUT
                commands.append(argv)
            if name in FAULT_COPIES and seed == SEEDS[0]:
                for fault, doc in FAULT_COPIES[name](prepared.doc).items():
                    path = workdir / f"{name}-{seed}-{fault}.json"
                    path.write_text(json.dumps(doc), encoding="utf-8")
                    commands += [["evaluate", "--input", str(path)],
                                 ["compare", "--input", str(path)]]
            if name == "flat-grouped" and seed == SEEDS[0]:
                for label, doc in _priority_copies(prepared.doc).items():
                    path = workdir / f"{name}-{seed}-{label}.json"
                    path.write_text(json.dumps(doc), encoding="utf-8")
                    commands += _file_commands(path)
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
    """Run every command in-process, then record the library surface; write
    the outcomes as JSON to stdout."""
    import aggeval.cli

    package = Path(aggeval.cli.__file__).resolve().parent
    if package.parent != Path(src):
        sys.exit(f"aggeval imported from {package}, not from {src}")
    results = []
    for argv in json.loads(Path(commands_file).read_text(encoding="utf-8")):
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
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(commands_file), src],
        cwd=workdir, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"worker for {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", help="src directory of the first side")
    parser.add_argument("second", help="src directory of the second side")
    parser.add_argument("--fixtures-only", action="store_true",
                        help="skip the generated workload files")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        commands = _command_mix(workdir, args.fixtures_only)
        commands_file = workdir / "commands.json"
        commands_file.write_text(json.dumps(commands), encoding="utf-8")
        first = _run_side(args.first, commands_file, workdir / "first")
        second = _run_side(args.second, commands_file, workdir / "second")
    parts = ("exit code", "stdout", "stderr", "written file")
    differing = 0
    for argv_, a, b in zip(commands, first, second):
        changed = [part for part, x, y in zip(parts, a, b) if x != y]
        if changed:
            differing += 1
            print(f"differs ({', '.join(changed)}): aggeval {' '.join(argv_)}")
    if first[-1] != second[-1]:
        differing += 1
        changed = {tuple(r) for r in first[-1]} ^ {tuple(r) for r in second[-1]}
        names = ", ".join(sorted({r[0] for r in changed})) or "a name listed twice"
        print(f"differs (library surface): {names}")
    print(f"{differing} of {len(commands) + 1} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:])
    else:
        sys.exit(main())
