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
* ``compare`` at thresholds 0, 0.5 and 1;
* ``sweep`` of the first and the last element, to stdout and to ``--out``;
* ``priorities`` with every strategy, and combined with a group tolerance.

The generated files are the four benchmark workloads at seeds 1 and 7,
made by ``perfbench/workloads.py``; their own commands run as well.
``--fixtures-only`` skips them.  Every call whose exit code, stdout,
stderr or written file differs between the sides is printed; the exit
status is 1 if any differs, else 0.
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
    except (ValueError, KeyError, TypeError):
        ids, low, high = ["missing"], 0, 100
    commands = []
    for fmt in ("text", "json", "csv"):
        for method in (None, "wem", "wlam", "nam", "hybrid", "wem-then"):
            extra = [] if method is None else ["--method", method]
            commands.append(["evaluate", "--input", source, "--format", fmt, *extra])
    for threshold in ("0", "0.5", "1"):
        commands.append(["compare", "--input", source, "--threshold", threshold])
    for vary in dict.fromkeys((ids[0], ids[-1])):
        sweep = ["sweep", "--input", source, "--vary", vary,
                 "--from", str(low), "--to", str(high), "--steps", "11"]
        commands += [sweep, [*sweep, "--out", OUT]]
    for strategy in ("betweenness", "combined", "degree", "flow"):
        commands.append(["priorities", "--input", source, "--strategy", strategy])
    commands.append(["priorities", "--input", source, "--strategy", "combined",
                     "--group-tolerance", "0.05"])
    return commands


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
    return commands


def _worker(commands_file: str, src: str) -> None:
    """Run every command in-process; write the outcomes as JSON to stdout."""
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
    print(f"{differing} of {len(commands)} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:])
    else:
        sys.exit(main())
