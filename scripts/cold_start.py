#!/usr/bin/env python3
"""Compare the cold start of two source trees of aggeval.

Usage:

    python3 scripts/cold_start.py <first src> <second src> [--workload W] [--pairs N] [--seed S]

Each ``src`` is a directory holding the ``aggeval`` package.  The script
writes the workload's file with ``perfbench/workloads.py`` and then takes
``N`` pairs of set-up samples with ``perfbench/setup_probe.py``, each in a
fresh ``-I`` interpreter: the process CPU time of ``import aggeval.cli``
plus the first call of each command of the workload's round, as the
benchmark's ``setup_s`` measures it.  The side that runs first alternates
from pair to pair.

It prints each side's median, the median and quartiles of the per-pair
ratios second/first, the number of pairs in which the second side is
lower, and whether every sample of both sides gave the same exit codes
and output digests.  It exits 1 when they differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, materialize  # noqa: E402


def _sample(src: str, argvs: str) -> tuple[float, list]:
    """Seconds and per-call digests of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", str(PERFBENCH / "setup_probe.py"), src, argvs],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return result["seconds"], result["calls"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", help="src directory of the first side")
    parser.add_argument("second", help="src directory of the second side")
    parser.add_argument("--workload", choices=WORKLOADS, default="tree-sweep")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = (str(Path(args.first).resolve()), str(Path(args.second).resolve()))
    seconds: tuple[list[float], list[float]] = ([], [])
    digests: set[str] = set()
    with tempfile.TemporaryDirectory() as workdir:
        prepared = materialize(args.workload, args.seed, workdir)
        argvs = json.dumps([list(command.argv) for command in prepared.commands])
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                taken, calls = _sample(sides[side], argvs)
                seconds[side].append(taken)
                digests.add(json.dumps(calls))
    ratios = [b / a for a, b in zip(*seconds)]
    q1, median, q3 = _quartiles(ratios)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, order alternating")
    for name, values in zip(("first", "second"), seconds):
        print(f"{name} median {statistics.median(values) * 1e3:.1f} ms")
    print(f"second/first ratio median {median:.3f}, q1 {q1:.3f}, q3 {q3:.3f}")
    print(f"second lower in {sum(b < a for a, b in zip(*seconds))} of {args.pairs} pairs")
    agree = len(digests) == 1
    print(f"call digests agree: {'yes' if agree else 'no'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
