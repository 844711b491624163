"""aggeval benchmark: per-command latency on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workload's description file is generated from the seed, then one
client drives ``aggeval.cli.main([...])`` in-process in a closed loop:
each call starts only after the previous one returned, one thread, no
subprocess per timed call.  A round is one call of each command of the
workload's mix; rounds repeat until ``--seconds`` have passed.  Every
call is checked (exit code, output bytes equal to the first call of the
same command, first call against a plain-Python reference).

Latencies and set-up are CPU time (of the calling thread; of the fresh
interpreter for set-up).  The benchmark is one thread whose only I/O is
a small file read and write, and on a shared machine wall time also
counts the time other processes hold the core, which made wall-time
figures too unsteady to gate on.  CPU time still follows the speed of
the shared core, so the gated round latency is ``round_cost``, in
multiples of the fixed reference job of ``calibration.py`` that runs
between rounds: ``round_cost.p50`` is the median over rounds of a
round's CPU time divided by the mean of the jobs just before and just
after it, and ``round_cost.mean`` is the mean round CPU time divided by
the mean job CPU time (it also carries the rounds that pay for garbage
collection or other rare work).  The p90 of ``round_cost`` and the
per-command CPU and wall-time p50/p90 in ms are printed, not gated.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of
``layers.py``.  Human-readable lines come first; the last line of
standard output is the JSON result.  Generated files, the sweep output
and the recorded spans go to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from calibration import reference_ms
from layers import LAYER_METRICS
from reference import Checker, Expected
from workloads import WORKLOADS, materialize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is sampled this many times, each in a fresh interpreter, spread
# evenly over the timed loop, and reported as the median: single samples,
# or samples taken together, follow the shared core's speed of the moment
# and are too unsteady to gate on.
SETUP_SAMPLES = 11

# End-to-end metrics reported with --trace 0, as in BENCHMARK.json.
END_TO_END = (
    ("round_cost.p50", "x"),
    ("round_cost.mean", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def invoke(cli, command) -> tuple[float, float, int, str, str, bytes | None]:
    """One ``cli.main`` call with captured output.

    Returns the call's thread CPU time and wall time in ms, exit code,
    stdout, stderr and the bytes of the file the command writes (None
    for commands that write none).
    """
    if command.out_path and os.path.exists(command.out_path):
        os.unlink(command.out_path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        wall = time.perf_counter()
        cpu = time.thread_time()
        rc = cli.main(list(command.argv))
        cpu = time.thread_time() - cpu
        wall = time.perf_counter() - wall
    data = None
    if command.out_path:
        try:
            with open(command.out_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
    return cpu * 1e3, wall * 1e3, rc, out.getvalue(), err.getvalue(), data


def run_call(cli, command, checker: Checker) -> tuple[float, float, int]:
    """One checked call; returns CPU ms, wall ms and output bytes."""
    try:
        cpu, wall, rc, out, err, data = invoke(cli, command)
    except Exception as exc:  # a crash is a failed call, not a dead run
        checker.fail(command.name, f"raised {exc!r}")
        return math.nan, math.nan, 0
    checker.record(command.name, rc, out, err, data)
    return cpu, wall, len(out.encode("utf-8")) + len(data or b"")


def setup_sample(prepared, checker: Checker) -> float:
    """Set-up seconds of one fresh interpreter; its calls are checked."""
    argvs = json.dumps([list(c.argv) for c in prepared.commands])
    probe = os.path.join(HERE, "setup_probe.py")
    done = subprocess.run(
        [sys.executable, "-I", probe, SRC, argvs],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    for command, (rc, key) in zip(prepared.commands, result["calls"]):
        checker.repeat(command.name, rc, key)
    return result["seconds"]


def commit() -> str:
    """HEAD commit when the checkout carries git metadata."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        return head
    except OSError:
        return "unknown (no git metadata)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


@dataclass
class Round:
    """One call of each command: CPU and wall ms per call, traced or not.

    ``reference`` is the mean CPU ms of the reference jobs run just
    before and just after the round.
    """

    cpu: list[float]
    wall: list[float]
    traced: bool
    layers: dict[str, float] | None = None
    reference: float = math.nan

    @property
    def cost(self) -> float:
        return sum(self.cpu) / self.reference


def timed_loop(cli, prepared, checker, seconds, tracer=None):
    """Rounds until ``seconds`` pass; with a tracer every other round is traced.

    A reference job runs before the first round and after every round.
    Between rounds, set-up samples are taken at evenly spaced times.
    Returns the rounds, the spans of the first traced round and the
    set-up samples.
    """
    rounds: list[Round] = []
    spans: list[dict] = []
    setup: list[float] = []
    call_id = 0
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + seconds * (k + 0.5) / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    before = reference_ms()
    while True:
        traced = tracer is not None and bool(rounds) and not rounds[-1].traced
        current = Round([], [], traced, {} if traced else None)
        if traced:
            tracer.install()
        try:
            for command in prepared.commands:
                call_id += 1
                if traced:
                    tracer.begin_call(call_id)
                cpu, wall, output_bytes = run_call(cli, command, checker)
                current.cpu.append(cpu)
                current.wall.append(wall)
                if traced:
                    totals = tracer.end_call()
                    totals["cli.output_bytes"] = output_bytes
                    for key, value in totals.items():
                        current.layers[key] = current.layers.get(key, 0) + value
                    if not any(r.traced for r in rounds):
                        spans.extend(tracer.span_records())
        finally:
            if traced:
                tracer.uninstall()
        after = reference_ms()
        current.reference = (before + after) / 2
        before = after
        rounds.append(current)
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            setup.append(setup_sample(prepared, checker))
            before = reference_ms()
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    setup.extend(setup_sample(prepared, checker) for _ in due)
    return rounds, spans, setup


def layer_metrics(rounds: list[Round], calls_per_round: int):
    """Per-CLI-call layer metrics from the per-round totals of traced rounds.

    Times are the median over traced rounds; counts must be identical in
    every traced round.  Returns the metrics and the names of counts that
    varied between rounds.
    """
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    metrics, unsteady = {}, []
    for name, unit, _, key, _ in LAYER_METRICS:
        if name == "trace.overhead_ms":
            # In reference-job units first, so that a change of the core's
            # speed between traced and untraced rounds does not show.
            value = (
                statistics.median(r.cost for r in traced)
                - statistics.median(r.cost for r in untraced)
            ) * statistics.median(r.reference for r in rounds)
        else:
            per_round = [r.layers.get(key, 0) for r in traced]
            if key.endswith(".ms"):
                value = statistics.median(per_round)
            else:
                if len(set(per_round)) != 1:
                    unsteady.append(name)
                value = per_round[0]
        metrics[name] = {"value": value / calls_per_round, "unit": unit}
    return metrics, unsteady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "aggeval", "cli.py")):
        print(f"error: no aggeval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import aggeval.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported aggeval from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    prepared = materialize(args.workload, args.seed, workdir)
    expected = Expected(prepared.name, prepared.doc, prepared.vary_id)
    checker = Checker(expected)
    for command in prepared.commands:  # first call: checked, not timed
        run_call(cli, command, checker)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds, spans, setup = timed_loop(cli, prepared, checker, args.seconds, tracer)
    untraced = [r for r in rounds if not r.traced]

    print(f"# workload {prepared.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# python {platform.python_version()}, commit {commit()}")
    print(f"# nproc {os.cpu_count()}, cpu {cpu_model()}")
    print(f"# input {os.path.relpath(prepared.path, ROOT)}: {prepared.size} bytes, sha256 {prepared.digest}")
    print("# closed loop, 1 client, in-process cli.main; round = "
          + " + ".join(c.name for c in prepared.commands))
    print(f"# rounds {len(untraced)} untraced, {len(rounds) - len(untraced)} traced; "
          f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    for k, command in enumerate(prepared.commands):
        for clock in ("cpu", "wall"):
            values = [getattr(r, clock)[k] for r in untraced]
            for label, value in (("p50", statistics.median(values)), ("p90", p90(values))):
                print(f"{command.name}_{clock}_ms.{label} = {value:.3f} ms (n={len(values)})")
    reference = [r.reference for r in untraced]
    round_cpu = [sum(r.cpu) for r in untraced]
    print(f"reference_job_cpu_ms.p50 = {statistics.median(reference):.3f} ms "
          f"(min {min(reference):.3f}, max {max(reference):.3f})")
    print(f"round_cpu_ms.p50 = {statistics.median(round_cpu):.3f} ms, "
          f"p90 = {p90(round_cpu):.3f} ms")
    print(f"round_cost.p90 = {p90([r.cost for r in untraced]):.4f} x (not gated: the "
          "tail follows changes of the core's speed within a round)")
    print(f"error_rate = {checker.failed / checker.attempted:.6g} fraction "
          f"({checker.failed} of {checker.attempted} calls)")
    for problem in checker.problems:
        print(f"# check failed: {problem}")

    correct = checker.failed == 0
    if tracer is None:
        values = {
            "round_cost.p50": statistics.median(r.cost for r in rounds),
            "round_cost.mean": statistics.fmean(sum(r.cpu) for r in rounds)
            / statistics.fmean(r.reference for r in rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    else:
        metrics, unsteady = layer_metrics(rounds, len(prepared.commands))
        for name in unsteady:
            print(f"# count {name} differs between traced rounds")
        correct = correct and not unsteady
        moves = {row[0]: row[4] for row in LAYER_METRICS}
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}  [moves: {moves[name]}]")
        spans_path = os.path.join(workdir, "spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(s) + "\n" for s in spans)
        print(f"# spans of the first traced round: {os.path.relpath(spans_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
