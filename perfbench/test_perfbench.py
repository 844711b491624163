"""Self-tests of the benchmark: generators, output checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import aggeval.cli as cli  # noqa: E402
import aggeval.priority  # noqa: E402
from calibration import reference_ms  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from reference import Checker, Expected  # noqa: E402
from run import END_TO_END, invoke  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, materialize  # noqa: E402


def first_outputs(name: str, directory: str):
    prepared = materialize(name, 7, directory)
    calls = [(c.name, *invoke(cli, c)[2:]) for c in prepared.commands]
    return prepared, calls


def perturb(text: str) -> str:
    """Scale the first decimal number in ``text`` by 1%."""
    match = re.search(r"\d+\.\d+", text)
    changed = f"{float(match.group()) * 1.01:.6g}"
    return text[: match.start()] + changed + text[match.end() :]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_files(name, tmp_path):
    a = materialize(name, 11, str(tmp_path / "a"))
    b = materialize(name, 11, str(tmp_path / "b"))
    c = materialize(name, 12, str(tmp_path / "c"))
    with open(a.path, "rb") as fa, open(b.path, "rb") as fb:
        assert fa.read() == fb.read()
    assert a.digest == b.digest != c.digest


@pytest.mark.parametrize("name", WORKLOADS)
def test_perturbed_output_counts_as_failure(name, tmp_path):
    prepared, calls = first_outputs(name, str(tmp_path))
    expected = Expected(name, prepared.doc, prepared.vary_id)
    checker = Checker(expected)
    for command, rc, out, err, data in calls:
        assert checker.record(command, rc, out, err, data), checker.problems
        assert checker.record(command, rc, out, err, data)
    assert checker.failed == 0

    for command, rc, out, err, data in calls:
        # A wrong number in the first output disagrees with the reference.
        fresh = Checker(expected)
        if data is None:
            assert not fresh.record(command, rc, perturb(out), err, data)
        else:
            bad = perturb(data.decode("utf-8")).encode("utf-8")
            assert not fresh.record(command, rc, out, err, bad)
        assert fresh.failed == fresh.attempted == 1
        # A later call must repeat the first one's exit code and bytes.
        assert not checker.record(command, rc + 1, out, err, data)
        assert not checker.record(command, rc, out + " ", err, data)
        assert not checker.record(command, rc, out, "warning\n", data)
    assert checker.failed == 3 * len(calls)


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _, _ in LAYER_METRICS
    ]


def test_trace_counts_repeat_and_originals_return(tmp_path):
    prepared = materialize("network-priorities", 7, str(tmp_path))
    original = aggeval.priority.betweenness_centrality
    tracer = Tracer()
    totals = []
    for call_id in (1, 2):
        tracer.install()
        try:
            tracer.begin_call(call_id)
            invoke(cli, prepared.commands[0])
            totals.append(tracer.end_call())
            records = tracer.span_records()
        finally:
            tracer.uninstall()
    assert aggeval.priority.betweenness_centrality is original
    counts = [{k: v for k, v in t.items() if not k.endswith(".ms")} for t in totals]
    assert counts[0] == counts[1]
    assert counts[0]["priority.betweenness_centrality.calls"] == 2
    assert counts[0]["cli.main.calls"] == 1
    root = [r for r in records if r["parent"] == -1]
    assert [r["name"] for r in root] == ["cli.main"]
    assert {r["call"] for r in records} == {2}


def test_reference_job_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert reference_ms() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert reference_ms() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
