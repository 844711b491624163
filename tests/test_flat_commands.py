"""Flat ``compare`` and ``sweep`` against the library on the synthetic root.

A description without a ``hierarchy`` section is compared and swept from
its element vector; the library functions take ``hierarchy_root()``'s
synthetic single-level tree instead.  Both must print the same bytes,
write the same ``--out`` file and exit with the same code.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from aggeval import cli
from aggeval.description import SystemDescription, _lowered, load_description
from aggeval.hierarchy import compare_methods, sweep

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _library_compare(args):
    desc = load_description(args.input)
    rows = compare_methods(desc.hierarchy_root(), desc.scale, args.threshold)
    return cli._emit_comparison(rows)


def _library_sweep(args):
    desc = load_description(args.input)
    rows = sweep(
        desc.hierarchy_root(), desc.scale, args.vary, args.start, args.stop, args.steps
    )
    cli._emit_sweep(rows, args.out)
    return cli.EXIT_OK


def _call(argv, out_path=None):
    """Exit code, stdout, stderr and the ``--out`` file of one in-process call."""
    if out_path is not None and os.path.exists(out_path):
        os.remove(out_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = None
    if out_path is not None and os.path.exists(out_path):
        written = Path(out_path).read_bytes()
    return code, out.getvalue(), err.getvalue(), written


def _argv_cases(path, ids, root_id, out_path):
    """Every compare and sweep call of one flat document, with its out file."""
    cases = [(["compare", "--input", path, "--threshold", t], None) for t in ("0", "1")]
    grid = ["--from", "0", "--to", "100", "--steps", "5"]
    for vary in (ids[0], ids[-1], "ghost", root_id):
        argv = ["sweep", "--input", path, "--vary", vary, *grid]
        cases.append((argv, None))
        cases.append((argv + ["--out", out_path], out_path))
    for bad in (
        ["--from", "0", "--to", "100", "--steps", "1"],
        ["--from", "-1", "--to", "100", "--steps", "5"],
        ["--from", "0", "--to", "101", "--steps", "5"],
        ["--from", "-1", "--to", "101", "--steps", "1"],
    ):
        for vary in (ids[0], "ghost", root_id):
            cases.append((["sweep", "--input", path, "--vary", vary, *bad], None))
    return cases


def _assert_flat_matches_library(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flat.json")
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        desc = load_description(path)
        ids = [e.id for e in desc.elements]
        root_id = desc.hierarchy_root().id
        for argv, out_path in _argv_cases(path, ids, root_id, os.path.join(tmp, "o.csv")):
            flat = _call(argv, out_path)
            with mock.patch.object(cli, "_cmd_compare", _library_compare), mock.patch.object(
                cli, "_cmd_sweep", _library_sweep
            ):
                library = _call(argv, out_path)
            assert flat == library, argv


SCALE = {"min": 0, "max": 100}


def _doc(values, priorities=None, groups=None, ids=None):
    ids = ids or [f"e{k}" for k in range(len(values))]
    elements = []
    for k, (element_id, value) in enumerate(zip(ids, values)):
        element = {"id": element_id, "evaluation": value}
        if priorities and priorities[k] is not None:
            element["priority"] = priorities[k]
        elements.append(element)
    doc = {"scale": SCALE, "elements": elements}
    if groups:
        doc["groups"] = [
            {"id": f"g{k}", "members": [ids[i] for i in members], "priority": priority}
            for k, (members, priority) in enumerate(groups)
        ]
    return doc


FLAT_CASES = {
    "weak_element": _doc([100, 100, 100, 10]),
    "with_priorities": _doc([80, 20, 50], priorities=[2, None, 0.5]),
    "groups": _doc([100, 100, 100, 50, 50], groups=[([0, 1, 2], 1.0), ([3, 4], 0.5)]),
    "groups_and_priorities": _doc(
        [90, 30, 60, 30], priorities=[None, 3, None, 1], groups=[([3, 1], 2.0), ([2, 0], 1.0)]
    ),
    "ties_at_the_minimum": _doc([40, 10, 70, 10, 10], groups=[([4, 0, 1], 1.0), ([2, 3], 1.0)]),
    "zero_values": _doc([0, 50, 0.0, 100], groups=[([1, 0], 1.0), ([3, 2], 3.0)]),
    "all_equal": _doc([60, 60, 60], groups=[([0, 1, 2], 1.0)]),
    "single_element": _doc([42]),
    "single_element_grouped": _doc([0], groups=[([0], 2.0)]),
    "ids_system": _doc([30, 70, 30], ids=["system", "b", "c"], groups=[([1, 0], 1.0), ([2], 1.0)]),
    "ids_system_plus": _doc([30, 70], ids=["system+", "system"]),
    "element_priorities_overflow": _doc([50, 60], priorities=[1e308, 1e308]),
    "group_priorities_overflow": _doc([50, 60], groups=[([0], 1e308), ([1], 1e308)]),
    "both_priorities_overflow": _doc(
        [50, 60], priorities=[1e308, 1e308], groups=[([0], 1e308), ([1], 1e308)]
    ),
}


FLAT_FIXTURES = [
    "all_equal.json",
    "path_network.json",
    "single_leaf.json",
    "tie_break_network.json",
    "two_group.json",
    "weak_element.json",
    "weak_element_n4.json",
    "weak_element_n5.json",
]


class TestFlatMatchesLibrary:
    @pytest.mark.parametrize("name", sorted(FLAT_CASES))
    def test_named_documents(self, name):
        _assert_flat_matches_library(FLAT_CASES[name])

    @pytest.mark.parametrize("name", FLAT_FIXTURES)
    def test_flat_fixtures(self, fixture_path, name):
        doc = json.loads(Path(fixture_path(name)).read_text(encoding="utf-8"))
        assert "hierarchy" not in doc
        _assert_flat_matches_library(doc)

    @pytest.mark.parametrize(
        "name", ["element_priorities_overflow", "group_priorities_overflow"]
    )
    def test_overflow_is_one_error_line(self, name, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(FLAT_CASES[name]), encoding="utf-8")
        for argv in (
            ["compare", "--input", str(path)],
            ["sweep", "--input", str(path), "--vary", "e0", "--from", "0", "--to", "1",
             "--steps", "2"],
        ):
            code, out, err, _ = _call(argv)
            assert (code, out) == (2, "")
            assert err == "error: numeric overflow: intermediate overflow in fsum\n"

    def test_root_id_is_a_subsystem(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(FLAT_CASES["weak_element"]), encoding="utf-8")
        argv = ["sweep", "--input", str(path), "--vary", "system", "--from", "0",
                "--to", "1", "--steps", "2"]
        assert _call(argv) == (
            2, "", "error: 'system' is a subsystem; only leaves can vary\n", None
        )

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_generated_documents(self, data):
        ids = data.draw(
            st.lists(
                st.sampled_from(["a", "b", "c", "d", "system", "system+", "system++"]),
                min_size=1,
                max_size=6,
                unique=True,
            )
        )
        value = st.sampled_from([0.0, 10.0, 55.5, 100.0]) | st.floats(0, 100)
        values = data.draw(st.lists(value, min_size=len(ids), max_size=len(ids)))
        priorities = None
        if data.draw(st.booleans()):
            priority = st.none() | st.sampled_from([1.0, 2.5]) | st.floats(0.01, 1e3)
            priorities = data.draw(st.lists(priority, min_size=len(ids), max_size=len(ids)))
        groups = None
        if data.draw(st.booleans()):
            order = data.draw(st.permutations(range(len(ids))))
            cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(ids) - 1)), max_size=3)))
            bounds = [0, *[c for c in cuts if c < len(ids)], len(ids)]
            groups = [
                (order[lo:hi], data.draw(st.sampled_from([1.0, 0.5, 4.0])))
                for lo, hi in zip(bounds, bounds[1:])
            ]
        _assert_flat_matches_library(_doc(values, priorities, groups, ids))


def _refuse(self):
    raise AssertionError("hierarchy_root called")


class TestFlatCommandsBuildNoTree:
    """Flat compare and sweep never build the synthetic root; tree files never use it."""

    @pytest.fixture
    def no_synthetic_root(self, monkeypatch):
        monkeypatch.setattr(SystemDescription, "hierarchy_root", _refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--input", "two_group.json"],
            ["compare", "--input", "weak_element.json", "--threshold", "0"],
            ["sweep", "--input", "two_group.json", "--vary", "s4", "--from", "0",
             "--to", "100", "--steps", "5"],
            ["sweep", "--input", "weak_element.json", "--vary", "s1", "--from", "0",
             "--to", "100", "--steps", "3"],
        ],
    )
    def test_flat_commands_succeed(self, fixture_path, no_synthetic_root, argv):
        argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
        code, out, err, _ = _call(argv)
        assert code in (0, 3) and out and not err

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate"],
            ["evaluate", "--format", "json"],
            ["compare"],
            ["compare", "--threshold", "0"],
            ["sweep", "--vary", "supply_a", "--from", "0", "--to", "100", "--steps", "5"],
            ["sweep", "--vary", "plant", "--from", "0", "--to", "100", "--steps", "5"],
        ],
    )
    def test_tree_commands_are_unchanged(self, fixture_path, monkeypatch, argv):
        argv = [argv[0], "--input", fixture_path("plant_hierarchy.json"), *argv[1:]]
        before = _call(argv)
        monkeypatch.setattr(SystemDescription, "hierarchy_root", _refuse)
        assert _call(argv) == before


class TestFlatSweepLeavesTheDescription:
    """A flat sweep writes neither into its compiled entry nor into the
    parsed description's element columns."""

    @pytest.mark.parametrize("name", ["two_group.json", "weak_element.json"])
    def test_sweep_then_compile_again(self, fixture_path, name):
        path = fixture_path(name)
        desc = load_description(path)
        subs = _lowered(desc)[:-1]
        first = copy.deepcopy(subs)
        cli._sweep(subs, desc.scale, cli._sweep_path(subs, subs[0].ids[0]), 0.25, 0.5, 2)
        assert subs == first
        values = [e["evaluation"] for e in json.loads(Path(path).read_text())["elements"]]
        assert [e.evaluation for e in desc.elements] == values
        assert _lowered(desc)[:-1] == first


def _cli_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "aggeval", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        bufsize=0,
    )


def _finish(proc):
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_stdout_closed_before_the_first_write_ends_quietly(fixture_path):
    # A short output stays buffered until the final flush, which meets the
    # closed pipe; the flush at interpreter exit must not try again.
    proc = _cli_process("evaluate", "--input", fixture_path("weak_element.json"))
    proc.stdout.close()
    assert _finish(proc) == (1, b"")


def test_closed_stdout_ends_quietly(tmp_path):
    # Far more output than a pipe buffers, so the writer meets the closed end.
    leaves = [f"leaf{k:05d}" for k in range(20000)]
    doc = {
        "scale": SCALE,
        "elements": [{"id": i, "evaluation": 50 if k else 10} for k, i in enumerate(leaves)],
        "hierarchy": {"id": "root", "children": leaves},
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _cli_process("evaluate", "--input", str(path))
    first = b""
    while not first.endswith(b"\n"):
        chunk = proc.stdout.read(1)
        assert chunk, "output ended before the first line"
        first += chunk
    proc.stdout.close()
    assert _finish(proc) == (1, b"")
    assert first.startswith(b"root [wlam] = 49.998 ") and first.endswith(b"leaf00000)\n")
