"""CLI output against the benchmark's plain-Python reference.

``perfbench/reference.py`` recomputes roll-ups, compare rows and sweep
endpoints with code it shares with nothing in the package.  Its
``Expected`` models flat descriptions with groups and trees without
priorities or a nam fallback, under a hybrid root; every ``evaluate``,
``compare`` and 51-step ``sweep`` call here runs through ``cli.main`` and
must give no problem against it.

The reference takes nam in the log domain and every mean as a plain
``fsum``, so a computed node value can sit a few ulps from the package's.
An adequacy or ``sigma_12`` that lands exactly on a threshold could then
warn on one side only; the Hypothesis examples are derandomized so that
the test is repeatable.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aggeval import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = _module("reference")
workloads = _module("workloads")

VALUES = st.integers(0, 100_000).map(lambda k: k / 1000)
THRESHOLDS = [None, 0.05, 0.3, 0.75]


def _partition(draw, ids):
    """Hybrid groups over ``ids``: shuffled, cut into one to three runs."""
    order = draw(st.permutations(ids))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), max_size=2))) if len(ids) > 1 else []
    bounds = [0, *cuts, len(ids)]
    return [
        {"id": f"g{k}", "members": list(order[a:b]), "priority": draw(st.sampled_from([0.5, 1, 1.5, 2]))}
        for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


@st.composite
def flat_documents(draw):
    ids = [f"e{k}" for k in range(draw(st.integers(1, 12)))]
    elements = [{"id": i, "evaluation": draw(VALUES)} for i in ids]
    return {"scale": {"min": 0, "max": 100}, "elements": elements, "groups": _partition(draw, ids)}


@st.composite
def tree_documents(draw):
    """A hybrid root over subsystems of every method but a nam fallback."""
    elements = []
    count = [0]

    def node(depth):
        children = []
        for _ in range(draw(st.integers(1, 4))):
            if depth < 3 and draw(st.integers(0, 2)) == 0:
                children.append(node(depth + 1))
            else:
                children.append(f"e{len(elements)}")
                elements.append({"id": children[-1], "evaluation": draw(VALUES)})
        ids = [c if isinstance(c, str) else c["id"] for c in children]
        doc = {"id": f"s{count[0]}", "children": children}
        count[0] += 1
        method = "hybrid" if depth == 0 else draw(
            st.sampled_from([None, "wlam", "nam", "hybrid", "wem-then", "wem"])
        )
        if method is None:
            return doc
        config = {"method": method}
        if method == "hybrid":
            config["groups"] = _partition(draw, ids)
        elif method == "wem-then":
            config["critical"] = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        threshold = draw(st.sampled_from(THRESHOLDS))
        if threshold is not None:
            config["threshold"] = threshold
        doc["method"] = config
        return doc

    hierarchy = node(0)
    return {"scale": {"min": 0, "max": 100}, "elements": elements, "hierarchy": hierarchy}


def _problems(expected, name, argv, out_path=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    data = Path(out_path).read_bytes() if out_path else None
    return expected.check(name, code, out.getvalue(), err.getvalue(), data)


def _check_document(tmp, name, doc, vary_ids=()):
    path = Path(tmp) / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    source = str(path)
    expected = reference.Expected(name, doc)
    assert _problems(expected, "evaluate", ["evaluate", "--input", source]) == []
    assert _problems(expected, "compare", ["compare", "--input", source]) == []
    out_path = str(Path(tmp) / "sweep.csv")
    for vary_id in vary_ids:
        expected = reference.Expected(name, doc, vary_id)
        argv = ["sweep", "--input", source, "--vary", vary_id,
                "--from", "0", "--to", "100", "--steps", "51", "--out", out_path]
        assert _problems(expected, "sweep", argv, out_path) == [], vary_id


SETTINGS = settings(deadline=None, max_examples=60, derandomize=True)


@SETTINGS
@given(flat_documents())
def test_flat_documents(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _check_document(tmp, "flat-grouped", doc)


@SETTINGS
@given(tree_documents(), st.data())
def test_tree_documents(doc, data):
    ids = [e["id"] for e in doc["elements"]]
    vary_ids = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2, unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        _check_document(tmp, "tree-sweep", doc, vary_ids)


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_commands(tmp_path, name, seed):
    prepared = workloads.materialize(name, seed, str(tmp_path))
    expected = reference.Expected(prepared.name, prepared.doc, prepared.vary_id)
    for command in prepared.commands:
        assert _problems(expected, command.name, list(command.argv), command.out_path) == []
