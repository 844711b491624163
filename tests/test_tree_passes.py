"""Tree passes: the CLI render, validation, sweeps and the node dunders.

Tree ``evaluate`` prints text and CSV straight from the roll-up rows, and
``validate_hierarchy`` walks with an explicit stack.  Both are pinned here
against test-local copies of the report-based render and the
generator-based validation they replaced.
"""

import contextlib
import io
import json
import math
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import aggeval.hierarchy
from aggeval import (
    Group,
    HierarchyNode,
    Method,
    MethodConfig,
    PERCENT,
    Scale,
    aggregate,
    validate_hierarchy,
)
from aggeval.cli import _tree_lines, main
from aggeval.description import load_description
from aggeval.network import _check_config

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HIERARCHY_FIXTURES = sorted(
    path.name
    for path in FIXTURES.glob("*.json")
    if '"hierarchy"' in path.read_text(encoding="utf-8")
)


def leaf(node_id, value, priority=None):
    return HierarchyNode(node_id, value=value, priority=priority)


def sub(node_id, children, config=None, priority=None, value=None):
    return HierarchyNode(
        node_id, value=value, children=tuple(children), config=config, priority=priority
    )


def chain(depth, bottom=50.0):
    """n0 -> (c0, n1 -> (c1, ... n<depth-1> -> (c<depth-1>, c<depth>)))."""
    node = leaf(f"c{depth}", bottom)
    for k in reversed(range(depth)):
        node = sub(f"n{k}", [leaf(f"c{k}", float(10 + k % 80)), node])
    return node


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- The report-based render the CLI used before, kept as the oracle. ---


def report_text(report):
    lines = []
    stack = [(report, "")]
    while stack:
        node, pad = stack.pop()
        if not node.children:
            lines.append(f"{pad}{node.node_id} = {node.value:.6g}")
        else:
            lines.append(
                f"{pad}{node.node_id} [{node.method}] = {node.value:.6g} "
                f"(adequacy {node.adequacy:.6g}; weakest "
                f"{', '.join(node.weakest_ids)})"
            )
        for warning in node.warnings:
            lines.append(f"{pad}  warning: {warning}")
        stack.extend((child, pad + "  ") for child in reversed(node.children))
    return lines


def report_csv(report):
    lines = ["node,method,value,adequacy,weakest"]
    for node in report.walk():
        lines.append(
            f"{node.node_id},{node.method},{node.value:.6f},"
            f"{node.adequacy:.6f},{';'.join(node.weakest_ids)}"
        )
    return lines


def expected_outputs(path):
    desc = load_description(str(path))
    report = aggregate(desc.hierarchy, desc.scale)
    return {
        "text": "\n".join(report_text(report)) + "\n",
        "csv": "\n".join(report_csv(report)) + "\n",
        "json": json.dumps(report.to_dict(), indent=2) + "\n",
    }


def assert_cli_matches_library(path):
    expected = expected_outputs(path)
    for fmt, want in expected.items():
        assert cli("evaluate", "--input", str(path), "--format", fmt) == (0, want, "")
    assert cli("evaluate", "--input", str(path)) == (0, expected["text"], "")


VALUES = st.sampled_from([0.0, 10.0, 10.0, 37.5, 99.9, 100.0]) | st.floats(0, 100)


@st.composite
def tree_documents(draw):
    """A valid description whose subsystems use every method, with ties at
    the minimum, child priorities where allowed, and warning thresholds."""
    elements = []
    subsystems = []

    def node(depth):
        method = draw(st.sampled_from([None, "wlam", "nam", "hybrid", "wem-then", "wem"]))
        weighted = method != "nam" and draw(st.booleans())
        children = []
        for _ in range(draw(st.integers(1, 4))):
            priority = draw(st.floats(0.25, 4)) if weighted else None
            if depth < 3 and draw(st.integers(0, 2)) == 0:
                child = node(depth + 1)
                if priority is not None:
                    child["priority"] = priority
            else:
                child = f"e{len(elements)}"
                element = {"id": child, "evaluation": draw(VALUES)}
                if priority is not None:
                    element["priority"] = priority
                elements.append(element)
            children.append(child)
        ids = [c if isinstance(c, str) else c["id"] for c in children]
        doc = {"id": f"s{len(subsystems)}", "children": children}
        subsystems.append(doc)
        if method is None:
            return doc
        config = {"method": method}
        if method == "hybrid":
            order = draw(st.permutations(ids))
            cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), max_size=2))) if len(ids) > 1 else []
            bounds = [0, *cuts, len(ids)]
            config["groups"] = [
                {"id": f"g{k}", "members": list(order[a:b]), "priority": draw(st.floats(0.5, 2))}
                for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
            ]
        elif method == "wem-then":
            config["critical"] = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
            fallback = draw(st.sampled_from([None, "wlam", "nam"]))
            if fallback is not None:
                config["fallback"] = fallback
        threshold = draw(st.sampled_from([None, 0.0, 0.05, 0.3, 1.0]))
        if threshold is not None:
            config["threshold"] = threshold
        doc["method"] = config
        return doc

    return {"scale": {"min": 0, "max": 100}, "elements": elements, "hierarchy": node(0)}


class TestTreeEvaluateMatchesLibrary:
    """CLI ``evaluate`` on a tree prints what ``aggregate`` renders to."""

    @pytest.mark.parametrize("name", HIERARCHY_FIXTURES)
    def test_fixture(self, name):
        assert_cli_matches_library(FIXTURES / name)

    def test_fixture_list_is_not_empty(self):
        assert "plant_hierarchy.json" in HIERARCHY_FIXTURES

    @settings(deadline=None, max_examples=80)
    @given(tree_documents())
    def test_random_trees(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tree.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert_cli_matches_library(path)

    def test_warnings_and_tied_weakest_leaves_are_printed(self, tmp_path):
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [
                {"id": "b", "evaluation": 10},
                {"id": "a", "evaluation": 10},
                {"id": "c", "evaluation": 90},
            ],
            "hierarchy": {
                "id": "root",
                "method": {"method": "wlam", "threshold": 0.1},
                "children": ["c", {"id": "inner", "children": ["b", "a"]}],
            },
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = cli("evaluate", "--input", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "root [wlam] = 50 (adequacy 0.8; weakest b, a)",
            "  warning: adequacy 0.8 exceeds threshold 0.1; weakest: b, a",
            "  c = 90",
            "  inner [wlam] = 10 (adequacy 0; weakest b, a)",
            "    b = 10",
            "    a = 10",
        ]
        assert_cli_matches_library(path)

    @pytest.mark.parametrize("csv", [False, True])
    def test_3000_level_chain_renders_without_recursion(self, csv):
        root = chain(3000)
        report = aggregate(root, PERCENT)
        expected = report_csv(report) if csv else report_text(report)
        assert _tree_lines(root, PERCENT, csv) == expected


# --- The generator-based validation it replaced, kept as the oracle. ---


def walk_validate_hierarchy(root, scale):
    def positive(value):
        return value is None or (math.isfinite(value) and value > 0)

    violations = []
    seen_ids = set()
    for node in root.walk():
        if node.id in seen_ids:
            violations.append(f"node id {node.id!r} used more than once")
            continue
        seen_ids.add(node.id)
        if not positive(node.priority):
            violations.append(
                f"node {node.id!r}: priority must be positive, got {node.priority!r}"
            )
        if node.is_leaf:
            if node.value is None:
                violations.append(f"leaf {node.id!r} has no evaluation value")
            elif not (math.isfinite(node.value) and scale.contains(node.value)):
                violations.append(
                    f"leaf {node.id!r}: value {node.value!r} is outside "
                    f"[{scale.min}, {scale.max}]"
                )
            if node.config is not None:
                violations.append(f"leaf {node.id!r} cannot carry a method config")
        else:
            if node.value is not None:
                violations.append(f"subsystem {node.id!r} cannot carry a leaf value")
            _check_config(node, violations)
    return violations


BAD_NUMBERS = [0.0, -1.0, math.nan, math.inf, -math.inf]


def random_config(rng, child_ids):
    method = rng.choice(list(Method))
    members = child_ids + ["ghost"]
    groups = ()
    if rng.random() < 0.6:
        groups = tuple(
            Group(
                rng.choice(["g1", "g2", "g3"]),
                tuple(rng.sample(members, rng.randint(0, len(members)))),
                rng.choice([1.0, 2.0, *BAD_NUMBERS]),
            )
            for _ in range(rng.randint(1, 3))
        )
    critical = ()
    if rng.random() < 0.6:
        critical = tuple(rng.sample(members, rng.randint(1, len(members))))
    return MethodConfig(
        method,
        groups=groups,
        critical_ids=critical,
        fallback=rng.choice([None, None, *Method]),
        adequacy_threshold=rng.choice([None, 0.2, 1.0, -0.1, 1.5, math.nan]),
    )


def random_invalid_tree(rng, scale):
    """A tree with faults at every node kind: reused ids, bad priorities,
    missing or out-of-scale values, misplaced configs and values, and
    incoherent method configs."""
    used = []

    def new_id(prefix):
        if used and rng.random() < 0.12:
            return rng.choice(used)
        node_id = f"{prefix}{len(used)}"
        used.append(node_id)
        return node_id

    def priority():
        roll = rng.random()
        if roll < 0.1:
            return rng.choice(BAD_NUMBERS)
        return None if roll < 0.7 else rng.uniform(0.5, 3)

    def node(depth):
        if depth >= 4 or (depth and rng.random() < 0.45):
            value = rng.uniform(scale.min, scale.max)
            if rng.random() < 0.12:
                value = rng.choice([None, math.nan, math.inf, scale.min - 1, scale.max + 1])
            config = MethodConfig(Method.WLAM) if rng.random() < 0.05 else None
            return HierarchyNode(new_id("e"), value, priority(), (), config)
        node_id = new_id("s")
        children = tuple(node(depth + 1) for _ in range(rng.randint(1, 4)))
        config = None
        if rng.random() < 0.8:
            config = random_config(rng, [c.id for c in children])
        value = 50.0 if rng.random() < 0.05 else None
        return HierarchyNode(node_id, value, priority(), children, config)

    return node(0)


class TestValidateHierarchyPinned:
    """The explicit-stack walk reports exactly what the generator walk did."""

    def test_reused_subsystem_id_still_reports_its_subtree(self):
        tree = sub("r", [sub("s", [leaf("a", 10)]), sub("s", [leaf("x", 500.0)])])
        expected = [
            "node id 's' used more than once",
            "leaf 'x': value 500.0 is outside [0.0, 100.0]",
        ]
        assert walk_validate_hierarchy(tree, PERCENT) == expected
        assert validate_hierarchy(tree, PERCENT) == expected

    @pytest.mark.parametrize(
        "tree",
        [
            sub("r", [leaf("a", 10), leaf("a", 20)]),
            sub("r", [leaf("r", 10)]),
            sub("r", [sub("s", [leaf("a", math.nan)]), sub("s", [leaf("b", None)], value=4.0)]),
            sub("r", [leaf("a", 10, priority=0.0), leaf("b", 20, priority=math.inf)]),
            sub("r", [leaf("a", -1e-300), leaf("b", 100.0000001)], priority=-1.0),
            sub("r", [HierarchyNode("a", 10, None, (), MethodConfig(Method.NAM))]),
            sub("r", [leaf("a", 10)], value=10.0),
            sub("r", [leaf("a", 10, 2.0), leaf("b", 20)], MethodConfig(Method.NAM)),
            sub("r", [leaf("a", 10)], MethodConfig(Method.HYBRID_GROUPED)),
            sub("r", [leaf("a", 10)], MethodConfig(Method.WEM_THEN)),
            sub("r", [leaf("a", 10)], MethodConfig(Method.WEM_THEN, critical_ids=("a", "z"))),
            sub("r", [leaf("a", 10)], MethodConfig(Method.WEM_THEN, ("a",), ("a",), Method.WEM)),
            sub("r", [leaf("a", 10)], MethodConfig(Method.WLAM, (Group("g", ("a",)),), ("a",), Method.NAM, 2.0)),
            sub(
                "r",
                [leaf("a", 10), leaf("b", 20), leaf("c", 30)],
                MethodConfig(
                    Method.HYBRID_GROUPED,
                    groups=(
                        Group("g", ("a", "a"), 0.0),
                        Group("g", (), math.nan),
                        Group("h", ("z", "b")),
                    ),
                    adequacy_threshold=-0.5,
                ),
            ),
        ],
    )
    def test_named_cases(self, tree):
        expected = walk_validate_hierarchy(tree, PERCENT)
        assert expected
        assert validate_hierarchy(tree, PERCENT) == expected

    def test_seeded_invalid_trees(self):
        scale = Scale(5.0, 50.0)
        seen = []
        for seed in range(300):
            tree = random_invalid_tree(random.Random(seed), scale)
            expected = walk_validate_hierarchy(tree, scale)
            assert validate_hierarchy(tree, scale) == expected, seed
            seen += expected
        # The draws reach every node message and every config check.
        for text in [
            "used more than once",
            "priority must be positive",
            "has no evaluation value",
            "is outside",
            "cannot carry a method config",
            "cannot carry a leaf value",
            "grouping is only meaningful",
            "critical set is only meaningful",
            "fallback is only meaningful",
            "fallback must be wlam or nam",
            "adequacy threshold must lie",
            "hybrid method requires a grouping",
            "duplicate group id",
            "has no members",
            "references unknown child",
            "grouped more than once",
            "children not covered",
            "wem-then requires a critical set",
            "is not a child",
            "nam cannot use child priorities",
        ]:
            assert any(text in line for line in seen), text


# --- repr, == and hash without recursion. ---


@dataclass(frozen=True)
class PlainNode:
    """HierarchyNode's fields with the dataclass-generated methods."""

    id: str
    value: float | None = None
    priority: float | None = None
    children: tuple = ()
    config: MethodConfig | None = None


@dataclass(frozen=True)
class PlainReport:
    """AggregationReport's fields with the dataclass-generated methods."""

    node_id: str
    method: str
    value: float
    weakest_ids: tuple
    adequacy: float
    warnings: tuple
    children: tuple


def plain(node):
    """The same tree as generated-method dataclasses (shallow trees only)."""
    if isinstance(node, HierarchyNode):
        return PlainNode(
            node.id, node.value, node.priority, tuple(plain(c) for c in node.children), node.config
        )
    return PlainReport(
        node.node_id,
        node.method,
        node.value,
        node.weakest_ids,
        node.adequacy,
        node.warnings,
        tuple(plain(c) for c in node.children),
    )


def generated_repr(node):
    text = repr(plain(node))
    return text.replace("PlainNode(", "HierarchyNode(").replace(
        "PlainReport(", "AggregationReport("
    )


SHALLOW_TREES = [
    leaf("only", 5.0),
    sub("r", [leaf("a", 10.0)]),
    sub("r", [leaf("a", 10.0, 2.0), leaf("b", math.nan)], value=3.0, priority=1.5),
    sub(
        "root",
        [
            sub("x", [leaf("a", 10.0), leaf("b", 20.0)], MethodConfig(Method.NAM)),
            sub(
                "y",
                [leaf("c", 30.0), leaf("d", 40.0)],
                MethodConfig(
                    Method.HYBRID_GROUPED,
                    groups=(Group("g1", ("c",), 1.0), Group("g2", ("d",), 2.0)),
                    adequacy_threshold=0.1,
                ),
            ),
            leaf("e", 0.0),
        ],
        MethodConfig(Method.WEM_THEN, critical_ids=("e",), fallback=Method.NAM),
    ),
    # Same nodes in the same preorder, different shapes.
    sub("r", [sub("s", [leaf("a", 1.0)])]),
    sub("r", [sub("s", []), leaf("a", 1.0)]),
]


class TestTreeDunders:
    @pytest.mark.parametrize("tree", SHALLOW_TREES)
    def test_repr_is_the_generated_one(self, tree):
        assert repr(tree) == generated_repr(tree)
        if not validate_hierarchy(tree, PERCENT):
            report = aggregate(tree, PERCENT)
            assert repr(report) == generated_repr(report)

    @pytest.mark.parametrize("a", SHALLOW_TREES)
    @pytest.mark.parametrize("b", SHALLOW_TREES)
    def test_equality_is_the_generated_one(self, a, b):
        assert (a == b) == (plain(a) == plain(b))
        copy = plain_copy(a)
        assert copy is not a
        assert (copy == b) == (plain(a) == plain(b))
        if a == b:
            assert hash(a) == hash(b) == hash(copy)

    def test_nan_values_are_equal_only_as_one_object(self):
        nan = float("nan")
        assert sub("r", [leaf("a", nan)]) == sub("r", [leaf("a", nan)])
        assert sub("r", [leaf("a", nan)]) != sub("r", [leaf("a", float("nan"))])
        assert PlainNode("r", children=(PlainNode("a", nan),)) != PlainNode(
            "r", children=(PlainNode("a", float("nan")),)
        )

    def test_other_types_are_not_equal(self):
        tree = SHALLOW_TREES[1]
        assert tree != plain(tree)
        assert tree != "r"
        report = aggregate(tree, PERCENT)
        assert report != tree

    def test_3000_level_chain(self):
        root, twin = chain(3000), chain(3000)
        assert root is not twin
        assert root == twin
        assert hash(root) == hash(twin)
        assert root != chain(3000, bottom=51.0)
        assert hash(root) != hash(chain(3000, bottom=51.0))
        # The generated repr, one level at a time.
        opening = [
            f"HierarchyNode(id='n{k}', value=None, priority=None, "
            f"children=({generated_repr(leaf(f'c{k}', float(10 + k % 80)))}, "
            for k in range(3000)
        ]
        bottom = generated_repr(leaf("c3000", 50.0))
        assert repr(root) == "".join(opening) + bottom + "), config=None)" * 3000

        report, twin_report = aggregate(root, PERCENT), aggregate(twin, PERCENT)
        assert report == twin_report
        assert hash(report) == hash(twin_report)
        assert repr(report).count("AggregationReport(") == 6001


def plain_copy(node):
    """A distinct HierarchyNode tree equal to ``node``."""
    return HierarchyNode(
        node.id,
        node.value,
        node.priority,
        tuple(plain_copy(c) for c in node.children),
        node.config,
    )


# --- Sweep runs the root operator once per grid point. ---


def counting(monkeypatch, name):
    calls = []
    original = getattr(aggeval.hierarchy, name)

    def wrapper(values, *rest):
        calls.append(len(values))
        return original(values, *rest)

    monkeypatch.setattr(aggeval.hierarchy, name, wrapper)
    return calls


def hybrid_root_doc():
    return {
        "scale": {"min": 0, "max": 100},
        "elements": [{"id": f"e{k}", "evaluation": 20 + 10 * k} for k in range(6)],
        "hierarchy": {
            "id": "root",
            "method": {
                "method": "hybrid",
                "groups": [
                    {"id": "g1", "members": ["x", "e4"], "priority": 1},
                    {"id": "g2", "members": ["y", "e5"], "priority": 2},
                ],
            },
            "children": [
                {"id": "x", "children": ["e0", "e1"]},
                {"id": "y", "method": {"method": "nam"}, "children": ["e2", "e3"]},
                "e4",
                "e5",
            ],
        },
    }


def overflow_doc(config, priorities=False):
    """Huge values on a [0, 1e308] scale: every mean of two of them overflows."""
    elements = [{"id": "a", "evaluation": 9e307}, {"id": "b", "evaluation": 9e307}]
    elements.append({"id": "c", "evaluation": 8e307})
    if priorities:
        for element in elements:
            element["priority"] = 1
    return {
        "scale": {"min": 0, "max": 1e308},
        "elements": elements,
        "hierarchy": {
            "id": "root",
            "method": config,
            "children": [{"id": "inner", "method": {"method": "wem"}, "children": ["a"]}, "b", "c"],
        },
    }


ROOT_CONFIGS = {
    "wem": ({"method": "wem"}, False),
    "wlam": ({"method": "wlam"}, False),
    "wlam-weighted": ({"method": "wlam"}, True),
    "nam": ({"method": "nam"}, False),
    "hybrid": (
        {"method": "hybrid", "groups": [{"id": "g", "members": ["inner", "b", "c"]}]},
        False,
    ),
    "wem-then": ({"method": "wem-then", "critical": ["b"]}, False),
    "wem-then-nam": ({"method": "wem-then", "critical": ["b"], "fallback": "nam"}, False),
    "wem-then-nam-weighted": (
        {"method": "wem-then", "critical": ["b"], "fallback": "nam"},
        True,
    ),
}


class TestSweepRootOperator:
    def test_51_steps_make_51_root_hybrid_calls(self, monkeypatch, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(hybrid_root_doc()), encoding="utf-8")
        calls = counting(monkeypatch, "_hybrid")
        code, out, err = cli(
            "sweep", "--input", str(path), "--vary", "e0",
            "--from", "0", "--to", "100", "--steps", "51",
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 52
        assert calls == [4] * 51

    def test_wem_then_nam_root_under_priorities_still_runs_nam(self, monkeypatch):
        tree = sub(
            "root",
            [sub("x", [leaf("a", 10.0), leaf("b", 20.0)], priority=2.0), leaf("c", 30.0)],
            MethodConfig(Method.WEM_THEN, critical_ids=("c",), fallback=Method.NAM),
        )
        calls = counting(monkeypatch, "_nam")
        rows = aggeval.hierarchy.sweep(tree, PERCENT, "a", 0, 100, 5)
        assert [row.nam for row in rows] == [None] * 5
        # One nam per grid point at the root; x is wlam, and _metrics skips
        # nam under child priorities.
        assert calls.count(2) == 5

    @pytest.mark.parametrize("name", sorted(ROOT_CONFIGS))
    def test_overflow_exits_2_with_one_error_line(self, tmp_path, name):
        config, priorities = ROOT_CONFIGS[name]
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(overflow_doc(config, priorities)), encoding="utf-8")
        code, out, err = cli(
            "sweep", "--input", str(path), "--vary", "a",
            "--from", "0", "--to", "1e308", "--steps", "3",
        )
        assert (code, out) == (2, "")
        assert err == "error: numeric overflow: intermediate overflow in fsum\n"


def with_value(root, leaf_id, value):
    """``root`` with one leaf's value replaced, built without recursion."""
    order = aggeval.hierarchy._postorder(root)
    built = {}
    for node in order:
        if not node.children:
            new_value = value if node.id == leaf_id else node.value
            built[node.id] = HierarchyNode(node.id, new_value, node.priority)
        else:
            children = tuple(built[child.id] for child in node.children)
            built[node.id] = HierarchyNode(node.id, None, node.priority, children, node.config)
    return built[root.id]


class TestSweepMatchesFullReroll:
    @settings(deadline=None, max_examples=40)
    @given(tree_documents())
    def test_every_leaf_of_random_trees(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tree.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            desc = load_description(str(path))
        root, scale = desc.hierarchy, desc.scale
        hierarchy = aggeval.hierarchy
        weights, plan = hierarchy._child_weights(root), hierarchy._group_plan(root)
        for element in doc["elements"]:
            rows = hierarchy.sweep(root, scale, element["id"], 0, 100, 5)
            expected = []
            for varied in (0.0, 25.0, 50.0, 75.0, 100.0):
                report = aggregate(with_value(root, element["id"], varied), scale)
                values = [child.value for child in report.children]
                expected.append(hierarchy.SweepRow(varied, *hierarchy._metrics(values, weights, plan)))
            assert rows == expected
