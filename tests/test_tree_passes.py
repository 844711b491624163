"""Tree passes: the CLI render, validation, sweeps and the node dunders.

Tree ``evaluate`` prints text and CSV straight from the roll-up rows, and
``validate_hierarchy`` is the violations of the library's one explicit-stack
walk, which also lists the subsystems that ``aggregate``, ``compare_methods``
and ``sweep`` compile.  Both are pinned here against test-local copies of
the report-based render and the generator-based validation they replaced;
the validation oracle runs ``_check_method`` on each configured subsystem.
Library results stay inside the scale: the sweep oracle clamps its
expected wlam, nam and hybrid as the library does, and a property checks
every aggregate field on near-maximum vectors.
"""

import contextlib
import io
import json
import math
import operator
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
from aggeval.hierarchy import _entries
from aggeval.network import _check_method

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


def within_the_stack(call, *args):
    """``call(*args)``, failing the test at once on a RecursionError.

    Left to pytest, the report of a deep RecursionError compares the
    locals of each of its frames, and comparing a tree local walks the
    whole tree, so the run stalls for minutes instead of failing.
    """
    try:
        return call(*args)
    except RecursionError:
        pass
    pytest.fail(f"RecursionError in {call.__name__}", pytrace=False)


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
        violations = within_the_stack(validate_hierarchy, root, PERCENT)
        assert violations == []
        report = within_the_stack(aggregate, root, PERCENT)
        expected = within_the_stack(report_csv if csv else report_text, report)
        lines = within_the_stack(_tree_lines, _entries(root, PERCENT), PERCENT, csv)
        assert lines == expected


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
            if node.config is not None:
                children = node.children
                _check_method(node.id, node.config, [c.id for c in children],
                              [c.priority for c in children], violations)
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
        root, twin, other = chain(3000), chain(3000), chain(3000, bottom=51.0)
        assert root is not twin
        equal = within_the_stack(operator.eq, root, twin)
        assert equal is True
        hashes = [within_the_stack(hash, tree) for tree in (root, twin, other)]
        assert hashes[0] == hashes[1]
        unequal = within_the_stack(operator.ne, root, other)
        assert unequal is True
        assert hashes[0] != hashes[2]
        # The generated repr, one level at a time.
        opening = [
            f"HierarchyNode(id='n{k}', value=None, priority=None, "
            f"children=({generated_repr(leaf(f'c{k}', float(10 + k % 80)))}, "
            for k in range(3000)
        ]
        bottom = generated_repr(leaf("c3000", 50.0))
        text = within_the_stack(repr, root)
        assert text == "".join(opening) + bottom + "), config=None)" * 3000

        report = within_the_stack(aggregate, root, PERCENT)
        twin_report = within_the_stack(aggregate, twin, PERCENT)
        equal = within_the_stack(operator.eq, report, twin_report)
        assert equal is True
        assert within_the_stack(hash, report) == within_the_stack(hash, twin_report)
        assert within_the_stack(repr, report).count("AggregationReport(") == 6001


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
        calls = counting_nam(monkeypatch)
        code, out, err = cli(
            "sweep", "--input", str(path), "--vary", "e0",
            "--from", "0", "--to", "100", "--steps", "51",
        )
        assert (code, err) == (0, "")
        # y's roll-up and the kept nam of g2 (y, e5) before the grid, then the
        # root hybrid's nam of the varied group g1 (x, e4) at every point.
        assert calls == [2, 2] + [2] * 51
        assert out == full_reroll_csv(path, "e0", 0.0, 100.0, 51)

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
    order = list(root.walk())
    built = {}
    for node in reversed(order):  # every node after its children
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
        children = root.children
        weights = None
        if any(child.priority is not None for child in children):
            weights = [1.0 if child.priority is None else child.priority for child in children]
        position = {child.id: k for k, child in enumerate(children)}
        groups = root.config.groups if root.config else ()
        plan = [([position[m] for m in group.members], group.priority) for group in groups]
        for element in doc["elements"]:
            rows = hierarchy.sweep(root, scale, element["id"], 0, 100, 5)
            expected = []
            for varied in (0.0, 25.0, 50.0, 75.0, 100.0):
                report = aggregate(with_value(root, element["id"], varied), scale)
                values = [child.value for child in report.children]
                wem, *means = hierarchy._metrics(values, weights, plan)
                clamped = [None if mean is None else scale.clamp(mean) for mean in means]
                expected.append(hierarchy.SweepRow(varied, wem, *clamped))
            assert rows == expected


def counting_nam(monkeypatch):
    """Sizes of every nam run, through the hierarchy's name or inside core."""
    calls = []
    for module in (aggeval.core, aggeval.hierarchy):
        def wrapper(values, *rest, _original=module._nam, **named):
            calls.append(len(values))
            return _original(values, *rest, **named)

        monkeypatch.setattr(module, "_nam", wrapper)
    return calls


class TestCompareRunsEachOperatorOnce:
    def test_each_group_nam_once_on_a_flat_file(self, monkeypatch):
        calls = counting_nam(monkeypatch)
        code, out, err = cli("compare", "--input", str(FIXTURES / "two_group.json"))
        assert (code, err) == (0, "")
        assert [line.split()[0] for line in out.splitlines()[1:]] == [
            "system", "system/g1", "system/g2"
        ]
        # The root's nam over five elements, then g1 (3) and g2 (2) once
        # each, shared by the hybrid and the group rows.
        assert sorted(calls) == [2, 3, 5]

    def test_nam_subsystems_run_nam_once(self, monkeypatch):
        calls = counting_nam(monkeypatch)
        code, _, err = cli("compare", "--input", str(FIXTURES / "plant_hierarchy.json"))
        assert (code, err) == (3, "")
        # line and supply (three leaves each) feed their parent and their
        # own rows from one nam; the wlam root adds its nam column.
        assert sorted(calls) == [2, 3, 3]

    def test_nam_under_child_priorities_runs_once_without_a_column(self, monkeypatch):
        tree = sub(
            "root",
            [
                sub("x", [leaf("a", 10.0, 2.0), leaf("b", 20.0), leaf("c", 90.0)],
                    MethodConfig(Method.WEM_THEN, critical_ids=("a",), fallback=Method.NAM)),
                leaf("d", 40.0),
            ],
        )
        calls = counting_nam(monkeypatch)
        rows = aggeval.compare_methods(tree, PERCENT)
        assert [(row.node_id, row.nam is None) for row in rows] == [("root", False), ("x", True)]
        assert sorted(calls) == [2, 3]
        assert rows[0].wlam == (aggregate(tree, PERCENT).children[0].value + 40.0) / 2


class TestSweepRecomputesOneGroup:
    # h groups its children into g1 (four leaves) and g2 (d, e); d varies.
    TREE = sub(
        "root",
        [
            sub(
                "h",
                [leaf(k, 20.0 + 15 * n) for n, k in enumerate("abcdef")],
                MethodConfig(
                    Method.HYBRID_GROUPED,
                    groups=(Group("g1", ("a", "b", "c", "f"), 1.5), Group("g2", ("d", "e"), 0.5)),
                ),
            ),
            leaf("y", 55.0),
            leaf("z", 70.0),
        ],
    )

    def test_one_nam_of_the_varied_group_per_grid_point(self, monkeypatch):
        calls = counting_nam(monkeypatch)
        rows = aggeval.sweep(self.TREE, PERCENT, "d", 0, 100, 11)
        assert len(rows) == 11
        # g1 once before the grid, then g2 once per point.  The root keeps
        # what its nam reads of its other children without running nam, so
        # no nam over the root's three children runs at all.
        assert calls == [4] + [2] * 11

    def test_rows_equal_a_full_reroll(self):
        rows = aggeval.sweep(self.TREE, PERCENT, "d", 0, 100, 11)
        for row in rows:
            report = aggregate(with_value(self.TREE, "d", row.varied), PERCENT)
            evals = aggeval.EvaluationVector.from_values([c.value for c in report.children])
            expected = (aggeval.wem(evals), aggeval.wlam(evals), aggeval.nam(evals), None)
            assert (row.wem, row.wlam, row.nam, row.hybrid) == expected


# --- A sweep step reuses each hybrid ancestor's kept group nams. ---


TINY, LARGE = aggeval.core._LOG_DOMAIN_TINY, aggeval.core._LOG_DOMAIN_VALUE
EDGE_VALUES = [
    0.0, -0.0, 5e-324, 1.0, 50.0, 100.0, 1e300, 8.9e307, 1.7e308,
    *(math.nextafter(edge, toward) for edge in (TINY, LARGE) for toward in (0.0, math.inf)),
    TINY, LARGE,
]
KEPT_WEIGHTS = st.one_of(st.sampled_from([0.5, 1.0, 3.0, 1e-300, 1e300, 1.7e308]),
                         st.floats(1e-300, 1.7e308))
WIDEST = Scale(0.0, 1.7976931348623157e308)


def outcome(call):
    """What ``call()`` returns, with each float as its hex and repr, or the
    exception it raises."""
    try:
        result = call()
    except OverflowError as error:
        return "OverflowError", str(error)
    if isinstance(result, float):
        return result.hex(), repr(result)
    return [None if value is None else (value.hex(), repr(value)) for value in result]


def assert_kept_matches(values, slot, weights, groups, xs):
    """Each x of ``xs`` through the group nams kept for ``slot``, against the
    full kernels: the root's metrics against ``_metrics``, a hybrid node's
    operator against ``_operate``, both clamped to the scale."""
    hierarchy = aggeval.hierarchy
    ids = [f"c{k}" for k in range(len(values))]
    config = MethodConfig(Method.HYBRID_GROUPED, groups=tuple(
        Group(f"g{k}", tuple(ids[p] for p in positions), priority)
        for k, (positions, priority) in enumerate(groups)))
    sub = hierarchy._sub("node", ids, list(values), {}, weights or [None] * len(values), config)
    try:
        nams = hierarchy._kept_nams(sub, slot)
    except OverflowError as error:  # a kept group nam: the first point's kernels raise it
        full = list(values)
        full[slot] = xs[0]
        with pytest.raises(OverflowError, match=str(error)):
            hierarchy._metrics(full, sub.weights, sub.plan)
        return
    assert nams.count(None) == 1
    for x in xs:
        full = list(values)
        full[slot] = x
        sub.values[slot] = x
        assert outcome(lambda: hierarchy._metrics(sub.values, sub.weights, sub.plan, nams)) \
            == outcome(lambda: hierarchy._metrics(full, sub.weights, sub.plan))
        assert outcome(lambda: WIDEST.clamp(hierarchy._hybrid(sub.values, sub.plan, nams))) \
            == outcome(lambda: WIDEST.clamp(hierarchy._operate(sub, full)))


@st.composite
def kept_cases(draw, sizes=(1, 2, 30, 31, 200), lows=(0.0, 5e-324)):
    n = draw(st.sampled_from(sizes))
    slot = draw(st.sampled_from([0, n // 2, n - 1]))
    # One range per case, so that most sums stay in range.
    top = draw(st.sampled_from([100.0, 1e6, 1.7e308]))
    low = draw(st.sampled_from(lows))  # without zeros, nam takes its log path
    kept_values = st.sampled_from([v for v in EDGE_VALUES if low <= v <= top]) | st.floats(low, top)
    values = draw(st.lists(kept_values, min_size=n, max_size=n))
    weights = draw(st.none() | st.lists(KEPT_WEIGHTS, min_size=n, max_size=n))
    # Slot groups of about n / count members: over 30 and at most 30 at n = 200.
    count = min(n, draw(st.sampled_from([1, 2, 3, 8, 40])))
    order = draw(st.permutations(range(n)))
    groups = [(order[k::count], draw(KEPT_WEIGHTS)) for k in range(count)]
    xs = draw(st.lists(kept_values, min_size=1, max_size=3))
    return values, slot, weights, groups, xs


class TestKeptGroupNams:
    @settings(deadline=None, max_examples=300)
    @given(kept_cases())
    def test_equals_the_full_kernels_bit_for_bit(self, case):
        assert_kept_matches(*case)

    @pytest.mark.parametrize("slot", [0, 15, 30])
    @pytest.mark.parametrize("priorities", [[1.0] * 3, [1.7e308, 1.0, 1.0]])
    @pytest.mark.parametrize("values", [
        [1e308] * 30 + [1.5e308],  # a group's sum overflows
        [0.0] + [50.0] * 30,
        [-0.0, 0.0] * 15 + [0.0],
    ])
    def test_group_sums_that_overflow_or_tie(self, values, priorities, slot):
        groups = [(list(range(g, 31, 3)), priority) for g, priority in enumerate(priorities)]
        assert_kept_matches(values, slot, None, groups, [0.0, -0.0, 1e308, 75.0])

    def test_a_flat_sweep_runs_one_group_nam_per_point(self, monkeypatch, tmp_path):
        rng = random.Random(21)
        ids = [f"e{k:03d}" for k in range(400)]
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": i, "evaluation": rng.uniform(1, 100)} for i in ids],
            "groups": [{"id": f"g{k}", "members": ids[k::10]} for k in range(10)],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        calls = counting_nam(monkeypatch)
        code, out, err = cli(
            "sweep", "--input", str(path), "--vary", "e000",
            "--from", "0", "--to", "100", "--steps", "51",
        )
        assert (code, err, len(out.splitlines())) == (0, "", 52)
        # The nine other groups once before the grid, then per point e000's
        # group.  The root's nam column comes from what the root keeps of
        # its other 399 elements, which runs no nam, so no nam over all 400
        # elements runs.
        assert calls == [40] * 9 + [40] * 51


# --- A grid point from each ancestor's kept state equals the full kernels. ---


def at_point(point, x, full):
    """A grid point as ``_sweep`` takes it: from the kept state, or from the
    full kernel where a kept sum overflows."""
    try:
        return point(x)
    except OverflowError:
        return full()


POINT_CONFIGS = {  # (root, config of the node), for a node over c0, c1, ...
    "root": (True, None),
    "root-hybrid": (True, "groups"),
    "wem": (False, MethodConfig(Method.WEM)),
    "wlam": (False, None),
    "nam": (False, MethodConfig(Method.NAM)),
    "hybrid": (False, "groups"),
}


def assert_points_match(values, slot, weights, groups, xs):
    """Each x of ``xs`` through the point kept for ``slot`` at the root and
    below it under each method, against ``_metrics`` and ``_operate`` over
    the full list, by hex and repr, or the same OverflowError."""
    hierarchy = aggeval.hierarchy
    ids = [f"c{k}" for k in range(len(values))]
    hybrid = MethodConfig(Method.HYBRID_GROUPED, groups=tuple(
        Group(f"g{k}", tuple(ids[p] for p in positions), priority)
        for k, (positions, priority) in enumerate(groups)))
    for root, config in POINT_CONFIGS.values():
        config = hybrid if config == "groups" else config
        sub = hierarchy._sub("node", ids, list(values), {}, weights or [None] * len(values), config)

        def full(values):
            if root:
                return hierarchy._metrics(values, sub.weights, sub.plan)
            return hierarchy._operate(sub, values)

        point = hierarchy._kept_point(sub, slot, root, max([*values, *xs]))
        for x in xs:
            expected = list(values)
            expected[slot] = x
            sub.values[slot] = x
            assert outcome(lambda: at_point(point, x, lambda: full(sub.values))) \
                == outcome(lambda: full(expected)), (root, config)


POINT_SIZES = (1, 2, 3, 20, 30, 31, 200)


@st.composite
def point_cases(draw):
    """``kept_cases`` at more sizes and on nam's direct-path range too, with
    the others' smallest value, or zeros of either sign, on both sides of
    the slot, and x at both zeros and at that smallest value."""
    values, slot, weights, groups, xs = draw(kept_cases(POINT_SIZES, (0.0, 5e-324, TINY)))
    neighbours = {0, slot - 1, slot + 1, len(values) - 1} - {slot, -1, len(values)}
    tie = draw(st.sampled_from(["none", "smallest", "zeros"]))
    if tie == "smallest" and neighbours:
        low = min(values[k] for k in neighbours)
        for k in neighbours:
            values[k] = low
        xs.append(low)
    elif tie == "zeros":
        first, second = draw(st.permutations([0.0, -0.0]))
        for k in neighbours:
            values[k] = first if k < slot else second
    xs += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=2))
    return values, slot, weights, groups, xs


class TestKeptPoints:
    @settings(deadline=None, max_examples=300)
    @given(point_cases())
    @example(([0.0, 50.0, -0.0], 1, None, [([0, 1, 2], 1.0)], [-0.0, 0.0]))
    @example(([TINY, 2.0, math.nextafter(LARGE, math.inf)], 0, None, [([0, 1], 1.0), ([2], 2.0)],
              [math.nextafter(TINY, 0.0), TINY, LARGE]))
    @example(([9e307, 8e307, 50.0], 2, [1.7e308, 1.0, 1.0], [([0, 1, 2], 1.7e308)], [9e307, 1.0]))
    def test_equal_the_full_kernels_bit_for_bit(self, case):
        assert_points_match(*case)

    @pytest.mark.parametrize("slot", [0, 15, 30])
    @pytest.mark.parametrize("weights", [None, [1.7e308] + [1.0] * 30])
    @pytest.mark.parametrize("values", [
        [1e308] * 30 + [1.5e308],  # a sum overflows
        [0.0] + [50.0] * 30,
        [-0.0, 0.0] * 15 + [0.0],
        [TINY] * 10 + [LARGE] * 21,
    ])
    def test_sums_that_overflow_or_tie(self, values, weights, slot):
        priorities = [1.7e308, 1.0, 1.0]
        groups = [(list(range(g, 31, 3)), priority) for g, priority in enumerate(priorities)]
        assert_points_match(values, slot, weights, groups, [0.0, -0.0, 1e308, 75.0, TINY])

    @pytest.mark.parametrize("values", [[0.0, 0.0], [0.0, -0.0, 0.0]])
    def test_zeros_under_priorities_whose_total_overflows(self, values):
        # A bound on the values alone would keep state here, and fsum over the
        # two priorities would raise before the grid.
        groups = [([0], 1.7e308), (list(range(1, len(values))), 1.7e308)]
        assert_points_match(values, 0, None, groups, [0.0, -0.0])


def full_reroll_csv(path, vary, start, stop, steps):
    """The CSV of a sweep, each row from a full roll-up of the changed tree."""
    hierarchy = aggeval.hierarchy
    desc = load_description(str(path))
    root, scale = desc.hierarchy_root(), desc.scale
    children = root.children
    weights = None
    if any(child.priority is not None for child in children):
        weights = [1.0 if child.priority is None else child.priority for child in children]
    position = {child.id: k for k, child in enumerate(children)}
    groups = root.config.groups if root.config else ()
    plan = [([position[m] for m in group.members], group.priority) for group in groups]
    rows = []
    for varied in hierarchy._grid(start, stop, steps):
        report = aggregate(with_value(root, vary, varied), scale)
        wem, *means = hierarchy._metrics([child.value for child in report.children], weights, plan)
        clamped = [None if mean is None else scale.clamp(mean) for mean in means]
        rows.append(hierarchy.SweepRow(varied, wem, *clamped))
    return aggeval.cli._sweep_csv(rows)


class TestCliSweepMatchesFullReroll:
    @pytest.mark.parametrize("before, after", [
        ([0.0, -0.0], [-0.0, 0.0]),
        ([-0.0, 0.0], [0.0, -0.0]),
        ([20.0, 30.0], [-0.0, 0.0]),
        ([20.0, 0.0], [-0.0, 20.0]),
    ])
    @pytest.mark.parametrize("grid", [("0", "-0", "3"), ("0", "100", "11")])
    def test_signed_zero_siblings(self, tmp_path, before, after, grid):
        values = [*before, 40.0, *after]
        ids = [f"e{k}" for k in range(len(values))]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": i, "evaluation": v} for i, v in zip(ids, values)],
        }), encoding="utf-8")
        vary = ids[len(before)]
        start, stop, steps = grid
        code, out, err = cli("sweep", "--input", str(path), "--vary", vary,
                             "--from", start, "--to", stop, "--steps", steps)
        assert (code, err) == (0, "")
        assert out == full_reroll_csv(path, vary, float(start), float(stop), int(steps))
        last = out.splitlines()[-1].split(",")
        x = float(stop)
        assert last[:2] == [f"{x:g}", f"{min([*before, x, *after]):.6f}"]
        if stop == "-0":
            assert last[0] == "-0"

    @pytest.mark.parametrize("n, groups", [(20, 0), (31, 0), (400, 10)])
    def test_direct_and_log_path_roots(self, tmp_path, n, groups):
        rng = random.Random(n)
        ids = [f"e{k:03d}" for k in range(n)]
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": i, "evaluation": round(rng.uniform(1, 100), 3)} for i in ids],
        }
        if groups:
            doc["groups"] = [{"id": f"g{k}", "members": ids[k::groups], "priority": 1 + k % 3}
                             for k in range(groups)]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for vary in (ids[0], ids[n // 2], ids[-1]):
            code, out, err = cli("sweep", "--input", str(path), "--vary", vary,
                                 "--from", "0", "--to", "100", "--steps", "11")
            assert (code, err) == (0, "")
            assert out == full_reroll_csv(path, vary, 0.0, 100.0, 11)


# --- A sweep keeps state only where nothing a grid point forms can overflow. ---


HALF_MAX = sys.float_info.max / 2


def keeps_state(n, largest, factor):
    """The sweep's overflow rule, multiplied in the same order: an ancestor
    of n children with values in [0, largest], whose largest weight or group
    priority is ``factor``, keeps state for its grid points."""
    return n * max(largest, 1.0) * max(1.0, factor) < HALF_MAX


def straddle(holds, guess):
    """The adjacent floats f < g with ``holds(f)`` and not ``holds(g)``, for
    a ``holds`` that is true up to some float and false beyond it."""
    while not holds(guess):
        guess = math.nextafter(guess, 0.0)
    while holds(up := math.nextafter(guess, math.inf)):
        guess = up
    return guess, up


def counted(call, runs):
    def wrapper(*args):
        runs.append(call.__name__)
        return call(*args)

    return wrapper


def assert_rule_points(monkeypatch, values, slot, weights, groups, xs, largest):
    """Each x of ``xs`` through the point kept for ``slot`` with children in
    [0, ``largest``], at the root and below it under each method, against
    ``_metrics`` and ``_operate`` over the full list, by hex and repr, or the
    same OverflowError, with nothing caught between; returns per method
    whether its points ran without the full kernels."""
    hierarchy = aggeval.hierarchy
    ids = [f"c{k}" for k in range(len(values))]
    hybrid = MethodConfig(Method.HYBRID_GROUPED, groups=tuple(
        Group(f"g{k}", tuple(ids[p] for p in positions), priority)
        for k, (positions, priority) in enumerate(groups)))
    kept = []
    for root, config in POINT_CONFIGS.values():
        config = hybrid if config == "groups" else config
        sub = hierarchy._sub("node", ids, list(values), {}, weights or [None] * len(values), config)
        runs, got = [], []
        with monkeypatch.context() as patch:
            for name in ("_metrics", "_operate"):
                patch.setattr(hierarchy, name, counted(getattr(hierarchy, name), runs))
            point = hierarchy._kept_point(sub, slot, root, largest)
            for x in xs:
                sub.values[slot] = x
                got.append(outcome(lambda: point(x)))
        kept.append(not runs)
        for x, result in zip(xs, got):
            full = list(values)
            full[slot] = x
            expected = outcome(lambda: hierarchy._metrics(full, sub.weights, sub.plan) if root
                               else hierarchy._operate(sub, full))
            assert result == expected, (root, config, x)
    return kept


LIMIT_KINDS = ("values", "weights", "priorities")


def limit_case(kind, n, largest, below):
    """The factor one ulp on either side of the rule's limit for ``kind``:
    the largest value itself, the largest weight, or the largest group
    priority (with ``largest`` the largest value); returns the factor and the
    largest value."""
    if kind == "values":
        f, g = straddle(lambda v: keeps_state(n, v, 1.0), HALF_MAX / n)
        return (f, f) if below else (g, g)
    f, g = straddle(lambda w: keeps_state(n, largest, w), HALF_MAX / n / max(largest, 1.0))
    return (f if below else g), largest


@st.composite
def limit_cases(draw):
    """Vectors one ulp below or above the rule's limit, by their largest
    value, weight or group priority, with the others drawn beneath it."""
    n = draw(st.sampled_from((1, 2, 3, 30, 31, 200)))
    slot = draw(st.sampled_from([0, n // 2, n - 1]))
    kind, below = draw(st.sampled_from(LIMIT_KINDS)), draw(st.booleans())
    factor, largest = limit_case(kind, n, draw(st.sampled_from([0.5, 1.0, 100.0, 1e6])), below)
    fractions = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, 0.5])
    values = [largest * f for f in draw(st.lists(fractions, min_size=n, max_size=n))]
    values[draw(st.integers(0, n - 1))] = largest
    # Weights and priorities stay within 1, or within the factor that one of
    # them takes: the weights within a priority's, which only groups read.
    def spread(cap):
        return st.floats(1e-300, cap) | st.just(cap)

    weights = draw(st.none() | st.lists(spread(factor if kind == "weights" else 1.0),
                                        min_size=n, max_size=n))
    count = min(n, draw(st.sampled_from([1, 2, 3, 8])))
    order = draw(st.permutations(range(n)))
    cap = 1.0 if kind == "values" else factor
    groups = [(order[k::count], draw(spread(cap))) for k in range(count)]
    if kind == "weights":
        weights = weights or [1.0] * n
        weights[draw(st.integers(0, n - 1))] = factor
    elif kind == "priorities":
        k = draw(st.integers(0, count - 1))
        groups[k] = (groups[k][0], factor)
    xs = [largest * f for f in draw(st.lists(fractions, min_size=1, max_size=3))]
    return (values, slot, weights, groups, xs + [largest], largest), kind, below


def kept_at(kind, below):
    """Per method of ``POINT_CONFIGS``, whether its points keep state: below
    the limit all do, above it only those that do not read the group
    priorities that put them there."""
    return [below or kind == "priorities" and config != "groups"
            for _, config in POINT_CONFIGS.values()]


class TestOverflowRule:
    @settings(deadline=None, max_examples=150)
    @given(limit_cases())
    def test_one_ulp_either_side_of_the_limit(self, case):
        point, kind, below = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert assert_rule_points(monkeypatch, *point) == kept_at(kind, below)

    @pytest.mark.parametrize("below", [True, False])
    @pytest.mark.parametrize("kind", LIMIT_KINDS)
    @pytest.mark.parametrize("slot", [0, 2])
    def test_fixed_vectors_at_the_limit(self, monkeypatch, kind, below, slot):
        factor, largest = limit_case(kind, 3, 100.0, below)
        values = [largest, largest / 4, 0.0 if kind == "priorities" else largest / 8]
        weights = [factor, 1.0, 2.0] if kind == "weights" else None
        groups = [([0, 2], factor if kind == "priorities" else 1.0), ([1], 0.5)]
        xs = [0.0, -0.0, largest / 2, largest]
        kept = assert_rule_points(monkeypatch, values, slot, weights, groups, xs, largest)
        assert kept == kept_at(kind, below)

    @pytest.mark.parametrize("largest, kept", [
        (math.nextafter(sys.float_info.max / 4, 0.0), True),
        (sys.float_info.max / 4, False),
    ])
    def test_two_values_keep_state_below_a_quarter_of_the_float_max(self, monkeypatch,
                                                                     largest, kept):
        groups = [([0, 1], 1.0)]
        xs = [0.0, largest / 2, largest]
        points = assert_rule_points(monkeypatch, [largest, largest / 3], 1, None, groups, xs, largest)
        assert points == [kept] * len(POINT_CONFIGS)

    @pytest.mark.parametrize("values", [[0.0, 0.0], [0.0, -0.0, 0.0], [50.0, 50.0]])
    def test_priorities_whose_total_overflows(self, monkeypatch, values):
        # Each value small, but fsum over the two priorities overflows: a
        # bound on the values alone would build kept state and raise there.
        groups = [([0], 1.7e308), (list(range(1, len(values))), 1.7e308)]
        kept = assert_rule_points(monkeypatch, values, 0, None, groups, [0.0, 50.0], 50.0)
        assert kept == kept_at("priorities", False)

    @settings(deadline=None, max_examples=150)
    @given(point_cases())
    def test_kept_points_raise_nothing_the_full_kernels_do_not(self, case):
        values, slot, weights, groups, xs = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_rule_points(monkeypatch, values, slot, weights, groups, xs,
                               max([*values, *xs]))


def limit_document(kind, below, tree):
    """A description whose varied ancestor sits one ulp below or above the
    rule's limit: a flat root over a, b and c, or a subsystem over a and b
    under a root over it, c and d, which is then above the limit."""
    n = 2 if tree else 3
    factor, largest = limit_case(kind, n, 100.0, below)
    ids = ["a", "b", "c", "d"] if tree else ["a", "b", "c"]
    elements = [{"id": i, "evaluation": largest / 2 ** k} for k, i in enumerate(ids)]
    if kind == "weights":
        elements[0]["priority"], elements[1]["priority"] = factor, 2
    groups = [{"id": "g1", "members": ["a"], "priority": factor},
              {"id": "g2", "members": ["b"] if tree else ["b", "c"]}]
    doc = {"scale": {"min": 0, "max": largest}, "elements": elements}
    if not tree:
        return {**doc, "groups": groups} if kind == "priorities" else doc
    method = {"values": {"method": "nam"}, "weights": {"method": "wlam"},
              "priorities": {"method": "hybrid", "groups": groups}}[kind]
    return {**doc, "hierarchy": {"id": "root", "children": [
        {"id": "inner", "method": method, "children": ["a", "b"]}, "c", "d"]}}


class TestCliSweepsAtTheLimit:
    @pytest.mark.parametrize("tree", [False, True])
    @pytest.mark.parametrize("below", [True, False])
    @pytest.mark.parametrize("kind", LIMIT_KINDS)
    def test_equal_a_full_reroll(self, tmp_path, kind, below, tree):
        doc = limit_document(kind, below, tree)
        path = tmp_path / "limit.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        top = doc["scale"]["max"]
        for vary in ("a", "b"):
            # Five points, so that no grid point's span times its index overflows.
            code, out, err = cli("sweep", "--input", str(path), "--vary", vary,
                                 "--from", "0", "--to", repr(top), "--steps", "5")
            assert (code, err) == (0, "")
            assert out == full_reroll_csv(path, vary, 0.0, top, 5)


# --- Library results stay inside the scale. ---

OVERSHOOT_NAM = [99.9999999999999, 100.0, 99.99999999999999, 100.0, 100.0]
NEAR_MAXIMUM = st.sampled_from(
    [100.0, 99.99999999999999, 99.99999999999997, 99.9999999999999]
) | st.floats(99.9999999999, 100.0)


@st.composite
def near_maximum_trees(draw):
    """A subsystem over near-maximum leaves under nam, weighted wlam or
    hybrid, as the root or as the first child of a root with the same
    method; ``e0`` is its first leaf."""
    values = draw(st.lists(NEAR_MAXIMUM, min_size=2, max_size=8))
    method = draw(st.sampled_from([Method.NAM, Method.WLAM, Method.HYBRID_GROUPED]))
    ids = [f"e{k}" for k in range(len(values))]
    priorities = [None] * len(values)
    config = MethodConfig(method)
    if method is Method.WLAM:
        priorities = draw(st.lists(st.sampled_from([0.3, 1.0, 3.3]) | st.floats(0.1, 10),
                                   min_size=len(values), max_size=len(values)))
    elif method is Method.HYBRID_GROUPED:
        order = draw(st.permutations(ids))
        count = draw(st.integers(1, len(ids)))
        config = MethodConfig(method, groups=tuple(
            Group(f"g{k}", tuple(order[k::count]), draw(st.sampled_from([0.3, 1.0, 3.3])))
            for k in range(count)))
    node = sub("s", map(leaf, ids, values, priorities), config)
    if draw(st.booleans()):
        if method is Method.HYBRID_GROUPED:
            config = MethodConfig(method, groups=(Group("g", ("s",)), Group("h", ("top",))))
        node = sub("root", [node, leaf("top", 100.0)], config)
    return node


def inside(values, scale=PERCENT):
    return all(value is None or scale.min <= value <= scale.max for value in values)


class TestLibraryResultsStayInTheScale:
    def test_the_overshooting_vector_overshoots_unclamped(self):
        assert aggeval.core._nam(OVERSHOOT_NAM) == 100.00000000000003

    @settings(deadline=None, max_examples=300)
    @given(near_maximum_trees())
    @example(sub("s", map(leaf, ["e0", "e1", "e2", "e3", "e4"], OVERSHOOT_NAM),
                 MethodConfig(Method.NAM)))
    def test_every_aggregate_field(self, tree):
        for row in aggeval.compare_methods(tree, PERCENT):
            assert inside([row.wem, row.wlam, row.nam, row.hybrid]), row
        for row in aggeval.sweep(tree, PERCENT, "e0", 99.9999999999999, 100.0, 3):
            assert inside([row.wem, row.wlam, row.nam, row.hybrid]), row
        assert inside([report.value for report in aggregate(tree, PERCENT).walk()])
