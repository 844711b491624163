"""The hierarchy parse pass, the cheap object builder and deep serialization.

``parse_description`` reads the ``hierarchy`` section with one
explicit-stack preorder pass, in which only a bad entry goes through the
reporting checks.  These tests pin that pass to a recursive reference
parse, the one it replaced: the same tree on valid documents, and the same
diagnostics on documents with one or two faults in the hierarchy.  The
pass also runs ``validate_hierarchy``'s checks and compiles the section;
the reference parse followed by ``validate_hierarchy`` and the tree
compiler it replaced is the oracle for both.  The library checks and
compiles a constructed tree in one walk; the two walks it replaced are
kept here as the oracle for that walk.
"""

import copy
import dataclasses
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import aggeval.description
import aggeval.hierarchy
from aggeval import (
    DescriptionError,
    Group,
    HierarchyNode,
    Method,
    MethodConfig,
    PERCENT,
    Scale,
    parse_description,
    serialize_description,
    validate_hierarchy,
)
from aggeval.description import (
    _SUBSYSTEM_KEYS,
    Element,
    SystemDescription,
    _built,
    _check_object,
    _Collector,
    _element_columns,
    _get_number,
    _get_string,
    _parse_hierarchy,
    _parse_method,
)
from aggeval.hierarchy import HierarchyValidationError, _entries, _sub
from aggeval.network import _check_method
from test_description import documents
from test_reference_oracle import workloads
from test_tree_passes import (
    HIERARCHY_FIXTURES,
    SHALLOW_TREES,
    chain,
    random_invalid_tree,
    tree_documents,
    within_the_stack,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# --- The recursive reporting parse the pass replaced, kept as the reference. ---


def reference_node(raw, path, elements, used, diag):
    if isinstance(raw, str):
        element = elements.get(raw)
        if element is None:
            diag.add(path, f"unknown element {raw!r}")
        elif raw in used:
            diag.add(path, f"element {raw!r} already used at {used[raw]}")
        else:
            used[raw] = path
            return HierarchyNode(element.id, element.evaluation, element.priority)
        return None
    if not isinstance(raw, dict):
        diag.add(path, f"expected an element id or a subsystem object, got {raw!r}")
        return None
    if not _check_object(raw, _SUBSYSTEM_KEYS, ("id", "children"), path, diag):
        return None
    node_id = _get_string(raw, "id", path, diag)
    if node_id is not None and node_id in elements:
        diag.add(f"{path}.id", f"subsystem id {node_id!r} shadows an element")
        node_id = None
    priority = None
    if "priority" in raw:
        priority = _get_number(raw, "priority", path, diag)
        if priority is not None and priority <= 0:
            diag.add(f"{path}.priority", f"must be positive, got {priority!r}")
            priority = None
    config = None
    if "method" in raw:
        config = _parse_method(raw["method"], f"{path}.method", diag)
    children_raw = raw["children"]
    if not isinstance(children_raw, list) or not children_raw:
        diag.add(f"{path}.children", "expected a non-empty array")
        return None
    children = []
    for index, child in enumerate(children_raw):
        node = reference_node(child, f"{path}.children[{index}]", elements, used, diag)
        if node is not None:
            children.append(node)
    if node_id is None or len(children) != len(children_raw):
        return None
    return HierarchyNode(id=node_id, priority=priority, children=tuple(children), config=config)


def reference_parse(raw, positions, columns, scale, diag):
    """``_parse_hierarchy``'s signature over the pipeline it replaced: the
    reference parse, the elements never referenced, then
    ``validate_hierarchy`` on the whole tree.  The tree is returned as it
    is, so the commands check and compile it in the library's one walk."""
    _, evaluations, priorities, _ = columns
    elements = {i: Element(i, evaluations[k], priorities[k]) for i, k in positions.items()}
    used = {}
    tree = reference_node(raw, "hierarchy", elements, used, diag)
    unreferenced = sorted(positions.keys() - used.keys())
    if unreferenced:
        diag.add("hierarchy", "elements never referenced: " + ", ".join(unreferenced))
    if tree is not None and scale is not None:
        for violation in validate_hierarchy(tree, scale):
            diag.add("hierarchy", violation)
    return tree, used


def both_parses(text):
    """The pass's and the reference's tree and ``used`` on a valid document;
    the pass's tree is the parsed description's."""
    desc = parse_description(text)
    columns = _element_columns(desc)
    positions = {element_id: k for k, element_id in enumerate(columns.ids)}
    raw = json.loads(text)["hierarchy"]
    diag, reference_diag = _Collector(), _Collector()
    _, used = _parse_hierarchy(raw, positions, columns, desc.scale, diag)
    reference = reference_parse(raw, positions, columns, desc.scale, reference_diag)
    assert diag.diagnostics == reference_diag.diagnostics == []
    return (parse_description(text).hierarchy, used), reference


def assert_same_tree(parsed, tree):
    assert parsed == tree and tree == parsed
    assert repr(parsed) == repr(tree)
    assert hash(parsed) == hash(tree)
    for a, b in zip(parsed.walk(), tree.walk(), strict=True):
        assert type(a) is type(b)
        assert list(vars(a).items()) == list(vars(b).items())


def assert_pass_matches_reference(text):
    (tree, used), (reference_tree, reference_used) = both_parses(text)
    assert tree is not None
    assert_same_tree(tree, reference_tree)
    assert list(used) == list(reference_used)
    assert parse_description(text).hierarchy == tree


class TestLeanTreeEqualsReportingTree:
    @pytest.mark.parametrize("name", HIERARCHY_FIXTURES)
    def test_fixtures(self, name):
        assert_pass_matches_reference((FIXTURES / name).read_text(encoding="utf-8"))

    @settings(deadline=None, max_examples=200)
    @given(documents())
    def test_valid_hierarchy_documents(self, document):
        if "hierarchy" not in document:
            return
        text = json.dumps(document)
        try:
            parse_description(text)
        except DescriptionError:
            return
        assert_pass_matches_reference(text)  # leaf roots included

    @settings(deadline=None, max_examples=200)
    @given(tree_documents())
    def test_random_trees(self, document):
        assert_pass_matches_reference(json.dumps(document))

    def test_chain_and_integer_priorities(self):
        root = {"id": "n0", "priority": 3, "children": ["c0", "c1"]}
        node = root
        for k in range(1, 300):
            child = {"id": f"n{k}", "children": [f"c{2 * k}", f"c{2 * k + 1}"]}
            node["children"].insert(1, child)
            node = child
        elements = [{"id": f"c{k}", "evaluation": k % 100, "priority": 2} for k in range(600)]
        text = json.dumps({"scale": {"min": 0, "max": 100}, "elements": elements, "hierarchy": root})
        (tree, used), (reference_tree, reference_used) = both_parses(text)
        assert_same_tree(tree, reference_tree)
        assert tree.priority == 3.0 and type(tree.priority) is float
        assert list(used) == list(reference_used)


# --- Faults in hierarchy entries: the reference decides the diagnostics. ---

FAULTS = (
    "wrong-type", "missing-key", "extra-key", "priority", "huge-int-priority",
    "unknown-leaf", "reused-leaf", "shadowing-id", "bad-method", "empty-children",
    "leaf-root", "duplicate-id",
)
BAD_METHODS = (
    {"method": "bogus"},
    {"method": 3},
    {"method": "wlam", "extra": 1},
    {"groups": []},
    {"method": "hybrid", "groups": []},
    {"method": "hybrid", "groups": [{"id": "g", "members": ["x"]}, {"id": "g", "members": ["y"]}]},
    {"method": "hybrid", "groups": [{"id": "g", "members": ["x", "x"]}]},
    {"method": "wem-then", "critical": [1]},
    {"method": "wem-then", "critical": ["x"], "fallback": "wem"},
    {"method": "wlam", "threshold": "high"},
    {"method": "wlam", "threshold": 10**400},
    "wlam",
)


def _slots(root):
    """(children list, index) of every subsystem but the root, and of every
    leaf reference, under a subsystem root."""
    subsystem_slots, leaf_slots = [], []
    stack = [root]
    while stack:
        children = stack.pop()["children"]
        for index, child in enumerate(children):
            if isinstance(child, str):
                leaf_slots.append((children, index))
            else:
                subsystem_slots.append((children, index))
                stack.append(child)
    return subsystem_slots, leaf_slots


@st.composite
def faulty_documents(draw, faults=1):
    """A valid tree document with ``faults`` hierarchy entries made wrong.

    Every fault is drawn from the entries of the valid tree, so a later one
    can land in a subtree an earlier one cut off, or on the same entry.
    """
    document = copy.deepcopy(draw(tree_documents()))
    root = document["hierarchy"]
    subsystem_slots, leaf_slots = _slots(root)
    subsystems = [root] + [children[index] for children, index in subsystem_slots]
    element_ids = [e["id"] for e in document["elements"]]
    for _ in range(faults):
        node = draw(st.sampled_from(subsystems))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "wrong-type":
            wrong = draw(st.sampled_from([None, True, 5, 1.5, [], ["x"], {}]))
            target = draw(st.sampled_from(["subsystem", "leaf", "id", "children", "method"]))
            if target in ("subsystem", "leaf"):
                slots = subsystem_slots if target == "subsystem" else leaf_slots
                children, index = draw(st.sampled_from(slots or leaf_slots))
                children[index] = wrong
            else:
                node[target] = wrong
        elif fault == "missing-key":
            node.pop(draw(st.sampled_from(["id", "children"])), None)
        elif fault == "extra-key":
            node[draw(st.sampled_from(["extra", "value", "Id"]))] = 1
        elif fault == "priority":
            node["priority"] = draw(
                st.sampled_from([None, True, False, 0, -1, 1e400, float("nan"), "1"])
            )
        elif fault == "huge-int-priority":
            node["priority"] = draw(st.sampled_from([10**309, 10**400]))
        elif fault in ("unknown-leaf", "reused-leaf"):
            children, index = draw(st.sampled_from(leaf_slots))
            names = ["nowhere", "", "s0"] if fault == "unknown-leaf" else element_ids
            children[index] = draw(st.sampled_from(names))
        elif fault == "shadowing-id":
            node["id"] = draw(st.sampled_from(element_ids))
        elif fault == "bad-method":
            node["method"] = draw(st.sampled_from(BAD_METHODS))
        elif fault == "empty-children":
            node["children"] = []
        elif fault == "leaf-root":
            document["hierarchy"] = draw(st.sampled_from(element_ids))
        else:
            # An earlier fault may have removed an id: copy one that is left.
            ids = [s["id"] for s in subsystems if "id" in s]
            node["id"] = draw(st.sampled_from(ids or ["s0"]))
    return document


def outcome(text):
    try:
        return parse_description(text)
    except DescriptionError as exc:
        return exc.diagnostics


def assert_reference_outcome(document):
    text = json.dumps(document)
    with mock.patch.object(aggeval.description, "_parse_hierarchy", reference_parse):
        reference = outcome(text)
    assert outcome(text) == reference


class TestOneFaultGivesTheReportingDiagnostics:
    @settings(deadline=None, max_examples=500)
    @given(faulty_documents())
    def test_single_fault(self, document):
        assert_reference_outcome(document)

    @settings(deadline=None, max_examples=300)
    @given(faulty_documents(faults=2))
    def test_two_faults_interleave_in_preorder(self, document):
        assert_reference_outcome(document)


def deep_document(depth, bottom="nowhere"):
    """A ``depth``-level chain n<k> -> (c<k>, n<k+1>) whose last child is
    ``bottom``; every subsystem has a method object.  Element c<depth> is
    the one ``bottom`` stands in for."""
    elements = [{"id": f"c{k}", "evaluation": 10 + k % 80} for k in range(depth + 1)]
    node = bottom
    for k in reversed(range(depth)):
        node = {"id": f"n{k}", "method": {"method": "wlam"}, "children": [f"c{k}", node]}
    return {"scale": {"min": 0, "max": 100}, "elements": elements, "hierarchy": node}


class TestOnePassPerSection:
    def test_a_fault_at_the_bottom_of_a_deep_chain_parses_each_method_once(self):
        text = json.dumps(deep_document(200))
        with mock.patch.object(
            aggeval.description, "_parse_method", wraps=_parse_method
        ) as parse_method:
            diagnostics = outcome(text)
        assert parse_method.call_count == 200
        assert diagnostics == (
            "hierarchy" + ".children[1]" * 200 + ": unknown element 'nowhere'",
            "hierarchy: elements never referenced: c200",
        )

    def test_3000_levels_get_a_located_diagnostic_without_recursion(self):
        assert decoded_outcome(deep_document(3000)) == (
            "hierarchy" + ".children[1]" * 3000 + ": unknown element 'nowhere'",
            "hierarchy: elements never referenced: c3000",
        )

    def test_a_valid_3000_level_chain_parses(self):
        desc = decoded_outcome(deep_document(3000, bottom="c3000"))
        assert isinstance(desc, SystemDescription)
        assert sum(1 for node in desc.hierarchy.walk() if node.children) == 3000


def decoded_outcome(document):
    """``outcome`` of a document deeper than json.loads nests, handed over
    as decoded; a RecursionError fails the test at once."""
    with mock.patch.object(aggeval.description.json, "loads", return_value=document):
        return within_the_stack(outcome, "decoded above")


# --- The two walks the library ran on a tree before one walk did both. ---


def two_walk_validate(root, scale):
    """``validate_hierarchy`` as it was: an explicit-stack preorder walk."""
    violations = []
    seen_ids = set()
    isfinite = math.isfinite
    low, high = scale.min, scale.max
    stack = [root]
    while stack:
        node = stack.pop()
        children = node.children
        if children:
            stack += children[::-1]
        node_id = node.id
        if node_id in seen_ids:
            violations.append(f"node id {node_id!r} used more than once")
            continue
        seen_ids.add(node_id)
        priority = node.priority
        if priority is not None and not (isfinite(priority) and priority > 0):
            violations.append(f"node {node_id!r}: priority must be positive, got {priority!r}")
        if not children:
            value = node.value
            if value is None:
                violations.append(f"leaf {node_id!r} has no evaluation value")
            elif not (isfinite(value) and low <= value <= high):
                violations.append(f"leaf {node_id!r}: value {value!r} is outside [{low}, {high}]")
            if node.config is not None:
                violations.append(f"leaf {node_id!r} cannot carry a method config")
        else:
            if node.value is not None:
                violations.append(f"subsystem {node_id!r} cannot carry a leaf value")
            if node.config is not None:
                _check_method(node.id, node.config, [c.id for c in children],
                              [c.priority for c in children], violations)
    return violations


def two_walk_compile(root):
    """The subsystems of a validated tree as the tree compiler listed them,
    from a second walk: post-order, children right to left."""
    order = []
    stack = [root] if root.children else []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(child for child in reversed(node.children) if child.children)
    subs, index = [], {}
    for node in reversed(order):
        children = node.children
        values = [0.0 if child.children else float(child.value) for child in children]
        below = {k: index[child.id] for k, child in enumerate(children) if child.children}
        index[node.id] = len(subs)
        subs.append(_sub(node.id, [child.id for child in children], values, below,
                         [child.priority for child in children], node.config))
    return subs


def assert_one_walk(tree, scale=PERCENT):
    """``validate_hierarchy`` and the library's checked lowering give the
    two walks' violations, raised, or their entries, every field equal."""
    expected = two_walk_validate(tree, scale)
    assert validate_hierarchy(tree, scale) == expected
    if expected:
        with pytest.raises(HierarchyValidationError) as raised:
            _entries(tree, scale)
        assert raised.value.violations == tuple(expected)
        return
    *subs, top = _entries(tree, scale)
    root_id, root_value = top.ids[0], top.values[0]
    assert subs == two_walk_compile(tree)  # ``below`` included
    assert root_id == tree.id
    if not subs:
        assert root_value == tree.value


def document_tree(document):
    """A document's hierarchy as a constructed tree, faults and all."""
    elements = {e["id"]: Element(e["id"], e["evaluation"], e.get("priority"))
                for e in document["elements"]}
    return reference_node(document["hierarchy"], "hierarchy", elements, {}, _Collector())


# --- Faults only the tree validation finds: the pass against the old pipeline. ---


def assert_old_pipeline(document):
    """The parse gives the outcome of the pipeline it replaced, with the
    same diagnostics in the same order; an accepted document stores, before
    its tree is first read, ``two_walk_compile``'s entries for that tree."""
    text = json.dumps(document)
    with mock.patch.object(aggeval.description, "_parse_hierarchy", reference_parse):
        reference = outcome(text)
    parsed = outcome(text)
    if isinstance(parsed, SystemDescription):
        *subs, top = _entries(vars(parsed)["hierarchy"], parsed.scale)
        root_id, root_value = top.ids[0], top.values[0]
        tree = parsed.hierarchy
        compiled = two_walk_compile(tree)
        assert len(subs) == len(compiled)
        for entry, expected in zip(subs, compiled):
            assert entry == expected  # every field, ``below`` included
            assert all(type(v) is float for v in entry.values)
        assert root_id == tree.id
        if not compiled:
            assert root_value == tree.value
    assert parsed == reference


VALIDATION_FAULTS = (
    "duplicate-id", "groups-off-hybrid", "unknown-member", "member-twice", "uncovered-child",
    "duplicate-group-id", "critical-not-child", "fallback-off-wem-then", "threshold",
    "nam-under-priority", "unreferenced-element",
)


def _subsystems(root):
    """Every subsystem object of a hierarchy section, in preorder."""
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(c for c in reversed(node["children"]) if isinstance(c, dict))
    return found


@st.composite
def validation_faulty_documents(draw):
    """A valid tree document with one to three subsystems made wrong in
    ways its entries pass and only the tree's validation reports (or, for
    a partition, the group list's own checks), or with an element the tree
    never references, whose line comes before the validation's.  Faults
    are drawn over the whole tree, so a duplicated id can have faults in
    its own subtree."""
    document = copy.deepcopy(draw(tree_documents()))
    nodes = _subsystems(document["hierarchy"])
    elements = {e["id"]: e for e in document["elements"]}
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(nodes))
        child_ids = [c if isinstance(c, str) else c["id"] for c in node["children"]]
        fault = draw(st.sampled_from(VALIDATION_FAULTS))
        if fault == "duplicate-id":
            node["id"] = draw(st.sampled_from(nodes))["id"]
        elif fault == "groups-off-hybrid":
            method = draw(st.sampled_from(["wlam", "wem", "nam", "wem-then"]))
            node["method"] = {"method": method, "groups": [{"id": "g", "members": child_ids}]}
            if method == "wem-then":
                node["method"]["critical"] = child_ids[:1]
        elif fault in ("unknown-member", "member-twice", "uncovered-child", "duplicate-group-id"):
            groups = [{"id": f"g{k}", "members": [c]} for k, c in enumerate(child_ids)]
            if fault == "unknown-member":
                groups[-1]["members"].append(draw(st.sampled_from(["ghost", *elements])))
            elif fault == "member-twice":
                groups.append({"id": "again", "members": [child_ids[-1]]})
            elif fault == "uncovered-child":
                groups.pop(draw(st.integers(0, len(groups) - 1)))
            else:
                groups.append({"id": "g0", "members": ["ghost"]})
            node["method"] = {"method": "hybrid", "groups": groups}
        elif fault == "critical-not-child":
            critical = [*child_ids[:1], draw(st.sampled_from(["ghost", *elements]))]
            node["method"] = {"method": "wem-then", "critical": critical}
        elif fault == "fallback-off-wem-then":
            node["method"] = {
                "method": draw(st.sampled_from(["wlam", "wem", "nam"])),
                "fallback": draw(st.sampled_from(["wlam", "nam"])),
            }
        elif fault == "unreferenced-element":
            document["elements"].append({"id": f"spare{len(elements)}", "evaluation": 1})
        elif fault == "threshold":
            method = node.setdefault("method", {"method": "wlam"})
            method["threshold"] = draw(st.sampled_from([-0.1, 1.5, 1e300, -1e-300]))
        else:
            node["method"] = {"method": "nam"}
            child = node["children"][draw(st.integers(0, len(child_ids) - 1))]
            (elements[child] if isinstance(child, str) else child)["priority"] = 2.5
    return document


def valid_tree_document(tree):
    """A description of a constructed tree that validates."""
    elements = tuple(Element(n.id, n.value, n.priority) for n in tree.walk() if not n.children)
    desc = SystemDescription(scale=PERCENT, elements=elements, hierarchy=tree)
    return json.loads(serialize_description(desc))


VALID_SHALLOW_TREES = [tree for tree in SHALLOW_TREES if not validate_hierarchy(tree, PERCENT)]


class TestPassGivesTheOldPipelinesOutcome:
    """The pass checks what ``validate_hierarchy`` checked and compiles what
    ``two_walk_compile`` compiled; the reference parse followed by those
    two is the oracle."""

    @settings(deadline=None, max_examples=400)
    @given(validation_faulty_documents())
    def test_validation_faults(self, document):
        assert_old_pipeline(document)

    def test_a_reused_id_skips_its_own_method_check_but_not_its_subtrees(self):
        document = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": f"e{k}", "evaluation": 10 * k} for k in range(4)],
            "hierarchy": {
                "id": "a",
                "children": [
                    "e0",
                    {
                        "id": "a",
                        "method": {"method": "wem-then", "critical": ["ghost"]},
                        "children": [
                            "e1",
                            {"id": "b", "method": {"method": "wlam", "threshold": 2},
                             "children": ["e2", "e3"]},
                        ],
                    },
                ],
            },
        }
        assert_old_pipeline(document)
        assert outcome(json.dumps(document)) == (
            "hierarchy: node id 'a' used more than once",
            "hierarchy: subsystem 'b': adequacy threshold must lie in [0, 1], got 2.0",
        )

    @pytest.mark.parametrize("name", HIERARCHY_FIXTURES)
    def test_fixtures(self, name):
        assert_old_pipeline(json.loads((FIXTURES / name).read_text(encoding="utf-8")))

    @settings(deadline=None, max_examples=200)
    @given(tree_documents())
    def test_random_trees(self, document):
        assert_old_pipeline(document)

    @pytest.mark.parametrize(
        "tree", [*VALID_SHALLOW_TREES, chain(300)],
        ids=[*(f"shallow{k}" for k in range(len(VALID_SHALLOW_TREES))), "chain300"],
    )
    def test_constructed_trees(self, tree):
        assert_old_pipeline(valid_tree_document(tree))

    def test_a_leaf_root(self):
        assert_old_pipeline({
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": "e1", "evaluation": 42, "priority": 3}],
            "hierarchy": "e1",
        })

    @pytest.mark.parametrize("name", ["tree-rollup", "tree-sweep"])
    def test_seed_1_benchmark_trees(self, name, tmp_path):
        assert_old_pipeline(workloads.materialize(name, 1, str(tmp_path)).doc)


class TestOneWalkGivesTheTwoWalksOutcome:
    """One walk checks a constructed tree and lowers it into the frames the
    parse compiles; the two walks it replaced are the oracle."""

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(tree_documents(), validation_faulty_documents()))
    def test_random_trees_with_zero_to_three_faults(self, document):
        assert_one_walk(document_tree(document))

    def test_seeded_trees_with_faults_at_every_node_kind(self):
        scale = Scale(5.0, 50.0)
        for seed in range(200):
            assert_one_walk(random_invalid_tree(random.Random(seed), scale), scale)

    @pytest.mark.parametrize(
        "tree", [*SHALLOW_TREES, chain(300)],
        ids=[*(f"shallow{k}" for k in range(len(SHALLOW_TREES))), "chain300"],
    )
    def test_constructed_trees(self, tree):
        assert_one_walk(tree)

    def test_a_3000_level_chain(self):
        within_the_stack(assert_one_walk, chain(3000))
        bad = chain(3000)
        within_the_stack(assert_one_walk, HierarchyNode("n0", 1.0, None, bad.children, bad.config))

    def test_the_library_walks_a_tree_once(self, monkeypatch):
        walks = []
        original = aggeval.hierarchy._hierarchy_walk

        def counting(root, scale):
            walks.append(root.id)
            return original(root, scale)

        monkeypatch.setattr(aggeval.hierarchy, "_hierarchy_walk", counting)
        tree = SHALLOW_TREES[3]
        aggeval.hierarchy.aggregate(tree, PERCENT)
        aggeval.hierarchy.compare_methods(tree, PERCENT)
        aggeval.hierarchy.sweep(tree, PERCENT, "a", 0.0, 100.0, 3)
        assert walks == ["root"] * 3


# --- Objects built without the frozen __init__. ---

CONFIG = MethodConfig(
    Method.HYBRID_GROUPED, groups=(Group("g", ("a", "b"), 2.0),), adequacy_threshold=0.3
)
NODE_PAIRS = [
    (
        HierarchyNode("a", 10.0, None),
        dict(id="a", value=10.0, priority=None, children=(), config=None),
    ),
    (
        HierarchyNode("b", 0.0, 2.5),
        dict(id="b", value=0.0, priority=2.5, children=(), config=None),
    ),
    (
        HierarchyNode("r", None, 1.0, (HierarchyNode("a", 10.0), HierarchyNode("b", 0.0, 2.5)), CONFIG),
        dict(
            id="r",
            value=None,
            priority=1.0,
            children=(HierarchyNode("a", 10.0), HierarchyNode("b", 0.0, 2.5)),
            config=CONFIG,
        ),
    ),
]
CONFIG_PAIRS = [
    (
        CONFIG,
        dict(
            method=Method.HYBRID_GROUPED,
            groups=(Group("g", ("a", "b"), 2.0),),
            critical_ids=(),
            fallback=None,
            adequacy_threshold=0.3,
        ),
    ),
    (
        MethodConfig(Method.WEM_THEN, critical_ids=("a",), fallback=Method.NAM),
        dict(
            method=Method.WEM_THEN,
            groups=(),
            critical_ids=("a",),
            fallback=Method.NAM,
            adequacy_threshold=None,
        ),
    ),
]
ELEMENT_PAIRS = [
    (Element("a", 10.0), dict(id="a", evaluation=10.0, priority=None)),
    (Element("b", 99.5, 3.0), dict(id="b", evaluation=99.5, priority=3.0)),
]


class TestBuiltObjectsMatchConstructed:
    @pytest.mark.parametrize("made, fields", NODE_PAIRS + CONFIG_PAIRS + ELEMENT_PAIRS)
    def test_indistinguishable(self, made, fields):
        built = _built(type(made), fields)
        assert type(built) is type(made)
        assert built == made and made == built
        assert not (built != made)
        assert hash(built) == hash(made)
        assert repr(built) == repr(made)
        assert list(vars(built).items()) == list(vars(made).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.id = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del built.id

    @pytest.mark.parametrize("made, fields", ELEMENT_PAIRS)
    def test_element_replace_and_asdict(self, made, fields):
        built = _built(Element, fields)
        assert dataclasses.asdict(built) == dataclasses.asdict(made) == fields
        assert dataclasses.replace(built, evaluation=1.0) == dataclasses.replace(made, evaluation=1.0)
        assert dataclasses.replace(built) == made

    def test_parsed_objects_equal_constructed_ones(self, fixture_path):
        desc = parse_description(Path(fixture_path("plant_hierarchy.json")).read_text())
        configs = [node.config for node in desc.hierarchy.walk() if node.config]
        for made in [*desc.elements, *desc.hierarchy.walk(), *configs]:
            constructed = type(made)(**vars(made))
            assert made == constructed
            assert list(vars(made).items()) == list(vars(constructed).items())


# --- Serialization depth. ---


def chain_description(depth):
    root = chain(depth)
    elements = tuple(Element(n.id, n.value) for n in root.walk() if not n.children)
    return SystemDescription(scale=PERCENT, elements=elements, hierarchy=root)


class TestSerializeDepth:
    def test_too_deep_for_the_encoder_is_a_value_error(self):
        # Caught here rather than left to pytest, whose report of a deep
        # RecursionError compares the locals of every frame.
        try:
            serialize_description(chain_description(3000))
            raised = None
        except (ValueError, RecursionError) as exc:
            raised = (type(exc), str(exc))
        assert raised == (ValueError, "hierarchy nests deeper than the JSON encoder allows")

    def test_four_hundred_levels_round_trip(self):
        desc = chain_description(400)
        assert parse_description(serialize_description(desc)) == desc
