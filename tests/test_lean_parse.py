"""The lean hierarchy pass, the cheap object builder and deep serialization.

``parse_description`` first reads the ``hierarchy`` section with one
explicit-stack pass and falls back to the reporting parse at the first
entry that pass cannot accept silently.  These tests pin the lean tree to
the reporting parse's tree on valid documents, and the diagnostics to the
reporting parse's own on documents with one fault in the hierarchy.
"""

import copy
import dataclasses
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import aggeval.description
from aggeval import (
    DescriptionError,
    Group,
    HierarchyNode,
    Method,
    MethodConfig,
    PERCENT,
    parse_description,
    serialize_description,
)
from aggeval.description import (
    Element,
    SystemDescription,
    _built,
    _Collector,
    _lean_hierarchy,
    _parse_hierarchy_node,
)
from test_description import documents
from test_tree_passes import HIERARCHY_FIXTURES, chain, tree_documents

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def both_parses(text):
    """The lean pass's and the reporting parse's results on a valid document."""
    desc = parse_description(text)
    by_id = {e.id: e for e in desc.elements}
    raw = json.loads(text)["hierarchy"]
    used = {}
    diag = _Collector()
    tree = _parse_hierarchy_node(raw, "hierarchy", by_id, used, diag)
    assert diag.diagnostics == []
    return _lean_hierarchy(raw, by_id), tree, used


def assert_same_tree(lean, tree):
    assert lean == tree and tree == lean
    assert repr(lean) == repr(tree)
    assert hash(lean) == hash(tree)
    for a, b in zip(lean.walk(), tree.walk(), strict=True):
        assert type(a) is type(b)
        assert list(vars(a).items()) == list(vars(b).items())


def assert_lean_matches_reporting(text):
    lean, tree, used = both_parses(text)
    if not isinstance(json.loads(text)["hierarchy"], dict):
        assert lean is None  # a leaf root is left to the reporting parse
        return
    assert lean is not None
    lean_tree, lean_used = lean
    assert_same_tree(lean_tree, tree)
    assert lean_used.keys() == used.keys()
    assert parse_description(text).hierarchy is not None


class TestLeanTreeEqualsReportingTree:
    @pytest.mark.parametrize("name", HIERARCHY_FIXTURES)
    def test_fixtures(self, name):
        assert_lean_matches_reporting((FIXTURES / name).read_text(encoding="utf-8"))

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
        assert_lean_matches_reporting(text)

    @settings(deadline=None, max_examples=200)
    @given(tree_documents())
    def test_random_trees(self, document):
        assert_lean_matches_reporting(json.dumps(document))

    def test_chain_and_integer_priorities(self):
        root = {"id": "n0", "priority": 3, "children": ["c0", "c1"]}
        node = root
        for k in range(1, 300):
            child = {"id": f"n{k}", "children": [f"c{2 * k}", f"c{2 * k + 1}"]}
            node["children"].insert(1, child)
            node = child
        elements = [{"id": f"c{k}", "evaluation": k % 100, "priority": 2} for k in range(600)]
        text = json.dumps({"scale": {"min": 0, "max": 100}, "elements": elements, "hierarchy": root})
        lean, tree, used = both_parses(text)
        assert_same_tree(lean[0], tree)
        assert lean[0].priority == 3.0 and type(lean[0].priority) is float
        assert lean[1].keys() == used.keys()


# --- One fault in one hierarchy entry: the reporting parse decides. ---

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
def single_fault_documents(draw):
    """A valid tree document with exactly one hierarchy entry made wrong."""
    document = copy.deepcopy(draw(tree_documents()))
    root = document["hierarchy"]
    subsystem_slots, leaf_slots = _slots(root)
    subsystems = [root] + [children[index] for children, index in subsystem_slots]
    node = draw(st.sampled_from(subsystems))
    element_ids = [e["id"] for e in document["elements"]]
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
        del node[draw(st.sampled_from(["id", "children"]))]
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
        node["id"] = draw(st.sampled_from([s["id"] for s in subsystems]))
    return document


def outcome(text):
    try:
        return parse_description(text)
    except DescriptionError as exc:
        return exc.diagnostics


class TestOneFaultGivesTheReportingDiagnostics:
    @settings(deadline=None, max_examples=500)
    @given(single_fault_documents())
    def test_single_fault(self, document):
        text = json.dumps(document)
        with mock.patch.object(aggeval.description, "_lean_hierarchy", return_value=None):
            reporting = outcome(text)
        assert outcome(text) == reporting


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
