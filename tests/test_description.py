"""Tests for parsing, validating, and serializing system descriptions."""

import copy
import dataclasses
import gc
import json
import pickle
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import aggeval.description
from aggeval import (
    DescriptionError,
    Flow,
    Group,
    HierarchyNode,
    Method,
    MethodConfig,
    Network,
    Scale,
    load_description,
    parse_description,
    serialize_description,
    validate_hierarchy,
)
from aggeval.description import Element, SystemDescription, _Columns, _Compiled

VALID_FIXTURES = [
    "all_equal",
    "path_network",
    "plant_hierarchy",
    "single_leaf",
    "tie_break_network",
    "two_group",
    "weak_element",
    "weak_element_n4",
    "weak_element_n5",
]


def doc(**overrides):
    base = {
        "scale": {"min": 0, "max": 100},
        "elements": [
            {"id": "s1", "evaluation": 10},
            {"id": "s2", "evaluation": 100},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


def diagnostics_of(text):
    with pytest.raises(DescriptionError) as excinfo:
        parse_description(text)
    return excinfo.value.diagnostics


class TestParseHappyPaths:
    def test_minimal_document(self, fixture_path):
        desc = load_description(fixture_path("weak_element.json"))
        assert (desc.scale.min, desc.scale.max) == (0.0, 100.0)
        assert [e.id for e in desc.elements] == ["s1", "s2", "s3"]
        assert desc.groups is None
        assert desc.hierarchy is None
        assert desc.network is None
        vector = desc.evaluation_vector()
        assert vector.values == (10.0, 100.0, 100.0)
        assert desc.priority_vector().weights == (
            ("s1", 1.0),
            ("s2", 1.0),
            ("s3", 1.0),
        )

    def test_groups_section(self, fixture_path):
        desc = load_description(fixture_path("two_group.json"))
        assert [g.id for g in desc.groups] == ["g1", "g2"]
        assert desc.groups[0].members == ("s1", "s2", "s3")
        assert desc.groups[1].priority == 0.5

    def test_hierarchy_section(self, fixture_path):
        desc = load_description(fixture_path("plant_hierarchy.json"))
        root = desc.hierarchy
        assert root.id == "plant"
        assert root.config.method is Method.WLAM
        line, supply = root.children
        assert line.config.method is Method.NAM
        assert supply.config.adequacy_threshold == 0.5
        assert [n.id for n in line.children] == ["press", "welder", "paint"]
        assert line.children[0].value == 65.0
        assert desc.hierarchy_root() is root

    def test_network_section(self, fixture_path):
        desc = load_description(fixture_path("path_network.json"))
        net = desc.network
        assert net.nodes == ("a", "b", "c")
        assert net.edges == (("a", "b"), ("b", "c"))
        assert len(net.flows) == 1
        assert net.flows[0].route == ("a", "b", "c")
        assert net.flows[0].volume == 3.0

    def test_flow_volume_defaults_to_one(self):
        text = doc(
            network={
                "nodes": ["s1", "s2"],
                "edges": [["s1", "s2"]],
                "flows": [{"route": ["s1", "s2"]}],
            }
        )
        desc = parse_description(text)
        assert desc.network.flows[0].volume == 1.0

    def test_element_priorities_are_kept(self):
        text = doc(
            elements=[
                {"id": "s1", "evaluation": 10, "priority": 2.5},
                {"id": "s2", "evaluation": 100},
            ]
        )
        desc = parse_description(text)
        assert desc.elements[0].priority == 2.5
        assert desc.priority_vector().weights == (("s1", 2.5), ("s2", 1.0))


class TestSyntheticRoot:
    def test_flat_document_gets_a_system_root(self, fixture_path):
        desc = load_description(fixture_path("weak_element.json"))
        root = desc.hierarchy_root()
        assert root.id == "system"
        assert root.config is None
        assert [c.id for c in root.children] == ["s1", "s2", "s3"]
        assert root.children[0].value == 10.0

    def test_groups_turn_the_root_hybrid(self, fixture_path):
        desc = load_description(fixture_path("two_group.json"))
        root = desc.hierarchy_root()
        assert root.config.method is Method.HYBRID_GROUPED
        assert [g.id for g in root.config.groups] == ["g1", "g2"]

    def test_root_id_steps_aside_for_an_element_named_system(self):
        text = doc(elements=[{"id": "system", "evaluation": 10}])
        root = parse_description(text).hierarchy_root()
        assert root.id == "system+"


class TestSyntaxAndShape:
    def test_syntax_error_carries_line_and_column(self, fixture_path):
        path = fixture_path("invalid_syntax.json")
        with pytest.raises(DescriptionError) as excinfo:
            load_description(path)
        (message,) = excinfo.value.diagnostics
        assert message.startswith(f"{path}:5:3: invalid JSON")

    def test_top_level_must_be_an_object(self):
        assert diagnostics_of("[1, 2]") == ("document: expected a top-level object",)

    def test_unknown_top_level_key(self):
        text = doc(extras=[1])
        assert "document: unexpected key 'extras'" in diagnostics_of(text)

    def test_missing_sections_are_both_reported(self):
        got = diagnostics_of("{}")
        assert "scale: missing required section" in got
        assert "elements: missing required section" in got


class TestScaleDiagnostics:
    def test_negative_minimum_suggests_a_remap(self):
        text = doc(scale={"min": -10, "max": 100})
        assert any("remap" in d for d in diagnostics_of(text))

    def test_empty_interval(self):
        text = doc(scale={"min": 100, "max": 100})
        assert any(d.startswith("scale:") for d in diagnostics_of(text))

    def test_scale_keys_are_checked(self):
        text = doc(scale={"min": 0, "top": 100})
        got = diagnostics_of(text)
        assert "scale: unexpected key 'top'" in got
        assert "scale: missing required key 'max'" in got

    def test_bool_is_not_a_number(self):
        text = doc(scale={"min": 0, "max": True})
        assert "scale.max: expected a number, got True" in diagnostics_of(text)


class TestElementDiagnostics:
    def test_empty_array(self):
        text = doc(elements=[])
        assert (
            "elements: empty system: at least one element is required"
            in diagnostics_of(text)
        )

    def test_out_of_range_evaluation_names_the_entry(self, fixture_path):
        with pytest.raises(DescriptionError) as excinfo:
            load_description(fixture_path("invalid_range.json"))
        assert excinfo.value.diagnostics == (
            "elements[0].evaluation: value 120.0 is outside [0.0, 100.0]",
        )

    def test_duplicate_id(self):
        text = doc(
            elements=[
                {"id": "s1", "evaluation": 10},
                {"id": "s1", "evaluation": 20},
            ]
        )
        assert "elements[1].id: duplicate element id 's1'" in diagnostics_of(text)

    def test_boolean_evaluation_is_rejected(self):
        text = doc(elements=[{"id": "s1", "evaluation": True}])
        assert (
            "elements[0].evaluation: expected a number, got True"
            in diagnostics_of(text)
        )

    def test_nonfinite_evaluation_is_rejected(self):
        text = doc(elements=[{"id": "s1", "evaluation": float("inf")}])
        assert "elements[0].evaluation: number must be finite" in diagnostics_of(
            json.dumps(json.loads(text))
        )

    def test_nonpositive_priority(self):
        text = doc(
            elements=[
                {"id": "s1", "evaluation": 10, "priority": 0},
                {"id": "s2", "evaluation": 20},
            ]
        )
        assert "elements[0].priority: must be positive, got 0.0" in diagnostics_of(text)

    def test_unknown_element_key(self):
        text = doc(elements=[{"id": "s1", "evaluation": 10, "score": 4}])
        assert "elements[0]: unexpected key 'score'" in diagnostics_of(text)


class TestDroppedElementIds:
    """An entry dropped after its id was read still flags a later duplicate
    of that id, but is no member of a group or the hierarchy."""

    ELEMENTS = [
        {"id": "a", "evaluation": 200},
        {"id": "a", "evaluation": 50},
        {"id": "b", "evaluation": 60},
    ]
    HEAD = (
        "elements[0].evaluation: value 200.0 is outside [0.0, 100.0]",
        "elements[1].id: duplicate element id 'a'",
    )

    def test_in_groups(self):
        text = doc(elements=self.ELEMENTS, groups=[{"id": "g", "members": ["a", "b"]}])
        assert diagnostics_of(text) == (
            *self.HEAD, "groups[0].members[0]: unknown member id 'a'"
        )

    def test_in_the_hierarchy(self):
        text = doc(elements=self.ELEMENTS, hierarchy={"id": "r", "children": ["a", "b"]})
        assert diagnostics_of(text) == (
            *self.HEAD, "hierarchy.children[0]: unknown element 'a'"
        )


class TestGroupDiagnostics:
    def test_unknown_member(self):
        text = doc(groups=[{"id": "g1", "members": ["s1", "s2", "ghost"]}])
        assert "groups[0].members[2]: unknown member id 'ghost'" in diagnostics_of(text)

    def test_member_cannot_join_two_groups(self):
        text = doc(
            groups=[
                {"id": "g1", "members": ["s1", "s2"]},
                {"id": "g2", "members": ["s1"]},
            ]
        )
        assert (
            "groups[1].members[0]: 's1' already belongs to another group"
            in diagnostics_of(text)
        )

    def test_every_element_needs_a_group(self):
        text = doc(groups=[{"id": "g1", "members": ["s1"]}])
        assert "groups: elements missing from every group: s2" in diagnostics_of(text)

    def test_empty_group_list(self):
        text = doc(groups=[])
        assert "groups: at least one group is required" in diagnostics_of(text)

    def test_duplicate_group_id(self):
        text = doc(
            groups=[
                {"id": "g1", "members": ["s1"]},
                {"id": "g1", "members": ["s2"]},
            ]
        )
        assert "groups[1].id: duplicate group id 'g1'" in diagnostics_of(text)

    def test_group_priority_must_be_positive(self):
        text = doc(groups=[{"id": "g1", "members": ["s1", "s2"], "priority": -1}])
        assert "groups[0].priority: must be positive, got -1.0" in diagnostics_of(text)


class TestHierarchyDiagnostics:
    def test_unknown_element_reference(self):
        text = doc(hierarchy={"id": "root", "children": ["s1", "s2", "ghost"]})
        assert "hierarchy.children[2]: unknown element 'ghost'" in diagnostics_of(text)

    def test_element_referenced_twice(self):
        text = doc(hierarchy={"id": "root", "children": ["s1", "s2", "s1"]})
        assert (
            "hierarchy.children[2]: element 's1' already used at hierarchy.children[0]"
            in diagnostics_of(text)
        )

    def test_every_element_must_appear(self):
        text = doc(hierarchy={"id": "root", "children": ["s1"]})
        assert "hierarchy: elements never referenced: s2" in diagnostics_of(text)

    def test_subsystem_cannot_shadow_an_element(self):
        text = doc(
            hierarchy={
                "id": "root",
                "children": [{"id": "s1", "children": ["s2"]}],
            }
        )
        got = diagnostics_of(text)
        assert "hierarchy.children[0].id: subsystem id 's1' shadows an element" in got

    def test_unknown_method_lists_the_choices(self):
        text = doc(
            hierarchy={
                "id": "root",
                "method": {"method": "median"},
                "children": ["s1", "s2"],
            }
        )
        assert (
            "hierarchy.method.method: unknown method 'median'; "
            "one of: wem, wlam, nam, hybrid, wem-then" in diagnostics_of(text)
        )

    def test_fallback_choices_are_restricted(self):
        text = doc(
            hierarchy={
                "id": "root",
                "method": {"method": "wem-then", "critical": ["s1"], "fallback": "wem"},
                "children": ["s1", "s2"],
            }
        )
        assert (
            "hierarchy.method.fallback: expected 'wlam' or 'nam', got 'wem'"
            in diagnostics_of(text)
        )

    def test_children_must_be_a_nonempty_array(self):
        text = doc(hierarchy={"id": "root", "children": []})
        got = diagnostics_of(text)
        assert "hierarchy.children: expected a non-empty array" in got

    def test_structural_violations_are_prefixed(self):
        text = doc(
            hierarchy={
                "id": "root",
                "method": {"method": "wem-then", "critical": ["s2"]},
                "children": [{"id": "inner", "children": ["s1", "s2"]}],
            }
        )
        assert (
            "hierarchy: subsystem 'root': critical id 's2' is not a child"
            in diagnostics_of(text)
        )


class TestNetworkDiagnostics:
    def test_nodes_must_be_an_id_array(self):
        text = doc(network={"nodes": "abc"})
        assert "network.nodes: expected an array of node ids" in diagnostics_of(text)

    def test_edge_shape(self):
        text = doc(network={"nodes": ["s1"], "edges": [["s1"]]})
        assert (
            "network.edges[0]: expected a pair [from, to], got ['s1']"
            in diagnostics_of(text)
        )

    def test_graph_violations_are_prefixed(self):
        text = doc(
            network={
                "nodes": ["s1", "s2"],
                "edges": [["s1", "s2"]],
                "flows": [{"route": ["s2", "s1"]}],
            }
        )
        assert (
            "network: flow #1: route uses missing edge ('s2', 's1')"
            in diagnostics_of(text)
        )


class TestAggregation:
    def test_unrelated_problems_are_reported_together(self):
        text = json.dumps(
            {
                "scale": {"min": 0, "max": 100},
                "elements": [
                    {"id": "s1", "evaluation": 120},
                    {"id": "s1", "evaluation": 10},
                ],
                "groups": [],
                "border": True,
            }
        )
        got = diagnostics_of(text)
        assert len(got) == 4
        assert str(DescriptionError(list(got))).count("\n") == 3


class TestRoundTrip:
    @pytest.mark.parametrize("name", VALID_FIXTURES)
    def test_parse_serialize_parse_is_identity(self, fixture_path, name):
        desc = load_description(fixture_path(f"{name}.json"))
        text = serialize_description(desc)
        assert parse_description(text) == desc

    @pytest.mark.parametrize("name", VALID_FIXTURES)
    def test_serialization_is_idempotent(self, fixture_path, name):
        desc = load_description(fixture_path(f"{name}.json"))
        once = serialize_description(desc)
        twice = serialize_description(parse_description(once))
        assert once == twice

    def test_wem_then_fallback_round_trips(self):
        method = {"method": "wem-then", "critical": ["s1"], "fallback": "nam"}
        desc = parse_description(
            doc(hierarchy={"id": "root", "method": method, "children": ["s1", "s2"]})
        )
        text = serialize_description(desc)
        assert json.loads(text)["hierarchy"]["method"]["fallback"] == "nam"
        assert parse_description(text) == desc

    def test_output_shape(self, fixture_path):
        text = serialize_description(load_description(fixture_path("two_group.json")))
        assert text.endswith("\n")
        assert json.loads(text)["groups"][1]["priority"] == 0.5

    def test_a_hierarchy_deeper_than_the_encoder_allows_is_a_value_error(self):
        node = HierarchyNode("s1", 10.0)
        for k in range(3000):
            node = HierarchyNode(f"n{k}", children=(node,))
        desc = SystemDescription(Scale(0.0, 100.0), (Element("s1", 10.0),), hierarchy=node)
        with pytest.raises(ValueError) as excinfo:
            serialize_description(desc)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == "hierarchy nests deeper than the JSON encoder allows"


# A parsed description keeps its elements as columns until the first read of
# ``elements``; each check below runs on a fresh parse, so the columns
# state is the one checked.
INDISTINGUISHABLE_CHECKS = {
    "==": lambda d, c: d == c and c == d and not d != c and not c != d,
    "hash": lambda d, c: hash(d) == hash(c),
    "repr": lambda d, c: repr(d) == repr(c),
    "fields": lambda d, c: dataclasses.fields(d) == dataclasses.fields(c),
    "asdict": lambda d, c: dataclasses.asdict(d) == dataclasses.asdict(c),
    "replace": lambda d, c: dataclasses.replace(d) == c
    and dataclasses.replace(d, groups=None) == dataclasses.replace(c, groups=None),
    "copy": lambda d, c: copy.copy(d) == c,
    "deepcopy": lambda d, c: copy.deepcopy(d) == c,
    "pickle": lambda d, c: pickle.loads(pickle.dumps(d)) == c,
    "vars": lambda d, c: type(d)(**vars(d)) == d and type(d)(**vars(d)) == c,
    "round trip": lambda d, c: parse_description(serialize_description(d)) == d == c,
}

PRIORITIES_DOC = doc(
    elements=[
        {"id": "s1", "evaluation": 10, "priority": 2},
        {"id": "s2", "evaluation": 100},
        {"id": "s3", "evaluation": 55.5, "priority": 0.5},
    ]
)


def constructed_twin(text):
    """The parse of ``text`` with its elements and network constructed from
    the decoded document instead of parsed."""
    parsed = parse_description(text)
    decoded = json.loads(text)
    elements = tuple(
        Element(e["id"], float(e["evaluation"]), float(e["priority"]) if "priority" in e else None)
        for e in decoded["elements"]
    )
    network = None
    if "network" in decoded:
        raw = decoded["network"]
        flows = [Flow(f["route"], float(f.get("volume", 1))) for f in raw.get("flows", [])]
        network = Network(raw["nodes"], raw.get("edges", []), flows)
    return SystemDescription(parsed.scale, elements, parsed.groups, parsed.hierarchy, network)


class TestBuiltRecordsMatchConstructed:
    """The parse's elements and ``hierarchy_root()``'s nodes skip ``__init__``:
    each has the fields, in order, of the record ``__init__`` builds."""

    @staticmethod
    def same(built, constructed):
        assert type(built) is type(constructed)
        assert built == constructed and repr(built) == repr(constructed)
        assert list(vars(built).items()) == list(vars(constructed).items())

    @pytest.mark.parametrize("name", ["two_group", "weak_element", "element priorities"])
    def test_elements_and_flat_root(self, fixture_path, name):
        if name == "element priorities":
            text = PRIORITIES_DOC
        else:
            text = Path(fixture_path(f"{name}.json")).read_text(encoding="utf-8")
        desc, twin = parse_description(text), constructed_twin(text)
        for built, constructed in zip(desc.elements, twin.elements, strict=True):
            self.same(built, constructed)
        leaves = tuple(HierarchyNode(e.id, e.evaluation, e.priority) for e in twin.elements)
        config = desc.groups and MethodConfig(Method.HYBRID_GROUPED, groups=desc.groups)
        root = HierarchyNode(id="system", children=leaves, config=config or None)
        for built, constructed in zip(desc.hierarchy_root().walk(), root.walk(), strict=True):
            self.same(built, constructed)


class TestParsedDescriptionMatchesConstructed:
    @pytest.mark.parametrize("read_first", [False, True], ids=["columns", "elements read"])
    @pytest.mark.parametrize("name", [*VALID_FIXTURES, "element priorities"])
    def test_indistinguishable(self, fixture_path, name, read_first):
        if name == "element priorities":
            text = PRIORITIES_DOC
        else:
            text = Path(fixture_path(f"{name}.json")).read_text(encoding="utf-8")
        constructed = constructed_twin(text)
        for check_name, check in INDISTINGUISHABLE_CHECKS.items():
            parsed = parse_description(text)
            if read_first:
                assert parsed.elements == constructed.elements
            assert type(vars(parsed)["elements"]) is (tuple if read_first else _Columns)
            assert check(parsed, constructed), check_name

    def test_read_builds_the_elements_once(self):
        desc = parse_description(PRIORITIES_DOC)
        elements = desc.elements
        assert desc.elements is elements is vars(desc)["elements"]
        assert elements == (Element("s1", 10.0, 2.0), Element("s2", 100.0), Element("s3", 55.5, 0.5))

    def test_constructor_stores_a_list_as_given(self):
        elements = [Element("a", 1.0)]
        desc = SystemDescription(parse_description(doc()).scale, elements)
        assert desc.elements is elements
        with pytest.raises(dataclasses.FrozenInstanceError):
            desc.elements = ()


# Trees whose priorities, configs and leaf values a lazy tree must keep as
# given: an unset priority apart from 1, every method object field, a
# priority on the root, and a leaf root.
HIERARCHY_DOCS = {
    "plant": (Path(__file__).resolve().parent.parent / "fixtures" / "plant_hierarchy.json")
    .read_text(encoding="utf-8"),
    "configured": doc(
        elements=[
            {"id": "a", "evaluation": 10, "priority": 1},
            {"id": "b", "evaluation": 100},
            {"id": "c", "evaluation": 55.5, "priority": 2},
            {"id": "d", "evaluation": 0},
        ],
        hierarchy={
            "id": "root",
            "priority": 3,
            "method": {"method": "hybrid", "threshold": 0.25,
                       "groups": [{"id": "g1", "members": ["a", "inner"], "priority": 2},
                                  {"id": "g2", "members": ["b"]}]},
            "children": [
                "a",
                {"id": "inner", "priority": 1,
                 "method": {"method": "wem-then", "critical": ["d"], "fallback": "nam"},
                 "children": ["c", "d"]},
                "b",
            ],
        },
    ),
    "leaf root": doc(elements=[{"id": "a", "evaluation": 7, "priority": 1.5}], hierarchy="a"),
}


def constructed_node(raw, elements):
    """A ``hierarchy`` entry built through the public constructors."""
    if isinstance(raw, str):
        element = elements[raw]
        return HierarchyNode(element.id, element.evaluation, element.priority)
    config = None
    if "method" in raw:
        method = raw["method"]
        config = MethodConfig(
            Method(method["method"]),
            groups=tuple(Group(g["id"], tuple(g["members"]), float(g.get("priority", 1)))
                         for g in method.get("groups", ())),
            critical_ids=tuple(method.get("critical", ())),
            fallback=Method(method["fallback"]) if "fallback" in method else None,
            adequacy_threshold=float(method["threshold"]) if "threshold" in method else None,
        )
    return HierarchyNode(
        raw["id"],
        priority=float(raw["priority"]) if "priority" in raw else None,
        children=tuple(constructed_node(child, elements) for child in raw["children"]),
        config=config,
    )


class TestParsedHierarchyMatchesConstructed:
    """A parse keeps the hierarchy compiled until ``hierarchy`` is first
    read; before and after that read the description behaves as one
    constructed with the same tree."""

    @pytest.mark.parametrize("read_first", [False, True], ids=["compiled", "tree read"])
    @pytest.mark.parametrize("name", list(HIERARCHY_DOCS))
    def test_indistinguishable(self, name, read_first):
        text = HIERARCHY_DOCS[name]
        parsed = parse_description(text)
        elements = {e.id: e for e in parsed.elements}
        tree = constructed_node(json.loads(text)["hierarchy"], elements)
        constructed = SystemDescription(parsed.scale, parsed.elements, parsed.groups, tree)
        for check_name, check in INDISTINGUISHABLE_CHECKS.items():
            parsed = parse_description(text)
            if read_first:
                assert parsed.hierarchy == tree
            assert type(vars(parsed)["hierarchy"]) is (HierarchyNode if read_first else _Compiled)
            assert check(parsed, constructed), check_name

    def test_read_builds_the_tree_once(self):
        desc = parse_description(HIERARCHY_DOCS["configured"])
        tree = desc.hierarchy
        assert desc.hierarchy is tree is vars(desc)["hierarchy"] is desc.hierarchy_root()
        assert [n.priority for n in tree.walk()] == [3.0, 1.0, 1.0, 2.0, None, None]

    def test_constructor_stores_a_tree_as_given(self):
        tree = HierarchyNode("r", children=(HierarchyNode("a", 1.0),))
        desc = SystemDescription(parse_description(doc()).scale, (Element("a", 1.0),), hierarchy=tree)
        assert vars(desc)["hierarchy"] is tree is desc.hierarchy
        with pytest.raises(dataclasses.FrozenInstanceError):
            desc.hierarchy = None


# (id, text, a substring of the first diagnostic, or None for a parse).
PARSE_OUTCOMES = [
    ("parsed", doc(), None),
    ("bad element", doc(elements=[{"id": "a", "evaluation": 500}]), "is outside"),
    ("json syntax", '{"scale": ', "invalid JSON"),
    ("decoder nesting", "[" * 5000 + "]" * 5000, "nesting deeper than the JSON decoder allows"),
]


class TestCollectorPause:
    """The parse runs with the cyclic collector off and leaves the
    caller's setting as it found it, whatever the outcome."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "text, expected", [o[1:] for o in PARSE_OUTCOMES], ids=[o[0] for o in PARSE_OUTCOMES]
    )
    def test_callers_setting_is_restored(self, text, expected, enabled):
        during = []
        loads = json.loads

        def recording(*args, **kwargs):
            during.append(gc.isenabled())
            return loads(*args, **kwargs)

        (gc.enable if enabled else gc.disable)()
        try:
            with mock.patch.object(aggeval.description.json, "loads", recording):
                try:
                    outcome = parse_description(text)
                except DescriptionError as exc:
                    outcome = exc
            after = gc.isenabled()
        finally:
            gc.enable()
        assert during == [False]
        assert after is enabled
        if expected is None:
            assert isinstance(outcome, SystemDescription)
        else:
            assert isinstance(outcome, DescriptionError)
            assert expected in outcome.diagnostics[0]


# Element ids that push the synthetic root's id from "system" to "system++".
ELEMENT_IDS = ("system", "system+", "a", "b", "c", "d")


@st.composite
def _partition(draw, ids):
    """Consecutive runs of a shuffled ``ids``, as a groups section."""
    shuffled = draw(st.permutations(ids))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(ids) - 1)), max_size=3)))
    bounds = [0, *(c for c in cuts if c < len(ids)), len(ids)]
    groups = []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        group = {"id": f"g{k}", "members": list(shuffled[lo:hi])}
        if draw(st.booleans()):
            group["priority"] = draw(st.floats(0.1, 10))
        groups.append(group)
    return groups


@st.composite
def _subtree(draw, ids, names, depth=0):
    """A hierarchy node over ``ids``: a leaf reference or a subsystem."""
    if len(ids) == 1 and (depth >= 3 or draw(st.booleans())):
        return ids[0]
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(ids) - 1)), max_size=3)))
    bounds = [0, *(c for c in cuts if c < len(ids)), len(ids)]
    children = [
        draw(_subtree(ids[lo:hi], names, depth + 1)) for lo, hi in zip(bounds, bounds[1:])
    ]
    node_id = f"n{next(names)}"
    node = {"id": node_id, "children": children}
    child_ids = [c if isinstance(c, str) else c["id"] for c in children]
    method = draw(st.sampled_from([None, "wlam", "wem", "nam", "hybrid", "wem-then"]))
    if method == "hybrid":
        node["method"] = {"method": method, "groups": draw(_partition(child_ids))}
    elif method == "wem-then":
        node["method"] = {"method": method, "critical": child_ids[:1]}
    elif method is not None:
        node["method"] = {"method": method}
    if depth and draw(st.booleans()):
        node["priority"] = draw(st.floats(0.1, 10))
    return node


@st.composite
def documents(draw):
    """Small flat, grouped or hierarchical documents, mostly valid."""
    ids = draw(st.lists(st.sampled_from(ELEMENT_IDS), min_size=1, max_size=6, unique=True))
    elements = []
    for element_id in ids:
        element = {"id": element_id, "evaluation": draw(st.floats(0, 100))}
        if draw(st.booleans()):
            element["priority"] = draw(st.floats(0.1, 10))
        elements.append(element)
    document = {"scale": {"min": 0, "max": 100}, "elements": elements}
    shape = draw(st.sampled_from(["flat", "groups", "hierarchy"]))
    if shape == "groups":
        document["groups"] = draw(_partition(ids))
    elif shape == "hierarchy":
        document["hierarchy"] = draw(_subtree(ids, iter(range(100))))
    return document


class TestAcceptedTreesAreValid:
    """The CLI rolls up ``hierarchy_root()`` without validating it again."""

    @settings(deadline=None, max_examples=300)
    @given(documents())
    @example(
        {
            "scale": {"min": 0, "max": 100},
            "elements": [
                {"id": "system", "evaluation": 10},
                {"id": "system+", "evaluation": 90, "priority": 2},
            ],
            "groups": [{"id": "g", "members": ["system+", "system"]}],
        }
    )
    def test_accepted_document_holds_a_valid_tree(self, document):
        try:
            desc = parse_description(json.dumps(document))
        except DescriptionError:
            return
        assert validate_hierarchy(desc.hierarchy_root(), desc.scale) == []


# Fuzzing the parser: whatever the text, parse_description returns a
# description or raises DescriptionError, never anything else.

SECTION_KEYS = ("scale", "elements", "groups", "hierarchy", "network")
FIELD_KEYS = (
    "min", "max", "id", "evaluation", "priority", "members", "children", "method",
    "groups", "critical", "fallback", "threshold", "nodes", "edges", "flows",
    "route", "volume",
)
_keys = st.sampled_from(SECTION_KEYS + FIELD_KEYS) | st.text(max_size=3)
_scalars = (
    st.none()
    | st.booleans()
    | st.text(max_size=4)
    | st.sampled_from(ELEMENT_IDS + ("wlam", "nam", "hybrid", "wem-then", "n0"))
    | st.integers()
    # Any size json.dumps can write: 10**1000 is far beyond the float range.
    | st.integers(-(10**1000), 10**1000)
    | st.floats(allow_nan=True, allow_infinity=True)
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=5),
    max_leaves=25,
)


def parse_or_diagnose(text):
    """The description, or None after checking the diagnostics are non-empty."""
    try:
        return parse_description(text)
    except DescriptionError as exc:
        assert exc.diagnostics and all(isinstance(d, str) for d in exc.diagnostics)
        return None


@st.composite
def networked_documents(draw):
    """``documents()``, some with a small valid network section."""
    document = draw(documents())
    if draw(st.booleans()):
        nodes = [f"n{k}" for k in range(draw(st.integers(1, 4)))]
        edges = [[a, b] for a in nodes for b in nodes if a != b and draw(st.booleans())]
        network = {"nodes": nodes, "edges": edges}
        if edges:
            flows = []
            for edge in draw(st.lists(st.sampled_from(edges), max_size=3)):
                flow = {"route": list(edge)}
                if draw(st.booleans()):
                    flow["volume"] = draw(st.integers(1, 5) | st.floats(0.5, 9))
                flows.append(flow)
            network["flows"] = flows
        document["network"] = network
    return document


def _slots(value, out):
    """Every ``(container, key)`` pair inside a JSON value, in preorder."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


@st.composite
def mutated_documents(draw):
    """A valid document with one field made wrong-typed, empty, negative,
    extreme, duplicated, unknown, reused or missing."""
    document = draw(networked_documents())
    container, key = draw(st.sampled_from(_slots(document, [])))
    value = container[key]
    kind = draw(
        st.sampled_from(
            [
                "wrong-type", "empty", "negative", "extreme", "duplicate",
                "unknown-key", "reuse", "missing",
            ]
        )
    )
    if kind == "wrong-type":
        container[key] = draw(json_values)
    elif kind == "empty":
        container[key] = draw(st.sampled_from(["", [], {}, 0]))
    elif kind == "negative":
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        container[key] = -value if is_number else -1
    elif kind == "extreme":
        container[key] = draw(
            st.sampled_from([10**400, -(10**400), 1e308, float("nan"), float("-inf"), -0.0])
        )
    elif kind == "duplicate":
        if isinstance(value, list) and value:
            value.append(json.loads(json.dumps(draw(st.sampled_from(value)))))
        elif isinstance(container, list):
            container.append(json.loads(json.dumps(value)))
    elif kind == "unknown-key":
        target = value if isinstance(value, dict) else container
        if isinstance(target, dict):
            target[draw(st.sampled_from(["extra", "weight", "Id"]))] = 1
    elif kind == "reuse":
        container[key] = draw(st.sampled_from([e["id"] for e in document["elements"]]))
    else:
        del container[key]
    return document


class TestParserFuzz:
    @settings(deadline=None, max_examples=300)
    @given(json_values)
    @example(10**400)
    @example({"scale": {"min": 0, "max": 10**400}, "elements": [{"id": "a", "evaluation": 1}]})
    def test_any_json_value_gives_a_description_or_diagnostics(self, value):
        parse_or_diagnose(json.dumps(value))

    @settings(deadline=None, max_examples=300)
    @given(st.dictionaries(st.sampled_from(SECTION_KEYS), json_values, min_size=1))
    def test_any_section_contents_give_a_description_or_diagnostics(self, document):
        parse_or_diagnose(json.dumps(document))

    @settings(deadline=None, max_examples=400)
    @given(mutated_documents())
    def test_one_bad_field_gives_a_description_or_diagnostics(self, document):
        parse_or_diagnose(json.dumps(document))

    @settings(deadline=None, max_examples=200)
    @given(networked_documents() | mutated_documents())
    def test_accepted_documents_round_trip(self, document):
        desc = parse_or_diagnose(json.dumps(document))
        if desc is not None:
            assert parse_description(serialize_description(desc)) == desc
