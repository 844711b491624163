"""Tests for parsing, validating, and serializing system descriptions."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from aggeval import (
    DescriptionError,
    Method,
    load_description,
    parse_description,
    serialize_description,
    validate_hierarchy,
)

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

    def test_output_shape(self, fixture_path):
        text = serialize_description(load_description(fixture_path("two_group.json")))
        assert text.endswith("\n")
        assert json.loads(text)["groups"][1]["priority"] == 0.5


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
