"""Tests for the network and hierarchy structural validators."""

import math
from fractions import Fraction

import pytest

from aggeval import (
    Flow,
    Group,
    HierarchyNode,
    HierarchyValidationError,
    Method,
    MethodConfig,
    Network,
    PERCENT,
    aggregate,
    validate_hierarchy,
    validate_network,
)


def leaf(node_id, value, priority=None):
    return HierarchyNode(node_id, value=value, priority=priority)


def sub(node_id, children, config=None, priority=None):
    return HierarchyNode(
        node_id, children=tuple(children), config=config, priority=priority
    )


class TestFlow:
    def test_route_is_normalized_to_strings(self):
        flow = Flow(["a", 2, "c"])
        assert flow.route == ("a", "2", "c")
        assert flow.volume == 1.0

    def test_edges_are_consecutive_pairs(self):
        assert list(Flow(("a", "b", "c")).edges()) == [("a", "b"), ("b", "c")]

    def test_single_node_route_has_no_edges(self):
        assert list(Flow(("a",)).edges()) == []


class TestNetwork:
    def test_successors_follow_declaration_order(self):
        net = Network(("a", "b", "c"), (("a", "c"), ("a", "b")))
        assert net.successors() == {"a": ("c", "b"), "b": (), "c": ()}

    def test_successors_skip_undeclared_sources(self):
        net = Network(("a",), (("ghost", "a"),))
        assert net.successors() == {"a": ()}


class TestValidateNetwork:
    def test_triangle_with_flow_is_clean(self):
        net = Network(
            ("a", "b", "c"),
            (("a", "b"), ("b", "c"), ("c", "a")),
            (Flow(("a", "b", "c"), volume=2.5),),
        )
        assert validate_network(net) == []

    def test_duplicate_node(self):
        violations = validate_network(Network(("a", "b", "a")))
        assert violations == ["node 'a' declared more than once"]

    def test_self_loop(self):
        violations = validate_network(Network(("a",), (("a", "a"),)))
        assert "self-loop on node 'a'" in violations

    def test_edge_with_undeclared_endpoints(self):
        violations = validate_network(Network(("a",), (("x", "a"), ("a", "y"))))
        assert "edge ('x', 'a') starts at undeclared node 'x'" in violations
        assert "edge ('a', 'y') ends at undeclared node 'y'" in violations

    def test_duplicate_edge(self):
        net = Network(("a", "b"), (("a", "b"), ("a", "b")))
        assert "duplicate edge ('a', 'b')" in validate_network(net)

    def test_flow_route_too_short(self):
        net = Network(("a",), (), (Flow(("a",)),))
        assert "flow #1: route needs at least two nodes" in validate_network(net)

    # Validation never raises: a volume that is no number is reported too.
    @pytest.mark.parametrize("volume", [0.0, -1.0, math.inf, math.nan, "3", None, 1j])
    def test_flow_volume_must_be_positive(self, volume):
        net = Network(("a", "b"), (("a", "b"),), (Flow(("a", "b"), volume=volume),))
        violations = validate_network(net)
        assert any(v.startswith("flow #1: volume must be positive") for v in violations)

    def test_flow_route_must_follow_declared_edges(self):
        net = Network(("a", "b", "c"), (("a", "b"),), (Flow(("a", "b", "c")),))
        assert "flow #1: route uses missing edge ('b', 'c')" in validate_network(net)

    def test_multiple_violations_are_all_reported(self):
        net = Network(
            ("a", "a"),
            (("a", "a"), ("a", "x")),
            (Flow(("a",), volume=0.0),),
        )
        violations = validate_network(net)
        assert len(violations) == 5


class TestHierarchyNode:
    def test_walk_is_preorder(self):
        tree = sub("root", [sub("left", [leaf("l1", 10)]), leaf("r", 20)])
        assert [n.id for n in tree.walk()] == ["root", "left", "l1", "r"]

    def test_leaf_ids_cover_the_fringe(self):
        tree = sub("root", [sub("left", [leaf("l1", 10), leaf("l2", 20)]), leaf("r", 5)])
        assert tree.leaf_ids() == ("l1", "l2", "r")

    def test_leaf_flag(self):
        assert leaf("x", 1).is_leaf
        assert not sub("y", [leaf("x", 1)]).is_leaf

    def test_id_and_children_are_coerced(self):
        node = HierarchyNode(7, children=[leaf("x", 1)])
        assert node.id == "7" and type(node.id) is str
        assert type(node.children) is tuple
        assert node == sub("7", [leaf("x", 1)])
        assert hash(node) == hash(sub("7", [leaf("x", 1)]))


class TestValidateHierarchy:
    def test_sound_tree_is_clean(self):
        tree = sub(
            "plant",
            [
                sub("line", [leaf("press", 65), leaf("welder", 80)]),
                leaf("store", 90, priority=2.0),
            ],
            config=MethodConfig(Method.WLAM),
        )
        assert validate_hierarchy(tree, PERCENT) == []

    def test_duplicate_node_id(self):
        tree = sub("root", [leaf("a", 10), leaf("a", 20)])
        assert "node id 'a' used more than once" in validate_hierarchy(tree, PERCENT)

    @pytest.mark.parametrize("priority", [0.0, -2.0, math.inf])
    def test_priority_must_be_positive(self, priority):
        tree = sub("root", [leaf("a", 10, priority=priority)])
        violations = validate_hierarchy(tree, PERCENT)
        assert any("priority must be positive" in v for v in violations)

    def test_leaf_needs_a_value(self):
        tree = sub("root", [HierarchyNode("a")])
        assert "leaf 'a' has no evaluation value" in validate_hierarchy(tree, PERCENT)

    @pytest.mark.parametrize("value", [-1, 120, math.nan])
    def test_leaf_value_must_sit_on_the_scale(self, value):
        tree = sub("root", [leaf("a", value)])
        violations = validate_hierarchy(tree, PERCENT)
        assert any("is outside [0.0, 100.0]" in v for v in violations)

    def test_leaf_cannot_carry_a_config(self):
        tree = sub(
            "root", [HierarchyNode("a", value=10, config=MethodConfig(Method.WEM))]
        )
        violations = validate_hierarchy(tree, PERCENT)
        assert "leaf 'a' cannot carry a method config" in violations

    def test_subsystem_cannot_carry_a_value(self):
        tree = HierarchyNode("root", value=5, children=(leaf("a", 10),))
        violations = validate_hierarchy(tree, PERCENT)
        assert "subsystem 'root' cannot carry a leaf value" in violations

    def test_grouping_rejected_outside_hybrid(self):
        config = MethodConfig(Method.WLAM, groups=(Group("g1", ("a",)),))
        tree = sub("root", [leaf("a", 10)], config=config)
        violations = validate_hierarchy(tree, PERCENT)
        assert (
            "subsystem 'root': grouping is only meaningful for the hybrid method"
            in violations
        )

    def test_critical_set_rejected_outside_wem_then(self):
        config = MethodConfig(Method.WEM, critical_ids=("a",))
        tree = sub("root", [leaf("a", 10)], config=config)
        violations = validate_hierarchy(tree, PERCENT)
        assert (
            "subsystem 'root': critical set is only meaningful for wem-then"
            in violations
        )

    def test_fallback_rejected_outside_wem_then(self):
        config = MethodConfig(Method.WLAM, fallback=Method.NAM)
        tree = sub("root", [leaf("a", 10)], config=config)
        violations = validate_hierarchy(tree, PERCENT)
        assert "subsystem 'root': fallback is only meaningful for wem-then" in violations

    def test_fallback_must_be_a_mean_type_method(self):
        config = MethodConfig(Method.WEM_THEN, critical_ids=("a",), fallback=Method.WEM)
        tree = sub("root", [leaf("a", 10), leaf("b", 20)], config=config)
        violations = validate_hierarchy(tree, PERCENT)
        assert "subsystem 'root': fallback must be wlam or nam, got 'wem'" in violations

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_threshold_outside_unit_interval(self, threshold):
        config = MethodConfig(Method.WLAM, adequacy_threshold=threshold)
        tree = sub("root", [leaf("a", 10)], config=config)
        violations = validate_hierarchy(tree, PERCENT)
        assert any("adequacy threshold must lie in [0, 1]" in v for v in violations)

    def test_hybrid_requires_a_grouping(self):
        tree = sub("root", [leaf("a", 10)], config=MethodConfig(Method.HYBRID_GROUPED))
        violations = validate_hierarchy(tree, PERCENT)
        assert "subsystem 'root': hybrid method requires a grouping" in violations

    def test_partition_violations_are_each_named(self):
        config = MethodConfig(
            Method.HYBRID_GROUPED,
            groups=(
                Group("g1", ("a", "a")),
                Group("g1", (), priority=0.0),
                Group("g2", ("ghost",)),
            ),
        )
        tree = sub("root", [leaf("a", 10), leaf("b", 20)], config=config)
        violations = validate_hierarchy(tree, PERCENT)
        assert "subsystem 'root': child 'a' grouped more than once" in violations
        assert "subsystem 'root': duplicate group id 'g1'" in violations
        assert "subsystem 'root': group 'g1' has no members" in violations
        assert (
            "subsystem 'root': group 'g1' priority must be positive, got 0.0"
            in violations
        )
        assert (
            "subsystem 'root': group 'g2' references unknown child 'ghost'"
            in violations
        )
        assert "subsystem 'root': children not covered by any group: b" in violations

    @pytest.mark.parametrize("priority", [Fraction(1, 10**400), Fraction(10**400)])
    def test_a_group_priority_that_is_no_positive_finite_float(self, priority):
        # Positive as given, but the kernels weigh it as 0.0, or cannot convert it.
        config = MethodConfig(Method.HYBRID_GROUPED, groups=(
            Group("g1", ("a",), priority), Group("g2", ("b", "c"))))
        tree = sub("root", [leaf("a", 10), leaf("b", 50), leaf("c", 90)], config=config)
        message = f"subsystem 'root': group 'g1' priority must be positive, got {priority!r}"
        assert validate_hierarchy(tree, PERCENT) == [message]
        with pytest.raises(HierarchyValidationError, match="priority must be positive"):
            aggregate(tree, PERCENT)

    def test_wem_then_requires_a_critical_set(self):
        tree = sub("root", [leaf("a", 10)], config=MethodConfig(Method.WEM_THEN))
        violations = validate_hierarchy(tree, PERCENT)
        assert "subsystem 'root': wem-then requires a critical set" in violations

    def test_critical_ids_must_be_children(self):
        config = MethodConfig(Method.WEM_THEN, critical_ids=("ghost",))
        tree = sub("root", [leaf("a", 10)], config=config)
        violations = validate_hierarchy(tree, PERCENT)
        assert "subsystem 'root': critical id 'ghost' is not a child" in violations

    def test_nam_rejects_child_priorities(self):
        config = MethodConfig(Method.NAM)
        tree = sub(
            "root",
            [leaf("a", 10, priority=1.0), leaf("b", 20, priority=2.0)],
            config=config,
        )
        violations = validate_hierarchy(tree, PERCENT)
        assert (
            "subsystem 'root': nam cannot use child priorities (set on a, b)"
            in violations
        )
