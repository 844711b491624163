"""Values given in an unexpected type.

Hierarchy validation never raises: a leaf value, node priority or group
priority that is no number is reported as a violation, and the library's
roll-ups raise ``HierarchyValidationError`` for it.  A method, fallback,
basis, tie-break or normalization given by name becomes its enum member
when the config is built, so it computes what the member computes, and an
unknown name fails there, with the enum's own ``ValueError``.
"""

import pytest

from aggeval import (PERCENT, EvaluationError, EvaluationVector, Group, GroupedSystem,
                     HierarchyNode, HierarchyValidationError, Method, MethodConfig,
                     Normalization, PriorityBasis, PriorityStrategy, aggregate, compare_methods,
                     rank_nodes, sweep, validate_hierarchy)
from aggeval.description import load_description


def tree(value=10.0, priority=None, group_priority=1.0):
    """A hybrid root over leaves ``a`` (which takes ``value``) and ``b`` (which
    takes ``priority``), grouped in ``g`` (which takes ``group_priority``)."""
    config = MethodConfig(Method.HYBRID_GROUPED, groups=(Group("g", ("a", "b"), group_priority),))
    return HierarchyNode("r", children=(HierarchyNode("a", value),
                                        HierarchyNode("b", 90.0, priority)), config=config)


NOT_NUMBERS = {
    "leaf value": (tree(value="10"), "leaf 'a': value '10' is outside [0.0, 100.0]"),
    "node priority": (tree(priority="2"), "node 'b': priority must be positive, got '2'"),
    "group priority": (tree(group_priority="2"),
                       "subsystem 'r': group 'g' priority must be positive, got '2'"),
    "no group priority": (tree(group_priority=None),
                          "subsystem 'r': group 'g' priority must be positive, got None"),
}


@pytest.mark.parametrize("name", sorted(NOT_NUMBERS))
def test_validation_reports_a_value_that_is_no_number(name):
    root, violation = NOT_NUMBERS[name]
    assert validate_hierarchy(root, PERCENT) == [violation]
    for call in (lambda: aggregate(root, PERCENT), lambda: compare_methods(root, PERCENT),
                 lambda: sweep(root, PERCENT, "b", 0.0, 100.0, 2)):
        with pytest.raises(HierarchyValidationError) as raised:
            call()
        assert raised.value.violations == (violation,)


def test_a_grouped_system_reports_a_group_priority_that_is_no_number():
    evals = EvaluationVector.from_values([10, 90])
    with pytest.raises(EvaluationError, match="^invalid grouping: group 'g' priority must be "
                                               "positive, got '2'$"):
        GroupedSystem((Group("g", ("s1", "s2"), "2"),), evals)


def leaves(config):
    return HierarchyNode("r", children=(HierarchyNode("a", 10.0), HierarchyNode("b", 90.0)),
                         config=config)


def test_a_method_given_by_name_is_its_member():
    config = MethodConfig("nam")
    assert config.method is Method.NAM and config == MethodConfig(Method.NAM)
    report = aggregate(leaves(config), PERCENT)
    assert report == aggregate(leaves(MethodConfig(Method.NAM)), PERCENT)
    assert (report.method, report.value) == ("nam", 18.0)


def test_a_fallback_given_by_name_is_its_member():
    config = MethodConfig("wem-then", critical_ids=("a",), fallback="nam")
    twin = MethodConfig(Method.WEM_THEN, critical_ids=("a",), fallback=Method.NAM)
    assert (config.method, config.fallback) == (Method.WEM_THEN, Method.NAM)
    assert config.fallback is Method.NAM
    assert aggregate(leaves(config), PERCENT) == aggregate(leaves(twin), PERCENT)
    assert aggregate(leaves(config), PERCENT).value == 18.0


def test_a_fallback_named_hybrid_is_a_violation():
    for fallback in ("hybrid", Method.HYBRID_GROUPED):
        config = MethodConfig(Method.WEM_THEN, critical_ids=("a",), fallback=fallback)
        assert validate_hierarchy(leaves(config), PERCENT) == [
            "subsystem 'r': fallback must be wlam or nam, got 'hybrid'"]


def test_an_unknown_name_fails_at_construction():
    with pytest.raises(ValueError, match="^'bogus' is not a valid Method$"):
        MethodConfig("bogus")
    with pytest.raises(ValueError, match="^'bogus' is not a valid Method$"):
        MethodConfig(Method.WEM_THEN, critical_ids=("a",), fallback="bogus")
    with pytest.raises(ValueError, match="^'bogus' is not a valid PriorityBasis$"):
        PriorityStrategy("bogus")
    with pytest.raises(ValueError, match="^'bogus' is not a valid PriorityBasis$"):
        PriorityStrategy(PriorityBasis.DEGREE, ("bogus",))
    with pytest.raises(ValueError, match="^'bogus' is not a valid Normalization$"):
        PriorityStrategy(PriorityBasis.DEGREE, normalization="bogus")


def test_a_strategy_given_by_names_is_its_members(fixture_path):
    net = load_description(fixture_path("path_network.json")).network
    by_name = PriorityStrategy("degree", ("flow",), "max-to-one")
    assert by_name.basis is PriorityBasis.DEGREE
    assert by_name.tie_break[0] is PriorityBasis.FLOW_VOLUME
    assert by_name.normalization is Normalization.MAX_TO_ONE
    twin = PriorityStrategy(PriorityBasis.DEGREE, (PriorityBasis.FLOW_VOLUME,))
    assert rank_nodes(net, by_name) == rank_nodes(net, twin)
    assert rank_nodes(net, PriorityStrategy("degree")) == rank_nodes(
        net, PriorityStrategy(PriorityBasis.DEGREE))
    assert rank_nodes(net, PriorityStrategy(PriorityBasis.DEGREE, normalization="none")) == (
        rank_nodes(net, PriorityStrategy(PriorityBasis.DEGREE, normalization=Normalization.NONE)))


def test_a_repeated_basis_is_refused_by_name_too():
    with pytest.raises(EvaluationError, match="tie-break chain must not repeat a basis"):
        PriorityStrategy(PriorityBasis.DEGREE, ("flow", PriorityBasis.FLOW_VOLUME))
