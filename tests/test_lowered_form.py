"""One lowered form: every hierarchy a command reads is a ``_Compiled`` list
that ends in its top entry, which has no id and the root as its one child.

A parsed ``hierarchy`` section is read as stored, a tree built in code is
lowered under the same top entry the parse gives it, and a flat description
compiles to its synthetic root and then the top entry.
"""

import json
from pathlib import Path

import pytest

from aggeval import PERCENT, HierarchyNode, MethodConfig, aggregate, cli
from aggeval.core import Method
from aggeval.description import (_Compiled, _compile_flat, _lowered, load_description,
                                 parse_description)
from aggeval.hierarchy import _aggregate, _entries

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ELEMENTS = [{"id": "a", "evaluation": 10}, {"id": "b", "evaluation": 90, "priority": 2},
            {"id": "c", "evaluation": 40}]
HIERARCHIES = {
    "leaf root": "a",
    "one level": {"id": "r", "children": ["a", "b", "c"]},
    "nested": {"id": "r", "method": {"method": "wem"}, "priority": 3, "children": [
        "a", {"id": "s", "method": {"method": "nam"}, "children": ["c"]}]},
    "chain": {"id": "r", "children": [{"id": "s", "children": [{"id": "t", "children": ["b"]}]}]},
}


def parsed(name):
    elements = ELEMENTS if name != "leaf root" else ELEMENTS[:1]
    if name == "nested":
        elements = [e for e in ELEMENTS if e["id"] != "b"]
    elif name == "chain":
        elements = [e for e in ELEMENTS if e["id"] == "b"]
    return parse_description(json.dumps(
        {"scale": {"min": 0, "max": 100}, "elements": elements, "hierarchy": HIERARCHIES[name]}))


def assert_top(lowered, root_id):
    """``lowered`` is a ``_Compiled`` list whose last entry is the top entry over ``root_id``."""
    assert type(lowered) is _Compiled
    top = lowered[-1]
    assert top.id is None and top.ids == [root_id] and len(top.values) == 1


@pytest.mark.parametrize("name", sorted(HIERARCHIES))
def test_a_parsed_section_is_read_as_stored(name):
    desc = parsed(name)
    stored = vars(desc)["hierarchy"]
    assert _lowered(desc) is stored
    assert _entries(stored, desc.scale) is stored
    assert_top(stored, desc.hierarchy.id)


@pytest.mark.parametrize("name", sorted(HIERARCHIES))
def test_a_built_tree_lowers_as_the_parse_does(name):
    stored = vars(parsed(name))["hierarchy"]
    desc = parsed(name)
    tree = desc.hierarchy  # built from its stored entries on this first read
    lowered = _entries(tree, desc.scale)
    assert_top(lowered, tree.id)
    assert lowered == stored  # every field of every entry, the top's included
    # The lowered form of the stored tree and the tree itself read the same.
    assert _aggregate(lowered, desc.scale) == _aggregate(stored, desc.scale)
    assert _aggregate(lowered, desc.scale) == aggregate(tree, desc.scale)
    for csv in (False, True):
        assert cli._tree_lines(lowered, desc.scale, csv) == cli._tree_lines(stored, desc.scale, csv)


def test_a_leaf_root_reports_and_prints_itself():
    desc = parsed("leaf root")
    report = _aggregate(_lowered(desc), desc.scale)
    assert (report.node_id, report.method, report.value, report.children) == ("a", "leaf", 10.0, ())
    assert cli._tree_lines(_lowered(desc), desc.scale, False) == ["a = 10"]
    assert cli._tree_lines(_lowered(desc), desc.scale, True)[1:] == ["a,leaf,10.000000,0.000000,a"]


def test_a_leaf_root_built_in_code():
    leaf = HierarchyNode("x,y", 7)
    lowered = _entries(leaf, PERCENT)
    assert_top(lowered, "x,y")
    assert lowered[-1].values == [7.0] and type(lowered[-1].values[0]) is float
    assert _aggregate(lowered, PERCENT).value == 7.0
    assert cli._tree_lines(lowered, PERCENT, True)[1:] == ['"x,y",leaf,7.000000,0.000000,"x,y"']


@pytest.mark.parametrize("name", ["two_group.json", "weak_element.json", "single_leaf.json"])
def test_a_flat_description_ends_in_the_top_entry(name):
    desc = load_description(str(FIXTURES / name))
    for lowered in (_compile_flat(desc), _lowered(desc)):
        root, top = lowered
        assert_top(lowered, root.id)
        assert (top.values, top.below, top.priorities, top.config) == ([0.0], {0: 0}, [None], None)
        assert root.ids == [e.id for e in desc.elements]
    report = _aggregate(_lowered(desc), desc.scale)
    assert report == aggregate(desc.hierarchy_root(), desc.scale)


def test_a_subsystem_root_whose_children_are_subsystems():
    tree = HierarchyNode("r", children=(
        HierarchyNode("s", children=(HierarchyNode("a", 20), HierarchyNode("b", 60))),
        HierarchyNode("t", children=(HierarchyNode("c", 30),)),
    ), config=MethodConfig(Method.WEM))
    lowered = _entries(tree, PERCENT)
    assert_top(lowered, "r")
    assert [sub.id for sub in lowered] == ["t", "s", "r", None]
    assert lowered[-1].below == {0: 2}
    assert _aggregate(lowered, PERCENT).value == 30.0
