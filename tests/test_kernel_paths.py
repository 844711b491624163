"""Roll-up, comparison and sweep agree exactly with the public operators.

The hierarchy runs the operators on plain child-value lists after one
validation of the whole tree.  These properties rebuild every node's
child vector as an :class:`EvaluationVector` and require the public
operators to give the very same floats, on random trees that mix every
method, child priorities, reordered group members and both wem-then
fallbacks.  The incremental sweep must equal a full re-roll of the
rebuilt tree at every grid point.
"""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from aggeval.core import (
    PERCENT,
    EvaluationVector,
    Group,
    GroupedSystem,
    Method,
    PriorityVector,
    adequacy_wem_nam,
    adequacy_wem_wlam,
    hybrid_grouped,
    nam,
    wem,
    wem_then_aggregate,
    wlam,
)
from aggeval.hierarchy import SweepRow, aggregate, compare_methods, sweep
from aggeval.network import HierarchyNode, MethodConfig

values = st.one_of(
    st.sampled_from([0.0, 10.0, 50.0, 100.0]),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)
priorities = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
)
KINDS = ("default", "wem", "wlam", "nam", "hybrid", "wem-then-wlam", "wem-then-nam")


@st.composite
def configured(draw, node_id, children):
    """A subsystem over ``children`` with a drawn method and child priorities."""
    kind = draw(st.sampled_from(KINDS))
    ids = [child.id for child in children]
    if kind != "nam" and draw(st.booleans()):
        children = [replace(c, priority=draw(st.none() | priorities)) for c in children]
    threshold = draw(st.none() | st.sampled_from([0.0, 0.1, 0.5]))
    if kind == "default":
        config = None
    elif kind == "hybrid":
        order = draw(st.permutations(ids))
        cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1))) if len(ids) > 1 else [])
        bounds = [0, *cuts, len(ids)]
        groups = tuple(
            Group(f"g{k}", tuple(order[a:b]), draw(priorities))
            for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
        )
        config = MethodConfig(Method.HYBRID_GROUPED, groups=groups, adequacy_threshold=threshold)
    elif kind.startswith("wem-then"):
        config = MethodConfig(
            Method.WEM_THEN,
            critical_ids=tuple(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))),
            fallback=Method.NAM if kind.endswith("nam") else draw(st.sampled_from([None, Method.WLAM])),
            adequacy_threshold=threshold,
        )
    else:
        config = MethodConfig(Method(kind), adequacy_threshold=threshold)
    return HierarchyNode(node_id, children=tuple(children), config=config)


@st.composite
def two_level_trees(draw):
    subsystems = []
    for s in range(draw(st.integers(1, 4))):
        leaves = [
            HierarchyNode(f"x{s}_{k}", value=draw(values))
            for k in range(draw(st.integers(1, 6)))
        ]
        subsystems.append(draw(configured(f"sub{s}", leaves)))
    return draw(configured("root", subsystems))


def child_vector(node, child_values):
    return EvaluationVector(
        tuple((child.id, v) for child, v in zip(node.children, child_values)), PERCENT
    )


def child_weights(node):
    if all(child.priority is None for child in node.children):
        return None
    return PriorityVector(
        tuple((c.id, 1.0 if c.priority is None else c.priority) for c in node.children)
    )


def subsystems(root):
    return [node for node in root.walk() if not node.is_leaf]


@settings(deadline=None, max_examples=200)
@given(two_level_trees())
def test_aggregate_matches_public_operators(root):
    reports = {report.node_id: report for report in aggregate(root, PERCENT).walk()}
    for node in subsystems(root):
        evals = child_vector(node, [reports[c.id].value for c in node.children])
        config = node.config
        method = config.method if config is not None else Method.WLAM
        if method is Method.WEM:
            expected = wem(evals)
        elif method is Method.WLAM:
            expected = wlam(evals, child_weights(node))
        elif method is Method.NAM:
            expected = nam(evals)
        elif method is Method.HYBRID_GROUPED:
            expected = hybrid_grouped(GroupedSystem(config.groups, evals))
        else:
            fallback = config.fallback or Method.WLAM
            weights = child_weights(node) if fallback is Method.WLAM else None
            result = wem_then_aggregate(evals, config.critical_ids, fallback, weights)
            expected = result.aggregate
            assert reports[node.id].adequacy == result.adequacy
        assert reports[node.id].value == PERCENT.clamp(expected)


def weakest_leaves(nodes):
    leaves = [leaf for node in nodes for leaf in node.walk() if leaf.is_leaf]
    low = min(leaf.value for leaf in leaves)
    return tuple(leaf.id for leaf in leaves if leaf.value == low)


def expected_row(row_id, evals, weights, groups, weakest):
    nonlinear = weights is None
    return (
        row_id,
        wem(evals),
        wlam(evals, weights),
        nam(evals) if nonlinear else None,
        hybrid_grouped(GroupedSystem(groups, evals)) if groups else None,
        adequacy_wem_wlam(evals, weights),
        adequacy_wem_nam(evals) if nonlinear else None,
        weakest,
    )


@settings(deadline=None, max_examples=200)
@given(two_level_trees())
def test_compare_rows_match_public_operators(root):
    reports = {report.node_id: report for report in aggregate(root, PERCENT).walk()}
    expected = []
    for node in subsystems(root):
        evals = child_vector(node, [reports[c.id].value for c in node.children])
        groups = node.config.groups if node.config else ()
        expected.append(
            expected_row(
                node.id, evals, child_weights(node), groups, weakest_leaves(node.children)
            )
        )
        for group in groups:
            members = [c for c in node.children if c.id in group.members]
            expected.append(
                expected_row(
                    f"{node.id}/{group.id}",
                    evals.subset(group.members),
                    None,
                    (),
                    weakest_leaves(members),
                )
            )
    rows = compare_methods(root, PERCENT)
    assert [
        (
            r.node_id,
            r.wem,
            r.wlam,
            r.nam,
            r.hybrid,
            r.sigma_12,
            r.sigma_13,
            r.weakest_ids,
        )
        for r in rows
    ] == expected


@st.composite
def hanging(draw, node_id, height):
    """A leaf, or a subsystem whose leaves lie at most ``height`` levels down."""
    if height == 1 or draw(st.booleans()):
        return HierarchyNode(node_id, value=draw(values))
    children = [
        draw(hanging(f"{node_id}_{k}", height - 1)) for k in range(draw(st.integers(1, 3)))
    ]
    return draw(configured(node_id, children))


@st.composite
def swept_trees(draw):
    """A tree at most three levels deep whose leaf ``v`` sits at depth 1, 2 or 3."""
    node = HierarchyNode("v", value=draw(values))
    for level in reversed(range(draw(st.integers(1, 3)))):
        siblings = [
            draw(hanging(f"n{level}_{k}", 3 - level)) for k in range(draw(st.integers(0, 3)))
        ]
        siblings.insert(draw(st.integers(0, len(siblings))), node)
        node = draw(configured(f"p{level}" if level else "root", siblings))
    return node


grid_ends = st.one_of(st.integers(0, 100), st.floats(min_value=0, max_value=100))


@st.composite
def grids(draw):
    start = draw(grid_ends)
    stop = draw(st.just(start) | grid_ends)
    return start, stop, draw(st.integers(2, 6))


def full_reroll(root, vary_id, start, stop, steps):
    """Sweep rows from rebuilding the tree and aggregating it at every grid point."""

    def with_value(node, value):
        if node.is_leaf:
            return replace(node, value=value) if node.id == vary_id else node
        return replace(node, children=tuple(with_value(c, value) for c in node.children))

    weights = child_weights(root)
    groups = root.config.groups if root.config else ()
    rows = []
    for index in range(steps):
        varied = stop if index == steps - 1 else start + (stop - start) * index / (steps - 1)
        report = aggregate(with_value(root, varied), PERCENT)
        evals = child_vector(root, [child.value for child in report.children])
        rows.append(
            SweepRow(
                varied,
                wem(evals),
                wlam(evals, weights),
                nam(evals) if weights is None else None,
                hybrid_grouped(GroupedSystem(groups, evals)) if groups else None,
            )
        )
    return rows


# The weighted mean of 100 and 99.99999999999999 under weights 2 and 0.3
# rounds to 100.00000000000001; the sweep must clamp it as a roll-up does.
OVERSHOOT = HierarchyNode(
    "root",
    children=(
        HierarchyNode(
            "p1",
            children=(
                HierarchyNode("a", value=100.0, priority=2.0),
                HierarchyNode("v", value=0.0, priority=0.3),
            ),
        ),
    ),
)


@settings(deadline=None, max_examples=200)
@given(swept_trees(), grids())
@example(OVERSHOOT, (99.99999999999999, 99.99999999999999, 2))
def test_incremental_sweep_equals_a_full_reroll(root, grid):
    start, stop, steps = grid
    rows = sweep(root, PERCENT, "v", start, stop, steps)
    expected = full_reroll(root, "v", start, stop, steps)
    assert [vars(row) for row in rows] == [vars(row) for row in expected]
    assert [type(row.varied) for row in rows] == [type(row.varied) for row in expected]
