"""Bottom-up aggregation over hierarchy trees.

Each subsystem collapses its children's aggregated values with its own
configured operator, so a score travels from the leaves to the root one
level at a time.  :func:`aggregate` produces a report tree mirroring the
hierarchy, :func:`compare_methods` tabulates all operators side by side
per subsystem, and :func:`sweep` traces those numbers while one leaf
value moves across a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    EvaluationError,
    Method,
    Scale,
    _hybrid,
    _masking_ratio,
    _nam,
    _signed_gap,
    _wlam,
)
from .network import HierarchyNode, validate_hierarchy

__all__ = [
    "AggregationReport",
    "HierarchyValidationError",
    "MethodComparison",
    "SweepRow",
    "aggregate",
    "compare_methods",
    "sweep",
]


class HierarchyValidationError(ValueError):
    """A hierarchy failed validation; carries the full violation list."""

    def __init__(self, violations: list[str]):
        self.violations = tuple(violations)
        super().__init__(
            "invalid hierarchy: " + "; ".join(self.violations)
        )


@dataclass(frozen=True)
class AggregationReport:
    """Aggregation outcome for one node, with its subtree's reports.

    ``weakest_ids`` lists the leaves attaining the smallest evaluation in
    this subtree; ``adequacy`` is the signed relative gap between the
    node's value and the weakest child (for wem-then: the critical
    subset's weakest element).
    """

    node_id: str
    method: str
    value: float
    weakest_ids: tuple[str, ...]
    adequacy: float
    warnings: tuple[str, ...]
    children: tuple["AggregationReport", ...]

    def walk(self) -> Iterator["AggregationReport"]:
        """This report and every report below it, in preorder."""
        stack = [self]
        while stack:
            report = stack.pop()
            yield report
            stack.extend(reversed(report.children))

    def to_dict(self) -> dict:
        """This report and its subtree as nested dicts and lists.

        Built without recursion, so depth is bounded by memory only.
        """

        def fields(report: AggregationReport) -> dict:
            return {
                "node": report.node_id,
                "method": report.method,
                "value": report.value,
                "weakest": list(report.weakest_ids),
                "adequacy": report.adequacy,
                "warnings": list(report.warnings),
                "children": [],
            }

        doc = fields(self)
        stack = [(self, doc["children"])]
        while stack:
            report, out = stack.pop()
            for child in report.children:
                child_doc = fields(child)
                out.append(child_doc)
                stack.append((child, child_doc["children"]))
        return doc


@dataclass(frozen=True)
class MethodComparison:
    """One table row: every applicable operator at one subsystem node.

    ``nam`` and ``sigma_13`` are ``None`` when the children carry
    configured priorities, which the nonlinear operator cannot honor;
    ``hybrid`` is ``None`` unless the node configures a grouping.
    """

    node_id: str
    wem: float
    wlam: float
    nam: float | None
    hybrid: float | None
    sigma_12: float
    sigma_13: float | None
    weakest_ids: tuple[str, ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class SweepRow:
    """Root-level metrics at one grid value of the varied leaf."""

    varied: float
    wem: float
    wlam: float
    nam: float | None
    hybrid: float | None


# One node's roll-up: value, smallest leaf value below, weakest leaf ids,
# method label, adequacy and warnings.
_Row = tuple[float, float, tuple[str, ...], str, float, tuple[str, ...]]


def _child_weights(node: HierarchyNode) -> list[float] | None:
    """Configured child priorities in child order, or None when all are defaulted."""
    if all(child.priority is None for child in node.children):
        return None
    return [1.0 if child.priority is None else child.priority for child in node.children]


def _group_plan(node: HierarchyNode) -> list[tuple[list[int], float]]:
    """Child positions (in member order) and priority of each configured group."""
    if node.config is None:
        return []
    position = {child.id: k for k, child in enumerate(node.children)}
    return [
        ([position[member] for member in group.members], group.priority)
        for group in node.config.groups
    ]


def _weakest(rows: list[_Row]) -> tuple[float, tuple[str, ...]]:
    """Smallest leaf value below ``rows`` and the leaves attaining it, in order."""
    low = min(row[1] for row in rows)
    return low, tuple(weak_id for row in rows if row[1] == low for weak_id in row[2])


def _metrics(
    values: list[float],
    weights: list[float] | None,
    plan: list[tuple[list[int], float]],
) -> tuple[float, float, float | None, float | None]:
    """wem, wlam, nam (None under child priorities), hybrid (None without groups)."""
    return (
        min(values),
        _wlam(values, weights),
        None if weights is not None else _nam(values),
        _hybrid(values, plan) if plan else None,
    )


def _apply_method(node: HierarchyNode, values: list[float]) -> tuple[str, float, float]:
    """Run the node's configured operator; returns (label, value, adequacy)."""
    config = node.config
    method = config.method if config is not None else Method.WLAM
    if method is Method.WEM:
        value = min(values)
    elif method is Method.WLAM:
        value = _wlam(values, _child_weights(node))
    elif method is Method.NAM:
        value = _nam(values)
    elif method is Method.HYBRID_GROUPED:
        value = _hybrid(values, _group_plan(node))
    else:
        if config.fallback is Method.NAM:
            value = _nam(values)
        else:
            value = _wlam(values, _child_weights(node))
        position = {child.id: k for k, child in enumerate(node.children)}
        critical = min(values[position[i]] for i in config.critical_ids)
        return (method.value, value, _signed_gap(value, critical))
    return (method.value, value, _signed_gap(value, min(values)))


def _postorder(root: HierarchyNode) -> list[HierarchyNode]:
    """The subtree's nodes, each after its children, children left to right."""
    # Preorder with the children pushed left to right visits them right to
    # left; read backwards, that is the left-to-right post-order.
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    order.reverse()
    return order


def _roll(order: list[HierarchyNode], scale: Scale) -> dict[str, _Row]:
    """Aggregate the nodes of a post-order; returns each node's row by id.

    Rolls without recursion, so depth is bounded by memory only.  Ids are
    unique once the tree is validated.
    """
    rows: dict[str, _Row] = {}
    for node in order:
        if node.is_leaf:
            value = float(node.value)
            rows[node.id] = (value, value, (node.id,), "leaf", 0.0, ())
            continue
        child_rows = [rows[child.id] for child in node.children]
        label, value, adequacy = _apply_method(node, [row[0] for row in child_rows])
        # Rounding in the means can overshoot the scale by a few ulps; reported
        # values stay inside the declared interval.
        value = scale.clamp(value)
        low, weakest = _weakest(child_rows)
        warnings: tuple[str, ...] = ()
        config = node.config
        if config is not None and config.adequacy_threshold is not None:
            if adequacy > config.adequacy_threshold:
                warnings = (
                    f"adequacy {adequacy:.6g} exceeds threshold "
                    f"{config.adequacy_threshold:g}; weakest: {', '.join(weakest)}",
                )
        rows[node.id] = (value, low, weakest, label, adequacy, warnings)
    return rows


def _check_tree(root: HierarchyNode, scale: Scale) -> None:
    violations = validate_hierarchy(root, scale)
    if violations:
        raise HierarchyValidationError(violations)


def _aggregate(root: HierarchyNode, scale: Scale) -> AggregationReport:
    """:func:`aggregate` on a tree already validated."""
    order = _postorder(root)
    rows = _roll(order, scale)
    # In post-order a node's children are the last reports built, left to
    # right; each row is dropped once its report exists.
    reports: list[AggregationReport] = []
    for node in order:
        value, _, weakest, label, adequacy, warnings = rows.pop(node.id)
        split = len(reports) - len(node.children)
        children = tuple(reports[split:])
        del reports[split:]
        reports.append(
            AggregationReport(node.id, label, value, weakest, adequacy, warnings, children)
        )
    return reports[0]


def aggregate(root: HierarchyNode, scale: Scale) -> AggregationReport:
    """Aggregate the whole hierarchy bottom-up.

    Leaves report their own value; every subsystem applies its configured
    method (weighted mean when no config is given) to its children's
    aggregated values.  Raises :class:`HierarchyValidationError` listing
    every structural violation if the tree is unsound.
    """
    _check_tree(root, scale)
    return _aggregate(root, scale)


def _comparison_row(
    row_id: str,
    values: list[float],
    weights: list[float] | None,
    plan: list[tuple[list[int], float]],
    weakest: tuple[str, ...],
    threshold: float,
) -> MethodComparison:
    wem_value, wlam_value, nam_value, hybrid_value = _metrics(values, weights, plan)
    sigma_12 = _masking_ratio(wlam_value, wem_value)
    sigma_13 = None if nam_value is None else _masking_ratio(nam_value, wem_value)
    warnings: tuple[str, ...] = ()
    if sigma_12 > threshold:
        warnings = (
            f"hidden weak element: {', '.join(weakest)} "
            f"(sigma_12 {sigma_12:.6g} > threshold {threshold:g})",
        )
    return MethodComparison(
        node_id=row_id,
        wem=wem_value,
        wlam=wlam_value,
        nam=nam_value,
        hybrid=hybrid_value,
        sigma_12=sigma_12,
        sigma_13=sigma_13,
        weakest_ids=weakest,
        warnings=warnings,
    )


def _compare_node(
    node: HierarchyNode,
    threshold: float,
    registry: dict[str, _Row],
    rows: list[MethodComparison],
) -> None:
    """Append the rows of one subsystem: its own, then one per group."""
    child_rows = [registry[child.id] for child in node.children]
    values = [row[0] for row in child_rows]
    plan = _group_plan(node)
    rows.append(
        _comparison_row(
            node.id,
            values,
            _child_weights(node),
            plan,
            registry[node.id][2],
            threshold,
        )
    )
    groups = node.config.groups if node.config else ()
    for group, (positions, _) in zip(groups, plan):
        # Group values in member order; weakest leaves in child order.
        rows.append(
            _comparison_row(
                f"{node.id}/{group.id}",
                [values[k] for k in positions],
                None,
                [],
                _weakest([child_rows[k] for k in sorted(positions)])[1],
                threshold,
            )
        )


def _check_threshold(threshold: float) -> None:
    if not 0 <= threshold <= 1:
        raise EvaluationError(f"adequacy threshold must lie in [0, 1], got {threshold!r}")


def _compare(root: HierarchyNode, scale: Scale, threshold: float) -> list[MethodComparison]:
    """:func:`compare_methods` on a tree and threshold already checked."""
    registry = _roll(_postorder(root), scale)
    rows: list[MethodComparison] = []
    for node in root.walk():
        if not node.is_leaf:
            _compare_node(node, threshold, registry, rows)
    return rows


def compare_methods(
    root: HierarchyNode, scale: Scale, adequacy_threshold: float = 0.5
) -> list[MethodComparison]:
    """Evaluate every applicable operator at every subsystem node.

    Rows come out in preorder; a node configured with a grouping also
    yields one row per group, covering just that group's members.  A row
    whose ``sigma_12`` exceeds the threshold carries a warning naming the
    weakest leaves underneath.
    """
    _check_threshold(adequacy_threshold)
    _check_tree(root, scale)
    return _compare(root, scale, adequacy_threshold)


def _path_to(root: HierarchyNode, node_id: str) -> list[tuple[HierarchyNode, int]]:
    """Nodes from ``root`` down to the first node in preorder with ``node_id``.

    Each node comes with its position among its parent's children; the
    list is empty when no node has that id.
    """
    path: list[tuple[HierarchyNode, int]] = []
    stack = [(root, 0, 0)]
    while stack:
        node, depth, slot = stack.pop()
        del path[depth:]
        path.append((node, slot))
        if node.id == node_id:
            return path
        children = node.children
        stack.extend((children[k], depth + 1, k) for k in reversed(range(len(children))))
    return []


def _sweep_path(
    root: HierarchyNode,
    scale: Scale,
    vary_id: str,
    start: float,
    stop: float,
    steps: int,
) -> list[tuple[HierarchyNode, int]]:
    """Check the sweep arguments; returns the path down to the varied leaf."""
    if steps < 2:
        raise EvaluationError(f"steps must be at least 2, got {steps}")
    for bound, name in ((start, "from"), (stop, "to")):
        if not scale.contains(bound):
            raise EvaluationError(
                f"sweep {name} value {bound!r} is outside "
                f"[{scale.min}, {scale.max}]"
            )
    if root.is_leaf:
        raise EvaluationError("sweep needs a subsystem root with children")
    path = _path_to(root, vary_id)
    if not path:
        raise EvaluationError(f"unknown element id {vary_id!r}")
    if not path[-1][0].is_leaf:
        raise EvaluationError(f"{vary_id!r} is a subsystem; only leaves can vary")
    return path


def _sweep(
    scale: Scale,
    path: list[tuple[HierarchyNode, int]],
    start: float,
    stop: float,
    steps: int,
) -> list[SweepRow]:
    """:func:`sweep` along a checked path in a tree already validated."""
    # One (ancestor, child values, slot of the path child) per level, root
    # first.  Only the subtrees off the path are rolled here: a full re-roll
    # never evaluates the path at the leaf's stored value, so neither does this.
    levels = [
        (
            node,
            [
                0.0 if k == slot else _roll(_postorder(child), scale)[child.id][0]
                for k, child in enumerate(node.children)
            ],
            slot,
        )
        for (node, _), (_, slot) in zip(path, path[1:])
    ]
    root = path[0][0]
    root_values = levels[0][1]
    weights = _child_weights(root)
    plan = _group_plan(root)
    rows: list[SweepRow] = []
    span = stop - start
    for index in range(steps):
        varied = stop if index == steps - 1 else start + span * index / (steps - 1)
        value = float(varied)
        # The root's own operator runs too: its value is not reported, but
        # an overflow in it ends the sweep as it ends a full roll-up.
        for node, values, slot in reversed(levels):
            values[slot] = value
            value = scale.clamp(_apply_method(node, values)[1])
        rows.append(SweepRow(varied, *_metrics(root_values, weights, plan)))
    return rows


def sweep(
    root: HierarchyNode,
    scale: Scale,
    vary_id: str,
    start: float,
    stop: float,
    steps: int,
) -> list[SweepRow]:
    """Root-level metrics while one leaf's value walks a uniform grid.

    The grid has ``steps`` points including both endpoints.  Every row
    reports wem, wlam, and (when applicable) nam and hybrid over the
    root's children, each as a full roll-up of the mutated tree would
    give them.  Subtrees off the varied leaf's path are rolled once; each
    grid point recomputes only the leaf's ancestors.
    """
    path = _sweep_path(root, scale, vary_id, start, stop, steps)
    _check_tree(root, scale)
    return _sweep(scale, path, start, stop, steps)
