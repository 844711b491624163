"""Bottom-up aggregation over hierarchy trees.

Each subsystem collapses its children's aggregated values with its own
configured operator, so a score travels from the leaves to the root one
level at a time.  :func:`aggregate` produces a report tree mirroring the
hierarchy, :func:`compare_methods` tabulates all operators side by side
per subsystem, and :func:`sweep` traces those numbers while one leaf
value moves across a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "node": self.node_id,
            "method": self.method,
            "value": self.value,
            "weakest": list(self.weakest_ids),
            "adequacy": self.adequacy,
            "warnings": list(self.warnings),
            "children": [c.to_dict() for c in self.children],
        }


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


_Pair = tuple[AggregationReport, float]


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


def _weakest(pairs: list[_Pair]) -> tuple[float, tuple[str, ...]]:
    """Smallest leaf value below ``pairs`` and the leaves attaining it, in order."""
    low = min(minimum for _, minimum in pairs)
    return low, tuple(
        weak_id
        for report, minimum in pairs
        if minimum == low
        for weak_id in report.weakest_ids
    )


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


def _roll(
    node: HierarchyNode,
    scale: Scale,
    registry: dict[str, _Pair] | None = None,
) -> _Pair:
    """Aggregate a subtree; returns (report, minimum leaf value below)."""
    if node.is_leaf:
        value = float(node.value)
        report = AggregationReport(
            node_id=node.id,
            method="leaf",
            value=value,
            weakest_ids=(node.id,),
            adequacy=0.0,
            warnings=(),
            children=(),
        )
        if registry is not None:
            registry[node.id] = (report, value)
        return report, value
    pairs = [_roll(child, scale, registry) for child in node.children]
    label, value, adequacy = _apply_method(node, [report.value for report, _ in pairs])
    # Rounding in the means can overshoot the scale by a few ulps; reported
    # values stay inside the declared interval.
    value = scale.clamp(value)
    low, weakest = _weakest(pairs)
    warnings: tuple[str, ...] = ()
    config = node.config
    if config is not None and config.adequacy_threshold is not None:
        if adequacy > config.adequacy_threshold:
            warnings = (
                f"adequacy {adequacy:.6g} exceeds threshold "
                f"{config.adequacy_threshold:g}; weakest: {', '.join(weakest)}",
            )
    report = AggregationReport(
        node_id=node.id,
        method=label,
        value=value,
        weakest_ids=weakest,
        adequacy=adequacy,
        warnings=warnings,
        children=tuple(report for report, _ in pairs),
    )
    if registry is not None:
        registry[node.id] = (report, low)
    return report, low


def aggregate(root: HierarchyNode, scale: Scale) -> AggregationReport:
    """Aggregate the whole hierarchy bottom-up.

    Leaves report their own value; every subsystem applies its configured
    method (weighted mean when no config is given) to its children's
    aggregated values.  Raises :class:`HierarchyValidationError` listing
    every structural violation if the tree is unsound.
    """
    violations = validate_hierarchy(root, scale)
    if violations:
        raise HierarchyValidationError(violations)
    report, _ = _roll(root, scale)
    return report


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
    registry: dict[str, _Pair],
    rows: list[MethodComparison],
) -> None:
    if node.is_leaf:
        return
    pairs = [registry[child.id] for child in node.children]
    values = [report.value for report, _ in pairs]
    plan = _group_plan(node)
    rows.append(
        _comparison_row(
            node.id, values, _child_weights(node), plan, _weakest(pairs)[1], threshold
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
                _weakest([pairs[k] for k in sorted(positions)])[1],
                threshold,
            )
        )
    for child in node.children:
        _compare_node(child, threshold, registry, rows)


def compare_methods(
    root: HierarchyNode, scale: Scale, adequacy_threshold: float = 0.5
) -> list[MethodComparison]:
    """Evaluate every applicable operator at every subsystem node.

    Rows come out in preorder; a node configured with a grouping also
    yields one row per group, covering just that group's members.  A row
    whose ``sigma_12`` exceeds the threshold carries a warning naming the
    weakest leaves underneath.
    """
    if not 0 <= adequacy_threshold <= 1:
        raise EvaluationError(
            f"adequacy threshold must lie in [0, 1], got {adequacy_threshold!r}"
        )
    violations = validate_hierarchy(root, scale)
    if violations:
        raise HierarchyValidationError(violations)
    registry: dict[str, _Pair] = {}
    _roll(root, scale, registry)
    rows: list[MethodComparison] = []
    _compare_node(root, adequacy_threshold, registry, rows)
    return rows


def _with_leaf_value(
    node: HierarchyNode, leaf_id: str, value: float
) -> HierarchyNode:
    if node.is_leaf:
        return replace(node, value=value) if node.id == leaf_id else node
    return replace(
        node,
        children=tuple(_with_leaf_value(c, leaf_id, value) for c in node.children),
    )


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
    root's children, each recomputed on the mutated tree.
    """
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
    target = next((n for n in root.walk() if n.id == vary_id), None)
    if target is None:
        raise EvaluationError(f"unknown element id {vary_id!r}")
    if not target.is_leaf:
        raise EvaluationError(f"{vary_id!r} is a subsystem; only leaves can vary")
    violations = validate_hierarchy(root, scale)
    if violations:
        raise HierarchyValidationError(violations)
    weights = _child_weights(root)
    plan = _group_plan(root)
    rows: list[SweepRow] = []
    span = stop - start
    for index in range(steps):
        varied = stop if index == steps - 1 else start + span * index / (steps - 1)
        report, _ = _roll(_with_leaf_value(root, vary_id, varied), scale)
        values = [child.value for child in report.children]
        rows.append(SweepRow(varied, *_metrics(values, weights, plan)))
    return rows
