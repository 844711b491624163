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
from typing import AbstractSet, NamedTuple, Sequence

from .core import (
    EvaluationError,
    Group,
    Method,
    Scale,
    _hybrid,
    _masking_ratio,
    _nam,
    _signed_gap,
    _wlam,
)
from .description import Element, _synthetic_root_id
from .network import HierarchyNode, MethodConfig, _Tree, validate_hierarchy

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


@dataclass(frozen=True, repr=False, eq=False)
class AggregationReport(_Tree):
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

    def to_dict(self) -> dict:
        """This report and its subtree as nested dicts and lists.

        Built without recursion, so depth is bounded by memory only.
        """
        top: list[dict] = []
        stack = [(self, top)]
        while stack:
            report, out = stack.pop()
            doc = {
                "node": report.node_id,
                "method": report.method,
                "value": report.value,
                "weakest": list(report.weakest_ids),
                "adequacy": report.adequacy,
                "warnings": list(report.warnings),
                "children": [],
            }
            out.append(doc)
            stack.extend((child, doc["children"]) for child in reversed(report.children))
        return top[0]


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


class _Sub(NamedTuple):
    """One subsystem of a compiled tree or flat description.

    ``values`` and ``lows`` hold each child's value and the smallest leaf
    value below it, in child order: a leaf's own value from the start, a
    subsystem child's once :func:`_roll` has rolled the entry at
    ``below[position]``.  The method is resolved once: ``kernel`` is the
    operator run over ``values`` (a wem-then node's fallback), ``plan``
    gives each group's child positions in member order and its priority,
    and ``critical`` the positions a wem-then node measures adequacy
    against.
    """

    id: str
    ids: list[str]
    values: list[float]
    lows: list[float]
    below: dict[int, int]
    label: str
    kernel: Method
    weights: list[float] | None
    plan: list[tuple[list[int], float]]
    group_ids: list[str]
    critical: list[int] | None
    threshold: float | None


_WLAM = MethodConfig(Method.WLAM)  # a subsystem without a method object


def _sub(
    node_id: str,
    ids: list[str],
    values: list[float],
    below: dict[int, int],
    priorities: list[float | None],
    config: MethodConfig | None,
) -> _Sub:
    """A compiled entry; weights are None when no child sets a priority."""
    weights = None
    if priorities.count(None) < len(priorities):
        weights = [1.0 if priority is None else priority for priority in priorities]
    config = config or _WLAM
    method = kernel = config.method
    plan, critical = [], None
    if config.groups or config.critical_ids:
        position = dict(zip(ids, range(len(ids))))
        plan = [([position[m] for m in g.members], g.priority) for g in config.groups]
        critical = [position[i] for i in config.critical_ids] or None
    if method is Method.WEM_THEN:
        kernel = Method.NAM if config.fallback is Method.NAM else Method.WLAM
    return _Sub(node_id, ids, values, values[:], below, method.value, kernel, weights,
                plan, [g.id for g in config.groups], critical, config.adequacy_threshold)


def _compile(root: HierarchyNode) -> list[_Sub]:
    """The subsystems of a validated tree in post-order, children left to
    right, so the root comes last; empty for a leaf root."""
    # Preorder with the children pushed left to right visits them right to
    # left; read backwards, that is the left-to-right post-order.
    order = []
    stack = [root] if root.children else []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(child for child in node.children if child.children)
    subs: list[_Sub] = []
    index: dict[str, int] = {}
    for node in reversed(order):
        children = node.children
        # A subsystem child's value is a placeholder until _roll fills it in.
        values = [0.0 if child.children else float(child.value) for child in children]
        below = {k: index[child.id] for k, child in enumerate(children) if child.children}
        index[node.id] = len(subs)
        subs.append(
            _sub(node.id, [child.id for child in children], values, below,
                 [child.priority for child in children], node.config)
        )
    return subs


def _compile_flat(elements: Sequence[Element], groups: tuple[Group, ...] | None) -> list[_Sub]:
    """A flat description as one entry: the synthetic root over the
    elements, with the groups as its hybrid plan."""
    ids = [e.id for e in elements]
    config = MethodConfig(Method.HYBRID_GROUPED, groups=groups) if groups else None
    return [
        _sub(_synthetic_root_id(ids), ids, [e.evaluation for e in elements], {},
             [e.priority for e in elements], config)
    ]


# One subsystem's roll-up: value, smallest leaf value below, weakest leaf
# ids, adequacy and warnings.
_Row = tuple[float, float, tuple[str, ...], float, tuple[str, ...]]


def _operate(sub: _Sub, values: list[float]) -> float:
    """The subsystem's configured operator over its child values, in child order."""
    kernel = sub.kernel
    if kernel is Method.WEM:
        return min(values)
    if kernel is Method.NAM:
        return _nam(values)
    if kernel is Method.HYBRID_GROUPED:
        return _hybrid(values, sub.plan)
    return _wlam(values, sub.weights)


def _weakest(
    sub: _Sub, rows: list[_Row | None], positions: Sequence[int] | None = None
) -> tuple[float, tuple[str, ...]]:
    """Smallest leaf value below the children at ``positions`` (default:
    all) and the leaves attaining it, in the order of ``positions``."""
    lows = sub.lows
    if positions is None:
        positions = range(len(lows))
    else:
        lows = [lows[k] for k in positions]
    low = min(lows)
    below, weakest = sub.below, []
    for k, value in zip(positions, lows):
        if value == low:
            weakest += rows[below[k]][2] if k in below else (sub.ids[k],)
    return low, tuple(weakest)


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


def _roll(
    subs: list[_Sub], scale: Scale, skip: AbstractSet[int] = frozenset()
) -> list[_Row | None]:
    """Roll up a compiled list in order; returns one row per entry.

    Each entry first takes its subsystem children's values and lows from
    their rows.  An entry in ``skip`` then gets no row and runs no
    operator, and its parent does not take its value.  Rolls without
    recursion, so depth is bounded by memory only.
    """
    rows: list[_Row | None] = []
    for index, sub in enumerate(subs):
        values, lows = sub.values, sub.lows
        for k, j in sub.below.items():
            row = rows[j]
            if row is not None:
                values[k], lows[k] = row[0], row[1]
        if index in skip:
            rows.append(None)
            continue
        value = _operate(sub, values)
        critical = sub.critical
        floor = min(values) if critical is None else min([values[k] for k in critical])
        adequacy = _signed_gap(value, floor)
        # Rounding in the means can overshoot the scale by a few ulps; reported
        # values stay inside the declared interval.
        value = scale.clamp(value)
        low, weakest = _weakest(sub, rows)
        warnings: tuple[str, ...] = ()
        threshold = sub.threshold
        if threshold is not None and adequacy > threshold:
            warnings = (
                f"adequacy {adequacy:.6g} exceeds threshold "
                f"{threshold:g}; weakest: {', '.join(weakest)}",
            )
        rows.append((value, low, weakest, adequacy, warnings))
    return rows


def _check_root(root: _Sub) -> None:
    """Run the root's operator where :func:`_metrics` does not run it.

    The root's value is not reported, but an overflow in its operator ends
    a full roll-up.  _metrics runs the same kernel on the same values,
    except nam under child priorities, which only a wem-then root with a
    nam fallback reaches; only that root runs its operator on its own.
    """
    if root.kernel is Method.NAM and root.weights is not None:
        _nam(root.values)


def _check_tree(root: HierarchyNode, scale: Scale) -> None:
    violations = validate_hierarchy(root, scale)
    if violations:
        raise HierarchyValidationError(violations)


def _leaf_report(node_id: str, value: float) -> AggregationReport:
    return AggregationReport(node_id, "leaf", value, (node_id,), 0.0, (), ())


def _aggregate(root: HierarchyNode, scale: Scale) -> AggregationReport:
    """:func:`aggregate` on a tree already validated."""
    if not root.children:
        return _leaf_report(root.id, float(root.value))
    subs = _compile(root)
    reports: list[AggregationReport] = []
    for sub, (value, _, weakest, adequacy, warnings) in zip(subs, _roll(subs, scale)):
        below = sub.below
        children = tuple(
            reports[below[k]] if k in below else _leaf_report(child_id, sub.values[k])
            for k, child_id in enumerate(sub.ids)
        )
        reports.append(
            AggregationReport(sub.id, sub.label, value, weakest, adequacy, warnings, children)
        )
    return reports[-1]


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


def _check_threshold(threshold: float) -> None:
    if not 0 <= threshold <= 1:
        raise EvaluationError(f"adequacy threshold must lie in [0, 1], got {threshold!r}")


def _compare(subs: list[_Sub], scale: Scale, threshold: float) -> list[MethodComparison]:
    """:func:`compare_methods` on a compiled list and a checked threshold."""
    if not subs:
        return []
    root = len(subs) - 1
    rows = _roll(subs, scale, {root})
    _check_root(subs[root])
    out: list[MethodComparison] = []
    # Preorder over the subsystems: each one's row, then one per group.
    stack = [root]
    while stack:
        j = stack.pop()
        sub = subs[j]
        values = sub.values
        row = rows[j]
        weakest = _weakest(sub, rows)[1] if row is None else row[2]
        out.append(_comparison_row(sub.id, values, sub.weights, sub.plan, weakest, threshold))
        for group_id, (positions, _) in zip(sub.group_ids, sub.plan):
            # Group values in member order; weakest leaves in child order.
            out.append(
                _comparison_row(
                    f"{sub.id}/{group_id}",
                    [values[k] for k in positions],
                    None,
                    [],
                    _weakest(sub, rows, sorted(positions))[1],
                    threshold,
                )
            )
        stack.extend(reversed(sub.below.values()))
    return out


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
    return _compare(_compile(root), scale, adequacy_threshold)


def _check_grid(scale: Scale, start: float, stop: float, steps: int) -> None:
    if steps < 2:
        raise EvaluationError(f"steps must be at least 2, got {steps}")
    for bound, name in ((start, "from"), (stop, "to")):
        if not scale.contains(bound):
            raise EvaluationError(
                f"sweep {name} value {bound!r} is outside "
                f"[{scale.min}, {scale.max}]"
            )


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """``steps`` uniform points from ``start`` to ``stop``, both ends exact."""
    span = stop - start
    return [
        stop if index == steps - 1 else start + span * index / (steps - 1)
        for index in range(steps)
    ]


def _vary_error(vary_id: str, has_root: bool, subsystem: bool) -> EvaluationError:
    """Why a sweep cannot vary ``vary_id``, which names no leaf: the tree
    has no subsystem root, or ``vary_id`` is a subsystem's id, or no id."""
    if not has_root:
        return EvaluationError("sweep needs a subsystem root with children")
    if subsystem:
        return EvaluationError(f"{vary_id!r} is a subsystem; only leaves can vary")
    return EvaluationError(f"unknown element id {vary_id!r}")


def _sweep_path(subs: list[_Sub], vary_id: str) -> list[tuple[int, int]]:
    """The entries of a compiled list from its root down to leaf ``vary_id``,
    each with the position among its children of the next node down."""
    for j, sub in enumerate(subs):
        if vary_id in sub.ids and sub.ids.index(vary_id) not in sub.below:
            break
    else:
        raise _vary_error(vary_id, bool(subs), any(sub.id == vary_id for sub in subs))
    parent = {i: (p, k) for p, sub in enumerate(subs) for k, i in sub.below.items()}
    path = [(j, subs[j].ids.index(vary_id))]
    while path[-1][0] in parent:
        path.append(parent[path[-1][0]])
    return path[::-1]


def _sweep(
    subs: list[_Sub],
    scale: Scale,
    path: list[tuple[int, int]],
    start: float,
    stop: float,
    steps: int,
) -> list[SweepRow]:
    """:func:`sweep` on a compiled list along a path from :func:`_sweep_path`."""
    # Only the subtrees off the path are rolled: a full re-roll never
    # evaluates the path at the leaf's stored value, so neither does this.
    _roll(subs, scale, {j for j, _ in path})
    (root, root_slot), *below = [(subs[j], slot) for j, slot in path]
    below.reverse()
    rows: list[SweepRow] = []
    for varied in _grid(start, stop, steps):
        value = float(varied)
        for sub, slot in below:  # the path's ancestors under the root, deepest first
            sub.values[slot] = value
            value = scale.clamp(_operate(sub, sub.values))
        root.values[root_slot] = value
        _check_root(root)
        rows.append(SweepRow(varied, *_metrics(root.values, root.weights, root.plan)))
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
    _check_grid(scale, start, stop, steps)
    # The id checks come before validation, on the first node in preorder.
    node = next((node for node in root.walk() if node.id == vary_id), None)
    if root.is_leaf or node is None or not node.is_leaf:
        raise _vary_error(vary_id, not root.is_leaf, node is not None)
    _check_tree(root, scale)
    subs = _compile(root)
    return _sweep(subs, scale, _sweep_path(subs, vary_id), start, stop, steps)
