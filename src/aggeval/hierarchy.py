"""Bottom-up aggregation over hierarchy trees.

Each subsystem collapses its children's aggregated values with its own
configured operator, so a score travels from the leaves to the root one
level at a time.  :func:`aggregate` produces a report tree mirroring the
hierarchy, :func:`compare_methods` tabulates all operators side by side
per subsystem, and :func:`sweep` traces those numbers while one leaf
value moves across a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, NamedTuple, Sequence

from .core import (
    _HYBRID,
    _LOG_DOMAIN_SIZE,
    _LOG_DOMAIN_TINY,
    _LOG_DOMAIN_VALUE,
    _NAM,
    _WEM,
    _WEM_THEN,
    _WLAM,
    EvaluationError,
    Method,
    Scale,
    _Record,
    _hybrid,
    _masking_ratio,
    _nam,
    _signed_gap,
    _weighted_mean,
    _wlam,
)
from .description import (_FLOAT_MAX, SystemDescription, _built, _Compiled, _element_columns,
                          _synthetic_root_id)
from .network import HierarchyNode, MethodConfig, _Tree, _hierarchy_walk

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


@dataclass(frozen=True, repr=False, eq=False)
class MethodComparison(_Record):
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


@dataclass(frozen=True, repr=False, eq=False)
class SweepRow(_Record):
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
    against.  ``priorities`` and ``config`` are the children's priorities
    and the method config as given.
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
    priorities: list[float | None]
    config: MethodConfig | None


_NONE = (math.inf,)  # the smallest of no values, for a sweep's kept extremes
_NO_CONFIG = MethodConfig(_WLAM)  # a subsystem without a method object
_LABELS = {m: m.value for m in Method}  # a dict read, not the enum's value property


def _sub(
    node_id: str,
    ids: list[str],
    values: list[float],
    below: dict[int, int],
    priorities: list[float | None],
    config: MethodConfig | None,
    position: dict[str, int] | None = None,
) -> _Sub:
    """A compiled entry; weights are None when no child sets a priority."""
    weights = None
    if priorities.count(None) < len(priorities):
        weights = [1.0 if priority is None else priority for priority in priorities]
    given, config = config, config or _NO_CONFIG
    method = kernel = config.method
    groups, plan, group_ids, critical = config.groups, [], [], None
    if groups or config.critical_ids:
        position = position or dict(zip(ids, range(len(ids))))
        plan = [(list(map(position.__getitem__, g.members)), g.priority) for g in groups]
        group_ids = [g.id for g in groups]
        critical = [position[i] for i in config.critical_ids] or None
    if method is _WEM_THEN:
        kernel = _NAM if config.fallback is _NAM else _WLAM
    return _Sub(node_id, ids, values, values[:], below, _LABELS[method], kernel, weights, plan,
                group_ids, critical, config.adequacy_threshold, priorities, given)


def _compile(frames: list[tuple]) -> list[_Sub]:
    """The frame compiler of the parse and of :func:`_entries`.  Each frame
    holds a subsystem's id and config, its children's ids, values and
    priorities, and the preorder number of each subsystem child by
    position.  Frames come in preorder, entries in post-order, children
    right to left, so frame q is entry ``last - q``."""
    last = len(frames) - 1
    return [_sub(node_id, ids, values, {k: last - q for k, q in below.items()}, priorities, config)
            for node_id, config, ids, values, priorities, below in reversed(frames)]


def _entries(hierarchy: HierarchyNode | _Compiled,
             scale: Scale) -> tuple[list[_Sub], str, float | None]:
    """The compiled entries of a parsed section, with value lists of their
    own, which a roll-up or sweep may write into, or of a tree, which one
    walk checks and lowers; then the root's id and value (for a leaf root)."""
    if type(hierarchy) is _Compiled:
        *subs, top = [_Sub(sub.id, sub.ids, sub.values[:], sub.values[:], *sub[4:])
                      for sub in hierarchy]
        return subs, top.ids[0], top.values[0]
    violations, subsystems = _hierarchy_walk(hierarchy, scale)
    if violations:
        raise HierarchyValidationError(violations)
    number = {node.id: q for q, node in enumerate(subsystems)}  # ids are unique: no violations
    frames = [(node.id, node.config, [c.id for c in node.children],
               [0.0 if c.children else float(c.value) for c in node.children],
               [c.priority for c in node.children],
               {k: number[c.id] for k, c in enumerate(node.children) if c.children})
              for node in subsystems]
    return _compile(frames), hierarchy.id, hierarchy.value


def _compile_flat(desc: SystemDescription) -> list[_Sub]:
    """A flat description as one entry: the synthetic root over the
    element columns, with the groups as its hybrid plan, planned from the
    parse's positions by id where it kept them.  The values are a copy,
    which a sweep may write into."""
    ids, evaluations, priorities, position = _element_columns(desc)
    config = MethodConfig(_HYBRID, groups=desc.groups) if desc.groups else None
    return [_sub(_synthetic_root_id(position or ids), ids, evaluations[:], {}, priorities, config,
                 position)]


# One subsystem's roll-up: value, smallest leaf value below, weakest leaf
# ids, adequacy and warnings.
_Row = tuple[float, float, tuple[str, ...], float, tuple[str, ...]]


def _operate(sub: _Sub, values: list[float]) -> float:
    """The subsystem's configured operator over its child values, in child order."""
    kernel = sub.kernel
    if kernel is _WEM:
        return min(values)
    if kernel is _NAM:
        return _nam(values)
    if kernel is _HYBRID:
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
    if lows.count(low) == 1:  # a unique minimum, found by C-level scans
        k = positions[lows.index(low)]
        return low, rows[below[k]][2] if k in below else (sub.ids[k],)
    for k, value in zip(positions, lows):
        if value == low:
            weakest += rows[below[k]][2] if k in below else (sub.ids[k],)
    return low, tuple(weakest)


def _summary(values: list[float], weights: list[float] | None,
             logs: Iterable[float] | None = None) -> tuple:
    """The min, max, exact sum and logs of ``values``, each taken once: the sum
    where wlam and nam read it (distinct values, no weights) and the logs where
    nam does (its log path, no zero), else None; a group gathers ``logs``."""
    low, high = min(values), max(values)
    if low == high or weights is not None:
        return low, high, None, None
    n = len(values)
    if low > 0.0 and (n > _LOG_DOMAIN_SIZE or high > _LOG_DOMAIN_VALUE or low < _LOG_DOMAIN_TINY):
        return low, high, math.fsum(values), list(map(math.log, values) if logs is None else logs)
    return low, high, math.fsum(values), None


def _metrics(
    values: list[float],
    weights: list[float] | None,
    plan: list[tuple[list[int], float]],
    nams: list[float | None] | None = None,
    summary: tuple | None = None,
) -> tuple[float, float, float | None, float | None]:
    """wem, wlam, nam (None under child priorities), hybrid (None without
    groups, and from the group nams in ``nams`` where they are known), all
    from one :func:`_summary` of ``values``, which a caller may pass."""
    low, high, total, logs = summary or _summary(values, weights)
    wlam = (values[0] if low == high else  # as _wlam: equal values are their mean
            _weighted_mean(values, weights) if total is None else total / len(values))
    if plan and nams is None and logs is not None:  # group nams gather their logs from these
        nams = [_nam([values[k] for k in p], logs=map(logs.__getitem__, p)) for p, _ in plan]
    return (low, wlam, None if weights is not None else _nam(values, low, high, total, logs),
            _hybrid(values, plan, nams) if plan else None)


def _clamped(scale: Scale, wlam: float, nam: float | None, hybrid: float | None) -> tuple:
    """wlam, nam and hybrid clamped to the scale, as :func:`_roll` clamps; None stays."""
    clamp = scale.clamp
    return (clamp(wlam), None if nam is None else clamp(nam),
            None if hybrid is None else clamp(hybrid))


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


def _leaf_report(node_id: str, value: float) -> AggregationReport:
    return AggregationReport(node_id, "leaf", value, (node_id,), 0.0, (), ())


def _aggregate(entries: tuple[list[_Sub], str, float | None], scale: Scale) -> AggregationReport:
    """:func:`aggregate` on the compiled entries of :func:`_entries`."""
    subs, root_id, root_value = entries
    if not subs:
        return _leaf_report(root_id, float(root_value))
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
    return _aggregate(_entries(root, scale), scale)


def _comparison(
    row_id: str,
    wem: float,
    wlam: float,
    nam: float | None,
    hybrid: float | None,
    weakest: tuple[str, ...],
    threshold: float,
    scale: Scale,
) -> MethodComparison:
    """One table row from metrics already computed; wlam, nam and hybrid
    are clamped to the scale after the sigmas are taken from them."""
    sigma_12 = _masking_ratio(wlam, wem)
    sigma_13 = None if nam is None else _masking_ratio(nam, wem)
    warnings: tuple[str, ...] = ()
    if sigma_12 > threshold:
        warnings = (
            f"hidden weak element: {', '.join(weakest)} "
            f"(sigma_12 {sigma_12:.6g} > threshold {threshold:g})",
        )
    wlam, nam, hybrid = _clamped(scale, wlam, nam, hybrid)
    return _built(MethodComparison, {
        "node_id": row_id, "wem": wem, "wlam": wlam, "nam": nam, "hybrid": hybrid,
        "sigma_12": sigma_12, "sigma_13": sigma_13, "weakest_ids": weakest, "warnings": warnings})


def _check_threshold(threshold: float) -> None:
    if not 0 <= threshold <= 1:
        raise EvaluationError(f"adequacy threshold must lie in [0, 1], got {threshold!r}")


def _compare(subs: list[_Sub], scale: Scale, threshold: float) -> list[MethodComparison]:
    """:func:`compare_methods` on a compiled list and a checked threshold.

    One post-order pass runs each operator once per subsystem: its rows
    and the value it passes up both read the same metrics, and hybrid is
    the weighted mean of the group nams that its group rows report.
    """
    rolled: list[tuple[float, float, tuple[str, ...]]] = []
    blocks: list[list[MethodComparison]] = []
    for sub in subs:
        values, lows, weights, plan = sub.values, sub.lows, sub.weights, sub.plan
        for k, j in sub.below.items():
            values[k], lows[k] = rolled[j][0], rolled[j][1]
        summary = _summary(values, weights)
        logs, groups = summary[3], []
        for positions, _ in plan:  # a group's nam gathers its logs from the subsystem's
            group = [values[k] for k in positions]
            logs_g = logs and map(logs.__getitem__, positions)
            groups.append(_metrics(group, None, [], None, _summary(group, None, logs_g)))
        wem, wlam, nam, hybrid = _metrics(values, weights, plan, [g[2] for g in groups], summary)
        kernel = sub.kernel
        value = (wem if kernel is _WEM else nam if kernel is _NAM
                 else hybrid if kernel is _HYBRID else wlam)
        if value is None:  # a nam kernel under child priorities: no nam column, but it runs
            value = _nam(values)
        low, weakest = _weakest(sub, rolled)
        rolled.append((scale.clamp(value), low, weakest))
        block = [_comparison(sub.id, wem, wlam, nam, hybrid, weakest, threshold, scale)]
        for group_id, (positions, _), metrics in zip(sub.group_ids, plan, groups):
            # Weakest leaves in child order, which only a tied minimum needs.
            weakest = _weakest(sub, rolled, positions)[1]
            if len(weakest) > 1:
                weakest = _weakest(sub, rolled, sorted(positions))[1]
            block.append(_comparison(f"{sub.id}/{group_id}", *metrics, weakest, threshold, scale))
        blocks.append(block)
    # The list read backwards is the preorder: each subsystem's row, then
    # one per group.
    return [row for block in reversed(blocks) for row in block]


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
    return _compare(_entries(root, scale)[0], scale, adequacy_threshold)


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
    """``steps`` uniform points from ``start`` to ``stop``, both ends exact; where
    ``span * index`` overflows, ``start + span * (index / last)`` held in bounds."""
    span, last, (low, high) = stop - start, steps - 1, sorted((start, stop))
    return [
        stop if index == last
        else point if abs(point := start + span * index / last) < math.inf
        else min(max(start + span * (index / last), low), high)
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


def _kept_nams(sub: _Sub, slot: int) -> list[float | None]:
    """The nams of ``sub``'s groups, None for the group that holds ``slot``."""
    return [None if slot in positions else _nam([sub.values[k] for k in positions])
            for positions, _ in sub.plan]


def _kept_sum(terms: list[float]) -> list[float]:
    """Floats whose exact sum is that of ``terms`` (Shewchuk's partials, found
    with fsum alone): fsum over them and one more term rounds as over the
    terms and that one."""
    parts = [math.fsum(terms)] if terms else []  # fsum's own rounding, the sign of 0 included
    while len(terms) > 1 and (rest := math.fsum(terms + [-p for p in parts])):
        parts.append(rest)
    return parts


def _kept_point(sub: _Sub, slot: int, root: bool,
                largest: float) -> Callable[[float], float | tuple]:
    """A sweep's grid point at one ancestor whose child values lie in [0,
    ``largest``]: called with x once x is at ``slot``, it returns ``_metrics``
    at the root and ``_operate`` below it, bit for bit.  Each sum a point
    forms has at most n nonnegative terms of at most ``max(largest, 1) * W``,
    W the largest of 1, the weights and the group priorities (a group nam
    lies within its group up to rounding).  Where n times that is below half
    the float max, so that not even ``_kept_sum``, which also subtracts,
    overflows, a point reads the other children's smallest value before and
    after the slot (``min``'s first-minimum rule then picks the same zero),
    their largest, and exact parts of only the sums its metrics read;
    elsewhere it runs the full kernels, which raise or scale as a roll-up
    does.  The hybrid point ignores its argument."""
    values, weights, plan, n = sub.values, sub.weights, sub.plan, len(sub.values)
    bound = max([1.0, *(weights or ()), *(plan and [priority for _, priority in plan])])
    if n * max(largest, 1.0) * bound >= _FLOAT_MAX / 2:
        return lambda x: _metrics(values, weights, plan) if root else _operate(sub, values)
    kernel = None if root else sub.kernel
    others = values[:slot] + values[slot + 1:]
    before, after = min(values[:slot] or _NONE), min(values[slot + 1:] or _NONE)
    high = max(others or [-math.inf])
    if kernel is None or kernel is _WLAM:
        weight, total = (1.0, n) if weights is None else (weights[slot], math.fsum(weights))
        parts = _kept_sum(others if weights is None else
                          [w * v for w, v in zip(weights[:slot] + weights[slot + 1:], others)])

        def wlam(x: float) -> float:
            if min(before, x, after) == max(x, high):
                return values[0]
            return math.fsum((*parts, weight * x)) / total
    if weights is None and kernel is None or kernel is _NAM:
        sums = _kept_sum(others)
        logs = _kept_sum(list(map(math.log, others))) if min(others or _NONE) > 0 else []

        def nam(x: float) -> float:
            low, top = min(before, x, after), max(x, high)
            if low == top or low == 0.0:
                return values[0] if low == top else 0.0
            mean = math.fsum((*sums, x)) / n
            if n > _LOG_DOMAIN_SIZE or top > _LOG_DOMAIN_VALUE or low < _LOG_DOMAIN_TINY:
                return math.exp(math.fsum((*logs, math.log(x))) - (n - 1) * math.log(mean))
            return math.prod(sorted(values)) / mean ** (n - 1)
    if plan and kernel is None or kernel is _HYBRID:
        nams, priorities = _kept_nams(sub, slot), [priority for _, priority in plan]
        group = nams.index(None)
        members, weight_g, total_g = plan[group][0], priorities[group], math.fsum(priorities)
        gather = itemgetter(*members) if len(members) > 1 else lambda v: (v[members[0]],)
        parts_g = _kept_sum([p * m for p, m in zip(priorities, nams) if m is not None])

        def hybrid(_: object) -> float:
            nams[group] = _nam(gather(values))
            return math.fsum((*parts_g, weight_g * nams[group])) / total_g
    if root:
        return lambda x: (min(before, x, after), wlam(x), None if weights is not None else nam(x),
                          hybrid(x) if plan else None)
    if kernel is _WEM:
        return lambda x: min(before, x, after)
    return wlam if kernel is _WLAM else nam if kernel is _NAM else hybrid


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
    (root, root_slot), *above = [(subs[j], slot) for j, slot in path]
    # The path's ancestors under the root, deepest first, and the root keep what
    # a grid point reads of their children off the path, where nothing overflows.
    low, high, rows = scale.min, scale.max, []
    below = [(sub.values, slot, _kept_point(sub, slot, False, high))
             for sub, slot in reversed(above)]
    top = _kept_point(root, root_slot, True, high)
    # The root's value is not reported, but an overflow in its operator ends
    # a full roll-up.  The metrics run the same kernel on the same values,
    # except nam under child priorities, which only a wem-then root with a
    # nam fallback reaches; only that root runs its operator on its own.
    own_nam = root.kernel is _NAM and root.weights is not None
    for varied in _grid(start, stop, steps):
        value = float(varied)
        for values, slot, point in below:
            values[slot] = value
            value = point(value)
            if not low <= value <= high:
                value = scale.clamp(value)
        root.values[root_slot] = value
        if own_nam:
            _nam(root.values)
        wem, wlam, nam, hybrid = top(value)
        wlam, nam, hybrid = _clamped(scale, wlam, nam, hybrid)
        rows.append(_built(SweepRow, {
            "varied": varied, "wem": wem, "wlam": wlam, "nam": nam, "hybrid": hybrid}))
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
    root's children, bit for bit as a full roll-up of the mutated tree
    would give them.  Subtrees off the varied leaf's path are rolled once.
    Each grid point recomputes only the leaf's ancestors, each from what it
    keeps of its other children: their extremes, exact parts of their sums
    and, under a grouping, the other groups' nams.  A point so takes O(1)
    work per ancestor plus one group nam per hybrid ancestor.
    """
    _check_grid(scale, start, stop, steps)
    # The id checks come before validation, on the first node in preorder.
    node = next((node for node in root.walk() if node.id == vary_id), None)
    if root.is_leaf or node is None or not node.is_leaf:
        raise _vary_error(vary_id, not root.is_leaf, node is not None)
    subs = _entries(root, scale)[0]
    return _sweep(subs, scale, _sweep_path(subs, vary_id), start, stop, steps)
