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
from operator import itemgetter
from typing import AbstractSet, Callable, NamedTuple, Sequence

from .core import (
    _FLOAT_MAX,
    _HYBRID,
    _NAM,
    _WEM,
    _WEM_THEN,
    _WLAM,
    EvaluationError,
    Method,
    Scale,
    _Record,
    _built,
    _hybrid,
    _log_path,
    _masking_ratio,
    _metrics,
    _nam,
    _signed_gap,
    _summary,
    _wlam,
)
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

        Built from the preorder read backwards, so depth is bounded by memory only.
        """
        docs: list[dict] = []
        for report in reversed(list(self.walk())):
            docs.append({
                "node": report.node_id,
                "method": report.method,
                "value": report.value,
                "weakest": list(report.weakest_ids),
                "adequacy": report.adequacy,
                "warnings": list(report.warnings),
                "children": [docs.pop() for _ in report.children],
            })
        return docs[0]


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


class SweepRow(_Record):
    """Root-level metrics at one grid value of the varied leaf."""

    varied: float
    wem: float
    wlam: float
    nam: float | None
    hybrid: float | None


class _Sub(NamedTuple):
    """One subsystem of a compiled tree or flat description; no pass writes it.

    ``values`` holds each child's value in child order: a leaf's own, and a
    0.0 placeholder for a subsystem child, whose value and smallest leaf
    value :func:`_taken` reads from the row of the entry at
    ``below[position]``.  The method is resolved once: ``kernel`` is the
    operator run over the child values (a wem-then node's fallback), ``plan``
    gives each group's child positions in member order and its priority,
    and ``critical`` the positions a wem-then node measures adequacy
    against.  ``priorities`` and ``config`` are the children's priorities
    and the method config as given.
    """

    id: str
    ids: list[str]
    values: list[float]
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
    return _Sub(node_id, ids, values, below, _LABELS[method], kernel, weights, plan,
                group_ids, critical, config.adequacy_threshold, priorities, given)


class _Compiled(list):
    """A lowered hierarchy: :func:`_compile`'s entries, ending with the top entry,
    which has no id and the root as its one child.  Commands read a parsed section's
    in place: no pass writes an entry or its value list."""


def _compile(frames: list[tuple]) -> _Compiled:
    """The frame compiler of the parse and of :func:`_entries`.  Each frame
    holds a subsystem's id and config, its children's ids, values and
    priorities, and the preorder number of each subsystem child by
    position; frame 0 is the top frame, with no id and the root as its one
    child.  Frames come in preorder, entries in post-order, children right
    to left, so frame q is entry ``last - q``."""
    last = len(frames) - 1
    return _Compiled(
        _sub(node_id, ids, values, {k: last - q for k, q in below.items()}, priorities, config)
        for node_id, config, ids, values, priorities, below in reversed(frames))


def _entries(hierarchy: HierarchyNode | _Compiled, scale: Scale) -> _Compiled:
    """The compiled entries of a parsed section, as stored, or of a tree, which one walk
    checks and lowers under a top frame 0."""
    if type(hierarchy) is _Compiled:
        return hierarchy
    violations, subsystems = _hierarchy_walk(hierarchy, scale)
    if violations:
        raise HierarchyValidationError(violations)
    number = {node.id: q for q, node in enumerate(subsystems, 1)}  # ids are unique: no violations
    nodes = [(None, None, (hierarchy,))] + [(n.id, n.config, n.children) for n in subsystems]
    return _compile([(node_id, config, [c.id for c in children],
                      [0.0 if c.children else float(c.value) for c in children],
                      [c.priority for c in children],
                      {k: number[c.id] for k, c in enumerate(children) if c.children})
                     for node_id, config, children in nodes])


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


def _taken(sub: _Sub, rows: list[_Row | None]) -> tuple[list[float], list[float]]:
    """The child values of ``sub`` and the smallest leaf value below each: its own value
    list as both when no child is a subsystem, else fresh lists holding each subsystem
    child's value and low from its row (a child without a row keeps its 0.0)."""
    if not sub.below:
        return sub.values, sub.values
    values, lows = sub.values[:], sub.values[:]
    for k, j in sub.below.items():
        row = rows[j]
        if row is not None:
            values[k], lows[k] = row[0], row[1]
    return values, lows


def _weakest(sub: _Sub, lows: list[float], rows: list[_Row | None],
             positions: Sequence[int] | None = None) -> tuple[float, tuple[str, ...]]:
    """Smallest of the child ``lows`` at ``positions`` (default: all) and
    the leaves attaining it, in the order of ``positions``."""
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


def _clamped(scale: Scale, wlam: float, nam: float | None, hybrid: float | None) -> tuple:
    """wlam, nam and hybrid clamped to the scale, as :func:`_roll` clamps; None stays."""
    clamp = scale.clamp
    return (clamp(wlam), None if nam is None else clamp(nam),
            None if hybrid is None else clamp(hybrid))


def _roll(
    subs: list[_Sub], scale: Scale, skip: AbstractSet[int] = frozenset()
) -> list[_Row | None]:
    """Roll up a compiled list in order; returns one row per entry.

    An entry in ``skip`` gets no row and runs no operator, and its parent
    does not take its value; any other takes its subsystem children's
    values and lows from their rows.  Rolls without recursion, so depth is
    bounded by memory only.
    """
    rows: list[_Row | None] = []
    for index, sub in enumerate(subs):
        if index in skip:
            rows.append(None)
            continue
        values, lows = _taken(sub, rows)
        value = _operate(sub, values)
        critical = sub.critical
        floor = min(values) if critical is None else min([values[k] for k in critical])
        adequacy = _signed_gap(value, floor)
        # Rounding in the means can overshoot the scale by a few ulps; reported
        # values stay inside the declared interval.
        value = scale.clamp(value)
        low, weakest = _weakest(sub, lows, rows)
        warnings: tuple[str, ...] = ()
        threshold = sub.threshold
        if threshold is not None and adequacy > threshold:
            warnings = (
                f"adequacy {adequacy:.6g} exceeds threshold "
                f"{threshold:g}; weakest: {', '.join(weakest)}",
            )
        rows.append((value, low, weakest, adequacy, warnings))
    return rows


def _aggregate(subs: list[_Sub], scale: Scale) -> AggregationReport:
    """:func:`aggregate` on a lowered list: the report of its top entry's one child."""
    reports: list[AggregationReport] = []
    for sub, (value, _, weakest, adequacy, warnings) in zip(subs, _roll(subs, scale)):
        below = sub.below
        children = tuple(
            reports[below[k]] if k in below
            else AggregationReport(child_id, "leaf", sub.values[k], (child_id,), 0.0, (), ())
            for k, child_id in enumerate(sub.ids)
        )
        reports.append(
            AggregationReport(sub.id, sub.label, value, weakest, adequacy, warnings, children)
        )
    return reports[-1].children[0]


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
        (values, lows), weights, plan = _taken(sub, rolled), sub.weights, sub.plan
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
        low, weakest = _weakest(sub, lows, rolled)
        rolled.append((scale.clamp(value), low, weakest))
        block = [_comparison(sub.id, wem, wlam, nam, hybrid, weakest, threshold, scale)]
        for group_id, (positions, _), metrics in zip(sub.group_ids, plan, groups):
            # Weakest leaves in child order, which only a tied minimum needs.
            weakest = _weakest(sub, lows, rolled, positions)[1]
            if len(weakest) > 1:
                weakest = _weakest(sub, lows, rolled, sorted(positions))[1]
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
    return _compare(_entries(root, scale)[:-1], scale, adequacy_threshold)


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
            if _log_path(n, low, top):
                return math.exp(math.fsum((*logs, math.log(x))) - (n - 1) * math.log(mean))
            return math.prod(sorted(values)) / mean ** (n - 1)
    if plan and kernel is None or kernel is _HYBRID:
        nams, priorities = _kept_nams(sub, slot), [priority for _, priority in plan]
        group = nams.index(None)
        members, weight_g, total_g = plan[group][0], priorities[group], math.fsum(priorities)
        gather = itemgetter(*members) if len(members) > 1 else lambda v: (v[members[0]],)
        parts_g = _kept_sum([p * m for p, m in zip(priorities, nams) if m is not None])

        def hybrid(_: object) -> float:
            return math.fsum((*parts_g, weight_g * _nam(gather(values)))) / total_g
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
    # Each path entry takes a value list of its own, which the points write.
    rolled = _roll(subs, scale, {j for j, _ in path})
    (root, root_slot), *above = [(subs[j]._replace(values=_taken(subs[j], rolled)[0][:]), slot)
                                 for j, slot in path]
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
    subs = _entries(root, scale)[:-1]
    return _sweep(subs, scale, _sweep_path(subs, vary_id), start, stop, steps)
