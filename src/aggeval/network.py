"""Structural model: flow networks and evaluation hierarchies.

A :class:`Network` is a directed graph whose edges carry :class:`Flow`
objects along fixed routes.  A :class:`HierarchyNode` tree describes how
element evaluations roll up level by level; inner nodes carry a
:class:`MethodConfig` choosing the aggregation operator.

Validation never raises.  ``validate_network`` and ``validate_hierarchy``
return a list of human-readable violations, empty when the structure is
sound, so callers can surface every problem at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import Group, Method, Scale

__all__ = [
    "Flow",
    "HierarchyNode",
    "MethodConfig",
    "Network",
    "validate_hierarchy",
    "validate_network",
]


@dataclass(frozen=True)
class Flow:
    """A movement of ``volume`` units along the node sequence ``route``.

    Volume defaults to 1 so that counting flows and summing volumes agree.
    """

    route: tuple[str, ...]
    volume: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "route", tuple(str(n) for n in self.route))

    def edges(self) -> Iterator[tuple[str, str]]:
        for a, b in zip(self.route, self.route[1:]):
            yield (a, b)


@dataclass(frozen=True)
class Network:
    """Directed graph with optional flows.

    Edges are unweighted ordered pairs.  Undirected links are modelled as
    two opposite edges.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = ()
    flows: tuple[Flow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(str(n) for n in self.nodes))
        object.__setattr__(
            self, "edges", tuple((str(a), str(b)) for a, b in self.edges)
        )
        object.__setattr__(self, "flows", tuple(self.flows))

    def successors(self) -> dict[str, tuple[str, ...]]:
        """Adjacency map in declaration order."""
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            if a in out:
                out[a].append(b)
        return {n: tuple(v) for n, v in out.items()}


def validate_network(net: Network) -> list[str]:
    """Check declaration consistency; one message per violation."""
    violations: list[str] = []
    seen_nodes: set[str] = set()
    for node in net.nodes:
        if node in seen_nodes:
            violations.append(f"node {node!r} declared more than once")
        seen_nodes.add(node)
    seen_edges: set[tuple[str, str]] = set()
    for a, b in net.edges:
        if a == b:
            violations.append(f"self-loop on node {a!r}")
        if a not in seen_nodes:
            violations.append(f"edge ({a!r}, {b!r}) starts at undeclared node {a!r}")
        if b not in seen_nodes:
            violations.append(f"edge ({a!r}, {b!r}) ends at undeclared node {b!r}")
        if (a, b) in seen_edges:
            violations.append(f"duplicate edge ({a!r}, {b!r})")
        seen_edges.add((a, b))
    for index, flow in enumerate(net.flows):
        label = f"flow #{index + 1}"
        if len(flow.route) < 2:
            violations.append(f"{label}: route needs at least two nodes")
        if not (math.isfinite(flow.volume) and flow.volume > 0):
            violations.append(f"{label}: volume must be positive, got {flow.volume!r}")
        for step in flow.edges():
            if step not in seen_edges:
                violations.append(
                    f"{label}: route uses missing edge ({step[0]!r}, {step[1]!r})"
                )
    return violations


@dataclass(frozen=True)
class MethodConfig:
    """Aggregation settings for one subsystem node.

    ``groups`` is required by ``Method.HYBRID_GROUPED`` and must partition
    the node's children; ``critical_ids`` is required by
    ``Method.WEM_THEN``, which aggregates all children with ``fallback``
    (wlam when omitted) and measures adequacy against the critical minimum.  ``adequacy_threshold``, when set,
    turns adequacy values above it into report warnings.
    """

    method: Method
    groups: tuple[Group, ...] = ()
    critical_ids: tuple[str, ...] = ()
    fallback: Method | None = None
    adequacy_threshold: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(
            self, "critical_ids", tuple(str(i) for i in self.critical_ids)
        )


@dataclass(frozen=True)
class HierarchyNode:
    """One node of the evaluation hierarchy.

    Leaves carry an evaluation ``value``; subsystems carry ``children``
    and optionally a ``config``.  ``priority`` is the weight the parent's
    weighted mean assigns to this node.
    """

    id: str
    value: float | None = None
    priority: float | None = None
    children: tuple["HierarchyNode", ...] = ()
    config: MethodConfig | None = None

    def __post_init__(self) -> None:
        # The parser passes a str and a tuple; only other types are coerced.
        if type(self.id) is not str:
            object.__setattr__(self, "id", str(self.id))
        if type(self.children) is not tuple:
            object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["HierarchyNode"]:
        """All nodes in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.walk() if n.is_leaf)


def _positive(value: float | None) -> bool:
    return value is None or (math.isfinite(value) and value > 0)


def _check_config(node: HierarchyNode, out: list[str]) -> None:
    config = node.config
    if config is None:
        return
    label = f"subsystem {node.id!r}"
    child_ids = [c.id for c in node.children]
    if config.groups and config.method is not Method.HYBRID_GROUPED:
        out.append(f"{label}: grouping is only meaningful for the hybrid method")
    if config.critical_ids and config.method is not Method.WEM_THEN:
        out.append(f"{label}: critical set is only meaningful for wem-then")
    if config.fallback is not None:
        if config.method is not Method.WEM_THEN:
            out.append(f"{label}: fallback is only meaningful for wem-then")
        elif config.fallback not in (Method.WLAM, Method.NAM):
            out.append(
                f"{label}: fallback must be wlam or nam, got {config.fallback.value!r}"
            )
    if config.adequacy_threshold is not None and not (
        0 <= config.adequacy_threshold <= 1
    ):
        out.append(
            f"{label}: adequacy threshold must lie in [0, 1], "
            f"got {config.adequacy_threshold!r}"
        )
    if config.method is Method.HYBRID_GROUPED:
        if not config.groups:
            out.append(f"{label}: hybrid method requires a grouping")
        else:
            _check_partition(label, config.groups, child_ids, out)
    if config.method is Method.WEM_THEN:
        if not config.critical_ids:
            out.append(f"{label}: wem-then requires a critical set")
        else:
            unknown = [i for i in config.critical_ids if i not in child_ids]
            for i in unknown:
                out.append(f"{label}: critical id {i!r} is not a child")
    if config.method is Method.NAM:
        weighted = [c.id for c in node.children if c.priority is not None]
        if weighted:
            out.append(
                f"{label}: nam cannot use child priorities "
                f"(set on {', '.join(weighted)})"
            )


def _check_partition(
    label: str, groups: tuple[Group, ...], child_ids: list[str], out: list[str]
) -> None:
    known = set(child_ids)
    assigned: set[str] = set()
    group_ids: set[str] = set()
    for group in groups:
        if group.id in group_ids:
            out.append(f"{label}: duplicate group id {group.id!r}")
        group_ids.add(group.id)
        if not group.members:
            out.append(f"{label}: group {group.id!r} has no members")
        if not (math.isfinite(group.priority) and group.priority > 0):
            out.append(
                f"{label}: group {group.id!r} priority must be positive, "
                f"got {group.priority!r}"
            )
        for member in group.members:
            if member not in known:
                out.append(
                    f"{label}: group {group.id!r} references unknown child {member!r}"
                )
            elif member in assigned:
                out.append(f"{label}: child {member!r} grouped more than once")
            assigned.add(member)
    uncovered = sorted(known - assigned)
    if uncovered:
        out.append(f"{label}: children not covered by any group: " + ", ".join(uncovered))


def validate_hierarchy(root: HierarchyNode, scale: Scale) -> list[str]:
    """Check tree shape, leaf ranges, and method-config coherence."""
    violations: list[str] = []
    seen_ids: set[str] = set()
    for node in root.walk():
        if node.id in seen_ids:
            violations.append(f"node id {node.id!r} used more than once")
            continue
        seen_ids.add(node.id)
        if not _positive(node.priority):
            violations.append(
                f"node {node.id!r}: priority must be positive, got {node.priority!r}"
            )
        if node.is_leaf:
            if node.value is None:
                violations.append(f"leaf {node.id!r} has no evaluation value")
            elif not (math.isfinite(node.value) and scale.contains(node.value)):
                violations.append(
                    f"leaf {node.id!r}: value {node.value!r} is outside "
                    f"[{scale.min}, {scale.max}]"
                )
            if node.config is not None:
                violations.append(f"leaf {node.id!r} cannot carry a method config")
        else:
            if node.value is not None:
                violations.append(
                    f"subsystem {node.id!r} cannot carry a leaf value"
                )
            _check_config(node, violations)
    return violations
