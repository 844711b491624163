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
from dataclasses import dataclass, fields
from typing import Iterator, TypeVar

from .core import _HYBRID, _NAM, _WEM, _WEM_THEN, _WLAM, Group, Method, Scale, _Record

__all__ = [
    "Flow",
    "HierarchyNode",
    "MethodConfig",
    "Network",
    "validate_hierarchy",
    "validate_network",
]


@dataclass(init=False, repr=False, eq=False)
class Flow(_Record):
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


@dataclass(init=False, repr=False, eq=False)
class Network(_Record):
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


@dataclass(init=False, repr=False, eq=False)
class MethodConfig(_Record):
    """Aggregation settings for one subsystem node.

    ``groups`` is required by ``Method.HYBRID_GROUPED`` and must partition
    the node's children; ``critical_ids`` is required by
    ``Method.WEM_THEN``, which aggregates all children with ``fallback``
    (wlam when omitted) and measures adequacy against the critical
    minimum.  ``adequacy_threshold``, when set, turns adequacy values
    above it into report warnings.
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


_T = TypeVar("_T", bound="_Tree")


class _Tree(_Record):
    """Preorder ``walk``, ``repr``, ``==`` and ``hash`` of a dataclass tree,
    without recursion.

    For a record (see :class:`_Record`) whose ``children`` field holds
    nodes of its own class.  ``repr`` gives what the generated method
    gives, at any depth.  ``==`` and ``hash`` are
    :class:`_Record`'s, over a tuple that determines the tree: each node's
    class, fields but ``children``, and child count, in preorder.
    """

    def walk(self: _T) -> Iterator[_T]:
        """This node and every node below it, in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def _values(self) -> tuple:
        return tuple([
            (node.__class__,
             tuple(getattr(node, f.name) for f in fields(node) if f.name != "children"),
             len(node.children))
            for node in self.walk()
        ])

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            tokens: list = [f"{type(item).__qualname__}("]
            for field in fields(item):
                value = getattr(item, field.name)
                if field.name == "children":
                    inner = [token for child in value for token in (", ", child)][1:]
                    tokens += ["children=(", *inner, ",)" if len(value) == 1 else ")", ", "]
                else:
                    tokens += [f"{field.name}={value!r}", ", "]
            tokens[-1] = ")"
            stack.extend(reversed(tokens))
        return "".join(parts)


@dataclass(init=False, repr=False, eq=False)
class HierarchyNode(_Tree):
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
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.walk() if n.is_leaf)


def _check_method(node_id: str, config: MethodConfig, child_ids: list[str],
                  priorities: list[float | None], out: list[str]) -> None:
    """Check a subsystem's method config against its children's ids and
    priorities, in child order."""
    method, groups, critical_ids = config.method, config.groups, config.critical_ids
    fallback, threshold = config.fallback, config.adequacy_threshold
    if (method is _WLAM or method is _WEM) and not (
        groups or critical_ids or fallback is not None or threshold is not None
    ):
        return  # nothing to check
    problems: list[str] = []
    if groups and method is not _HYBRID:
        problems.append("grouping is only meaningful for the hybrid method")
    if critical_ids and method is not _WEM_THEN:
        problems.append("critical set is only meaningful for wem-then")
    if fallback is not None:
        if method is not _WEM_THEN:
            problems.append("fallback is only meaningful for wem-then")
        elif fallback not in (_WLAM, _NAM):
            problems.append(f"fallback must be wlam or nam, got {fallback.value!r}")
    if threshold is not None and not 0 <= threshold <= 1:
        problems.append(f"adequacy threshold must lie in [0, 1], got {threshold!r}")
    if method is _HYBRID:
        if not groups:
            problems.append("hybrid method requires a grouping")
        else:
            _check_partition(groups, child_ids, problems)
    if method is _WEM_THEN:
        if not critical_ids:
            problems.append("wem-then requires a critical set")
        else:
            problems += [f"critical id {i!r} is not a child"
                         for i in critical_ids if i not in child_ids]
    if method is _NAM:
        weighted = [i for i, p in zip(child_ids, priorities) if p is not None]
        if weighted:
            problems.append(f"nam cannot use child priorities (set on {', '.join(weighted)})")
    if problems:
        label = f"subsystem {node_id!r}"
        out += [f"{label}: {problem}" for problem in problems]


def _check_partition(groups: tuple[Group, ...], child_ids: list[str], out: list[str]) -> None:
    known = set(child_ids)
    assigned: set[str] = set()
    group_ids: set[str] = set()
    for group in groups:
        if group.id in group_ids:
            out.append(f"duplicate group id {group.id!r}")
        group_ids.add(group.id)
        if not group.members:
            out.append(f"group {group.id!r} has no members")
        if not (math.isfinite(group.priority) and group.priority > 0):
            out.append(f"group {group.id!r} priority must be positive, got {group.priority!r}")
        for member in group.members:
            if member not in known:
                out.append(f"group {group.id!r} references unknown child {member!r}")
            elif member in assigned:
                out.append(f"child {member!r} grouped more than once")
            assigned.add(member)
    uncovered = sorted(known - assigned)
    if uncovered:
        out.append("children not covered by any group: " + ", ".join(uncovered))


def validate_hierarchy(root: HierarchyNode, scale: Scale) -> list[str]:
    """Check tree shape, leaf ranges, and method-config coherence."""
    return _hierarchy_walk(root, scale)[0]


def _hierarchy_walk(root: HierarchyNode, scale: Scale) -> tuple[list[str], list[HierarchyNode]]:
    """:func:`validate_hierarchy`'s violations, and the subsystems in preorder."""
    violations: list[str] = []
    subsystems: list[HierarchyNode] = []
    seen_ids: set[str] = set()
    isfinite = math.isfinite
    low, high = scale.min, scale.max
    stack = [root]
    while stack:
        node = stack.pop()
        children = node.children
        # Pushed before the duplicate check: a reused id does not hide the
        # violations in its subtree.
        if children:
            stack += children[::-1]
            subsystems.append(node)
        node_id = node.id
        if node_id in seen_ids:
            violations.append(f"node id {node_id!r} used more than once")
            continue
        seen_ids.add(node_id)
        priority = node.priority
        if priority is not None and not (isfinite(priority) and priority > 0):
            violations.append(
                f"node {node_id!r}: priority must be positive, got {priority!r}"
            )
        if not children:
            value = node.value
            if value is None:
                violations.append(f"leaf {node_id!r} has no evaluation value")
            elif not (isfinite(value) and low <= value <= high):
                violations.append(
                    f"leaf {node_id!r}: value {value!r} is outside [{low}, {high}]"
                )
            if node.config is not None:
                violations.append(f"leaf {node_id!r} cannot carry a method config")
        else:
            if node.value is not None:
                violations.append(f"subsystem {node_id!r} cannot carry a leaf value")
            if node.config is not None:
                _check_method(node_id, node.config, [c.id for c in children],
                              [c.priority for c in children], violations)
    return violations, subsystems
