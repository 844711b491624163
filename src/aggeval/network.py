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

from dataclasses import fields
from types import SimpleNamespace
from typing import Iterator, Sequence, TypeVar

from .core import (_HYBRID, _NAM, _WEM, _WEM_THEN, _WLAM, Group, Method, Scale, _finite,
                   _Record, _usable_priority)

__all__ = [
    "Flow",
    "HierarchyNode",
    "MethodConfig",
    "Network",
    "validate_hierarchy",
    "validate_network",
]


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


class _Net(SimpleNamespace):  # not a NamedTuple, whose class the import would compile
    """A network as lists over its distinct node ids by first declaration; read only."""

    index: dict[str, int]  # each distinct id's number
    successors: list[list[int]]  # each node's edge ends, in edge order
    degree: list[int]  # in- plus out-degree
    stray: list[tuple[str, str]]  # the edges with an undeclared end, left out above
    edges: Sequence[Sequence[str]]  # as given
    flows: list[tuple[Sequence[str], float]]  # (route, volume) pairs


def _undeclared(a: str, b: str, end: str) -> str:
    return f"edge ({a!r}, {b!r}) {end} at undeclared node {a if end == 'starts' else b!r}"


def _compile_network(nodes: Sequence[str], edges: Sequence[Sequence[str]],
                     flows: list[tuple[Sequence[str], float]]) -> tuple[list[str], _Net]:
    """:func:`validate_network`'s violations of a network given as its parts,
    and the network as lists: one walk."""
    violations: list[str] = []
    index: dict[str, int] = {}
    for node in nodes:
        if node in index:
            violations.append(f"node {node!r} declared more than once")
        else:
            index[node] = len(index)
    successors: list[list[int]] = [[] for _ in index]
    degree = [0] * len(index)
    stray: list[tuple[str, str]] = []
    seen_edges: set[tuple[str, str]] = set()
    for a, b in edges:
        edge, i, j = (a, b), index.get(a), index.get(b)
        if a == b:
            violations.append(f"self-loop on node {a!r}")
        if i is None:
            violations.append(_undeclared(a, b, "starts"))
        if j is None:
            violations.append(_undeclared(a, b, "ends"))
        if edge in seen_edges:
            violations.append(f"duplicate edge ({a!r}, {b!r})")
        seen_edges.add(edge)
        if i is None or j is None:
            stray.append(edge)
        else:
            successors[i].append(j)
            degree[i] += 1
            degree[j] += 1
    for number, (route, volume) in enumerate(flows, 1):
        if len(route) < 2:
            violations.append(f"flow #{number}: route needs at least two nodes")
        if not (_finite(volume) and volume > 0):
            violations.append(f"flow #{number}: volume must be positive, got {volume!r}")
        if not seen_edges.issuperset(zip(route, route[1:])):
            violations += [f"flow #{number}: route uses missing edge ({a!r}, {b!r})"
                           for a, b in zip(route, route[1:]) if (a, b) not in seen_edges]
    return violations, _Net(index=index, successors=successors, degree=degree, stray=stray,
                            edges=edges, flows=flows)


def _lower(net: Network) -> tuple[list[str], _Net]:
    """:func:`_compile_network` of a built network."""
    return _compile_network(net.nodes, net.edges, [(f.route, f.volume) for f in net.flows])


def validate_network(net: Network) -> list[str]:
    """Check declaration consistency; one message per violation."""
    return _lower(net)[0]


class MethodConfig(_Record):
    """Aggregation settings for one subsystem node.

    ``groups`` is required by ``Method.HYBRID_GROUPED`` and must partition
    the node's children; ``critical_ids`` is required by
    ``Method.WEM_THEN``, which aggregates all children with ``fallback``
    (wlam when omitted) and measures adequacy against the critical
    minimum.  ``adequacy_threshold``, when set, turns adequacy values
    above it into report warnings.  A method or fallback given by name
    becomes its ``Method`` member.
    """

    method: Method
    groups: tuple[Group, ...] = ()
    critical_ids: tuple[str, ...] = ()
    fallback: Method | None = None
    adequacy_threshold: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "fallback", None if self.fallback is None else Method(self.fallback))
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
        if not _usable_priority(group.priority):
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
        if priority is not None and not (_finite(priority) and priority > 0):
            violations.append(
                f"node {node_id!r}: priority must be positive, got {priority!r}"
            )
        if not children:
            value = node.value
            if value is None:
                violations.append(f"leaf {node_id!r} has no evaluation value")
            elif not (_finite(value) and low <= value <= high):
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
