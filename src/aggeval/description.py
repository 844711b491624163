"""System descriptions: a JSON document tying all the pieces together.

A description carries five top-level keys: ``scale``, ``elements``, and
optionally ``groups``, ``hierarchy``, and ``network``.  Parsing validates
everything it can and reports all problems in one go, each prefixed with
a JSON-path-style location.  See the README for a worked example of the
format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .core import EvaluationError, EvaluationVector, Group, Method, PriorityVector, Scale
from .network import (
    Flow,
    HierarchyNode,
    MethodConfig,
    Network,
    validate_hierarchy,
    validate_network,
)

__all__ = [
    "DescriptionError",
    "Element",
    "SystemDescription",
    "load_description",
    "parse_description",
    "serialize_description",
]

_METHOD_NAMES = ", ".join(m.value for m in Method)


class DescriptionError(ValueError):
    """Invalid description; ``diagnostics`` lists every problem found."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(self.diagnostics))


@dataclass(frozen=True)
class Element:
    """One evaluated component: id, evaluation, optional priority."""

    id: str
    evaluation: float
    priority: float | None = None


@dataclass(frozen=True)
class SystemDescription:
    """Parsed and validated system description."""

    scale: Scale
    elements: tuple[Element, ...]
    groups: tuple[Group, ...] | None = None
    hierarchy: HierarchyNode | None = None
    network: Network | None = None

    def evaluation_vector(self) -> EvaluationVector:
        return EvaluationVector(
            tuple((e.id, e.evaluation) for e in self.elements), self.scale
        )

    def priority_vector(self) -> PriorityVector:
        """Element priorities, defaulting to 1 where the file sets none."""
        return PriorityVector(
            tuple(
                (e.id, 1.0 if e.priority is None else e.priority)
                for e in self.elements
            )
        )

    def hierarchy_root(self) -> HierarchyNode:
        """The explicit hierarchy, or a canonical single-level tree.

        Without a ``hierarchy`` section all elements become children of
        one synthetic root; a ``groups`` section makes that root use the
        grouped hybrid method, otherwise it has no explicit config.
        """
        if self.hierarchy is not None:
            return self.hierarchy
        root_id = "system"
        taken = {e.id for e in self.elements}
        while root_id in taken:
            root_id += "+"
        leaves = tuple(
            HierarchyNode(id=e.id, value=e.evaluation, priority=e.priority)
            for e in self.elements
        )
        config = None
        if self.groups:
            config = MethodConfig(Method.HYBRID_GROUPED, groups=self.groups)
        return HierarchyNode(id=root_id, children=leaves, config=config)


class _Collector:
    def __init__(self) -> None:
        self.diagnostics: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.diagnostics.append(f"{path}: {message}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get_number(obj: dict, key: str, path: str, diag: _Collector) -> float | None:
    value = obj[key]
    if not _is_number(value):
        diag.add(f"{path}.{key}", f"expected a number, got {value!r}")
        return None
    number = float(value)
    if number != number or number in (float("inf"), float("-inf")):
        diag.add(f"{path}.{key}", "number must be finite")
        return None
    return number


def _get_string(obj: dict, key: str, path: str, diag: _Collector) -> str | None:
    value = obj[key]
    if not isinstance(value, str) or not value:
        diag.add(f"{path}.{key}", f"expected a non-empty string, got {value!r}")
        return None
    return value


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str, diag: _Collector) -> bool:
    ok = True
    for key in obj:
        if key not in allowed:
            diag.add(path, f"unexpected key {key!r}")
    for key in required:
        if key not in obj:
            diag.add(path, f"missing required key {key!r}")
            ok = False
    return ok


def _parse_scale(doc: dict, diag: _Collector) -> Scale | None:
    raw = doc.get("scale")
    if raw is None:
        diag.add("scale", "missing required section")
        return None
    if not isinstance(raw, dict):
        diag.add("scale", f"expected an object, got {raw!r}")
        return None
    if not _check_keys(raw, {"min", "max"}, {"min", "max"}, "scale", diag):
        return None
    low = _get_number(raw, "min", "scale", diag)
    high = _get_number(raw, "max", "scale", diag)
    if low is None or high is None:
        return None
    try:
        return Scale(low, high)
    except EvaluationError as exc:
        diag.add("scale", str(exc))
        return None


def _parse_elements(
    doc: dict, scale: Scale | None, diag: _Collector
) -> tuple[Element, ...]:
    raw = doc.get("elements")
    if raw is None:
        diag.add("elements", "missing required section")
        return ()
    if not isinstance(raw, list):
        diag.add("elements", f"expected an array, got {raw!r}")
        return ()
    if not raw:
        diag.add("elements", "empty system: at least one element is required")
        return ()
    elements: list[Element] = []
    seen: set[str] = set()
    for index, entry in enumerate(raw):
        path = f"elements[{index}]"
        if not isinstance(entry, dict):
            diag.add(path, f"expected an object, got {entry!r}")
            continue
        if not _check_keys(
            entry, {"id", "evaluation", "priority"}, {"id", "evaluation"}, path, diag
        ):
            continue
        element_id = _get_string(entry, "id", path, diag)
        evaluation = _get_number(entry, "evaluation", path, diag)
        priority: float | None = None
        if "priority" in entry:
            priority = _get_number(entry, "priority", path, diag)
            if priority is not None and priority <= 0:
                diag.add(f"{path}.priority", f"must be positive, got {priority!r}")
                priority = None
        if element_id is None or evaluation is None:
            continue
        if element_id in seen:
            diag.add(f"{path}.id", f"duplicate element id {element_id!r}")
            continue
        seen.add(element_id)
        if scale is not None and not scale.contains(evaluation):
            diag.add(
                f"{path}.evaluation",
                f"value {evaluation!r} is outside [{scale.min}, {scale.max}]",
            )
            continue
        elements.append(Element(element_id, evaluation, priority))
    return tuple(elements)


def _parse_group_list(
    raw: Any, member_pool: set[str] | None, path: str, diag: _Collector
) -> tuple[Group, ...] | None:
    if not isinstance(raw, list):
        diag.add(path, f"expected an array, got {raw!r}")
        return None
    if not raw:
        diag.add(path, "at least one group is required")
        return None
    groups: list[Group] = []
    seen_ids: set[str] = set()
    assigned: set[str] = set()
    for index, entry in enumerate(raw):
        group_path = f"{path}[{index}]"
        if not isinstance(entry, dict):
            diag.add(group_path, f"expected an object, got {entry!r}")
            continue
        if not _check_keys(
            entry, {"id", "members", "priority"}, {"id", "members"}, group_path, diag
        ):
            continue
        group_id = _get_string(entry, "id", group_path, diag)
        priority = 1.0
        if "priority" in entry:
            got = _get_number(entry, "priority", group_path, diag)
            if got is None:
                continue
            if got <= 0:
                diag.add(f"{group_path}.priority", f"must be positive, got {got!r}")
                continue
            priority = got
        members_raw = entry["members"]
        if not isinstance(members_raw, list) or not members_raw:
            diag.add(f"{group_path}.members", "expected a non-empty array of ids")
            continue
        members: list[str] = []
        for m_index, member in enumerate(members_raw):
            m_path = f"{group_path}.members[{m_index}]"
            if not isinstance(member, str) or not member:
                diag.add(m_path, f"expected an element id, got {member!r}")
                continue
            if member_pool is not None and member not in member_pool:
                diag.add(m_path, f"unknown member id {member!r}")
                continue
            if member in assigned:
                diag.add(m_path, f"{member!r} already belongs to another group")
                continue
            assigned.add(member)
            members.append(member)
        if group_id is None or not members:
            continue
        if group_id in seen_ids:
            diag.add(f"{group_path}.id", f"duplicate group id {group_id!r}")
            continue
        seen_ids.add(group_id)
        groups.append(Group(id=group_id, members=tuple(members), priority=priority))
    if member_pool is not None:
        uncovered = sorted(member_pool - assigned)
        if uncovered:
            diag.add(path, "elements missing from every group: " + ", ".join(uncovered))
    return tuple(groups)


def _parse_method(raw: Any, path: str, diag: _Collector) -> MethodConfig | None:
    if not isinstance(raw, dict):
        diag.add(path, f"expected an object, got {raw!r}")
        return None
    allowed = {"method", "groups", "critical", "fallback", "threshold"}
    if not _check_keys(raw, allowed, {"method"}, path, diag):
        return None
    name = raw["method"]
    if not isinstance(name, str):
        diag.add(f"{path}.method", f"expected a string, got {name!r}")
        return None
    try:
        method = Method(name)
    except ValueError:
        diag.add(f"{path}.method", f"unknown method {name!r}; one of: {_METHOD_NAMES}")
        return None
    groups: tuple[Group, ...] = ()
    if "groups" in raw:
        parsed = _parse_group_list(raw["groups"], None, f"{path}.groups", diag)
        if parsed is None:
            return None
        groups = parsed
    critical: tuple[str, ...] = ()
    if "critical" in raw:
        raw_critical = raw["critical"]
        if not isinstance(raw_critical, list) or not all(
            isinstance(i, str) and i for i in raw_critical
        ):
            diag.add(f"{path}.critical", "expected an array of ids")
            return None
        critical = tuple(raw_critical)
    fallback: Method | None = None
    if "fallback" in raw:
        raw_fallback = raw["fallback"]
        if raw_fallback not in (Method.WLAM.value, Method.NAM.value):
            diag.add(f"{path}.fallback", f"expected 'wlam' or 'nam', got {raw_fallback!r}")
            return None
        fallback = Method(raw_fallback)
    threshold: float | None = None
    if "threshold" in raw:
        threshold = _get_number(raw, "threshold", path, diag)
        if threshold is None:
            return None
    return MethodConfig(
        method=method,
        groups=groups,
        critical_ids=critical,
        fallback=fallback,
        adequacy_threshold=threshold,
    )


def _parse_hierarchy_node(
    raw: Any,
    path: str,
    elements: dict[str, Element],
    used: dict[str, str],
    diag: _Collector,
) -> HierarchyNode | None:
    if isinstance(raw, str):
        element = elements.get(raw)
        if element is None:
            diag.add(path, f"unknown element {raw!r}")
            return None
        if raw in used:
            diag.add(path, f"element {raw!r} already used at {used[raw]}")
            return None
        used[raw] = path
        return HierarchyNode(
            id=element.id, value=element.evaluation, priority=element.priority
        )
    if not isinstance(raw, dict):
        diag.add(path, f"expected an element id or a subsystem object, got {raw!r}")
        return None
    allowed = {"id", "children", "method", "priority"}
    if not _check_keys(raw, allowed, {"id", "children"}, path, diag):
        return None
    node_id = _get_string(raw, "id", path, diag)
    if node_id is not None and node_id in elements:
        diag.add(f"{path}.id", f"subsystem id {node_id!r} shadows an element")
        node_id = None
    priority: float | None = None
    if "priority" in raw:
        priority = _get_number(raw, "priority", path, diag)
        if priority is not None and priority <= 0:
            diag.add(f"{path}.priority", f"must be positive, got {priority!r}")
            priority = None
    config: MethodConfig | None = None
    if "method" in raw:
        config = _parse_method(raw["method"], f"{path}.method", diag)
    children_raw = raw["children"]
    if not isinstance(children_raw, list) or not children_raw:
        diag.add(f"{path}.children", "expected a non-empty array")
        return None
    children: list[HierarchyNode] = []
    for index, child in enumerate(children_raw):
        node = _parse_hierarchy_node(
            child, f"{path}.children[{index}]", elements, used, diag
        )
        if node is not None:
            children.append(node)
    if node_id is None or len(children) != len(children_raw):
        return None
    return HierarchyNode(
        id=node_id, priority=priority, children=tuple(children), config=config
    )


def _parse_network(raw: Any, diag: _Collector) -> Network | None:
    if not isinstance(raw, dict):
        diag.add("network", f"expected an object, got {raw!r}")
        return None
    if not _check_keys(raw, {"nodes", "edges", "flows"}, {"nodes"}, "network", diag):
        return None
    nodes_raw = raw["nodes"]
    if not isinstance(nodes_raw, list) or not all(
        isinstance(n, str) and n for n in nodes_raw
    ):
        diag.add("network.nodes", "expected an array of node ids")
        return None
    edges_raw = raw.get("edges", [])
    flows_raw = raw.get("flows", [])
    if not isinstance(edges_raw, list):
        diag.add("network.edges", f"expected an array, got {edges_raw!r}")
        return None
    if not isinstance(flows_raw, list):
        diag.add("network.flows", f"expected an array, got {flows_raw!r}")
        return None
    edges: list[tuple[str, str]] = []
    edges_ok = True
    for index, edge in enumerate(edges_raw):
        path = f"network.edges[{index}]"
        if (
            not isinstance(edge, list)
            or len(edge) != 2
            or not all(isinstance(n, str) and n for n in edge)
        ):
            diag.add(path, f"expected a pair [from, to], got {edge!r}")
            edges_ok = False
            continue
        edges.append((edge[0], edge[1]))
    flows: list[Flow] = []
    flows_ok = True
    for index, entry in enumerate(flows_raw):
        path = f"network.flows[{index}]"
        if not isinstance(entry, dict):
            diag.add(path, f"expected an object, got {entry!r}")
            flows_ok = False
            continue
        if not _check_keys(entry, {"route", "volume"}, {"route"}, path, diag):
            flows_ok = False
            continue
        route = entry["route"]
        if not isinstance(route, list) or not all(
            isinstance(n, str) and n for n in route
        ):
            diag.add(f"{path}.route", "expected an array of node ids")
            flows_ok = False
            continue
        volume = 1.0
        if "volume" in entry:
            got = _get_number(entry, "volume", path, diag)
            if got is None:
                flows_ok = False
                continue
            volume = got
        flows.append(Flow(route=tuple(route), volume=volume))
    if not edges_ok or not flows_ok:
        return None
    network = Network(nodes=tuple(nodes_raw), edges=tuple(edges), flows=tuple(flows))
    for violation in validate_network(network):
        diag.add("network", violation)
    return network


def parse_description(text: str, source: str = "<description>") -> SystemDescription:
    """Parse and validate a JSON system description.

    Raises :class:`DescriptionError` whose diagnostics cover every
    problem found, each with a document location; syntax errors carry the
    line and column.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptionError(
            [f"{source}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"]
        ) from exc
    except RecursionError as exc:
        raise DescriptionError(
            [f"{source}: nesting deeper than the JSON decoder allows"]
        ) from exc
    if not isinstance(doc, dict):
        raise DescriptionError(["document: expected a top-level object"])
    diag = _Collector()
    known = {"scale", "elements", "groups", "hierarchy", "network"}
    for key in doc:
        if key not in known:
            diag.add("document", f"unexpected key {key!r}")
    scale = _parse_scale(doc, diag)
    elements = _parse_elements(doc, scale, diag)
    element_ids = {e.id for e in elements}

    groups: tuple[Group, ...] | None = None
    if "groups" in doc:
        groups = _parse_group_list(
            doc["groups"], element_ids if elements else None, "groups", diag
        )

    hierarchy: HierarchyNode | None = None
    if "hierarchy" in doc:
        by_id = {e.id: e for e in elements}
        used: dict[str, str] = {}
        hierarchy = _parse_hierarchy_node(
            doc["hierarchy"], "hierarchy", by_id, used, diag
        )
        if elements:
            unreferenced = sorted(element_ids - set(used))
            if unreferenced:
                diag.add(
                    "hierarchy",
                    "elements never referenced: " + ", ".join(unreferenced),
                )
        if hierarchy is not None and scale is not None:
            for violation in validate_hierarchy(hierarchy, scale):
                diag.add("hierarchy", violation)

    network: Network | None = None
    if "network" in doc:
        network = _parse_network(doc["network"], diag)

    if diag.diagnostics:
        raise DescriptionError(diag.diagnostics)
    assert scale is not None
    return SystemDescription(
        scale=scale,
        elements=elements,
        groups=groups,
        hierarchy=hierarchy,
        network=network,
    )


def load_description(path: str) -> SystemDescription:
    """Read and parse a description file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise DescriptionError(
                [f"{path}: not valid UTF-8: {exc.reason} at byte {exc.start}"]
            ) from exc
    return parse_description(text, source=path)


def _method_to_doc(config: MethodConfig) -> dict:
    doc: dict[str, Any] = {"method": config.method.value}
    if config.groups:
        doc["groups"] = [
            {"id": g.id, "members": list(g.members), "priority": g.priority}
            for g in config.groups
        ]
    if config.critical_ids:
        doc["critical"] = list(config.critical_ids)
    if config.fallback is not None:
        doc["fallback"] = config.fallback.value
    if config.adequacy_threshold is not None:
        doc["threshold"] = config.adequacy_threshold
    return doc


def _node_to_doc(node: HierarchyNode) -> Any:
    if node.is_leaf:
        return node.id
    doc: dict[str, Any] = {"id": node.id}
    if node.priority is not None:
        doc["priority"] = node.priority
    if node.config is not None:
        doc["method"] = _method_to_doc(node.config)
    doc["children"] = [_node_to_doc(c) for c in node.children]
    return doc


def serialize_description(desc: SystemDescription) -> str:
    """Render a description back to canonical JSON.

    Parsing the output reproduces the description exactly
    (``parse_description(serialize_description(d)) == d``).
    """
    doc: dict[str, Any] = {
        "scale": {"min": desc.scale.min, "max": desc.scale.max},
        "elements": [],
    }
    for element in desc.elements:
        entry: dict[str, Any] = {"id": element.id, "evaluation": element.evaluation}
        if element.priority is not None:
            entry["priority"] = element.priority
        doc["elements"].append(entry)
    if desc.groups is not None:
        doc["groups"] = [
            {"id": g.id, "members": list(g.members), "priority": g.priority}
            for g in desc.groups
        ]
    if desc.hierarchy is not None:
        doc["hierarchy"] = _node_to_doc(desc.hierarchy)
    if desc.network is not None:
        net: dict[str, Any] = {"nodes": list(desc.network.nodes)}
        if desc.network.edges:
            net["edges"] = [list(e) for e in desc.network.edges]
        if desc.network.flows:
            net["flows"] = [
                {"route": list(f.route), "volume": f.volume}
                for f in desc.network.flows
            ]
        doc["network"] = net
    return json.dumps(doc, indent=2) + "\n"
