"""System descriptions: a JSON document tying all the pieces together.

A description carries five top-level keys: ``scale``, ``elements``, and
optionally ``groups``, ``hierarchy``, and ``network``.  Parsing validates
everything it can and reports all problems in one go, each prefixed with
a JSON-path-style location.  See the README for a worked example of the
format.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import AbstractSet, Any, Iterable

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

_METHODS = {m.value: m for m in Method}
_METHOD_NAMES = ", ".join(_METHODS)

_FLOAT_MAX = sys.float_info.max

_ELEMENT_KEYS = frozenset(("id", "evaluation", "priority"))
_GROUP_KEYS = frozenset(("id", "members", "priority"))
_METHOD_KEYS = frozenset(("method", "groups", "critical", "fallback", "threshold"))
_SUBSYSTEM_KEYS = frozenset(("id", "children", "method", "priority"))


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
        root_id = _synthetic_root_id(e.id for e in self.elements)
        leaves = tuple(
            HierarchyNode(id=e.id, value=e.evaluation, priority=e.priority)
            for e in self.elements
        )
        config = None
        if self.groups:
            config = MethodConfig(Method.HYBRID_GROUPED, groups=self.groups)
        return HierarchyNode(id=root_id, children=leaves, config=config)


def _synthetic_root_id(element_ids: Iterable[str]) -> str:
    """Id of a flat description's root: ``system``, with ``+`` appended while taken."""
    root_id = "system"
    taken = set(element_ids)
    while root_id in taken:
        root_id += "+"
    return root_id


def _built(cls: type, fields: dict[str, Any]) -> Any:
    """``cls(**fields)`` for a frozen dataclass, without its ``__init__``.

    Only for values that already have the exact types ``__post_init__``
    would coerce to; ``fields`` lists every field in declaration order.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


class _Collector:
    def __init__(self) -> None:
        self.diagnostics: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.diagnostics.append(f"{path}: {message}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _clean_positive(value: Any) -> bool:
    """Whether ``_get_number`` and a positivity check pass a decoded value silently.

    json.loads yields only exact int, float and bool numbers, so the exact
    type test is ``_is_number``; an int up to the largest float converts
    to a finite float, and the bounds reject NaN and infinities.
    """
    return (type(value) is float or type(value) is int) and 0 < value <= _FLOAT_MAX


def _get_number(obj: dict, key: str, path: str, diag: _Collector) -> float | None:
    value = obj[key]
    if not _is_number(value):
        diag.add(f"{path}.{key}", f"expected a number, got {value!r}")
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        diag.add(f"{path}.{key}", "number out of float range")
        return None
    if not math.isfinite(number):
        diag.add(f"{path}.{key}", "number must be finite")
        return None
    return number


def _get_string(obj: dict, key: str, path: str, diag: _Collector) -> str | None:
    value = obj[key]
    if not isinstance(value, str) or not value:
        diag.add(f"{path}.{key}", f"expected a non-empty string, got {value!r}")
        return None
    return value


def _check_keys(
    obj: dict,
    allowed: AbstractSet[str],
    required: tuple[str, ...],
    path: str,
    diag: _Collector,
) -> bool:
    if obj.keys() <= allowed and all(key in obj for key in required):
        return True
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
    if not _check_keys(raw, {"min", "max"}, ("min", "max"), "scale", diag):
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
    raw: Any, scale: Scale | None, diag: _Collector
) -> tuple[Element, ...]:
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
    # NaN bounds send every entry to the reporting path when the scale is bad.
    low, high = (scale.min, scale.max) if scale is not None else (math.nan, math.nan)
    for index, entry in enumerate(raw):
        # Common case first: an entry the checks below pass without a word.
        # json.loads yields only exact dict/list/str/int/float/bool, so the
        # exact-type tests match _is_number, and the finite scale bounds
        # reject NaN, infinities and ints beyond the float range.
        if type(entry) is dict:
            element_id = entry.get("id")
            evaluation = entry.get("evaluation")
            priority = entry.get("priority")
            if (
                type(element_id) is str
                and element_id
                and element_id not in seen
                and (type(evaluation) is float or type(evaluation) is int)
                and low <= evaluation <= high
                and (
                    len(entry) == 2
                    if priority is None
                    else len(entry) == 3 and _clean_positive(priority)
                )
            ):
                seen.add(element_id)
                elements.append(_built(Element, {
                    "id": element_id, "evaluation": float(evaluation),
                    "priority": None if priority is None else float(priority)}))
                continue
        path = f"elements[{index}]"
        if not isinstance(entry, dict):
            diag.add(path, f"expected an object, got {entry!r}")
            continue
        if not _check_keys(entry, _ELEMENT_KEYS, ("id", "evaluation"), path, diag):
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


def _clean_group(
    entry: dict, member_pool: set[str] | None, assigned: set[str], seen_ids: set[str]
) -> Group | None:
    """The group ``entry`` describes if the checks would pass it silently, else None.

    On success the group's id and members are recorded as taken; on None
    nothing is, and the caller reports the entry.
    """
    group_id = entry.get("id")
    members = entry.get("members")
    priority = entry.get("priority", 1.0)
    if not (
        type(group_id) is str
        and group_id
        and group_id not in seen_ids
        and type(members) is list
        and members
        and len(entry) == 2 + ("priority" in entry)
        and _clean_positive(priority)
    ):
        return None
    fresh: set[str] = set()
    for member in members:
        if (
            type(member) is not str
            or not member
            or member in fresh
            or member in assigned
            or (member_pool is not None and member not in member_pool)
        ):
            return None
        fresh.add(member)
    assigned |= fresh
    seen_ids.add(group_id)
    return Group(id=group_id, members=tuple(members), priority=float(priority))


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
        if type(entry) is dict:
            group = _clean_group(entry, member_pool, assigned, seen_ids)
            if group is not None:
                groups.append(group)
                continue
        group_path = f"{path}[{index}]"
        if not isinstance(entry, dict):
            diag.add(group_path, f"expected an object, got {entry!r}")
            continue
        if not _check_keys(entry, _GROUP_KEYS, ("id", "members"), group_path, diag):
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
    if not _check_keys(raw, _METHOD_KEYS, ("method",), path, diag):
        return None
    name = raw["method"]
    if not isinstance(name, str):
        diag.add(f"{path}.method", f"expected a string, got {name!r}")
        return None
    method = _METHODS.get(name)
    if method is None:
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
    return _built(MethodConfig, {
        "method": method, "groups": groups, "critical_ids": critical,
        "fallback": fallback, "adequacy_threshold": threshold})


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
        elif raw in used:
            diag.add(path, f"element {raw!r} already used at {used[raw]}")
        else:
            used[raw] = path
            return HierarchyNode(element.id, element.evaluation, element.priority)
        return None
    if not isinstance(raw, dict):
        diag.add(path, f"expected an element id or a subsystem object, got {raw!r}")
        return None
    if not _check_keys(raw, _SUBSYSTEM_KEYS, ("id", "children"), path, diag):
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


def _lean_hierarchy(
    raw: Any, elements: dict[str, Element]
) -> tuple[HierarchyNode, dict[str, HierarchyNode]] | None:
    """The tree ``_parse_hierarchy_node`` builds when it reports nothing, else None.

    One explicit-stack pass with the exact-type tests of ``_parse_elements``.
    It also returns the leaves by element id, whose keys are the reporting
    parse's ``used``.  At the first entry that parse would diagnose (or a
    leaf root) it gives up, and the caller runs that parse over the whole
    section, so every diagnostic comes from one place.
    """
    leaves: dict[str, HierarchyNode] = {}
    scratch = _Collector()  # _parse_method's diagnostics: empty means clean
    # Subsystems in preorder as (id, priority, config, children), with None
    # in place of each subsystem child.
    order: list[tuple[str, float | None, MethodConfig | None, list]] = []
    stack = [raw]
    while stack:
        node = stack.pop()
        if type(node) is not dict:
            return None
        node_id = node.get("id")
        children = node.get("children")
        priority = node.get("priority")
        if not (
            type(node_id) is str
            and node_id
            and node_id not in elements
            and type(children) is list
            and children
            and len(node) == 2 + (priority is not None) + ("method" in node)
            and (priority is None or _clean_positive(priority))
        ):
            return None
        config = None
        if "method" in node:
            config = _parse_method(node["method"], "", scratch)
            if scratch.diagnostics:
                return None
        kids: list[HierarchyNode | None] = []
        subsystems = []
        for child in children:
            if type(child) is not str:
                kids.append(None)
                subsystems.append(child)
                continue
            element = elements.get(child)
            if element is None or child in leaves:
                return None
            leaves[child] = leaf = _built(HierarchyNode, {
                "id": element.id, "value": element.evaluation,
                "priority": element.priority, "children": (), "config": None})
            kids.append(leaf)
        stack += subsystems[::-1]
        order.append((node_id, None if priority is None else float(priority), config, kids))
    # In reverse preorder the subsystem children of a subsystem are on top
    # of ``built``, the first one uppermost.
    built: list[HierarchyNode] = []
    for node_id, priority, config, kids in reversed(order):
        children = tuple([built.pop() if kid is None else kid for kid in kids])
        built.append(_built(HierarchyNode, {
            "id": node_id, "value": None, "priority": priority,
            "children": children, "config": config}))
    return built[0], leaves


def _parse_network(raw: Any, diag: _Collector) -> Network | None:
    if not isinstance(raw, dict):
        diag.add("network", f"expected an object, got {raw!r}")
        return None
    if not _check_keys(raw, {"nodes", "edges", "flows"}, ("nodes",), "network", diag):
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
        if not _check_keys(entry, {"route", "volume"}, ("route",), path, diag):
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
    except ValueError as exc:  # an integer literal over the int-conversion limit
        raise DescriptionError(
            [f"{source}: number literal longer than the JSON decoder allows"]
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
    # Popped: the decoded entries are freed before the tree is built.
    elements = _parse_elements(doc.pop("elements", None), scale, diag)
    element_ids = {e.id for e in elements}

    groups: tuple[Group, ...] | None = None
    if "groups" in doc:
        groups = _parse_group_list(
            doc["groups"], element_ids if elements else None, "groups", diag
        )

    hierarchy: HierarchyNode | None = None
    if "hierarchy" in doc:
        by_id = {e.id: e for e in elements}
        lean = _lean_hierarchy(doc["hierarchy"], by_id)
        if lean is None:
            used: dict[str, Any] = {}
            hierarchy = _parse_hierarchy_node(
                doc["hierarchy"], "hierarchy", by_id, used, diag
            )
        else:
            hierarchy, used = lean
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
    (``parse_description(serialize_description(d)) == d``).  Raises
    ``ValueError`` when the hierarchy nests deeper than the JSON encoder
    allows, which is a few hundred levels.
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
    try:
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
    except RecursionError as exc:
        raise ValueError("hierarchy nests deeper than the JSON encoder allows") from exc
