"""System descriptions: a JSON document tying all the pieces together.

A description carries five top-level keys: ``scale``, ``elements``, and
optionally ``groups``, ``hierarchy``, and ``network``.  Parsing validates
everything it can and reports all problems in one go, each prefixed with
a JSON-path-style location.  See the README for a worked example of the
format.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Collection, NamedTuple

from .core import EvaluationError, EvaluationVector, Group, Method, PriorityVector, Scale, _Record
from .network import Flow, HierarchyNode, MethodConfig, Network, _check_method, validate_network

__all__ = [
    "DescriptionError",
    "Element",
    "SystemDescription",
    "load_description",
    "parse_description",
    "serialize_description",
]

_METHODS = {m.value: m for m in Method}
# The config of a method object whose only key is "method"; frozen, so shared.
_PLAIN_METHODS = {name: MethodConfig(m) for name, m in _METHODS.items()}
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


@dataclass(frozen=True, repr=False, eq=False)
class Element(_Record):
    """One evaluated component: id, evaluation, optional priority."""

    id: str
    evaluation: float
    priority: float | None = None


class _Columns(NamedTuple):
    """Parsed elements as parallel lists in document order; read, never written."""

    ids: list[str]
    evaluations: list[float]
    priorities: list[float | None]
    positions: dict[str, int] | None = None  # each id's position, where the parse kept it


class _Compiled(list):
    """A parsed ``hierarchy`` section: the frame compiler ``hierarchy._compile``'s
    entries, ending with one with no id whose one child is the root; read,
    never written."""


def _node_tree(parsed: _Compiled) -> HierarchyNode:
    """The node tree of a parsed ``hierarchy`` section, built bottom-up."""
    parts: list[tuple] = []  # each entry's child nodes and config
    for sub in parsed:
        below, children = sub.below, []
        for k, (child_id, value, priority) in enumerate(zip(sub.ids, sub.values, sub.priorities)):
            # A subsystem child (which has children) takes the parts of its entry.
            grand, config = parts[below[k]] if k in below else ((), None)
            children.append(_built(HierarchyNode, {
                "id": child_id, "value": None if grand else value, "priority": priority,
                "children": grand, "config": config}))
        parts.append((tuple(children), sub.config))
    return parts[-1][0][0]


class _Parsed:
    """A ``SystemDescription`` field held in its parsed form, of type
    ``kind``, until the first read stores and returns ``build`` of it; a
    value given to the constructor is stored as it is."""

    def __init__(self, kind: type, build: Callable[[Any], Any], *default: Any) -> None:
        self.kind, self.build = kind, build
        if default:
            self.default = default[0]

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self.default  # an AttributeError for a field with no default
        value = obj.__dict__[self.name]
        if type(value) is self.kind:
            value = obj.__dict__[self.name] = self.build(value)
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True, repr=False, eq=False)
class SystemDescription(_Record):
    """Parsed and validated system description.

    A parse keeps the elements as columns and the hierarchy compiled;
    each becomes its public value on first read.
    """

    scale: Scale
    elements: tuple[Element, ...] = _Parsed(  # type: ignore[assignment]
        _Columns, lambda columns: tuple(map(Element, *columns[:3])))
    groups: tuple[Group, ...] | None = None
    hierarchy: HierarchyNode | None = _Parsed(  # type: ignore[assignment]
        _Compiled, _node_tree, None)
    network: Network | None = None

    def evaluation_vector(self) -> EvaluationVector:
        ids, evaluations, _, _ = _element_columns(self)
        return EvaluationVector(tuple(zip(ids, evaluations)), self.scale)

    def priority_vector(self) -> PriorityVector:
        """Element priorities, defaulting to 1 where the file sets none."""
        ids, _, priorities, _ = _element_columns(self)
        return PriorityVector(tuple(zip(ids, [1.0 if p is None else p for p in priorities])))

    def hierarchy_root(self) -> HierarchyNode:
        """The explicit hierarchy, or a canonical single-level tree.

        Without a ``hierarchy`` section all elements become children of
        one synthetic root; a ``groups`` section makes that root use the
        grouped hybrid method, otherwise it has no explicit config.
        """
        if self.hierarchy is not None:
            return self.hierarchy
        ids, evaluations, priorities, _ = _element_columns(self)
        leaves = tuple(map(HierarchyNode, ids, evaluations, priorities))
        root_id = _synthetic_root_id(ids)
        config = None
        if self.groups:
            config = MethodConfig(Method.HYBRID_GROUPED, groups=self.groups)
        return HierarchyNode(id=root_id, children=leaves, config=config)


def _element_columns(desc: SystemDescription) -> _Columns:
    """The elements as columns, read without building ``Element`` objects."""
    stored = vars(desc)["elements"]
    if type(stored) is _Columns:
        return stored
    return _Columns([e.id for e in stored], [e.evaluation for e in stored],
                    [e.priority for e in stored])


def _stored_hierarchy(desc: SystemDescription) -> HierarchyNode | _Compiled | None:
    """The ``hierarchy`` field as stored, read without building a parsed tree."""
    return vars(desc)["hierarchy"]


def _synthetic_root_id(element_ids: Collection[str]) -> str:
    """Id of a flat description's root: ``system``, with ``+`` appended while taken."""
    root_id = "system"
    if root_id in element_ids:  # a set is built only for a taken name
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


def _clean_positive(value: Any) -> bool:
    """Whether ``_get_priority`` passes a decoded value silently.

    json.loads yields only exact int, float and bool numbers, so the exact
    type test is ``_get_number``'s; an int up to the largest float converts
    to a finite float, and the bounds reject NaN and infinities.
    """
    return (type(value) is float or type(value) is int) and 0 < value <= _FLOAT_MAX


def _get_number(obj: dict, key: str, path: str, diag: _Collector) -> float | None:
    value = obj[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
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


def _get_priority(obj: dict, path: str, diag: _Collector) -> float | None:
    """``obj["priority"]``; None, after a diagnostic, if not a positive number."""
    priority = _get_number(obj, "priority", path, diag)
    if priority is not None and priority <= 0:
        diag.add(f"{path}.priority", f"must be positive, got {priority!r}")
        return None
    return priority


def _get_string(obj: dict, key: str, path: str, diag: _Collector) -> str | None:
    value = obj[key]
    if not isinstance(value, str) or not value:
        diag.add(f"{path}.{key}", f"expected a non-empty string, got {value!r}")
        return None
    return value


def _is_id_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(n, str) and n for n in value)


def _check_object(
    obj: Any,
    allowed: AbstractSet[str],
    required: tuple[str, ...],
    path: str,
    diag: _Collector,
) -> bool:
    """Whether ``obj`` is an object with every required key; unexpected
    keys are reported but pass."""
    if not isinstance(obj, dict):
        diag.add(path, f"expected an object, got {obj!r}")
        return False
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
    if not _check_object(raw, {"min", "max"}, ("min", "max"), "scale", diag):
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
) -> tuple[dict[str, int], _Columns]:
    """Each accepted element's position by id, and the accepted elements as columns."""
    if raw is None:
        diag.add("elements", "missing required section")
        raw = []
    elif not isinstance(raw, list):
        diag.add("elements", f"expected an array, got {raw!r}")
        raw = []
    elif not raw:
        diag.add("elements", "empty system: at least one element is required")
    positions: dict[str, int] = {}
    evaluations: list[float] = []
    priorities: list[float | None] = []
    # Also holds the ids of entries dropped after their id was read: no
    # members, but each still flags a later duplicate.
    seen: set[str] = set()
    # NaN bounds send every entry to the reporting path when the scale is bad.
    low, high = (scale.min, scale.max) if scale is not None else (math.nan, math.nan)
    for index, entry in enumerate(raw):
        # Common case first: an entry the checks below pass without a word.
        # json.loads yields only exact dict/list/str/int/float/bool, so the
        # exact-type tests match _get_number's, and the finite scale bounds
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
                positions[element_id] = len(evaluations)
                evaluations.append(float(evaluation))
                priorities.append(None if priority is None else float(priority))
                continue
        path = f"elements[{index}]"
        if not _check_object(entry, _ELEMENT_KEYS, ("id", "evaluation"), path, diag):
            continue
        element_id = _get_string(entry, "id", path, diag)
        evaluation = _get_number(entry, "evaluation", path, diag)
        priority = _get_priority(entry, path, diag) if "priority" in entry else None
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
        positions[element_id] = len(evaluations)
        evaluations.append(evaluation)
        priorities.append(priority)
    return positions, _Columns(list(positions), evaluations, priorities, positions)


def _parse_group_list(
    raw: Any, member_pool: AbstractSet[str] | None, path: str, diag: _Collector
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
        # Common case first, with the exact-type tests of _parse_elements;
        # only an entry that fails them formats its path.
        fields = entry if type(entry) is dict else {}
        group_id = fields.get("id")
        members_raw = fields.get("members")
        priority = fields.get("priority", 1.0)
        if not (
            type(group_id) is str
            and group_id
            and type(members_raw) is list
            and members_raw
            and len(fields) == 2 + ("priority" in fields)
            and _clean_positive(priority)
        ):
            group_path = f"{path}[{index}]"
            if not _check_object(entry, _GROUP_KEYS, ("id", "members"), group_path, diag):
                continue
            group_id = _get_string(entry, "id", group_path, diag)
            if "priority" in entry:
                priority = _get_priority(entry, group_path, diag)
                if priority is None:
                    continue
            members_raw = entry["members"]
            if not isinstance(members_raw, list) or not members_raw:
                diag.add(f"{group_path}.members", "expected a non-empty array of ids")
                continue
        members: list[str] = []
        for m_index, member in enumerate(members_raw):
            if (
                type(member) is str
                and member
                and (member_pool is None or member in member_pool)
                and member not in assigned
            ):
                assigned.add(member)
                members.append(member)
                continue
            m_path = f"{path}[{index}].members[{m_index}]"
            if not isinstance(member, str) or not member:
                diag.add(m_path, f"expected an element id, got {member!r}")
            elif member_pool is not None and member not in member_pool:
                diag.add(m_path, f"unknown member id {member!r}")
            else:
                diag.add(m_path, f"{member!r} already belongs to another group")
        if group_id is None or not members:
            continue
        if group_id in seen_ids:
            diag.add(f"{path}[{index}].id", f"duplicate group id {group_id!r}")
            continue
        seen_ids.add(group_id)
        groups.append(Group(id=group_id, members=tuple(members), priority=float(priority)))
    # assigned is a subset of the pool, so equal sizes mean every element is covered.
    if member_pool is not None and len(assigned) != len(member_pool):
        uncovered = sorted(member_pool - assigned)
        diag.add(path, "elements missing from every group: " + ", ".join(uncovered))
    return tuple(groups)


def _parse_method(raw: Any, path: str, diag: _Collector) -> MethodConfig | None:
    if type(raw) is dict and len(raw) == 1:
        name = raw.get("method")
        if type(name) is str and name in _PLAIN_METHODS:
            return _PLAIN_METHODS[name]
    if not _check_object(raw, _METHOD_KEYS, ("method",), path, diag):
        return None
    name = raw["method"]
    if not isinstance(name, str):
        diag.add(f"{path}.method", f"expected a string, got {name!r}")
        return None
    method = _METHODS.get(name)
    if method is None:
        diag.add(f"{path}.method", f"unknown method {name!r}; one of: {_METHOD_NAMES}")
        return None
    groups: tuple[Group, ...] | None = ()
    if "groups" in raw:
        groups = _parse_group_list(raw["groups"], None, f"{path}.groups", diag)
        if groups is None:
            return None
    critical: tuple[str, ...] = ()
    if "critical" in raw:
        raw_critical = raw["critical"]
        if not _is_id_list(raw_critical):
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


def _hierarchy_path(location: Any) -> str:
    """The document path of a ``hierarchy`` entry.

    A location is ``(parent's location, index)``; the root is entry 0 of
    a top frame whose location is None.
    """
    indices = []
    while location is not None:
        location, index = location
        indices.append(index)
    indices.pop()  # the root's slot in the top frame
    return "hierarchy" + "".join([f".children[{i}]" for i in reversed(indices)])


def _subsystem(
    raw: Any,
    location: Any,
    positions: dict[str, int],
    diag: _Collector,
    scratch: _Collector,
) -> tuple[str | None, float | None, MethodConfig | None, list] | None:
    """Id, priority, config and children of a non-leaf entry; None if its
    children cannot be read.

    An entry the checks pass silently takes the exact-type tests of
    ``_parse_elements``, and its method object is parsed into the empty
    ``scratch``; any other entry goes through the reporting checks, which
    format its path.  A None id marks a subsystem that will not be built.
    """
    if type(raw) is dict:
        node_id = raw.get("id")
        children = raw.get("children")
        priority = raw.get("priority")
        if (
            type(node_id) is str
            and node_id
            and node_id not in positions
            and type(children) is list
            and children
            and len(raw) == 2 + (priority is not None) + ("method" in raw)
            and (priority is None or _clean_positive(priority))
        ):
            config = None
            if "method" in raw:
                config = _parse_method(raw["method"], "", scratch)
            if not scratch.diagnostics:
                priority = None if priority is None else float(priority)
                return node_id, priority, config, children
            scratch.diagnostics.clear()
    path = _hierarchy_path(location)
    if not isinstance(raw, dict):
        diag.add(path, f"expected an element id or a subsystem object, got {raw!r}")
        return None
    if not _check_object(raw, _SUBSYSTEM_KEYS, ("id", "children"), path, diag):
        return None
    node_id = _get_string(raw, "id", path, diag)
    if node_id is not None and node_id in positions:
        diag.add(f"{path}.id", f"subsystem id {node_id!r} shadows an element")
        node_id = None
    priority = _get_priority(raw, path, diag) if "priority" in raw else None
    config = None
    if "method" in raw:
        config = _parse_method(raw["method"], f"{path}.method", diag)
    children = raw["children"]
    if not isinstance(children, list) or not children:
        diag.add(f"{path}.children", "expected a non-empty array")
        return None
    return node_id, priority, config, children


def _parse_hierarchy(
    raw: Any, positions: dict[str, int], columns: _Columns, scale: Scale | None, diag: _Collector
) -> tuple[_Compiled | None, dict[str, tuple]]:
    """The ``hierarchy`` section compiled, or None after any diagnostic,
    and the frame holding each leaf, by element id.

    One preorder pass over an explicit stack: an entry's diagnostics come
    before its children's, and a subsystem's whole subtree before its next
    sibling.  Leaves are read inline; locations are formatted only for a
    diagnostic.  The elements never referenced follow, and then, if every
    entry is good and the scale is valid, what ``validate_hierarchy``
    finds on the tree.
    """
    from .hierarchy import _compile  # hierarchy imports this module

    _, evaluations, priorities, _ = columns
    used: dict[str, tuple] = {}
    scratch = _Collector()
    # Frames: (children iterator, the subsystem's location, priority and
    # children, its number in preorder, and the frame ``hierarchy._compile``
    # reads: its id and config, then the ids, values and priorities of the
    # children read so far, with the number of each subsystem child by
    # position).  The root is the one child of a top frame with no id.
    frames = [(enumerate([raw]), None, None, [raw], 0, (None, None, [], [], [], {}))]
    stack = frames[:]
    while stack:
        frame = stack[-1]
        entries, location, priority, children, number, compiler_frame = frame
        node_id, _, kid_ids, kid_values, kid_priorities, below = compiler_frame
        for index, child in entries:
            if type(child) is not str:
                here = (location, index)
                sub = _subsystem(child, here, positions, diag, scratch)
                if sub is not None:
                    sub_id, sub_priority, sub_config, sub_children = sub
                    frames.append((enumerate(sub_children), here, sub_priority, sub_children,
                                   len(frames), (sub_id, sub_config, [], [], [], {})))
                    stack.append(frames[-1])
                    break
                continue
            position = positions.get(child)
            if position is None:
                diag.add(_hierarchy_path((location, index)), f"unknown element {child!r}")
            elif child in used:
                # A leaf is recorded at its first occurrence in the frame's
                # children, so its index is recovered there; no per-leaf
                # location is allocated on the common path.
                first = used[child]
                first_path = _hierarchy_path((first[1], first[3].index(child)))
                diag.add(
                    _hierarchy_path((location, index)),
                    f"element {child!r} already used at {first_path}",
                )
            else:
                used[child] = frame
                kid_ids.append(child)
                kid_values.append(evaluations[position])
                kid_priorities.append(priorities[position])
        else:
            stack.pop()
            if node_id is not None and len(kid_ids) == len(children):
                _, _, parent_ids, parent_values, parent_priorities, parent_below = stack[-1][5]
                parent_below[len(parent_ids)] = number
                parent_ids.append(node_id)
                parent_values.append(0.0)  # filled in by the roll-up
                parent_priorities.append(priority)
    unreferenced = sorted(positions.keys() - used.keys())
    if unreferenced:
        diag.add("hierarchy", "elements never referenced: " + ", ".join(unreferenced))
    compiler_frames = [frame[5] for frame in frames]
    if not compiler_frames[0][2]:  # an entry is bad: the top frame holds no root
        return None, used
    if scale is not None:
        # validate_hierarchy's walk, over the subsystems in preorder: a
        # parsed leaf passes its checks, and a reused id skips the method.
        violations: list[str] = []
        seen: set[str] = set()
        for node_id, config, kid_ids, _, kid_priorities, _ in compiler_frames[1:]:
            if node_id in seen:
                violations.append(f"node id {node_id!r} used more than once")
            elif config is not None:
                _check_method(node_id, config, kid_ids, kid_priorities, violations)
            seen.add(node_id)
        for violation in violations:
            diag.add("hierarchy", violation)
    if diag.diagnostics:  # a faulty method config may name no child: it cannot compile
        return None, used
    return _Compiled(_compile(compiler_frames)), used


def _parse_network(raw: Any, diag: _Collector) -> Network | None:
    if not _check_object(raw, {"nodes", "edges", "flows"}, ("nodes",), "network", diag):
        return None
    nodes_raw = raw["nodes"]
    if not _is_id_list(nodes_raw):
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
    ok = True  # no edge or flow dropped
    for index, edge in enumerate(edges_raw):
        if not _is_id_list(edge) or len(edge) != 2:
            diag.add(f"network.edges[{index}]", f"expected a pair [from, to], got {edge!r}")
            ok = False
    flows: list[Flow] = []
    for index, entry in enumerate(flows_raw):
        path = f"network.flows[{index}]"
        if not _check_object(entry, {"route", "volume"}, ("route",), path, diag):
            ok = False
            continue
        route = entry["route"]
        if not _is_id_list(route):
            diag.add(f"{path}.route", "expected an array of node ids")
            ok = False
            continue
        volume = _get_number(entry, "volume", path, diag) if "volume" in entry else 1.0
        if volume is None:
            ok = False
            continue
        flows.append(Flow(route=route, volume=volume))
    if not ok:
        return None
    network = Network(nodes=nodes_raw, edges=edges_raw, flows=flows)
    for violation in validate_network(network):
        diag.add("network", violation)
    return network


def parse_description(text: str, source: str = "<description>") -> SystemDescription:
    """Parse and validate a JSON system description.

    Raises :class:`DescriptionError` whose diagnostics cover every
    problem found, each with a document location; syntax errors carry the
    line and column.  The parse makes no cyclic garbage, so the process-wide
    cyclic collector is paused while it runs; the caller's setting is restored.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text, source)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str, source: str) -> SystemDescription:
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
    _check_object(doc, {"scale", "elements", "groups", "hierarchy", "network"}, (),
                  "document", diag)
    scale = _parse_scale(doc, diag)
    # Popped: the decoded entries are freed before the tree is built.
    positions, columns = _parse_elements(doc.pop("elements", None), scale, diag)

    groups: tuple[Group, ...] | None = None
    if "groups" in doc:
        groups = _parse_group_list(
            doc["groups"], positions.keys() if positions else None, "groups", diag
        )

    hierarchy: _Compiled | None = None
    if "hierarchy" in doc:
        hierarchy, _ = _parse_hierarchy(doc["hierarchy"], positions, columns, scale, diag)
        columns = columns._replace(positions=None)  # only a flat description plans from them

    network: Network | None = None
    if "network" in doc:
        network = _parse_network(doc["network"], diag)

    if diag.diagnostics:
        raise DescriptionError(diag.diagnostics)
    assert scale is not None
    return SystemDescription(
        scale=scale,
        elements=columns,  # type: ignore[arg-type]
        groups=groups,
        hierarchy=hierarchy,  # type: ignore[arg-type]
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


def _groups_to_doc(groups: tuple[Group, ...]) -> list:
    return [
        {"id": g.id, "members": list(g.members), "priority": g.priority} for g in groups
    ]


def _method_to_doc(config: MethodConfig) -> dict:
    doc: dict[str, Any] = {"method": config.method.value}
    if config.groups:
        doc["groups"] = _groups_to_doc(config.groups)
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
    for element_id, evaluation, priority in zip(*_element_columns(desc)[:3]):
        entry: dict[str, Any] = {"id": element_id, "evaluation": evaluation}
        if priority is not None:
            entry["priority"] = priority
        doc["elements"].append(entry)
    if desc.groups is not None:
        doc["groups"] = _groups_to_doc(desc.groups)
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
