"""The frozen public records share one ``__init__``, one pair of frozen
guards and one ``==``, ``hash`` and ``repr`` (``core._Record``), which must
give what the dataclass-generated methods give; and no dataclass of the
package brings the per-class methods back."""

import copy
import dataclasses
import functools
import importlib
import inspect
import json
import pickle
import pkgutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import aggeval
from aggeval import load_description
from aggeval.core import (EvaluationError, EvaluationVector, Group, GroupedSystem, Method, Scale,
                          _Record)
from aggeval.description import Element, SystemDescription, _built
from aggeval.network import MethodConfig, Network, _Tree
from aggeval.priority import PriorityBasis

SRC = Path(aggeval.__file__).resolve().parent.parent
FIXTURES = SRC.parent / "fixtures"

MODULES = [importlib.import_module(f"aggeval.{info.name}")
           for info in pkgutil.iter_modules(aggeval.__path__)]

# Dataclasses that keep the generated methods, with the reason.
KEEPS_GENERATED = {
    "aggeval.priority.FlowVolumes":
        "mutable and unhashable: a running tally that callers update in place",
}


def package_dataclasses() -> list[type]:
    return sorted({cls for module in MODULES for cls in vars(module).values()
                   if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                   and cls.__module__ == module.__name__},
                  key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


ALL_RECORDS = [cls for cls in package_dataclasses() if issubclass(cls, _Record)]
# Trees compare their preorder tuples, not their field tuples; test_tree_passes.TestTreeDunders
# pins them.
RECORDS = [cls for cls in ALL_RECORDS if not issubclass(cls, _Tree)]


def twin_of(cls: type, checked: bool = False) -> type:
    """A stdlib frozen dataclass with ``cls``'s fields, defaults and qualified
    name; ``checked`` gives it ``cls``'s ``__post_init__`` too."""
    specs = [(f.name, f.type) if f.default is dataclasses.MISSING
             else (f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(cls)]
    post_init = getattr(cls, "__post_init__", None) if checked else None
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      namespace={"__post_init__": post_init} if post_init else {})
    twin.__qualname__ = cls.__qualname__
    return twin


TWINS = {cls: twin_of(cls) for cls in RECORDS}


NAN, INF = float("nan"), float("inf")


def fresh(value: float) -> float:
    """A new float object with the bits of ``value``."""
    return struct.unpack("<d", struct.pack("<d", value))[0]


floats = st.one_of(
    st.sampled_from([float("nan"), -0.0, 0.0, float("inf"), float("-inf"), 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
ids = st.text(alphabet=st.sampled_from(list("ab'\"\\\r\n\t é€😀\x00")), max_size=6)
leaves = st.one_of(floats, ids, st.none(), st.booleans(), st.integers(-3, 3),
                   st.sampled_from(list(Method)))


def record_spec(children: st.SearchStrategy) -> st.SearchStrategy:
    """A record class and one value spec per field."""
    return st.sampled_from(RECORDS).flatmap(lambda cls: st.tuples(
        st.just(cls), st.lists(children, min_size=len(dataclasses.fields(cls)),
                               max_size=len(dataclasses.fields(cls)))))


specs = st.recursive(
    leaves,
    lambda children: st.one_of(st.tuples(st.just(tuple), st.lists(children, max_size=3)),
                               record_spec(children)),
    max_leaves=12,
)


def build(spec, twins: bool, copy: bool = False):
    """The value a spec describes, with nested records as ``_Record``s or as
    their twins; ``copy`` makes every float a new object."""
    if isinstance(spec, tuple):
        kind, parts = spec
        values = [build(part, twins, copy) for part in parts]
        if kind is tuple:
            return tuple(values)
        if twins:
            return TWINS[kind](*values)
        return _built(kind, {f.name: v for f, v in zip(dataclasses.fields(kind), values)})
    return fresh(spec) if copy and isinstance(spec, float) else spec


def assert_same_as_twins(left_spec, right_spec, copy: bool = False) -> None:
    left, left_twin = build(left_spec, False), build(left_spec, True)
    right, right_twin = build(right_spec, False, copy), build(right_spec, True, copy)
    assert repr(left) == repr(left_twin)
    assert hash(left) == hash(left_twin)
    assert (left == right) is (left_twin == right_twin)
    assert (left != right) is (left_twin != right_twin)
    assert (right == left) is (right_twin == left_twin)


class TestSharedMethodsMatchGeneratedOnes:
    def test_every_frozen_public_record_is_covered(self):
        assert len(RECORDS) == 19
        assert {cls.__name__ for cls in RECORDS} >= {
            "Scale", "SystemDescription", "MethodComparison", "SweepRow", "Network",
            "RankedNode", "PriorityStrategy"}

    @settings(deadline=None, max_examples=300)
    @given(record_spec(specs), st.data())
    def test_a_record_against_itself_a_copy_and_other_draws(self, spec, data):
        cls, parts = spec
        assert_same_as_twins(spec, spec)
        assert_same_as_twins(spec, spec, copy=True)
        same_class = st.lists(specs, min_size=len(parts), max_size=len(parts))
        other = data.draw(st.one_of(same_class.map(lambda p: (cls, p)), record_spec(specs)))
        assert_same_as_twins(spec, other)

    @pytest.mark.parametrize("left, right", [
        ((Scale, [NAN, -0.0]), (Scale, [NAN, 0.0])),
        ((Scale, [-0.0, INF]), (Scale, [0.0, INF])),
        ((Scale, [-INF, 5e-324]), (Scale, [-INF, 0.0])),
        ((Element, ["a'\"\r\n\\é😀", 1.5, None]), (Element, ["a'\"\r\n\\é😀", 1.5, None])),
        ((Element, ["x", NAN, None]), (Element, ["x", 1.0, None])),
        ((GroupedSystem, [(tuple, [(Group, ["g\n", (tuple, ["a", "b"]), 2.0])]),
                          (EvaluationVector, [(tuple, []), (Scale, [0.0, 100.0])])]),
         (GroupedSystem, [(tuple, [(Group, ["g\n", (tuple, ["a", "b"]), 2.0])]),
                          (EvaluationVector, [(tuple, []), (Scale, [0.0, -0.0])])])),
    ])
    def test_fixed_draws(self, left, right):
        for a, b in ((left, right), (left, left), (right, left)):
            assert_same_as_twins(a, b)
            assert_same_as_twins(a, b, copy=True)

    @settings(deadline=None, max_examples=100)
    @given(record_spec(specs))
    def test_another_class_or_a_tuple_of_the_same_values_is_unequal(self, spec):
        cls, parts = spec
        record = build(spec, False)
        values = tuple(build(part, False) for part in parts)
        names = [f.name for f in dataclasses.fields(cls)]
        lookalike = dataclasses.make_dataclass(
            cls.__name__, names, bases=(_Record,), frozen=True, repr=False, eq=False)
        lookalike.__qualname__ = cls.__qualname__
        for other in (values, lookalike(*values)):
            assert not record == other and not other == record
            assert record != other and other != record
        assert repr(lookalike(*values)) == repr(record)

    def test_repr_of_a_record_inside_itself_is_cut_as_generated(self):
        members: list = []
        record = _built(Group, {"id": "g", "members": members, "priority": 1.0})
        members.append(record)
        twin_members: list = []
        twin = TWINS[Group]("g", twin_members, 1.0)
        twin_members.append(twin)
        assert repr(record) == repr(twin) == "Group(id='g', members=[...], priority=1.0)"


class TestParsedDescriptions:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")
                                            if not p.name.startswith("invalid")))
    def test_a_parsed_description_equals_one_constructed_from_its_values(self, name):
        parsed = load_description(str(FIXTURES / name))
        constructed = SystemDescription(
            scale=Scale(parsed.scale.min, parsed.scale.max),
            elements=tuple(Element(e.id, e.evaluation, e.priority) for e in parsed.elements),
            groups=parsed.groups and tuple(map(dataclasses.replace, parsed.groups)),
            hierarchy=parsed.hierarchy,
            network=parsed.network and dataclasses.replace(parsed.network))
        # Each check meets a fresh parse first, whose fields are built on read.
        fresh_parse = functools.partial(load_description, str(FIXTURES / name))
        assert fresh_parse() == constructed and constructed == fresh_parse()
        assert hash(fresh_parse()) == hash(constructed)
        assert repr(fresh_parse()) == repr(constructed)
        twin = TWINS[SystemDescription](*(getattr(parsed, f.name)
                                          for f in dataclasses.fields(SystemDescription)))
        assert repr(parsed) == repr(twin)
        assert hash(parsed) == hash(twin)

    def test_a_changed_field_makes_descriptions_unequal(self):
        parsed = load_description(str(FIXTURES / "weak_element.json"))
        changed = dataclasses.replace(parsed, scale=Scale(0.0, 1000.0))
        assert parsed != changed and not parsed == changed

    def test_dataclass_helpers_keep_working(self):
        config = MethodConfig(Method.WLAM, critical_ids=("a",))
        assert dataclasses.replace(config, fallback=Method.NAM).fallback is Method.NAM
        assert dataclasses.asdict(Network(("a", "b"), (("a", "b"),)))["edges"] == (("a", "b"),)
        assert Scale.__match_args__ == ("min", "max")
        with pytest.raises(dataclasses.FrozenInstanceError):
            Scale(0.0, 1.0).min = 2.0  # type: ignore[misc]
        match Scale(0.0, 5.0):
            case Scale(low, high):
                assert (low, high) == (0.0, 5.0)


class TestImportLever:
    """No dataclass of the package compiles its own methods at import,
    unless it is listed with its reason."""

    def test_every_dataclass_takes_its_methods_from_the_shared_base(self):
        for cls in package_dataclasses():
            name = f"{cls.__module__}.{cls.__qualname__}"
            if name in KEEPS_GENERATED:
                continue
            params = cls.__dataclass_params__
            assert not (params.init or params.repr or params.eq or params.frozen), name
            assert issubclass(cls, _Record), name
            # The shared __init__ reads the fields from here: no ClassVar or InitVar entries.
            assert tuple(cls.__dataclass_fields__.values()) == dataclasses.fields(cls), name
            for method in ("__init__", "__setattr__", "__delattr__",
                           "__eq__", "__hash__", "__repr__"):
                assert method not in vars(cls), (name, method)

    def test_the_allowlist_names_dataclasses_that_exist(self):
        names = {f"{cls.__module__}.{cls.__qualname__}" for cls in package_dataclasses()}
        assert set(KEEPS_GENERATED) <= names

    def test_import_compiles_only_the_allowlisted_methods(self):
        if not hasattr(dataclasses, "_create_fn"):
            pytest.skip("this Python builds dataclass methods without _create_fn")
        probe = "\n".join([
            "import dataclasses, json, sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "calls, create = [], dataclasses._create_fn",
            "def counting(name, *args, **kwargs):",
            "    frame = sys._getframe(1)",
            "    while frame.f_code.co_name != '_process_class':",
            "        frame = frame.f_back",
            "    cls = frame.f_locals['cls']",
            "    calls.append(f'{cls.__module__}.{cls.__qualname__}.{name}')",
            "    return create(name, *args, **kwargs)",
            "dataclasses._create_fn = counting",
            "import aggeval.cli",
            "print(json.dumps(sorted(calls)))",
        ])
        done = subprocess.run([sys.executable, "-I", "-c", probe],
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [
            "aggeval.priority.FlowVolumes.__eq__", "aggeval.priority.FlowVolumes.__init__",
            "aggeval.priority.FlowVolumes.__repr__"]

    def test_a_frozen_dataclass_cannot_extend_a_record(self):
        with pytest.raises(TypeError, match="cannot inherit frozen dataclass from a non-frozen"):
            dataclasses.make_dataclass("Sub", [("extra", int, 0)], bases=(Scale,), frozen=True)


# Valid values for each record's first fields, at least its required ones.
SAMPLES = {
    "Scale": (0.0, 5.0),
    "EvaluationVector": ((("a", 1.0), ("b", 2)),),
    "PriorityVector": ((("a", 2.0),),),
    "Group": ("g", ("a",)),
    "GroupedSystem": ((Group("g", ("a",)),), EvaluationVector((("a", 1.0),))),
    "AdequacyReport": (1.0, 2.0, 1.5, 0.5, 0.25, ("a",)),
    "CriticalGroupResult": (1.0, 2.0, 0.5, Method.WLAM),
    "ProductBoundCheck": (1.0, 2.0, True),
    "OrderingCheck": ((1.0, 1.5, 2.0), True),
    "HybridBoundsCheck": (1.0, 1.5, 2.0, True, False),
    "Element": ("a", 1.0),
    "SystemDescription": (Scale(0.0, 1.0), (Element("a", 0.5),)),
    "AggregationReport": ("n", "wem", 1.0, ("a",), 0.0, (), ()),
    "MethodComparison": ("n", 1.0, 2.0, None, None, 0.5, None, ("a",), ()),
    "SweepRow": (1.0, 2.0, 1.5, None, None),
    "Flow": (["a", "b"],),
    "Network": (["a", "b"], [["a", "b"]]),
    "MethodConfig": (Method.WEM_THEN, [], ["a"]),
    "HierarchyNode": ("n",),
    "PriorityStrategy": (PriorityBasis.DEGREE, [PriorityBasis.FLOW_VOLUME]),
    "RankedNode": ("n", 1.0, 0.5),
}


def test_every_record_has_a_sample():
    assert set(SAMPLES) == {cls.__name__ for cls in ALL_RECORDS}


def sample(cls: type) -> tuple[tuple, tuple]:
    """Values for the required fields of ``cls``, and for every field."""
    known, given = dataclasses.fields(cls), SAMPLES[cls.__name__]
    need = sum(f.default is dataclasses.MISSING for f in known)
    return given[:need], (*given, *(f.default for f in known[len(given):]))


def error_of(call) -> str:
    """The type and message of the exception ``call()`` raises."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the message is what is compared
        return f"{type(exc).__name__}: {exc}"
    raise AssertionError("no exception")


@pytest.mark.parametrize("cls", ALL_RECORDS, ids=lambda cls: cls.__name__)
class TestSharedInitAndGuardsMatchGeneratedOnes:
    """Each record against a stdlib frozen twin with the same fields,
    defaults and ``__post_init__``."""

    def test_construction(self, cls):
        twin, (required, every) = twin_of(cls, checked=True), sample(cls)
        named = {f.name: value for f, value in zip(dataclasses.fields(cls), every)}
        rest = dict(list(named.items())[1:])
        for args, kwargs in ((every, {}), ((), named), (every[:1], rest), (required, {})):
            assert repr(cls(*args, **kwargs)) == repr(twin(*args, **kwargs))
        assert cls(*every) == cls(**named) == cls(*every[:1], **rest)
        assert inspect.signature(cls) == inspect.signature(twin)
        assert str(inspect.signature(cls)) == str(inspect.signature(twin))

    def test_wrong_calls(self, cls):
        twin, (required, every) = twin_of(cls, checked=True), sample(cls)
        known = dataclasses.fields(cls)
        first = known[0].name
        for args, kwargs in (((), {}), (required[:-1], {}), ((*every, 0), {}),
                             (required, {"x": 1}), (required, {first: required[0]}),
                             ((*every, 0), {first: 1}), ((), {"x": 1, first: 1}),
                             (required[1:], {}), ((), {f.name: 1 for f in known[1:]})):
            message = error_of(lambda: cls(*args, **kwargs))
            assert message.startswith(f"TypeError: {cls.__qualname__}.__init__() ")
            assert message == error_of(lambda: twin(*args, **kwargs)), (args, kwargs)

    def test_frozen_guards(self, cls):
        twin, (required, _) = twin_of(cls, checked=True), sample(cls)
        record, twin_record = cls(*required), twin(*required)
        field = dataclasses.fields(cls)[0].name
        for name in (field, "new"):
            for change in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
                message = error_of(lambda: change(record))
                assert message.startswith("FrozenInstanceError: cannot ")
                assert message == error_of(lambda: change(twin_record))
        assert repr(record) == repr(cls(*required))

    def test_copies_and_pickles(self, cls):
        record = cls(*sample(cls)[1])
        for other in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(other) is cls
            assert other == record and repr(other) == repr(record)


def test_replace_runs_the_post_init_checks():
    with pytest.raises(EvaluationError, match=r"^scale requires min < max, got \[2.0, 1\]$"):
        dataclasses.replace(Scale(0, 1), min=2.0)
