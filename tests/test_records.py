"""The frozen public records share one ``==``, ``hash`` and ``repr``
(``core._Record``), which must give what the dataclass-generated methods
give; and no dataclass of the package brings the per-class methods back."""

import dataclasses
import functools
import importlib
import pkgutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import aggeval
from aggeval import load_description
from aggeval.core import EvaluationVector, Group, GroupedSystem, Method, Scale, _Record
from aggeval.description import Element, SystemDescription, _built
from aggeval.network import MethodConfig, Network, _Tree

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


# Trees compare their preorder tuples, not their field tuples; test_tree_passes.TestTreeDunders
# pins them.
RECORDS = [cls for cls in package_dataclasses()
           if issubclass(cls, _Record) and not issubclass(cls, _Tree)]


def twin_of(cls: type) -> type:
    """A stdlib frozen dataclass with ``cls``'s fields and qualified name."""
    twin = dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)
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
    """No dataclass of the package compiles its own ``==``, ``hash`` or
    ``repr`` at import, unless it is listed with its reason."""

    def test_every_dataclass_is_frozen_on_a_shared_base(self):
        for cls in package_dataclasses():
            name = f"{cls.__module__}.{cls.__qualname__}"
            if name in KEEPS_GENERATED:
                continue
            params = cls.__dataclass_params__
            assert params.frozen, name
            assert not params.eq and not params.repr, name
            assert issubclass(cls, _Record), name
            for method in ("__eq__", "__hash__", "__repr__"):
                assert method not in vars(cls), (name, method)

    def test_the_allowlist_names_dataclasses_that_exist(self):
        names = {f"{cls.__module__}.{cls.__qualname__}" for cls in package_dataclasses()}
        assert set(KEEPS_GENERATED) <= names

    def test_import_compiles_three_methods_per_class(self):
        if not hasattr(dataclasses, "_create_fn"):
            pytest.skip("this Python builds dataclass methods without _create_fn")
        probe = "\n".join([
            "import dataclasses, sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "calls, create = [], dataclasses._create_fn",
            "dataclasses._create_fn = lambda *args, **kw: calls.append(1) or create(*args, **kw)",
            "import aggeval.cli",
            "print(len(calls))",
        ])
        done = subprocess.run([sys.executable, "-I", "-c", probe],
                              capture_output=True, text=True, check=True)
        # __init__, __setattr__ and __delattr__ for each frozen class, and
        # FlowVolumes' __init__, __repr__ and __eq__.
        assert int(done.stdout) == 3 * len(package_dataclasses())
