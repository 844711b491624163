"""Per-subsystem shortcuts against the general forms they skip.

A tree pass pays a fixed cost at every subsystem, so the hot paths take
shortcuts: a method object whose only key is ``"method"`` resolves from a
table of shared configs, ``_check_method`` returns at once when a config
has nothing to check, ``_weakest`` finds a unique minimum with C-level
list scans, and ``_table`` formats each row through one template.  Each
is pinned here against a test-local copy of the general form, and the
CLI against literal output on ids that hold format syntax.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from aggeval import Group, Method, MethodConfig, parse_description
from aggeval.cli import _one_line, _table, main
from aggeval.description import DescriptionError, _Collector, _parse_method
from aggeval.hierarchy import _sub, _weakest
from aggeval.network import _check_method

METHOD_NAMES = [m.value for m in Method]


# --- _weakest -------------------------------------------------------------


def loop_weakest(sub, lows, rows, positions=None):
    """The Python loop ``_weakest`` ran for every minimum."""
    if positions is None:
        positions = range(len(lows))
    else:
        lows = [lows[k] for k in positions]
    low = min(lows)
    below, weakest = sub.below, []
    for k, value in zip(positions, lows):
        if value == low:
            weakest += rows[below[k]][2] if k in below else (sub.ids[k],)
    return low, tuple(weakest)


# Few distinct values, so ties are common; the signed zeros compare equal.
LOWS = st.sampled_from([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 7.5, 100.0])


@st.composite
def weakest_cases(draw):
    n = draw(st.integers(1, 12))
    lows = draw(st.lists(LOWS, min_size=n, max_size=n))
    subsystem_slots = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    # One row per subsystem child, each with its own weakest leaves.
    rows = [
        (0.0, 0.0, tuple(draw(st.lists(st.sampled_from(["p", "q", "r", "s"]),
                                       min_size=1, max_size=3))))
        for _ in subsystem_slots
    ]
    below = {k: j for j, k in enumerate(subsystem_slots)}
    ids = [f"c{k}" for k in range(n)]
    sub = _sub("node", ids, [50.0] * n, below, [None] * n, None)
    positions = draw(st.one_of(
        st.none(),
        # A group row passes its member positions sorted; any order is allowed.
        st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n).map(sorted),
        st.permutations(range(n)).flatmap(lambda p: st.integers(1, n).map(lambda m: p[:m])),
    ))
    return sub, lows, rows, positions


class TestWeakestUniqueMinimum:
    @settings(max_examples=400, deadline=None)
    @given(weakest_cases())
    def test_equals_the_loop(self, case):
        sub, lows, rows, positions = case
        low, ids = _weakest(sub, lows, rows, positions)
        expected_low, expected_ids = loop_weakest(sub, lows, rows, positions)
        assert (repr(low), ids) == (repr(expected_low), expected_ids)
        assert type(ids) is tuple

    @pytest.mark.parametrize("lows,expected", [
        ([3.0, 1.0, 2.0], ("c1",)),         # unique, a leaf
        ([3.0, 2.0, 1.0], ("p", "q")),      # unique, a subsystem child
        ([1.0, 2.0, 1.0], ("c0", "p", "q")),
        ([0.0, -0.0, 5.0], ("c0", "c1")),   # signed zeros tie
    ])
    def test_pinned_cases(self, lows, expected):
        sub = _sub("node", ["c0", "c1", "c2"], [50.0] * 3, {2: 0}, [None] * 3, None)
        rows = [(0.0, 0.0, ("p", "q"))]
        assert _weakest(sub, lows, rows)[1] == expected


# --- _table ---------------------------------------------------------------


def ljust_table(rows):
    """The ``ljust`` join ``_table`` ran for every row."""
    columns = [_one_line(list(column)) for column in zip(*rows)]
    widths = [max(map(len, column)) for column in columns]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in zip(*columns)]


CELLS = st.one_of(
    st.sampled_from(["", "{", "}", "{0}", "{}", "{:>9}", "%s", "%(x)s", "é", "日本",
                     "a\r\nb", "\n", "x\r", " ", "trail  ", "-"]),
    st.text(max_size=8),
)


class TestTableTemplate:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 6).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=6)))
    @example([["{0}", "%s", ""], ["", "{", "é}"], ["a\nb", "}", "x\r"]])
    def test_equals_the_ljust_join(self, rows):
        assert _table(rows) == ljust_table(rows)


BRACES_DOC = {
    "scale": {"min": 0, "max": 100},
    "elements": [
        {"id": "{0}", "evaluation": 40},
        {"id": "x}", "evaluation": 80},
        {"id": "%s{", "evaluation": 60},
        {"id": 'é,"q"', "evaluation": 60},
    ],
    "hierarchy": {"id": "{root}", "children": [
        {"id": "{süb}", "method": {"method": "wem"}, "children": ["{0}", 'é,"q"']},
        "%s{",
        "x}",
    ]},
}


class TestIdsHoldingFormatSyntax:
    """Ids are cells and lines, never templates; ``{süb}`` is aligned by
    code points."""

    def run(self, capsys, tmp_path, *argv):
        path = tmp_path / "braces.json"
        path.write_text(json.dumps(BRACES_DOC), encoding="utf-8")
        code = main([*argv, "--input", str(path)])
        return code, capsys.readouterr().out

    def test_compare(self, capsys, tmp_path):
        code, out = self.run(capsys, tmp_path, "compare", "--threshold", "0.1")
        assert code == 3
        assert out == (
            "node    wem  wlam  nam      hybrid  sigma_12  sigma_13  warnings\n"
            "{root}  40   60    53.3333  -       0.333333  0.25      "
            "hidden weak element: {0} (sigma_12 0.333333 > threshold 0.1)\n"
            "{süb}   40   50    48       -       0.2       0.166667  "
            "hidden weak element: {0} (sigma_12 0.2 > threshold 0.1)\n"
        )

    def test_evaluate_text(self, capsys, tmp_path):
        code, out = self.run(capsys, tmp_path, "evaluate")
        assert code == 0
        assert out == (
            "{root} [wlam] = 60 (adequacy 0.333333; weakest {0})\n"
            "  {süb} [wem] = 40 (adequacy 0; weakest {0})\n"
            "    {0} = 40\n"
            '    é,"q" = 60\n'
            "  %s{ = 60\n"
            "  x} = 80\n"
        )

    def test_evaluate_csv(self, capsys, tmp_path):
        code, out = self.run(capsys, tmp_path, "evaluate", "--format", "csv")
        assert code == 0
        assert out == (
            "node,method,value,adequacy,weakest\n"
            "{root},wlam,60.000000,0.333333,{0}\n"
            "{süb},wem,40.000000,0.000000,{0}\n"
            "{0},leaf,40.000000,0.000000,{0}\n"
            '"é,""q""",leaf,60.000000,0.000000,"é,""q"""\n'
            "%s{,leaf,60.000000,0.000000,%s{\n"
            "x},leaf,80.000000,0.000000,x}\n"
        )


# --- plain method objects ---------------------------------------------------


class GeneralDict(dict):
    """A dict that is not exactly ``dict``, so ``_parse_method`` reads it
    through the general path."""


class TestPlainMethodObjects:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_table_config_equals_the_general_path(self, name):
        diag = _Collector()
        plain = _parse_method({"method": name}, "m", diag)
        general = _parse_method(GeneralDict(method=name), "m", diag)
        assert diag.diagnostics == []
        assert plain == general == MethodConfig(Method(name))
        assert hash(plain) == hash(general)
        assert [(f.name, type(getattr(plain, f.name))) for f in dataclasses.fields(plain)] == [
            (f.name, type(getattr(general, f.name))) for f in dataclasses.fields(general)]
        assert plain is _parse_method({"method": name}, "m", _Collector())
        with pytest.raises(dataclasses.FrozenInstanceError):
            plain.groups = (Group("g", ("a",)),)

    @pytest.mark.parametrize("raw,config", [
        ({"method": "wem", "threshold": 0.3}, MethodConfig(Method.WEM, adequacy_threshold=0.3)),
        ({"method": "wem-then", "critical": ["a"]},
         MethodConfig(Method.WEM_THEN, critical_ids=("a",))),
        ({"method": "hybrid", "groups": [{"id": "g", "members": ["a"]}]},
         MethodConfig(Method.HYBRID_GROUPED, groups=(Group("g", ("a",)),))),
    ])
    def test_objects_with_more_keys_take_the_general_path(self, raw, config):
        diag = _Collector()
        assert _parse_method(raw, "p", diag) == config
        assert diag.diagnostics == []

    @pytest.mark.parametrize("raw,diagnostic", [
        ({"groups": []}, "p: missing required key 'method'"),
        ({"threshold": 0.5}, "p: missing required key 'method'"),
        ({"method": 3}, "p.method: expected a string, got 3"),
        ({"method": None}, "p.method: expected a string, got None"),
        ({"method": ["wlam"]}, "p.method: expected a string, got ['wlam']"),
        ({"method": "bogus"},
         "p.method: unknown method 'bogus'; one of: wem, wlam, nam, hybrid, wem-then"),
        ({"method": "WLAM"},
         "p.method: unknown method 'WLAM'; one of: wem, wlam, nam, hybrid, wem-then"),
    ])
    def test_one_key_objects_that_are_not_plain_keep_their_diagnostics(self, raw, diagnostic):
        diag = _Collector()
        assert _parse_method(raw, "p", diag) is None
        assert diag.diagnostics == [diagnostic]

    @pytest.mark.parametrize("method", [{"groups": []}, {"method": 3}, {"method": "bogus"}])
    def test_in_a_document(self, method):
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": "a", "evaluation": 10}, {"id": "b", "evaluation": 20}],
            "hierarchy": {"id": "r", "method": method, "children": ["a", "b"]},
        }
        with pytest.raises(DescriptionError) as caught:
            parse_description(json.dumps(doc))
        general = _Collector()
        _parse_method(GeneralDict(method), "hierarchy.method", general)
        assert list(caught.value.diagnostics) == general.diagnostics

    @pytest.mark.parametrize("name,violation", [
        ("wem", None), ("wlam", None), ("nam", None),
        ("hybrid", "hybrid method requires a grouping"),
        ("wem-then", "wem-then requires a critical set"),
    ])
    def test_in_a_document_a_plain_object_is_still_checked(self, name, violation):
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": "a", "evaluation": 10}, {"id": "b", "evaluation": 20}],
            "hierarchy": {"id": "r", "method": {"method": name}, "children": ["a", "b"]},
        }
        if violation is None:
            assert parse_description(json.dumps(doc)).hierarchy.config == MethodConfig(Method(name))
        else:
            with pytest.raises(DescriptionError) as caught:
                parse_description(json.dumps(doc))
            assert caught.value.diagnostics == (f"hierarchy: subsystem 'r': {violation}",)


# --- _check_method ----------------------------------------------------------


def general_check_method(node_id, config, child_ids, priorities, out):
    """``_check_method`` as it read before its early return and its
    label-once prefix."""
    label = f"subsystem {node_id!r}"
    if config.groups and config.method is not Method.HYBRID_GROUPED:
        out.append(f"{label}: grouping is only meaningful for the hybrid method")
    if config.critical_ids and config.method is not Method.WEM_THEN:
        out.append(f"{label}: critical set is only meaningful for wem-then")
    if config.fallback is not None:
        if config.method is not Method.WEM_THEN:
            out.append(f"{label}: fallback is only meaningful for wem-then")
        elif config.fallback not in (Method.WLAM, Method.NAM):
            out.append(f"{label}: fallback must be wlam or nam, got {config.fallback.value!r}")
    if config.adequacy_threshold is not None and not (0 <= config.adequacy_threshold <= 1):
        out.append(f"{label}: adequacy threshold must lie in [0, 1], "
                   f"got {config.adequacy_threshold!r}")
    if config.method is Method.HYBRID_GROUPED:
        if not config.groups:
            out.append(f"{label}: hybrid method requires a grouping")
        else:
            known = set(child_ids)
            assigned, group_ids = set(), set()
            for group in config.groups:
                if group.id in group_ids:
                    out.append(f"{label}: duplicate group id {group.id!r}")
                group_ids.add(group.id)
                if not group.members:
                    out.append(f"{label}: group {group.id!r} has no members")
                if not (math.isfinite(group.priority) and group.priority > 0):
                    out.append(f"{label}: group {group.id!r} priority must be positive, "
                               f"got {group.priority!r}")
                for member in group.members:
                    if member not in known:
                        out.append(f"{label}: group {group.id!r} references unknown child "
                                   f"{member!r}")
                    elif member in assigned:
                        out.append(f"{label}: child {member!r} grouped more than once")
                    assigned.add(member)
            uncovered = sorted(known - assigned)
            if uncovered:
                out.append(f"{label}: children not covered by any group: "
                           + ", ".join(uncovered))
    if config.method is Method.WEM_THEN:
        if not config.critical_ids:
            out.append(f"{label}: wem-then requires a critical set")
        else:
            for i in [i for i in config.critical_ids if i not in child_ids]:
                out.append(f"{label}: critical id {i!r} is not a child")
    if config.method is Method.NAM:
        weighted = [i for i, p in zip(child_ids, priorities) if p is not None]
        if weighted:
            out.append(f"{label}: nam cannot use child priorities (set on {', '.join(weighted)})")


CHILD_POOL = ["a", "b", "c", "d"]
MEMBERS = st.lists(st.sampled_from(CHILD_POOL + ["zz"]), max_size=3).map(tuple)
GROUPS = st.lists(st.builds(
    Group, st.sampled_from(["g1", "g2"]), MEMBERS,
    st.sampled_from([1.0, 0.5, 0.0, -1.0, math.inf, math.nan])), max_size=3).map(tuple)


@st.composite
def check_cases(draw):
    method = draw(st.sampled_from(list(Method)))
    # Most draws carry nothing besides the method, as most subsystems do.
    plain = draw(st.booleans())
    config = MethodConfig(
        method,
        groups=() if plain else draw(GROUPS),
        critical_ids=() if plain else draw(st.lists(st.sampled_from(CHILD_POOL + ["zz"]),
                                                    max_size=3)),
        fallback=None if plain else draw(st.sampled_from([None, *Method])),
        adequacy_threshold=None if plain else draw(
            st.sampled_from([None, 0.0, 0.3, 1.0, 1.5, -0.1, math.nan])),
    )
    child_ids = draw(st.lists(st.sampled_from(CHILD_POOL), min_size=1, max_size=4, unique=True))
    priorities = draw(st.lists(st.sampled_from([None, None, 1.0, 2.5]),
                               min_size=len(child_ids), max_size=len(child_ids)))
    node_id = draw(st.sampled_from(["s", "{s}", "s'q", "é"]))
    return node_id, config, child_ids, priorities


class TestCheckMethodShortcut:
    @settings(max_examples=600, deadline=None)
    @given(check_cases())
    @example(("s", MethodConfig(Method.WLAM), ["a", "b"], [None, None]))
    @example(("s", MethodConfig(Method.WEM), ["a", "b"], [2.0, None]))
    @example(("s", MethodConfig(Method.NAM), ["a", "b"], [None, None]))
    @example(("s", MethodConfig(Method.NAM), ["a", "b"], [None, 2.0]))
    @example(("s", MethodConfig(Method.HYBRID_GROUPED), ["a", "b"], [None, None]))
    @example(("s", MethodConfig(Method.WEM_THEN), ["a", "b"], [None, None]))
    @example(("s", MethodConfig(Method.WEM_THEN, fallback=Method.WEM), ["a"], [None]))
    def test_same_violations_as_the_general_form(self, case):
        node_id, config, child_ids, priorities = case
        out, expected = ["earlier"], ["earlier"]
        _check_method(node_id, config, child_ids, priorities, out)
        general_check_method(node_id, config, child_ids, priorities, expected)
        assert out == expected
