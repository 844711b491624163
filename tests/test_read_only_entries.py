"""No pass writes a compiled entry.

The parse stores a hierarchy section as compiled entries and the elements as
columns, and every command reads them in place: ``_lowered``, through
``_entries`` or ``_compile_flat``, hands them out uncopied, a roll-up takes
a subsystem child's value from its row, and only a sweep's path entries get
value lists of their own.  Here every fixture and every seed-1 workload
document is compiled into entries whose value lists refuse writes; each pass
must run on them and give, bit for bit, what it gives on a plain load.
"""

from pathlib import Path

import pytest

from aggeval import Method, cli
from aggeval.core import EvaluationError
from aggeval.description import (DescriptionError, _Columns, _Compiled, _compile_flat,
                                 _element_columns, _lowered, load_description)
from aggeval.hierarchy import _aggregate, _compare, _entries, _roll, _sweep
from test_reference_oracle import workloads

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class Refusing(list):
    """A value list that raises on every write."""

    def _refuse(self, *args):
        raise AssertionError("a pass wrote into a compiled entry")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


def documents(tmp_path_factory):
    """Every fixture that loads, then the seed-1 workload documents."""
    paths = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            load_description(str(path))
        except DescriptionError:
            continue
        paths.append(str(path))
    workdir = tmp_path_factory.mktemp("workloads")
    paths += [workloads.materialize(name, 1, str(workdir / name)).path
              for name in workloads.WORKLOADS]
    return paths


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    found = documents(tmp_path_factory)
    assert len(found) >= 12
    return found


def refusing(desc):
    """``desc`` with its stored element columns and compiled entries holding
    write-refusing value lists; returns it."""
    columns = _element_columns(desc)
    vars(desc)["elements"] = _Columns(columns.ids, Refusing(columns.evaluations),
                                      *columns[2:])
    stored = vars(desc)["hierarchy"]
    if stored is not None:
        vars(desc)["hierarchy"] = _Compiled(
            sub._replace(values=Refusing(sub.values)) for sub in stored)
    return desc


def leaves(subs):
    """The first, middle and last leaf id of a compiled list."""
    ids = [i for sub in subs for k, i in enumerate(sub.ids) if k not in sub.below]
    return sorted({ids[0], ids[len(ids) // 2], ids[-1]}) if ids else []


def passes(desc, capsys):
    """The output of every pass on ``desc``'s stored entries, as reprs."""
    scale, stored = desc.scale, vars(desc)["hierarchy"]
    lowered = _compile_flat(desc) if stored is None else stored
    subs = lowered[:-1]
    out = [_aggregate(lowered, scale)]
    if stored is not None:
        out += [cli._tree_lines(_lowered(desc), scale, False),
                cli._tree_lines(_lowered(desc), scale, True)]
    if subs:
        out += [_roll(subs, scale), _compare(subs, scale, 0.5)]
    for vary in leaves(subs):
        path = cli._sweep_path(subs, vary)
        out.append(_sweep(subs, scale, path, scale.min, scale.max, 5))
    for method in (None, *Method):
        for fmt in ("text", "csv", "json"):
            try:
                cli._evaluate_flat(desc, method, fmt)
            except EvaluationError as error:
                print(error)
            out.append(capsys.readouterr())
    return repr(out)


def test_no_pass_writes_an_entry(paths, capsys):
    for path in paths:
        plain = passes(load_description(path), capsys)
        desc = refusing(load_description(path))
        assert passes(desc, capsys) == plain, path
        # Still the refusing lists, with the values a fresh load holds.
        fresh = load_description(path)
        assert type(_element_columns(desc).evaluations) is Refusing
        assert [*_element_columns(desc).evaluations] == _element_columns(fresh).evaluations
        stored = vars(desc)["hierarchy"]
        if stored is not None:
            assert all(type(sub.values) is Refusing for sub in stored)
            assert [sub.values for sub in stored] == [
                sub.values for sub in vars(fresh)["hierarchy"]]


def test_the_refusing_list_refuses():
    values = Refusing([1.0, 2.0])
    for write in (lambda: values.__setitem__(0, 3.0), lambda: values.append(3.0),
                  lambda: values.sort(), lambda: values.__iadd__([3.0])):
        with pytest.raises(AssertionError):
            write()
    # A slice is a plain list, which a pass may fill.
    assert values == [1.0, 2.0] and type(values[:]) is list


def test_entries_and_flat_compile_hand_out_the_stored_lists(paths):
    for path in paths:
        desc = load_description(path)
        scale, stored = desc.scale, vars(desc)["hierarchy"]
        assert _compile_flat(desc)[0].values is _element_columns(desc).evaluations, path
        if stored is None:
            *subs, top = _lowered(desc)
            assert subs[0].values is _element_columns(desc).evaluations, path
            assert (top.ids[0], top.values[0]) == (subs[0].id, 0.0), path
            continue
        assert _lowered(desc) is stored, path
        *subs, top = _entries(stored, scale)
        assert len(subs) == len(stored) - 1, path
        for k, sub in enumerate(subs):
            assert sub is stored[k], (path, k)
        assert top is stored[-1], path
