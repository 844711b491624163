"""One summary per value vector, against one kernel per metric.

``compare`` and the flat summary take a subsystem's min, max, exact sum
and (on nam's log path) logs once, and every metric reads them: wem,
wlam, nam, hybrid and each group row, whose nam gathers its logs from
the subsystem's.  Here each is pinned, by ``float.hex`` or by the same
``OverflowError``, against ``min``, ``_wlam``, ``_nam`` and ``_hybrid``
run separately.  A CLI command pauses the cyclic collector for its whole
run, so it is also checked to leave no cyclic garbage.
"""

import collections
import contextlib
import gc
import importlib.util
import io
import json
import math
import random
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from aggeval import Group, Method, MethodConfig, Scale, cli
from aggeval.core import (
    _LOG_DOMAIN_TINY, _LOG_DOMAIN_VALUE, EvaluationError, _hybrid, _nam, _wlam,
)
from aggeval.hierarchy import _compare, _comparison, _metrics, _sub, _summary, _weakest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WIDEST = Scale(0.0, 1.7976931348623157e308)
EDGES = [
    0.0, 5e-324, 1.0, 50.0, 100.0, 1e300, 1e308, 1.7e308,
    *(math.nextafter(edge, toward) for edge in (_LOG_DOMAIN_TINY, _LOG_DOMAIN_VALUE)
      for toward in (0.0, math.inf)),
    _LOG_DOMAIN_TINY, _LOG_DOMAIN_VALUE,
]
WEIGHTS = [0.5, 1.0, 3.0, 1e-300, 1e300, 1e308]


def outcome(call):
    """What ``call()`` returns, each float as its hex and repr, or the
    OverflowError it raises."""
    try:
        result = call()
    except OverflowError as error:
        return "OverflowError", str(error)
    return [None if value is None else (value.hex(), repr(value)) for value in result]


def _number(rng, pool, low, top):
    """One of ``pool``, or a uniform or log-uniform draw from [low, top]."""
    pick = rng.randrange(3)
    if pick == 0:
        return rng.choice(pool)
    if pick == 1:
        return rng.uniform(low, top)
    return min(top, max(low, math.exp(rng.uniform(math.log(low), math.log(top)))))


@st.composite
def summary_cases(draw):
    """A vector of 1, 2, 30, 31 or 200 positive values in one range, maybe
    all equal or with one or two zeros side by side, maybe with child
    weights up to 1e308, and a plan of groups of uneven sizes over a
    permutation of it.  The long lists come from a drawn seed, so that a
    case of 200 values fits in one example."""
    n = draw(st.sampled_from([1, 2, 30, 31, 200]))
    low = draw(st.sampled_from([5e-324, _LOG_DOMAIN_TINY, 1.0]))
    top = draw(st.sampled_from([100.0, 1e6, 1e300, 1.7976931348623157e308]))
    rng = draw(st.randoms(use_true_random=True))
    pool = [v for v in EDGES if low <= v <= top]
    shape = draw(st.sampled_from(["free", "zeros", "free", "equal"]))
    if shape == "equal":
        values = [_number(rng, pool, low, top)] * n
    else:
        values = [_number(rng, pool, low, top) for _ in range(n)]
    if shape == "zeros":
        zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=min(n, 2)))
        slot = draw(st.integers(0, n - len(zeros)))
        values[slot:slot + len(zeros)] = zeros
    weights = None
    if rng.random() < 0.5:
        weights = [_number(rng, WEIGHTS, 1e-300, 1e308) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    bounds = [0, *sorted(rng.sample(range(1, n), min(n - 1, rng.randrange(9)))), n]
    plan = [(order[a:b], _number(rng, WEIGHTS, 1e-300, 1e308)) for a, b in zip(bounds, bounds[1:])]
    return values, weights, plan if rng.random() < 0.75 else []


def separate(values, weights, plan):
    """``_metrics`` as one kernel per metric."""
    return (min(values), _wlam(values, weights),
            None if weights is not None else _nam(values),
            _hybrid(values, plan) if plan else None)


def flat_sub(values, weights, plan):
    ids = [f"c{k}" for k in range(len(values))]
    config = MethodConfig(Method.HYBRID_GROUPED, groups=tuple(
        Group(f"g{k}", tuple(ids[p] for p in positions), priority)
        for k, (positions, priority) in enumerate(plan))) if plan else None
    priorities = [None] * len(values) if weights is None else list(weights)
    return _sub("system", ids, list(values), {}, priorities, config)


def separate_rows(values, weights, plan, threshold):
    """``_compare``'s rows for a flat subsystem, one kernel per metric."""
    sub = flat_sub(values, weights, plan)
    rows = [_comparison(sub.id, *separate(values, sub.weights, sub.plan),
                        _weakest(sub, sub.values, [])[1], threshold, WIDEST)]
    for group_id, (positions, _) in zip(sub.group_ids, sub.plan):
        group = [values[k] for k in positions]
        rows.append(_comparison(
            f"{sub.id}/{group_id}", min(group), _wlam(group, None), _nam(group), None,
            _weakest(sub, sub.values, [], sorted(positions))[1], threshold, WIDEST))
    return rows


def row_outcome(call):
    try:
        return repr(call())
    except OverflowError as error:
        return "OverflowError", str(error)


class TestSharedSummary:
    @settings(deadline=None, max_examples=400)
    @given(summary_cases())
    def test_metrics_equal_one_kernel_per_metric(self, case):
        values, weights, plan = case
        assert outcome(lambda: _metrics(values, weights, plan)) \
            == outcome(lambda: separate(values, weights, plan))

    @settings(deadline=None, max_examples=400)
    @given(summary_cases())
    def test_group_rows_equal_one_kernel_per_metric(self, case):
        values, weights, plan = case
        try:
            logs = _summary(values, weights)[3]
        except OverflowError:
            logs = None
        for positions, _ in plan:
            # As compare takes a group row: the group's logs gathered lazily.
            group = [values[k] for k in positions]
            gathered = logs and map(logs.__getitem__, positions)
            assert outcome(lambda: _metrics(group, None, [], None, _summary(group, None, gathered))) \
                == outcome(lambda: (min(group), _wlam(group, None), _nam(group), None))

    @settings(deadline=None, max_examples=200)
    @given(summary_cases(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_compare_rows_equal_one_kernel_per_metric(self, case, threshold):
        values, weights, plan = case
        assert row_outcome(lambda: _compare([flat_sub(values, weights, plan)], WIDEST, threshold)) \
            == row_outcome(lambda: separate_rows(values, weights, plan, threshold))

    def test_equal_huge_values_take_no_sum(self):
        assert _metrics([1e308, 1e308], None, [([0, 1], 1.0)]) == (1e308,) * 4
        assert _summary([1e308, 1e308], None) == (1e308, 1e308, None, None)

    def test_a_tied_group_minimum_lists_its_leaves_in_child_order(self):
        values = [5.0, 1.0, 7.0, 1.0]
        rows = _compare([flat_sub(values, None, [([3, 2, 1], 1.0), ([0], 1.0)])], WIDEST, 1.0)
        assert [row.weakest_ids for row in rows] == [("c1", "c3"), ("c1", "c3"), ("c0",)]


def test_a_flat_compare_takes_each_log_once(monkeypatch, tmp_path):
    rng = random.Random(26)
    ids = [f"e{k:03d}" for k in range(200)]
    doc = {
        "scale": {"min": 0, "max": 100},
        "elements": [{"id": i, "evaluation": rng.uniform(1, 100)} for i in ids],
        "groups": [{"id": f"g{k}", "members": ids[k::4]} for k in range(4)],
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    log = math.log

    def counting_log(x, *base):
        calls.append(x)
        return log(x, *base)

    monkeypatch.setattr(math, "log", counting_log)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["compare", "--input", str(path), "--threshold", "1"]) == 0
    counts = collections.Counter(calls)
    # The root and each group of 50 take the log path; one more log each
    # is of their mean.
    assert [counts[e["evaluation"]] for e in doc["elements"]] == [1] * 200
    assert len(calls) == 200 + 1 + 4


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_commands_leave_no_cyclic_garbage(tmp_path):
    """Every command of the seed-1 workload mixes, a validation error and a
    missing input, each followed by a collection that finds nothing."""
    workloads = _workloads()
    cases = []
    for name in workloads.WORKLOADS:
        prepared = workloads.materialize(name, 1, str(tmp_path / name))
        cases += [(list(command.argv), {0, 3}) for command in prepared.commands]
    bad = tmp_path / "bad.json"
    bad.write_text('{"scale": {"min": 0, "max": 100}, "elements": []}', encoding="utf-8")
    cases += [(["compare", "--input", str(bad)], {2}),
              (["evaluate", "--input", str(tmp_path / "missing.json")], {1})]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv, codes in cases:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                result = cli.main(argv)
            assert (result in codes, gc.collect()) == (True, 0), argv
    finally:
        if enabled:
            gc.enable()


def test_a_command_runs_with_the_collector_paused(monkeypatch, fixture_path):
    seen = []
    monkeypatch.setattr(cli, "_cmd_evaluate", lambda args: seen.append(gc.isenabled()) or 0)
    assert gc.isenabled()
    assert cli.main(["evaluate", "--input", fixture_path("weak_element.json")]) == 0
    assert (seen, gc.isenabled()) == ([False], True)

    def failing(args):
        raise EvaluationError("bad")

    monkeypatch.setattr(cli, "_cmd_evaluate", failing)
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["evaluate", "--input", "x"]) == 2
    assert gc.isenabled()
