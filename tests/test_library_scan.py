"""The library's adequacy and bound checks on one scan of the values.

``adequacy_report``, ``check_ordering`` and ``check_hybrid_bounds`` read
one ``core._metrics`` summary of a vector: its min, max, exact sum and (on
nam's log path) logs, each taken once.  Here each is pinned against the
call-by-call composition of the public operators written out below, by
``float.hex`` and ``repr``, or by the same exception type and message; and
the unweighted report and the ordering check are counted to take each of
``min``, ``max``, ``math.fsum`` and ``EvaluationVector.values`` over the
vector once.
"""

import collections
import dataclasses
import math
import random

from hypothesis import example, given, settings, strategies as st

import aggeval.core
from aggeval.core import (
    ABS_TOL,
    PERCENT,
    REL_TOL,
    AdequacyReport,
    EvaluationVector,
    Group,
    GroupedSystem,
    HybridBoundsCheck,
    OrderingCheck,
    PriorityVector,
    Scale,
    _weighted_mean,
    adequacy_report,
    check_hybrid_bounds,
    check_ordering,
    hybrid_grouped,
    nam,
    weakest_ids,
    wem,
    wlam,
)

FLOAT_MAX = 1.7976931348623157e308
WIDEST = Scale(0.0, FLOAT_MAX)
VALUES = [
    0.0, -0.0, 5e-324, 1.0, 50.0, 100.0, 1e300, 1e308, 1.7e308, FLOAT_MAX,
    *(math.nextafter(edge, toward) for edge in (1e-6, 1e6) for toward in (0.0, math.inf)),
    1e-6, 1e6,
]
WEIGHTS = [1e-300, 0.5, 1.0, 3.0, 1e300, 1e308]
PRIORITIES = [*WEIGHTS, 1, 3, 10**300, 10**305, 2**60 + 1]


# --- The call-by-call composition the one-scan versions replace. ---


def _leq(a, b):
    return a <= b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _masking(aggregate, weakest):
    return max(0.0, 0.0 if aggregate == 0.0 else (aggregate - weakest) / aggregate)


def composed_report(evals, weights=None):
    low = wem(evals)
    linear = wlam(evals, weights)
    nonlinear = nam(evals)
    return AdequacyReport(low, linear, nonlinear, _masking(linear, low),
                          _masking(nonlinear, low), weakest_ids(evals))


def composed_ordering(evals):
    low = wem(evals)
    nonlinear = nam(evals)
    linear = wlam(evals)
    return OrderingCheck((low, nonlinear, linear), _leq(low, nonlinear) and _leq(nonlinear, linear))


def composed_hybrid(system):
    """Each group's nam over its members, then their mean under the group
    priorities as given (an int stays an int)."""
    return _weighted_mean([nam(system.evals.subset(g.members)) for g in system.groups],
                          [g.priority for g in system.groups])


def composed_bounds(system):
    low = wem(system.evals)
    mixed = composed_hybrid(system)
    expanded = PriorityVector(tuple((m, g.priority) for g in system.groups for m in g.members))
    linear = wlam(system.evals, expanded)
    return HybridBoundsCheck(low, mixed, linear, _leq(low, mixed), _leq(mixed, linear))


# --- Cases and outcomes. ---


def canonical(result):
    """Every float as its hex and repr, inside records and tuples."""
    if isinstance(result, float):
        return result.hex(), repr(result)
    if isinstance(result, tuple):
        return tuple(map(canonical, result))
    if dataclasses.is_dataclass(result):
        return type(result).__name__, canonical(dataclasses.astuple(result))
    return type(result).__name__, repr(result)


def outcome(call):
    """What ``call()`` returns, canonical and by ``repr``, or the type and
    message of what it raises."""
    try:
        result = call()
    except Exception as error:  # an error is a result too
        return "raised", type(error).__name__, str(error)
    return canonical(result), repr(result)


def library_calls(values, weights, extra, groups):
    """Pairs (one-scan call, composed call) for one case: the reports
    without weights, with weights and with mismatched weight ids, the
    ordering check, and with groups the bounds check and hybrid."""
    evals = EvaluationVector.from_values(values, WIDEST)
    ids = list(evals.ids)
    pairs = [(lambda: adequacy_report(evals), lambda: composed_report(evals)),
             (lambda: check_ordering(evals), lambda: composed_ordering(evals))]
    if weights is not None:
        given = PriorityVector(tuple(zip(ids, weights)))
        unknown = ["extra"] if extra or len(ids) == 1 else []  # in place of the first id
        shifted = PriorityVector(tuple(zip(unknown + ids[1:], weights)))
        pairs += [(lambda: adequacy_report(evals, given), lambda: composed_report(evals, given)),
                  (lambda: adequacy_report(evals, shifted),
                   lambda: composed_report(evals, shifted))]
    if groups:
        system = GroupedSystem(tuple(Group(f"g{k}", tuple(ids[p] for p in positions), priority)
                                     for k, (positions, priority) in enumerate(groups)), evals)
        pairs += [(lambda: check_hybrid_bounds(system), lambda: composed_bounds(system)),
                  (lambda: hybrid_grouped(system), lambda: composed_hybrid(system))]
    return pairs


@st.composite
def library_cases(draw):
    """1, 2, 30, 31 or 200 values from a few picks of the edge values and
    of free floats up to the float maximum, so ties are common, maybe all
    equal; maybe weights from 1e-300 to 1e308; and maybe groups over a
    permutation, with float or int priorities.  The long lists come from a
    drawn seed, so a case of 200 values fits in one example."""
    n = draw(st.sampled_from([1, 2, 3, 30, 31, 200]))
    free = st.floats(0.0, FLOAT_MAX) | st.floats(1e-7, 1e7) | st.floats(0.0, 100.0)
    pool = draw(st.lists(st.sampled_from(VALUES) | free, min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = [rng.choice(pool) for _ in range(n)]
    weights = None
    if draw(st.booleans()):
        weights = [rng.choice(WEIGHTS) if rng.random() < 0.6 else
                   math.exp(rng.uniform(math.log(1e-300), math.log(1e308))) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    bounds = [0, *sorted(rng.sample(range(1, n), min(n - 1, rng.randrange(6)))), n]
    groups = [(order[a:b], rng.choice(PRIORITIES)) for a, b in zip(bounds, bounds[1:])]
    return values, weights, draw(st.integers(0, 1)), groups if draw(st.booleans()) else []


PINNED = ((0.0, 1.7e308, 1.7e308), (1, 1e-300, 1e-300), 0, [([0], 1), ([1, 2], 10**300)])


class TestOneScanMatchesTheComposition:
    @settings(deadline=None, max_examples=300)
    @given(library_cases())
    @example(PINNED)
    @example(((0.0, -0.0, 0.0), (1e308, 1e308, 1.0), 1, [([2, 0], 2**60 + 1), ([1], 3)]))
    @example(((1e6, math.nextafter(1e6, math.inf)) * 15, None, 0, [(list(range(30)), 1.0)]))
    @example(((math.nextafter(1e-6, 0.0),) + (1e-6,) * 30, [1e-300] * 31, 1,
              [(list(range(0, 31, 2)), 10**300), (list(range(1, 31, 2)), 2**60 + 1)]))
    @example(((FLOAT_MAX, FLOAT_MAX), (1e308, 1e308), 0, [([0, 1], 1e308)]))
    @example(((50.0,) * 200, None, 0, [(list(range(200)), 2)]))
    # Weighted means in their scaled fallback, where an int priority divided
    # as an int rounds unlike its float: both sides keep the ints as given.
    @example(((1e9, 1.7e308), None, 0, [([0], 10**305), ([1], 2**60 + 1)]))
    def test_library_checks_match_the_call_by_call_composition(self, case):
        for one_scan, composed in library_calls(*case):
            assert outcome(one_scan) == outcome(composed)

    def test_a_zero_under_weights_gives_nam_zero_not_an_overflow(self):
        evals = EvaluationVector.from_values(PINNED[0], WIDEST)
        weights = PriorityVector(tuple(zip(evals.ids, PINNED[1])))
        report = adequacy_report(evals, weights)
        assert (report.wlam, report.nam, report.weakest) == (340000000.0, 0.0, ("s1",))
        overflow = ("raised", "OverflowError", "intermediate overflow in fsum")
        assert outcome(lambda: adequacy_report(evals)) == overflow
        assert outcome(lambda: composed_report(evals)) == overflow


# --- Each check reads the value vector once. ---


def vector_scans(monkeypatch, call, evals):
    """How often ``call(evals)`` takes ``min``, ``max`` and ``math.fsum``
    over the value vector itself, and reads ``EvaluationVector.values``."""
    vector = list(evals.values)
    counts = collections.Counter()

    def counted(name, original):
        def wrapper(*args, **named):
            if len(args) == 1 and isinstance(args[0], (list, tuple)) and list(args[0]) == vector:
                counts[name] += 1
            return original(*args, **named)
        return wrapper

    def values(self, _original=EvaluationVector.values.fget):
        counts["values"] += 1
        return _original(self)

    monkeypatch.setattr(aggeval.core, "min", counted("min", min), raising=False)
    monkeypatch.setattr(aggeval.core, "max", counted("max", max), raising=False)
    monkeypatch.setattr(math, "fsum", counted("fsum", math.fsum))
    monkeypatch.setattr(EvaluationVector, "values", property(values))
    call(evals)
    monkeypatch.undo()
    return dict(counts)


class TestOneScan:
    def test_report_and_ordering_take_each_scan_once(self, monkeypatch):
        evals = EvaluationVector.from_values([10 + k / 25 for k in range(2000)], PERCENT)
        once = {"min": 1, "max": 1, "fsum": 1, "values": 1}
        assert vector_scans(monkeypatch, adequacy_report, evals) == once
        assert vector_scans(monkeypatch, check_ordering, evals) == once
