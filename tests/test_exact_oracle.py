"""The operators against exact rational arithmetic, with an ulp budget each.

Each operator is recomputed with ``fractions.Fraction`` from the same float
inputs, so the reference carries no rounding at all.  The error of a
float result is counted in ulps of the correctly rounded exact value.

Budgets, as functions of the vector length N (G: the largest group; L: the
largest ``|ln v|`` over the nonzero inputs, at least 1), with the worst
errors measured on these draws and on five more seeds of each:

* wem: 0 ulps (a minimum is exact).
* wlam: 2 ulps unweighted, 4 weighted (worst 1.2 and 2.8).
* nam: 3·N·L ulps (worst 1.9·N·L, N=10 near 1e-300).  The log-domain
  path's error grows with the logarithms it adds, so the budget scales
  with them as well as with N.
* hybrid: 4 + 3·G·L ulps, a group's nam plus the weighted mean across
  the groups (worst 4 + 1.8·G·L).
"""

import math
import random
from fractions import Fraction

import pytest

from aggeval.core import (
    EvaluationVector,
    Group,
    GroupedSystem,
    PriorityVector,
    Scale,
    hybrid_grouped,
    nam,
    wem,
    wlam,
)

WIDE = Scale(0.0, 1e308)
SIZES = (2, 3, 5, 10, 29, 30, 31, 100, 200)


def exact_wlam(values, weights):
    return sum(Fraction(w) * Fraction(v) for w, v in zip(weights, values)) / sum(
        Fraction(w) for w in weights
    )


def exact_nam(values):
    product = Fraction(1)
    for v in values:
        product *= Fraction(v)
    mean = sum(Fraction(v) for v in values) / len(values)
    return product / mean ** (len(values) - 1) if product else Fraction(0)


def exact_hybrid(values, groups):
    parts = [(Fraction(p), exact_nam([values[k] for k in members])) for members, p in groups]
    return sum(p * v for p, v in parts) / sum(p for p, _ in parts)


def ulps(got, exact):
    """|got - exact| in ulps of the float nearest to ``exact``."""
    if exact == 0:
        return 0.0 if got == 0 else math.inf
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


def log_scale(values):
    return max([1.0] + [abs(math.log(v)) for v in values if v > 0])


def draw(rng, n, family):
    if family == "weak":  # one weak element among healthy ones
        weak = rng.randrange(n)
        return [rng.uniform(0, 20) if k == weak else rng.uniform(40, 100) for k in range(n)]
    if family == "uniform":
        return [rng.uniform(0, 100) for _ in range(n)]
    if family == "tiny":
        return [rng.uniform(1, 3) * 1e-300 for _ in range(n)]
    if family == "huge":
        return [rng.uniform(1, 3) * 1e300 for _ in range(n)]
    # subnormals among ordinary values
    return [rng.choice([5e-324, 1e-323, 2.5e-320, 1e-310, 1.0, 2.0]) for _ in range(n)]


EXTREMES = [
    [1e-300, 3e-300, 2e-300],
    [1e300, 3e300, 2e300],
    [5e-324, 1.0, 1.0],
    [5e-324, 5e-324, 1e-323],
    [1e-300, 1e300],
    [2.2250738585072014e-308, 1e-320, 0.5],
    [1e300] * 30 + [1e-300],
    [0.0, 1e300, 5e-324],
]


def check_operators(values, rng):
    n = len(values)
    evals = EvaluationVector.from_values(values, WIDE)
    scale = log_scale(values)
    assert wem(evals) == min(values)
    assert ulps(wlam(evals), exact_wlam(values, [1.0] * n)) <= 2
    weights = [rng.uniform(0.5, 2) for _ in range(n)]
    priorities = PriorityVector(tuple(zip(evals.ids, weights)))
    assert ulps(wlam(evals, priorities), exact_wlam(values, weights)) <= 4
    assert ulps(nam(evals), exact_nam(values)) <= 3 * n * scale
    order = list(range(n))
    rng.shuffle(order)
    size = max(1, n // rng.choice((1, 3, 4)))
    plan = [(order[k : k + size], rng.uniform(0.5, 2)) for k in range(0, n, size)]
    system = GroupedSystem(
        tuple(
            Group(f"g{g}", tuple(evals.ids[k] for k in members), priority)
            for g, (members, priority) in enumerate(plan)
        ),
        evals,
    )
    largest = max(len(members) for members, _ in plan)
    assert ulps(hybrid_grouped(system), exact_hybrid(values, plan)) <= 4 + 3 * largest * scale


@pytest.mark.parametrize("family", ["weak", "uniform", "tiny", "huge", "subnormal"])
@pytest.mark.parametrize("n", SIZES)
def test_seeded_draws_stay_within_the_budget(family, n):
    rng = random.Random(f"{family}:{n}")
    for _ in range(5 if n >= 100 else 12):
        check_operators(draw(rng, n, family), rng)


@pytest.mark.parametrize("values", EXTREMES, ids=range(len(EXTREMES)))
def test_extreme_inputs_stay_within_the_budget(values):
    check_operators(values, random.Random(len(values)))
