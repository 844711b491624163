"""Property-based checks of the operator guarantees."""

import math
from fractions import Fraction

from hypothesis import example, given, strategies as st

from aggeval.core import (
    EvaluationVector,
    Group,
    GroupedSystem,
    PriorityVector,
    Scale,
    _LOG_DOMAIN_SIZE,
    _LOG_DOMAIN_TINY,
    _LOG_DOMAIN_VALUE,
    _nam,
    _weighted_mean,
    adequacy_wem_nam,
    adequacy_wem_wlam,
    check_hybrid_bounds,
    check_ordering,
    check_product_bound,
    hybrid_grouped,
    nam,
    wem,
    wlam,
)

evaluations = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    min_size=1,
    max_size=12,
)
positive_values = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=12,
)
scaling = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False)


def leq(a: float, b: float) -> bool:
    return a <= b or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@given(evaluations)
def test_mean_bound_holds_for_any_vector(values):
    # The AM-GM side of the ordering chain is unconditional.
    low, nonlinear, linear = check_ordering(EvaluationVector.from_values(values)).chain
    assert leq(nonlinear, linear)
    assert leq(low, linear)


@given(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.integers(1, 11),
)
def test_full_chain_holds_with_one_weak_element(a, b, extra):
    # The wem <= nam side needs the non-minimal values to stay together;
    # one weak element among equals is the regime that guarantees it.
    weak, rest = min(a, b), max(a, b)
    v = EvaluationVector.from_values([weak] + [rest] * extra)
    assert check_ordering(v).holds


@given(evaluations)
def test_wem_and_wlam_stay_within_input_range(values):
    v = EvaluationVector.from_values(values)
    low, high = min(values), max(values)
    for op in (wem, wlam):
        result = op(v)
        assert leq(low, result) and leq(result, high)


@given(evaluations)
def test_nam_stays_between_zero_and_the_mean(values):
    # nam can undercut the minimum (dispersed vectors), but never the mean.
    v = EvaluationVector.from_values(values)
    result = nam(v)
    assert leq(0.0, result) and leq(result, wlam(v))


@given(evaluations, st.data())
def test_wem_and_nam_ignore_element_order(values, data):
    shuffled = data.draw(st.permutations(values))
    a = EvaluationVector.from_values(values)
    b = EvaluationVector.from_values(shuffled)
    assert wem(a) == wem(b)
    assert nam(a) == nam(b)


@given(evaluations, st.data())
def test_wlam_ignores_joint_reordering(values, data):
    n = len(values)
    weights = data.draw(
        st.lists(
            st.floats(min_value=1e-2, max_value=1e2, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    order = data.draw(st.permutations(range(n)))
    a = wlam(
        EvaluationVector.from_values(values),
        PriorityVector(tuple((f"s{i + 1}", w) for i, w in enumerate(weights))),
    )
    b = wlam(
        EvaluationVector(tuple((f"s{i + 1}", values[i]) for i in order)),
        PriorityVector(tuple((f"s{i + 1}", weights[i]) for i in order)),
    )
    assert a == b


@given(evaluations, scaling)
def test_positive_homogeneity(values, c):
    base = EvaluationVector.from_values(values)
    scaled_values = [c * v for v in values]
    scaled = EvaluationVector.from_values(
        scaled_values, Scale(0, max(1.0, max(scaled_values)))
    )
    assert wem(scaled) == c * wem(base)
    assert math.isclose(wlam(scaled), c * wlam(base), rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(nam(scaled), c * nam(base), rel_tol=1e-9, abs_tol=1e-12)


@given(evaluations, scaling, st.data())
def test_weight_scale_invariance(values, c, data):
    n = len(values)
    raw = data.draw(
        st.lists(
            st.floats(min_value=1e-2, max_value=1e2, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    v = EvaluationVector.from_values(values)
    base = PriorityVector(tuple((f"s{i + 1}", w) for i, w in enumerate(raw)))
    rescaled = PriorityVector(tuple((f"s{i + 1}", c * w) for i, w in enumerate(raw)))
    assert math.isclose(wlam(v, rescaled), wlam(v, base), rel_tol=1e-9, abs_tol=1e-12)


@given(positive_values)
def test_product_never_beats_uniform_redistribution(values):
    assert check_product_bound(values).holds


@given(evaluations)
def test_adequacy_measures_stay_in_unit_interval(values):
    v = EvaluationVector.from_values(values)
    for sigma in (adequacy_wem_wlam(v), adequacy_wem_nam(v)):
        assert 0 <= sigma <= 1


@given(st.floats(min_value=1e-3, max_value=100, allow_nan=False), st.integers(1, 12))
def test_equal_evaluations_give_zero_adequacy(value, n):
    v = EvaluationVector.from_values([value] * n)
    assert adequacy_wem_wlam(v) == 0.0
    assert adequacy_wem_nam(v) == 0.0


@given(
    st.floats(min_value=1, max_value=100, allow_nan=False),
    st.lists(
        st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=2, max_size=8
    ),
)
# Subnormal noise: a float factor 0.9 * center / biggest overflows to inf.
@example(center=2.0, noise=[0.0, 1.1125369292536007e-308])
# Float centring rounds the shift, leaving a residual total that the
# normalisation then blows up to a full-size offset.
@example(center=2.0, noise=[0.0, 5e-324])
@example(center=2.0, noise=[1.0, 1.0000000000000002])
def test_zero_sum_noise_never_raises_nam(center, noise):
    # Redistributing a fixed total away from uniform only shrinks the
    # product, so the uniform vector is the nonlinear aggregate's peak.
    # The noise is centred exactly and applied as a ratio in [-1, 1], so the
    # perturbation sums to zero up to rounding and stays finite.
    n = len(noise)
    exact = [Fraction(x) for x in noise]
    shift = sum(exact) / n
    balanced = [x - shift for x in exact]
    biggest = max(abs(x) for x in balanced)
    if biggest == 0:
        values = [center] * n
    else:
        values = [center + 0.9 * center * float(x / biggest) for x in balanced]
    scale = Scale(0, max(100.0, 2 * center))
    assert leq(
        nam(EvaluationVector.from_values(values, scale)),
        nam(EvaluationVector.from_values([center] * n, scale)),
    )


def _grouped(values, sizes, priorities):
    entries = tuple((f"s{i + 1}", v) for i, v in enumerate(values))
    v = EvaluationVector(entries, Scale(0, max(100.0, max(values))))
    groups = []
    cursor = 0
    for g, size in enumerate(sizes, 1):
        members = tuple(f"s{i + 1}" for i in range(cursor, cursor + size))
        groups.append(Group(f"g{g}", members, priorities[g - 1]))
        cursor += size
    return GroupedSystem(tuple(groups), v)


@given(st.data())
def test_hybrid_stays_within_group_nam_range(data):
    values = data.draw(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=1,
            max_size=10,
        )
    )
    n = len(values)
    cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    priorities = data.draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10, allow_nan=False),
            min_size=len(sizes),
            max_size=len(sizes),
        )
    )
    system = _grouped(values, sizes, priorities)
    per_group = [nam(system.evals.subset(g.members)) for g in system.groups]
    mixed = hybrid_grouped(system)
    assert leq(min(per_group), mixed) and leq(mixed, max(per_group))


@given(st.data())
def test_hybrid_lower_bound_with_weak_element_groups(data):
    # When every group is equal-valued up to one weak member, each group's
    # nam stays above that group's minimum, so the blended aggregate stays
    # above the system-wide minimum.
    group_count = data.draw(st.integers(1, 4))
    values: list[float] = []
    sizes: list[int] = []
    for _ in range(group_count):
        a = data.draw(st.floats(min_value=0, max_value=100, allow_nan=False))
        b = data.draw(st.floats(min_value=0, max_value=100, allow_nan=False))
        extra = data.draw(st.integers(0, 3))
        values += [min(a, b)] + [max(a, b)] * extra
        sizes.append(1 + extra)
    priorities = data.draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10, allow_nan=False),
            min_size=group_count,
            max_size=group_count,
        )
    )
    system = _grouped(values, sizes, priorities)
    assert check_hybrid_bounds(system).lower_holds


@given(st.data())
def test_hybrid_upper_bound_for_equal_group_sizes(data):
    group_count = data.draw(st.integers(1, 4))
    group_size = data.draw(st.integers(1, 3))
    values = data.draw(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=group_count * group_size,
            max_size=group_count * group_size,
        )
    )
    priorities = data.draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10, allow_nan=False),
            min_size=group_count,
            max_size=group_count,
        )
    )
    system = _grouped(values, [group_size] * group_count, priorities)
    assert check_hybrid_bounds(system).upper_holds


@given(evaluations, st.floats(min_value=0.1, max_value=10, allow_nan=False))
def test_single_group_equals_nam(values, priority):
    v = EvaluationVector.from_values(values)
    system = GroupedSystem((Group("all", v.ids, priority),), v)
    # abs_tol soaks up subnormal underflow when the generator hands us
    # values near the very bottom of the float range
    assert math.isclose(hybrid_grouped(system), nam(v), rel_tol=1e-12, abs_tol=1e-300)


@given(evaluations, st.data())
def test_singleton_groups_equal_wlam(values, data):
    n = len(values)
    priorities = data.draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    v = EvaluationVector.from_values(values)
    system = GroupedSystem(
        tuple(Group(f"g{i + 1}", (f"s{i + 1}",), p) for i, p in enumerate(priorities)),
        v,
    )
    weights = PriorityVector(tuple((f"s{i + 1}", p) for i, p in enumerate(priorities)))
    assert math.isclose(
        hybrid_grouped(system), wlam(v, weights), rel_tol=1e-12, abs_tol=1e-12
    )


# --- The kernels against their earlier formulations, bit for bit. ---


def seed_nam(values):
    """nam as first written: sorted values, a product loop and fsum over a generator."""
    n = len(values)
    if n == 1 or min(values) == max(values):
        return values[0]
    if 0.0 in values:
        return 0.0
    mean = math.fsum(values) / n
    ordered = sorted(values)
    if n > _LOG_DOMAIN_SIZE or ordered[-1] > _LOG_DOMAIN_VALUE or ordered[0] < _LOG_DOMAIN_TINY:
        log_product = math.fsum(math.log(v) for v in ordered)
        return math.exp(log_product - (n - 1) * math.log(mean))
    product = 1.0
    for v in ordered:
        product *= v
    return product / mean ** (n - 1)


def seed_weighted_mean(values, weights):
    """The weighted mean as first written: fsum over a generator of products."""
    total = math.fsum(weights)
    try:
        numerator = math.fsum(w * v for w, v in zip(weights, values))
    except OverflowError:
        numerator = math.inf
    if math.isfinite(numerator):
        return numerator / total
    top = max(weights)
    scaled = [w / top for w in weights]
    return math.fsum(w * v for w, v in zip(scaled, values)) / math.fsum(scaled)


def outcome(function, *args):
    """The result's ``float.hex``, or the type and text of what it raised."""
    try:
        return function(*args).hex()
    except ArithmeticError as error:
        return type(error), str(error)


# Values at and just around the log-domain bounds, zeros, and the decades
# either side of them; ties come from drawing a vector out of a few values.
_EDGES = [0.0, 1e-7, _LOG_DOMAIN_TINY, _LOG_DOMAIN_VALUE, 1e7]
kernel_values = (
    st.sampled_from(
        [x for edge in _EDGES for x in (edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf))]
    )
    | st.floats(0, 100)
    | st.floats(1e-8, 1e-5)
    | st.floats(1e5, 1e7)
)
kernel_weights = st.floats(1e-3, 1e3) | st.sampled_from([1.0, 1e300, 1.7e308])


@given(st.sampled_from([1, 2, 30, 31, 200]), st.data())
def test_kernels_equal_their_first_formulation_bit_for_bit(n, data):
    pool = data.draw(st.lists(kernel_values, min_size=1, max_size=6), label="pool")
    values = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="values")
    weights = data.draw(st.lists(kernel_weights, min_size=n, max_size=n), label="weights")
    assert outcome(_nam, values) == outcome(seed_nam, values)
    assert outcome(_weighted_mean, values, weights) == outcome(seed_weighted_mean, values, weights)
