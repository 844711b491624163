"""Aggregation operators and adequacy measures for evaluation vectors.

A system is scored by collapsing per-element quality values, all lying on
a common nonnegative scale, into one number.  Four operators are provided:

* :func:`wem` -- weakest element method, the plain minimum.
* :func:`wlam` -- weighted linear aggregation, a priority-weighted
  arithmetic mean.
* :func:`nam` -- nonlinear aggregation, the product of values divided by
  their arithmetic mean raised to ``N - 1``.  It rewards uniform quality
  and punishes dispersion, but cannot take element priorities into
  account.
* :func:`hybrid_grouped` -- nonlinear aggregation inside equal-priority
  groups combined by a weighted linear mean across groups.

The adequacy measures quantify how far a mean-style aggregate sits above
the weakest element, i.e. how strongly it masks a weak spot.  The
``check_*`` helpers verify the ordering guarantees that relate the
operators to each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "AdequacyReport",
    "CriticalGroupResult",
    "EvaluationError",
    "EvaluationVector",
    "Group",
    "GroupedSystem",
    "HybridBoundsCheck",
    "Method",
    "OrderingCheck",
    "PERCENT",
    "PriorityVector",
    "ProductBoundCheck",
    "Scale",
    "adequacy_report",
    "adequacy_wem_nam",
    "adequacy_wem_wlam",
    "check_hybrid_bounds",
    "check_ordering",
    "check_product_bound",
    "hybrid_grouped",
    "nam",
    "weakest_ids",
    "wem",
    "wem_then_aggregate",
    "wlam",
]

# Comparison tolerances for derived quantities: relative, with an absolute
# floor near zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# nam switches to log-domain arithmetic beyond these limits so the running
# product cannot overflow.
_LOG_DOMAIN_SIZE = 30
_LOG_DOMAIN_VALUE = 1e6
_LOG_DOMAIN_TINY = 1e-6


class EvaluationError(ValueError):
    """Raised for structurally invalid evaluation data."""


class Method(str, Enum):
    """Aggregation method selector; values double as CLI names."""

    WEM = "wem"
    WLAM = "wlam"
    NAM = "nam"
    HYBRID_GROUPED = "hybrid"
    WEM_THEN = "wem-then"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _leq(a: float, b: float) -> bool:
    """``a <= b`` up to the shared tolerance."""
    return a <= b or _close(a, b)


@dataclass(frozen=True)
class Scale:
    """Admissible evaluation interval ``[min, max]``.

    The scale must be nonnegative: the operators rely on values (and hence
    every aggregate) staying at or above zero.  Scores that live on a scale
    with a negative floor have to be remapped affinely first, e.g. onto
    [0, 100].
    """

    min: float
    max: float

    def __post_init__(self) -> None:
        if not self.min < self.max:
            raise EvaluationError(
                f"scale requires min < max, got [{self.min}, {self.max}]"
            )
        if self.min < 0:
            raise EvaluationError(
                f"scale minimum must be nonnegative, got {self.min}; "
                "remap the scores affinely onto a nonnegative interval "
                "such as [0, 100] first"
            )

    def contains(self, value: float) -> bool:
        return self.min <= value <= self.max

    def clamp(self, value: float) -> float:
        return min(max(value, self.min), self.max)


PERCENT = Scale(0.0, 100.0)


@dataclass(frozen=True)
class EvaluationVector:
    """Per-element evaluations ``(id, value)`` on a shared scale.

    Element ids must be unique, the vector nonempty, and every value must
    lie inside the scale.  Out-of-range values are rejected rather than
    coerced.
    """

    entries: tuple[tuple[str, float], ...]
    scale: Scale = PERCENT

    def __post_init__(self) -> None:
        entries = tuple((str(i), float(v)) for i, v in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise EvaluationError("empty system: at least one element is required")
        seen: set[str] = set()
        for element_id, value in entries:
            if element_id in seen:
                raise EvaluationError(f"duplicate element id {element_id!r}")
            seen.add(element_id)
            if not math.isfinite(value):
                raise EvaluationError(
                    f"evaluation for {element_id!r} must be finite, got {value!r}"
                )
            if not self.scale.contains(value):
                raise EvaluationError(
                    f"evaluation {value!r} for {element_id!r} is outside "
                    f"[{self.scale.min}, {self.scale.max}]"
                )

    @classmethod
    def from_values(
        cls,
        values: Iterable[float],
        scale: Scale = PERCENT,
        prefix: str = "s",
    ) -> "EvaluationVector":
        """Build a vector with generated ids ``s1, s2, ...``."""
        entries = tuple((f"{prefix}{k}", float(v)) for k, v in enumerate(values, 1))
        return cls(entries, scale)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    def value_of(self, element_id: str) -> float:
        for i, v in self.entries:
            if i == element_id:
                return v
        raise KeyError(element_id)

    def subset(self, ids: Sequence[str]) -> "EvaluationVector":
        """Vector restricted to ``ids``, in the given order."""
        by_id = dict(self.entries)
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise EvaluationError(f"unknown element ids: {', '.join(sorted(missing))}")
        return EvaluationVector(tuple((i, by_id[i]) for i in ids), self.scale)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.entries)


@dataclass(frozen=True)
class PriorityVector:
    """Per-element weights ``rho > 0`` keyed by element id."""

    weights: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        weights = tuple((str(i), float(r)) for i, r in self.weights)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise EvaluationError("priority vector must not be empty")
        seen: set[str] = set()
        for element_id, rho in weights:
            if element_id in seen:
                raise EvaluationError(f"duplicate priority for {element_id!r}")
            seen.add(element_id)
            if not (math.isfinite(rho) and rho > 0):
                raise EvaluationError(
                    f"priority for {element_id!r} must be a finite positive "
                    f"number, got {rho!r}"
                )

    @classmethod
    def unit(cls, ids: Iterable[str]) -> "PriorityVector":
        return cls(tuple((i, 1.0) for i in ids))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.weights)


@dataclass(frozen=True)
class Group:
    """Named set of element ids sharing one group priority."""

    id: str
    members: tuple[str, ...]
    priority: float = 1.0


@dataclass(frozen=True)
class GroupedSystem:
    """Evaluation vector partitioned into priority groups.

    The groups must partition the element ids exactly: every element in
    exactly one group, no unknown members, no empty groups, and strictly
    positive group priorities.
    """

    groups: tuple[Group, ...]
    evals: EvaluationVector

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise EvaluationError("grouped system needs at least one group")
        problems: list[str] = []
        known = set(self.evals.ids)
        assigned: set[str] = set()
        group_ids: set[str] = set()
        for group in self.groups:
            if group.id in group_ids:
                problems.append(f"duplicate group id {group.id!r}")
            group_ids.add(group.id)
            if not group.members:
                problems.append(f"group {group.id!r} has no members")
            if not (math.isfinite(group.priority) and group.priority > 0):
                problems.append(
                    f"group {group.id!r} priority must be positive, "
                    f"got {group.priority!r}"
                )
            for member in group.members:
                if member not in known:
                    problems.append(
                        f"group {group.id!r} references unknown element {member!r}"
                    )
                elif member in assigned:
                    problems.append(
                        f"element {member!r} appears in more than one group"
                    )
                assigned.add(member)
        uncovered = known - assigned
        if uncovered:
            problems.append(
                "elements missing from every group: " + ", ".join(sorted(uncovered))
            )
        if problems:
            raise EvaluationError("invalid grouping: " + "; ".join(problems))


def wem(evals: EvaluationVector) -> float:
    """Weakest element method: the minimum evaluation."""
    return min(evals.values)


def weakest_ids(evals: EvaluationVector) -> tuple[str, ...]:
    """Ids of all elements attaining the minimum evaluation."""
    low = min(evals.values)
    return tuple(i for i, v in evals.entries if v == low)


def _wlam(values: Sequence[float], weights: Sequence[float] | None) -> float:
    """Weighted mean of ``values``; ``weights`` aligned with them or None for 1s."""
    if min(values) == max(values):
        # Any weighted mean of equal values is that value; returning it
        # directly keeps the equality guarantees exact at float level.
        return values[0]
    # fsum keeps both sums exactly rounded, which makes the result
    # independent of element order.
    if weights is None:
        return math.fsum(values) / len(values)
    numerator = math.fsum(rho * v for rho, v in zip(weights, values))
    return numerator / math.fsum(weights)


def wlam(evals: EvaluationVector, weights: PriorityVector | None = None) -> float:
    """Weighted linear aggregation: ``sum(rho * e) / sum(rho)``.

    With ``weights`` omitted all elements weigh 1 and the result is the
    arithmetic mean.  Weight ids must cover exactly the element ids; the
    order of the two vectors is irrelevant.
    """
    if weights is None:
        return _wlam(evals.values, None)
    want = set(evals.ids)
    have = set(weights.ids)
    if want != have:
        missing = sorted(want - have)
        extra = sorted(have - want)
        parts = []
        if missing:
            parts.append("missing priorities for " + ", ".join(missing))
        if extra:
            parts.append("priorities for unknown ids " + ", ".join(extra))
        raise EvaluationError("; ".join(parts))
    rho = dict(weights.weights)
    return _wlam(evals.values, [rho[i] for i in evals.ids])


def _nam(values: Sequence[float]) -> float:
    """:func:`nam` over a nonempty sequence of nonnegative finite floats."""
    n = len(values)
    if n == 1 or min(values) == max(values):
        # Equal values aggregate to themselves; the closed formula would
        # only blur that equality with rounding.
        return values[0]
    if 0.0 in values:
        # A vanishing factor wipes out the product regardless of the mean;
        # deciding this up front also keeps the log path total.
        return 0.0
    mean = math.fsum(values) / n
    ordered = sorted(values)  # fixed multiplication order: permutation-stable
    if (
        n > _LOG_DOMAIN_SIZE
        or ordered[-1] > _LOG_DOMAIN_VALUE
        or ordered[0] < _LOG_DOMAIN_TINY  # mean ** (n-1) could underflow to 0
    ):
        log_product = math.fsum(math.log(v) for v in ordered)
        return math.exp(log_product - (n - 1) * math.log(mean))
    product = 1.0
    for v in ordered:
        product *= v
    return product / mean ** (n - 1)


def nam(evals: EvaluationVector) -> float:
    """Nonlinear aggregation: ``prod(e) / mean(e) ** (N - 1)``.

    Equals the common value when all evaluations agree and drops sharply
    as they spread out.  Any zero evaluation forces the result to zero.
    Large systems (more than 30 elements) and very large or very small
    values are handled in the log domain to avoid overflow and underflow.
    """
    return _nam(evals.values)


def _hybrid(
    values: Sequence[float], groups: Sequence[tuple[Sequence[int], float]]
) -> float:
    """:func:`hybrid_grouped` over ``values``, one ``(positions, priority)`` per group."""
    numerator = math.fsum(
        priority * _nam([values[k] for k in positions])
        for positions, priority in groups
    )
    denominator = math.fsum(priority for _, priority in groups)
    return numerator / denominator


def hybrid_grouped(system: GroupedSystem) -> float:
    """Grouped aggregation: nonlinear inside groups, linear across them.

    Each group is collapsed with :func:`nam`; the group results are then
    combined by a weighted mean under the group priorities.  With a single
    group this reduces to :func:`nam`, and with singleton groups to
    :func:`wlam` under the group priorities.
    """
    position = {element_id: k for k, element_id in enumerate(system.evals.ids)}
    return _hybrid(
        system.evals.values,
        [([position[m] for m in g.members], g.priority) for g in system.groups],
    )


def _signed_gap(aggregate: float, weakest: float) -> float:
    """``(aggregate - weakest) / aggregate``, defined as 0 at a zero aggregate."""
    if aggregate == 0.0:
        # Zero aggregate forces a zero weakest element; there is nothing
        # being masked, so the measure is defined as 0.
        return 0.0
    return (aggregate - weakest) / aggregate


def _masking_ratio(aggregate: float, weakest: float) -> float:
    # Clamp tiny negative rounding residue; the true value is in [0, 1]
    # because 0 <= weakest <= aggregate.
    return max(0.0, _signed_gap(aggregate, weakest))


def adequacy_wem_wlam(
    evals: EvaluationVector, weights: PriorityVector | None = None
) -> float:
    """Relative gap between the linear aggregate and the weakest element.

    ``(wlam - wem) / wlam`` lies in [0, 1]; values near 1 mean the mean
    hides a much weaker element.
    """
    return _masking_ratio(wlam(evals, weights), wem(evals))


def adequacy_wem_nam(evals: EvaluationVector) -> float:
    """Relative gap between the nonlinear aggregate and the weakest element.

    ``(nam - wem) / nam`` lies in [0, 1]; the nonlinear aggregate already
    punishes dispersion, so this is typically smaller than the linear gap.
    """
    return _masking_ratio(nam(evals), wem(evals))


@dataclass(frozen=True)
class AdequacyReport:
    """All aggregates plus both masking measures for one vector."""

    wem: float
    wlam: float
    nam: float
    sigma_12: float
    sigma_13: float
    weakest: tuple[str, ...]


def adequacy_report(
    evals: EvaluationVector, weights: PriorityVector | None = None
) -> AdequacyReport:
    """Evaluate all three base operators and both adequacy measures.

    ``sigma_12`` compares the weakest element against the linear
    aggregate, ``sigma_13`` against the nonlinear one.
    """
    low = wem(evals)
    linear = wlam(evals, weights)
    nonlinear = nam(evals)
    return AdequacyReport(
        wem=low,
        wlam=linear,
        nam=nonlinear,
        sigma_12=_masking_ratio(linear, low),
        sigma_13=_masking_ratio(nonlinear, low),
        weakest=weakest_ids(evals),
    )


@dataclass(frozen=True)
class CriticalGroupResult:
    """Outcome of the two-stage evaluation around a critical subset."""

    critical_wem: float
    aggregate: float
    adequacy: float
    method: Method


def wem_then_aggregate(
    evals: EvaluationVector,
    critical_ids: Iterable[str],
    method: Method = Method.WLAM,
    weights: PriorityVector | None = None,
) -> CriticalGroupResult:
    """Aggregate the whole vector and measure it against a critical minimum.

    The critical ids are collapsed with :func:`wem`; the whole vector is
    aggregated with ``method`` (:data:`Method.WLAM` or :data:`Method.NAM`).
    The reported adequacy ``(aggregate - critical_wem) / aggregate`` is
    deliberately signed: a negative value flags that the critical subset
    outperforms the overall aggregate, which is information worth keeping.
    """
    critical = tuple(dict.fromkeys(critical_ids))
    if not critical:
        raise EvaluationError("critical set must not be empty")
    known = set(evals.ids)
    unknown = [i for i in critical if i not in known]
    if unknown:
        raise EvaluationError(
            "critical set references unknown ids: " + ", ".join(sorted(unknown))
        )
    critical_wem = min(evals.value_of(i) for i in critical)
    if method is Method.WLAM:
        aggregate = wlam(evals, weights)
    elif method is Method.NAM:
        aggregate = nam(evals)
    else:
        raise EvaluationError(
            f"critical-first evaluation aggregates with wlam or nam, got {method.value!r}"
        )
    return CriticalGroupResult(
        critical_wem=critical_wem,
        aggregate=aggregate,
        adequacy=_signed_gap(aggregate, critical_wem),
        method=method,
    )


@dataclass(frozen=True)
class ProductBoundCheck:
    """Product of a vector against the product of its uniform redistribution."""

    given_product: float
    uniform_product: float
    holds: bool


def check_product_bound(values: Sequence[float]) -> ProductBoundCheck:
    """Verify that redistributing a fixed total evenly maximizes the product.

    For positive values with sum ``S`` the product never exceeds
    ``(S / N) ** N``, with equality exactly at the uniform vector.  The
    comparison allows the shared rounding tolerance.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise EvaluationError("empty system: at least one value is required")
    if any(not (math.isfinite(v) and v > 0) for v in vals):
        raise EvaluationError("product bound requires strictly positive values")
    n = len(vals)
    mean = math.fsum(vals) / n
    # Work in the log domain; direct products overflow for long vectors.
    log_given = math.fsum(math.log(v) for v in sorted(vals))
    log_uniform = n * math.log(mean)
    given = math.exp(log_given)
    uniform = math.exp(log_uniform)
    return ProductBoundCheck(
        given_product=given,
        uniform_product=uniform,
        holds=_leq(log_given, log_uniform),
    )


@dataclass(frozen=True)
class OrderingCheck:
    """Result of the ``wem <= nam <= wlam`` comparison under unit weights."""

    chain: tuple[float, float, float]
    holds: bool


def check_ordering(evals: EvaluationVector) -> OrderingCheck:
    """Report whether ``wem <= nam <= unit-weight wlam`` holds for one vector.

    The upper bound follows from the AM-GM inequality and holds for every
    nonnegative vector.  The lower bound holds when at most one element sits
    below the (equal) rest, the regime the operators were designed for, but
    fails for dispersed vectors: ``[1, 1, 5]`` gives nam = 45/49 < 1 = wem.
    Callers therefore get a verdict, not a guarantee.  Both comparisons use
    the shared tolerance.
    """
    low = wem(evals)
    nonlinear = nam(evals)
    linear = wlam(evals)
    return OrderingCheck(
        chain=(low, nonlinear, linear),
        holds=_leq(low, nonlinear) and _leq(nonlinear, linear),
    )


@dataclass(frozen=True)
class HybridBoundsCheck:
    """Bounds on the grouped aggregate against wem and an expanded wlam."""

    wem: float
    hybrid: float
    wlam_expanded: float
    lower_holds: bool
    upper_holds: bool


def check_hybrid_bounds(system: GroupedSystem) -> HybridBoundsCheck:
    """Compare the grouped aggregate against its claimed envelope.

    The lower bound ``wem <= hybrid`` holds when every group's members are
    equal up to one weak element, but inherits the ordering caveat: a
    dispersed group can push its nam below the group minimum, so a single
    group ``[1, 1, 5]`` already fails it.  The upper bound compares against
    :func:`wlam` after expanding each group priority to every member; it is
    guaranteed only when all groups have the same cardinality.  Callers get
    both verdicts separately instead of one conflated flag.
    """
    low = wem(system.evals)
    mixed = hybrid_grouped(system)
    expanded = PriorityVector(
        tuple(
            (member, group.priority)
            for group in system.groups
            for member in group.members
        )
    )
    linear = wlam(system.evals, expanded)
    return HybridBoundsCheck(
        wem=low,
        hybrid=mixed,
        wlam_expanded=linear,
        lower_holds=_leq(low, mixed),
        upper_holds=_leq(mixed, linear),
    )
