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
import operator
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from inspect import Parameter, Signature
from reprlib import recursive_repr
from typing import Any, Iterable, Iterator, Sequence

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
_FLOAT_MAX = sys.float_info.max

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


# The members as module globals: a per-node identity test reads one global
# instead of looking the member up on the class.
_WEM, _WLAM, _NAM, _HYBRID, _WEM_THEN = Method


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _leq(a: float, b: float) -> bool:
    """``a <= b`` up to the shared tolerance."""
    return a <= b or _close(a, b)


class _InitSignature:
    """A record class's ``inspect.signature``, the generated ``__init__``'s, built on read."""

    def __get__(self, obj: object, cls: type) -> Signature:
        return Signature([Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                                    default=Parameter.empty if f.default is MISSING else f.default)
                          for f in fields(cls)], return_annotation=None)


class _Record:
    """The base of the frozen records: a subclass that declares annotated fields becomes a
    dataclass declared ``init=False, repr=False, eq=False``, which compiles no method at
    import, with the methods below.  The guards never read the instance dict, which would
    cost every attribute read its fast path; ``==`` compares the tuples of field values, so
    a NaN object equals itself (Python 3.13's generated ``==`` differs)."""

    __signature__ = _InitSignature()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__annotations__"):
            dataclass(init=False, repr=False, eq=False)(cls)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        """Bind and fail as the generated ``__init__``, then run ``__post_init__``."""
        known, given = self.__dataclass_fields__, len(args)  # a record has no pseudo-fields
        if kwargs or given != len(known):  # not simply every field by position
            names, call = list(known), f"{type(self).__qualname__}.__init__()"
            for name in kwargs:  # checked first, in call order, as the interpreter does
                if name not in names[given:]:
                    got = "multiple values for" if name in names else "an unexpected keyword"
                    raise TypeError(f"{call} got {got} argument {name!r}")
            if given > len(names):
                least = 1 + sum(f.default is MISSING for f in known.values())
                takes = least if least > len(names) else f"from {least} to {len(names) + 1}"
                raise TypeError(f"{call} takes {takes} positional arguments "
                                f"but {given + 1} were given")
            missing = [repr(n) for n in names[given:]
                       if n not in kwargs and known[n].default is MISSING]
            if missing:  # 'a', 'a' and 'b', or 'a', 'b', and 'c'
                n = len(missing)
                raise TypeError(f"{call} missing {n} required positional argument"
                                f"{'s' * (n > 1)}: {', '.join(missing[:-1])}{',' * (n > 2)}"
                                f"{' and ' * (n > 1)}{missing[-1]}")
        for k, (name, f) in enumerate(known.items()):
            object.__setattr__(self, name, args[k] if k < given else kwargs.get(name, f.default))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    @recursive_repr()
    def __repr__(self) -> str:
        pairs = (f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{type(self).__qualname__}({', '.join(pairs)})"


def _built(cls: type, values: dict[str, Any]) -> Any:
    """``cls(**values)`` for a record, without its ``__init__``: only for ``values`` that list
    every field in order, each of the exact type ``__post_init__`` would coerce it to."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", values)
    return obj


class Scale(_Record):
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
        return value if self.min <= value <= self.max else min(max(value, self.min), self.max)


PERCENT = Scale(0.0, 100.0)


class EvaluationVector(_Record):
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


class PriorityVector(_Record):
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


class Group(_Record):
    """Named set of element ids sharing one group priority."""

    id: str
    members: tuple[str, ...]
    priority: float = 1.0


def _finite(value: Any) -> bool:
    """``math.isfinite(value)``, and False for a value that is no number."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def _usable_priority(priority: float) -> bool:
    """Whether a group priority is positive and finite as the float the kernels read."""
    try:
        return 0 < math.fsum((priority,)) < math.inf
    except (OverflowError, TypeError):
        return False


class GroupedSystem(_Record):
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
            if not _usable_priority(group.priority):
                problems.append(f"group {group.id!r} priority must be positive, "
                                f"got {group.priority!r}")
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


def _weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """``sum(w * v) / sum(w)`` for finite positive weights aligned with ``values``."""
    # fsum keeps both sums exactly rounded, which makes the result
    # independent of element order.  A weight total beyond the float range
    # is an impossible request and raises OverflowError.
    total = math.fsum(weights)
    try:
        numerator = math.fsum(map(operator.mul, weights, values))
    except OverflowError:  # finite products whose sum leaves the float range
        numerator = math.inf
    if math.isfinite(numerator):
        return numerator / total
    # A huge weight overflows the products although the mean is in range;
    # weights relative to the largest keep them finite.
    top = max(weights)
    scaled = [w / top for w in weights]
    return math.fsum(w * v for w, v in zip(scaled, values)) / math.fsum(scaled)


def _wlam(values: Sequence[float], weights: Sequence[float] | None) -> float:
    """Weighted mean of ``values``; ``weights`` aligned with them or None for 1s."""
    if min(values) == max(values):
        # Any weighted mean of equal values is that value; returning it
        # directly keeps the equality guarantees exact at float level.
        return values[0]
    if weights is None:
        # fsum is exactly rounded, which makes the mean independent of order.
        return math.fsum(values) / len(values)
    return _weighted_mean(values, weights)


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


def _log_path(n: int, low: float, high: float) -> bool:
    """Whether nam over ``n`` distinct nonzero values in [low, high] takes the log path."""
    return n > _LOG_DOMAIN_SIZE or high > _LOG_DOMAIN_VALUE or low < _LOG_DOMAIN_TINY


def _nam(values: Sequence[float], low: float | None = None, high: float | None = None,
         total: float | None = None, logs: Iterable[float] | None = None) -> float:
    """:func:`nam` over a nonempty sequence of nonnegative finite floats, with
    their min and max, fsum and logs where the caller has them."""
    n = len(values)
    if low is None:
        low, high = min(values), max(values)
    if low == high:
        # Equal values aggregate to themselves; the closed formula would
        # only blur that equality with rounding.
        return values[0]
    if low == 0.0:
        # A vanishing factor wipes out the product regardless of the mean;
        # deciding this up front also keeps the log path total.
        return 0.0
    mean = (math.fsum(values) if total is None else total) / n
    if _log_path(n, low, high):
        # fsum is exactly rounded, so the log sum needs no fixed order; the
        # tiny bound keeps mean ** (n-1) from underflowing on the direct path.
        logs = map(math.log, values) if logs is None else logs
        return math.exp(math.fsum(logs) - (n - 1) * math.log(mean))
    # A fixed multiplication order keeps the product permutation-stable.
    return math.prod(sorted(values)) / mean ** (n - 1)


def nam(evals: EvaluationVector) -> float:
    """Nonlinear aggregation: ``prod(e) / mean(e) ** (N - 1)``.

    Equals the common value when all evaluations agree and drops sharply
    as they spread out.  Any zero evaluation forces the result to zero.
    Large systems (more than 30 elements) and very large or very small
    values are handled in the log domain to avoid overflow and underflow.
    """
    return _nam(evals.values)


def _hybrid(
    values: Sequence[float],
    groups: Sequence[tuple[Sequence[int], float]],
    nams: Sequence[float | None] | None = None,
) -> float:
    """:func:`hybrid_grouped` over ``values``, one ``(positions, priority)`` per
    group; ``nams`` holds each group's nam where it is already known."""
    return _weighted_mean(
        [_nam([values[k] for k in positions]) if nam is None else nam
         for (positions, _), nam in zip(groups, nams or [None] * len(groups))],
        [priority for _, priority in groups],
    )


def _summary(values: Sequence[float], weights: Sequence[float] | None,
             logs: Iterable[float] | None = None) -> tuple:
    """The min, max, exact sum and logs of ``values``, each taken once: the sum
    where wlam and nam read it (distinct values, no weights) and the logs where
    nam does (its log path, no zero), else None; a group gathers ``logs``."""
    low, high = min(values), max(values)
    if low == high or weights is not None:
        return low, high, None, None
    if low > 0.0 and _log_path(len(values), low, high):
        return low, high, math.fsum(values), list(map(math.log, values) if logs is None else logs)
    return low, high, math.fsum(values), None


def _metrics(
    values: Sequence[float],
    weights: Sequence[float] | None,
    plan: Sequence[tuple[Sequence[int], float]],
    nams: list[float | None] | None = None,
    summary: tuple | None = None,
) -> tuple[float, float, float | None, float | None]:
    """wem, wlam, nam (None under weights), hybrid (None without groups, and
    from the group nams in ``nams`` where they are known), all from one
    :func:`_summary` of ``values``, which a caller may pass."""
    low, high, total, logs = summary or _summary(values, weights)
    wlam = (values[0] if low == high else  # as _wlam: equal values are their mean
            _weighted_mean(values, weights) if total is None else total / len(values))
    if plan and nams is None and logs is not None:  # group nams gather their logs from these
        nams = [_nam([values[k] for k in p], logs=map(logs.__getitem__, p)) for p, _ in plan]
    return (low, wlam, None if weights is not None else _nam(values, low, high, total, logs),
            _hybrid(values, plan, nams) if plan else None)


def _plan(system: GroupedSystem) -> list[tuple[list[int], float]]:
    """Each group's element positions in member order, with its priority as given."""
    position = {element_id: k for k, element_id in enumerate(system.evals.ids)}
    return [([position[m] for m in g.members], g.priority) for g in system.groups]


def hybrid_grouped(system: GroupedSystem) -> float:
    """Grouped aggregation: nonlinear inside groups, linear across them.

    Each group is collapsed with :func:`nam`; the group results are then
    combined by a weighted mean under the group priorities.  With a single
    group this reduces to :func:`nam`, and with singleton groups to
    :func:`wlam` under the group priorities.
    """
    return _hybrid(system.evals.values, _plan(system))


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


class AdequacyReport(_Record):
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
    values = evals.values
    if weights is None:
        low, linear, nonlinear, _ = _metrics(values, None, [])
    else:  # nam on its own: a zero gives 0.0 where _summary's plain sum would overflow
        low, linear, nonlinear = min(values), wlam(evals, weights), _nam(values)
    return AdequacyReport(
        wem=low,
        wlam=linear,
        nam=nonlinear,
        sigma_12=_masking_ratio(linear, low),
        sigma_13=_masking_ratio(nonlinear, low),
        weakest=tuple(i for i, v in evals.entries if v == low),
    )


class CriticalGroupResult(_Record):
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
    by_id = dict(evals.entries)
    unknown = [i for i in critical if i not in by_id]
    if unknown:
        raise EvaluationError(
            "critical set references unknown ids: " + ", ".join(sorted(unknown))
        )
    critical_wem = min(by_id[i] for i in critical)
    if method == _WLAM:  # a member, or a member's value as a str enum compares equal
        method, aggregate = _WLAM, wlam(evals, weights)
    elif method == _NAM:
        method, aggregate = _NAM, nam(evals)
    else:
        name = method.value if isinstance(method, Method) else method
        raise EvaluationError(
            f"critical-first evaluation aggregates with wlam or nam, got {name!r}"
        )
    return CriticalGroupResult(
        critical_wem=critical_wem,
        aggregate=aggregate,
        adequacy=_signed_gap(aggregate, critical_wem),
        method=method,
    )


class ProductBoundCheck(_Record):
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


class OrderingCheck(_Record):
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
    low, linear, nonlinear, _ = _metrics(evals.values, None, [])
    return OrderingCheck(
        chain=(low, nonlinear, linear),
        holds=_leq(low, nonlinear) and _leq(nonlinear, linear),
    )


class HybridBoundsCheck(_Record):
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
    evals, rho = system.evals, {m: float(g.priority) for g in system.groups for m in g.members}
    low, linear, _, mixed = _metrics(evals.values, [rho[i] for i in evals.ids], _plan(system))
    return HybridBoundsCheck(
        wem=low,
        hybrid=mixed,
        wlam_expanded=linear,
        lower_holds=_leq(low, mixed),
        upper_holds=_leq(mixed, linear),
    )
