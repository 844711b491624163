"""Pinned examples and error paths for the aggregation operators."""

import math
import random
from fractions import Fraction

import pytest

from aggeval.core import (
    PERCENT,
    EvaluationError,
    EvaluationVector,
    Group,
    GroupedSystem,
    Method,
    PriorityVector,
    Scale,
    adequacy_report,
    adequacy_wem_nam,
    adequacy_wem_wlam,
    check_hybrid_bounds,
    check_ordering,
    check_product_bound,
    hybrid_grouped,
    nam,
    weakest_ids,
    wem,
    wem_then_aggregate,
    wlam,
)

WEAK = EvaluationVector.from_values([10, 100, 100])


def vec(*values: float) -> EvaluationVector:
    return EvaluationVector.from_values(values)


class TestScale:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(EvaluationError, match="min < max"):
            Scale(5, 5)

    def test_negative_floor_rejected_with_remap_hint(self):
        with pytest.raises(EvaluationError, match="remap"):
            Scale(-1, 1)

    def test_contains_and_clamp(self):
        assert PERCENT.contains(0) and PERCENT.contains(100)
        assert not PERCENT.contains(100.1)
        assert PERCENT.clamp(100.1) == 100
        assert PERCENT.clamp(-3) == 0


class TestEvaluationVector:
    def test_empty_rejected(self):
        with pytest.raises(EvaluationError, match="empty system"):
            EvaluationVector((), PERCENT)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(EvaluationError, match="duplicate"):
            EvaluationVector((("s1", 5.0), ("s1", 6.0)), PERCENT)

    def test_out_of_range_rejected(self):
        with pytest.raises(EvaluationError, match="outside"):
            vec(50, 120)

    def test_non_finite_rejected(self):
        with pytest.raises(EvaluationError, match="finite"):
            EvaluationVector((("s1", float("nan")),), PERCENT)

    def test_subset_preserves_order(self):
        v = vec(1, 2, 3)
        assert v.subset(["s3", "s1"]).values == (3.0, 1.0)
        with pytest.raises(EvaluationError, match="unknown"):
            v.subset(["nope"])


class TestEvaluationVectorAccess:
    def test_value_of(self):
        assert WEAK.value_of("s1") == 10.0
        with pytest.raises(KeyError):
            WEAK.value_of("nope")

    def test_len_and_iteration(self):
        assert len(WEAK) == 3
        assert list(WEAK) == [("s1", 10.0), ("s2", 100.0), ("s3", 100.0)]


class TestPriorityVector:
    def test_empty_rejected(self):
        with pytest.raises(EvaluationError, match="^priority vector must not be empty$"):
            PriorityVector(())

    def test_duplicate_id_rejected(self):
        with pytest.raises(EvaluationError, match="^duplicate priority for 'a'$"):
            PriorityVector((("a", 1.0), ("a", 2.0)))

    def test_zero_weight_rejected(self):
        with pytest.raises(EvaluationError, match="positive"):
            PriorityVector((("s1", 0.0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(EvaluationError, match="positive"):
            PriorityVector((("s1", -2.0),))

    def test_unit_builder(self):
        assert PriorityVector.unit(["a", "b"]).weights == (("a", 1.0), ("b", 1.0))


class TestGroupedSystemChecks:
    def test_no_groups_rejected(self):
        with pytest.raises(EvaluationError, match="^grouped system needs at least one group$"):
            GroupedSystem((), WEAK)

    def test_duplicate_id_and_empty_group_reported_together(self):
        groups = (Group("g", ("s1",)), Group("g", ("s2", "s3")), Group("h", ()))
        with pytest.raises(EvaluationError) as excinfo:
            GroupedSystem(groups, WEAK)
        assert str(excinfo.value) == (
            "invalid grouping: duplicate group id 'g'; group 'h' has no members"
        )

    @pytest.mark.parametrize("priority", [Fraction(1, 10**400), Fraction(10**400)])
    def test_a_priority_that_is_no_positive_finite_float_is_rejected(self, priority):
        # Positive as given, but the kernels weigh it as 0.0, or cannot convert it.
        groups = (Group("s1", ("s1",), priority), Group("rest", ("s2", "s3")))
        with pytest.raises(EvaluationError) as excinfo:
            GroupedSystem(groups, vec(10, 50, 90))
        assert str(excinfo.value) == (
            f"invalid grouping: group 's1' priority must be positive, got {priority!r}")

    def test_a_fraction_that_is_a_positive_float_is_accepted(self):
        groups = (Group("s1", ("s1",), Fraction(1, 3)), Group("rest", ("s2", "s3")))
        as_float = (Group("s1", ("s1",), 1 / 3), Group("rest", ("s2", "s3")))
        system = GroupedSystem(groups, vec(10, 50, 90))
        assert hybrid_grouped(system) == hybrid_grouped(GroupedSystem(as_float, vec(10, 50, 90)))


class TestWem:
    def test_weak_element_example(self):
        assert wem(WEAK) == 10

    def test_all_equal(self):
        assert wem(vec(37, 37, 37, 37)) == 37

    def test_matches_sort_oracle_on_random_vector(self):
        rng = random.Random(7)
        values = [rng.uniform(0, 100) for _ in range(50)]
        assert wem(EvaluationVector.from_values(values)) == sorted(values)[0]

    def test_weakest_ids_reports_all_ties(self):
        assert weakest_ids(vec(5, 9, 5, 7)) == ("s1", "s3")


class TestWlam:
    def test_unit_weights_example(self):
        assert wlam(WEAK, PriorityVector.unit(WEAK.ids)) == 70

    def test_default_weights_are_unit(self):
        assert wlam(WEAK) == 70

    def test_nine_strong_one_weak(self):
        v = EvaluationVector.from_values([100] * 9 + [10])
        assert wlam(v) == 91

    def test_constant_vector_any_weights(self):
        v = vec(64, 64, 64)
        weights = PriorityVector((("s1", 0.2), ("s2", 5.0), ("s3", 1.7)))
        assert wlam(v, weights) == 64

    def test_id_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="missing priorities"):
            wlam(vec(1, 2), PriorityVector((("s1", 1.0),)))
        with pytest.raises(EvaluationError, match="unknown ids"):
            wlam(vec(1, 2), PriorityVector((("s1", 1.0), ("s2", 1.0), ("s9", 1.0))))

    def test_weight_scale_invariance(self):
        v = vec(12, 87, 45)
        base = PriorityVector((("s1", 1.0), ("s2", 2.0), ("s3", 3.0)))
        scaled = PriorityVector((("s1", 7.0), ("s2", 14.0), ("s3", 21.0)))
        assert wlam(v, scaled) == pytest.approx(wlam(v, base), rel=1e-12)

    def test_products_beyond_float_range_with_a_finite_weight_total(self):
        # 2 * 6e307 and 3 * 6e307 overflow when summed; the weights do not.
        weights = PriorityVector((("s1", 6e307), ("s2", 6e307)))
        assert wlam(vec(2, 3), weights) == 2.5

    def test_weight_total_beyond_float_range_raises(self):
        weights = PriorityVector((("s1", 1e308), ("s2", 1e308)))
        with pytest.raises(OverflowError):
            wlam(vec(50, 60), weights)


class TestNam:
    def test_weak_element_example(self):
        # 10 * 100 * 100 / 70^2 = 1000/49
        assert nam(WEAK) == pytest.approx(1000 / 49, rel=1e-12)
        assert nam(WEAK) == pytest.approx(20.408163265306122, rel=1e-12)

    def test_all_equal_is_exact(self):
        assert nam(vec(73.25, 73.25, 73.25)) == 73.25

    def test_single_element(self):
        assert nam(vec(31)) == 31

    def test_zero_kills_the_product(self):
        assert nam(vec(0, 100, 100)) == 0.0

    def test_log_and_naive_paths_agree_for_large_vectors(self):
        rng = random.Random(11)
        values = [rng.uniform(1e-3, 100) for _ in range(40)]
        v = EvaluationVector.from_values(values)  # 40 elements: log path
        mean = math.fsum(values) / len(values)
        naive = math.prod(values) / mean ** (len(values) - 1)
        assert nam(v) == pytest.approx(naive, rel=1e-9)

    def test_log_path_for_values_beyond_a_million(self):
        scale = Scale(0, 1e9)
        values = [2e6, 3e6, 2.5e6]
        v = EvaluationVector.from_values(values, scale)
        mean = math.fsum(values) / 3
        assert nam(v) == pytest.approx(math.prod(values) / mean**2, rel=1e-9)

    def test_not_monotone_in_an_outlier(self):
        # Raising an element far above the rest lowers the aggregate:
        # [1,1,10] scores 0.625 but [1,1,20] only 20/(22/3)^2.
        assert nam(vec(1, 1, 10)) == 0.625
        assert nam(vec(1, 1, 20)) == pytest.approx(0.371900826446281, rel=1e-12)
        assert nam(vec(1, 1, 20)) < nam(vec(1, 1, 10))


class TestHybridGrouped:
    def fig_system(self, first: float) -> GroupedSystem:
        return GroupedSystem(
            (
                Group("g1", ("s1", "s2", "s3"), 1.0),
                Group("g2", ("s4", "s5"), 0.5),
            ),
            EvaluationVector.from_values([first, 100, 100, 50, 50]),
        )

    def test_two_group_example_high(self):
        # (1.0 * 100 + 0.5 * 50) / 1.5
        assert hybrid_grouped(self.fig_system(100)) == pytest.approx(
            83.33333333333333, rel=1e-12
        )

    def test_two_group_example_low(self):
        # (1.0 * 0 + 0.5 * 50) / 1.5
        assert hybrid_grouped(self.fig_system(0)) == pytest.approx(
            16.666666666666668, rel=1e-12
        )

    def test_single_group_reduces_to_nam(self):
        v = vec(10, 100, 100)
        system = GroupedSystem((Group("all", ("s1", "s2", "s3"), 2.0),), v)
        assert hybrid_grouped(system) == pytest.approx(nam(v), rel=1e-12)

    def test_singleton_groups_reduce_to_wlam(self):
        v = vec(10, 100, 100)
        system = GroupedSystem(
            tuple(Group(f"g{i}", (f"s{i}",), 1.0) for i in (1, 2, 3)), v
        )
        assert hybrid_grouped(system) == pytest.approx(70, rel=1e-12)

    def test_partition_violations_listed(self):
        v = vec(1, 2, 3)
        with pytest.raises(EvaluationError, match="unknown element 'sX'"):
            GroupedSystem((Group("g1", ("s1", "s2", "s3", "sX"), 1.0),), v)
        with pytest.raises(EvaluationError, match="more than one group"):
            GroupedSystem(
                (Group("g1", ("s1", "s2"), 1.0), Group("g2", ("s2", "s3"), 1.0)), v
            )
        with pytest.raises(EvaluationError, match="missing from every group: s3"):
            GroupedSystem((Group("g1", ("s1", "s2"), 1.0),), v)
        with pytest.raises(EvaluationError, match="priority must be positive"):
            GroupedSystem(
                (Group("g1", ("s1", "s2", "s3"), 0.0),), v
            )


class TestAdequacy:
    def test_weak_element_sigma_12(self):
        assert adequacy_wem_wlam(WEAK) == pytest.approx(6 / 7, rel=1e-12)

    def test_weak_element_sigma_13(self):
        assert adequacy_wem_nam(WEAK) == pytest.approx(0.51, rel=1e-12)

    def test_constant_vector_gives_zero(self):
        assert adequacy_wem_wlam(vec(88, 88)) == 0.0
        assert adequacy_wem_nam(vec(88, 88)) == 0.0

    def test_zero_weakest_maximizes_sigma_12(self):
        assert adequacy_wem_wlam(vec(0, 100)) == 1.0

    def test_zero_nam_falls_back_to_zero(self):
        # nam vanishes with any zero element, so the ratio is defined as 0.
        assert adequacy_wem_nam(vec(0, 50, 100)) == 0.0
        assert wem(vec(0, 50, 100)) == 0.0

    def test_report_bundles_everything(self):
        report = adequacy_report(WEAK)
        assert report.wem == 10
        assert report.wlam == 70
        assert report.nam == pytest.approx(1000 / 49, rel=1e-12)
        assert report.sigma_12 == pytest.approx(6 / 7, rel=1e-12)
        assert report.sigma_13 == pytest.approx(0.51, rel=1e-12)
        assert report.weakest == ("s1",)


class TestWemThenAggregate:
    def test_whole_system_critical_with_nam(self):
        result = wem_then_aggregate(WEAK, ("s1", "s2", "s3"), Method.NAM)
        assert result.critical_wem == 10
        assert result.aggregate == pytest.approx(20.408163265306122, rel=1e-9)
        assert result.adequacy == pytest.approx(0.51, rel=1e-9)

    def test_adequacy_stays_signed(self):
        result = wem_then_aggregate(vec(50, 50, 100), ("s3",), Method.WLAM)
        assert result.critical_wem == 100
        assert result.aggregate == pytest.approx(200 / 3, rel=1e-12)
        assert result.adequacy == pytest.approx(-0.5, rel=1e-9)

    def test_constant_vector(self):
        result = wem_then_aggregate(vec(64, 64, 64), ("s1",), Method.WLAM)
        assert (result.critical_wem, result.aggregate, result.adequacy) == (64, 64, 0)

    def test_empty_critical_set_rejected(self):
        with pytest.raises(EvaluationError, match="not be empty"):
            wem_then_aggregate(WEAK, (), Method.WLAM)

    def test_unknown_critical_ids_rejected(self):
        with pytest.raises(EvaluationError, match="unknown ids: s9"):
            wem_then_aggregate(WEAK, ("s1", "s9"), Method.WLAM)

    def test_only_mean_type_methods_allowed(self):
        with pytest.raises(EvaluationError, match="wlam or nam"):
            wem_then_aggregate(WEAK, ("s1",), Method.WEM)

    @pytest.mark.parametrize("given, member", [
        ("wlam", Method.WLAM), ("nam", Method.NAM), (Method.WLAM, Method.WLAM),
    ])
    def test_method_given_by_value_is_stored_as_the_member(self, given, member):
        result = wem_then_aggregate(WEAK, ["s1"], given)
        assert result == wem_then_aggregate(WEAK, ["s1"], member)
        assert result.method is member

    @pytest.mark.parametrize("given, named", [
        (Method.WEM, "'wem'"), ("wem", "'wem'"), ("median", "'median'"),
        ("WLAM", "'WLAM'"), (Method.HYBRID_GROUPED, "'hybrid'"), (None, "None"), (2, "2"),
    ])
    def test_other_methods_are_named_as_given(self, given, named):
        message = f"critical-first evaluation aggregates with wlam or nam, got {named}"
        with pytest.raises(EvaluationError) as caught:
            wem_then_aggregate(WEAK, ["s1"], given)
        assert str(caught.value) == message


class TestProductBound:
    def test_uniform_vector_attains_the_bound(self):
        result = check_product_bound([2, 2, 2])
        assert result.holds
        assert result.given_product == result.uniform_product
        assert result.given_product == pytest.approx(8, rel=1e-12)

    def test_skewed_vector_stays_below(self):
        result = check_product_bound([1, 3, 2])
        assert result.holds
        assert result.given_product == pytest.approx(6, rel=1e-12)
        assert result.uniform_product == pytest.approx(8, rel=1e-12)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(EvaluationError, match="positive"):
            check_product_bound([1, 0, 2])
        with pytest.raises(EvaluationError, match="empty"):
            check_product_bound([])


class TestOrderingCheck:
    def test_weak_element_chain(self):
        result = check_ordering(WEAK)
        assert result.holds
        assert result.chain[0] == 10
        assert result.chain[1] == pytest.approx(1000 / 49, rel=1e-12)
        assert result.chain[2] == 70

    def test_constant_vector_collapses_the_chain(self):
        result = check_ordering(vec(42, 42, 42))
        assert result.holds
        assert result.chain == (42, 42, 42)

    def test_dispersed_vector_breaks_the_lower_bound(self):
        # nam can drop below the minimum when the non-minimal values are
        # spread out: 1*1*5 / (7/3)^2 = 45/49 < 1.
        result = check_ordering(vec(1, 1, 5))
        assert not result.holds
        assert result.chain[0] == 1
        assert result.chain[1] == pytest.approx(45 / 49, rel=1e-12)
        assert result.chain[1] < result.chain[0] < result.chain[2]


class TestHybridBounds:
    def test_two_group_system_within_envelope(self):
        system = GroupedSystem(
            (
                Group("g1", ("s1", "s2", "s3"), 1.0),
                Group("g2", ("s4", "s5"), 0.5),
            ),
            EvaluationVector.from_values([100, 100, 100, 50, 50]),
        )
        result = check_hybrid_bounds(system)
        assert result.lower_holds and result.upper_holds
        assert result.wem == 50
        assert result.hybrid == pytest.approx(83.33333333333333, rel=1e-12)
        assert result.wlam_expanded == pytest.approx(87.5, rel=1e-12)

    def test_unequal_group_sizes_break_the_upper_bound(self):
        # One strong singleton against a weak pair: the grouped aggregate
        # exceeds the expanded linear mean, so only the lower bound holds.
        system = GroupedSystem(
            (Group("strong", ("s1",), 1.0), Group("weak", ("s2", "s3"), 1.0)),
            EvaluationVector.from_values([100, 0, 0]),
        )
        result = check_hybrid_bounds(system)
        assert result.lower_holds
        assert not result.upper_holds
        assert result.hybrid == pytest.approx(50, rel=1e-12)
        assert result.wlam_expanded == pytest.approx(100 / 3, rel=1e-12)

    def test_dispersed_group_breaks_the_lower_bound(self):
        # A single dispersed group inherits the nam-below-minimum case, so
        # the grouped aggregate can undercut the system-wide minimum.
        system = GroupedSystem(
            (Group("all", ("s1", "s2", "s3"), 1.0),),
            EvaluationVector.from_values([1, 1, 5]),
        )
        result = check_hybrid_bounds(system)
        assert not result.lower_holds
        assert result.hybrid == pytest.approx(45 / 49, rel=1e-12)
        assert result.hybrid < result.wem == 1

    def test_single_group_reduces_to_the_ordering_chain(self):
        system = GroupedSystem((Group("all", ("s1", "s2", "s3"), 1.0),), WEAK)
        result = check_hybrid_bounds(system)
        assert result.lower_holds and result.upper_holds
