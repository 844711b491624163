"""Tests for bottom-up aggregation, method comparison, and sweeps."""

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from aggeval import (
    EvaluationError,
    EvaluationVector,
    Group,
    HierarchyNode,
    HierarchyValidationError,
    Method,
    MethodConfig,
    PERCENT,
    SweepRow,
    aggregate,
    compare_methods,
    nam,
    sweep,
    validate_hierarchy,
    wem,
    wlam,
)
from aggeval.hierarchy import _grid

NAM_WEAK = 20.408163265306122  # 10 * 100 * 100 / 70 ** 2


def leaf(node_id, value, priority=None):
    return HierarchyNode(node_id, value=value, priority=priority)


def sub(node_id, children, config=None, priority=None):
    return HierarchyNode(
        node_id, children=tuple(children), config=config, priority=priority
    )


def weak_tree(config=None):
    return sub("root", [leaf("s1", 10), leaf("s2", 100), leaf("s3", 100)], config)


def two_group_tree(threshold=None):
    config = MethodConfig(
        Method.HYBRID_GROUPED,
        groups=(
            Group("g1", ("s1", "s2", "s3"), 1.0),
            Group("g2", ("s4", "s5"), 0.5),
        ),
        adequacy_threshold=threshold,
    )
    return sub(
        "root",
        [leaf("s1", 100), leaf("s2", 100), leaf("s3", 100), leaf("s4", 50), leaf("s5", 50)],
        config,
    )


class TestAggregate:
    def test_single_leaf_echoes_its_value(self):
        report = aggregate(leaf("only", 42), PERCENT)
        assert report.method == "leaf"
        assert report.value == 42.0
        assert report.weakest_ids == ("only",)
        assert report.adequacy == 0.0
        assert report.children == ()

    def test_default_method_is_the_weighted_mean(self):
        report = aggregate(weak_tree(), PERCENT)
        assert report.method == "wlam"
        assert report.value == 70.0
        assert report.weakest_ids == ("s1",)

    def test_nam_node_reports_value_and_weakest(self):
        report = aggregate(weak_tree(MethodConfig(Method.NAM)), PERCENT)
        assert report.method == "nam"
        assert report.value == pytest.approx(NAM_WEAK, rel=1e-12)
        assert report.weakest_ids == ("s1",)
        assert report.adequacy == pytest.approx(0.51, rel=1e-12)

    def test_hybrid_node_blends_group_aggregates(self):
        report = aggregate(two_group_tree(), PERCENT)
        assert report.method == "hybrid"
        assert report.value == pytest.approx(250 / 3, rel=1e-12)
        assert report.weakest_ids == ("s4", "s5")

    def test_wem_node_keeps_the_minimum(self):
        report = aggregate(weak_tree(MethodConfig(Method.WEM)), PERCENT)
        assert report.value == 10.0
        assert report.adequacy == 0.0

    def test_wem_then_node_reports_signed_adequacy(self):
        config = MethodConfig(Method.WEM_THEN, critical_ids=("press",))
        tree = sub("cell", [leaf("press", 100), leaf("gauge", 50), leaf("belt", 60)], config)
        report = aggregate(tree, PERCENT)
        assert report.method == "wem-then"
        assert report.value == 70.0
        assert report.adequacy == pytest.approx(-3 / 7, rel=1e-12)

    def test_wem_then_honors_the_nam_fallback(self):
        config = MethodConfig(
            Method.WEM_THEN, critical_ids=("press",), fallback=Method.NAM
        )
        tree = sub("cell", [leaf("press", 100), leaf("gauge", 50), leaf("belt", 60)], config)
        report = aggregate(tree, PERCENT)
        assert report.value == pytest.approx(300000 / 4900, rel=1e-12)

    def test_child_priorities_weight_the_mean(self):
        tree = sub("root", [leaf("a", 10, priority=3.0), leaf("b", 100, priority=1.0)])
        assert aggregate(tree, PERCENT).value == 32.5

    def test_unset_child_priorities_default_to_one(self):
        tree = sub("root", [leaf("a", 10, priority=2.0), leaf("b", 100)])
        assert aggregate(tree, PERCENT).value == 40.0

    def test_two_level_rollup_consumes_child_aggregates(self):
        tree = sub("root", [sub("inner", [leaf("a", 30), leaf("b", 50)]), leaf("c", 70)])
        report = aggregate(tree, PERCENT)
        assert report.value == 55.0
        inner = report.children[0]
        assert inner.node_id == "inner"
        assert inner.value == 40.0

    def test_weakest_ties_are_all_reported(self):
        tree = sub(
            "root",
            [
                sub("left", [leaf("d", 10), leaf("x", 90)]),
                sub("right", [leaf("e", 10), leaf("y", 80)]),
            ],
        )
        assert aggregate(tree, PERCENT).weakest_ids == ("d", "e")

    def test_adequacy_warning_fires_above_the_threshold(self):
        config = MethodConfig(Method.NAM, adequacy_threshold=0.5)
        report = aggregate(weak_tree(config), PERCENT)
        assert report.warnings == (
            "adequacy 0.51 exceeds threshold 0.5; weakest: s1",
        )

    def test_no_warning_at_or_below_the_threshold(self):
        config = MethodConfig(Method.NAM, adequacy_threshold=0.51)
        report = aggregate(weak_tree(config), PERCENT)
        assert report.warnings == ()

    def test_invalid_tree_raises_with_all_violations(self):
        tree = sub("root", [leaf("a", 10), leaf("a", 120)])
        with pytest.raises(HierarchyValidationError) as excinfo:
            aggregate(tree, PERCENT)
        assert str(excinfo.value).startswith("invalid hierarchy: ")
        assert excinfo.value.violations == ("node id 'a' used more than once",)

    def test_walk_and_to_dict_mirror_the_tree(self):
        report = aggregate(weak_tree(), PERCENT)
        assert [r.node_id for r in report.walk()] == ["root", "s1", "s2", "s3"]
        as_dict = report.to_dict()
        assert set(as_dict) == {
            "node",
            "method",
            "value",
            "weakest",
            "adequacy",
            "warnings",
            "children",
        }
        assert [c["node"] for c in as_dict["children"]] == ["s1", "s2", "s3"]


class TestCompareMethods:
    def test_weak_element_row_flags_the_masking(self):
        rows = compare_methods(weak_tree(), PERCENT)
        assert len(rows) == 1
        row = rows[0]
        assert row.node_id == "root"
        assert row.wem == 10.0
        assert row.wlam == 70.0
        assert row.nam == pytest.approx(NAM_WEAK, rel=1e-12)
        assert row.hybrid is None
        assert row.sigma_12 == pytest.approx(6 / 7, rel=1e-12)
        assert row.sigma_13 == pytest.approx(0.51, rel=1e-12)
        assert row.weakest_ids == ("s1",)
        assert len(row.warnings) == 1
        assert "hidden weak element: s1" in row.warnings[0]

    def test_equal_children_raise_no_flags(self):
        tree = sub("root", [leaf("a", 60), leaf("b", 60), leaf("c", 60)])
        row = compare_methods(tree, PERCENT)[0]
        assert (row.wem, row.wlam, row.nam) == (60.0, 60.0, 60.0)
        assert row.sigma_12 == 0.0
        assert row.sigma_13 == 0.0
        assert row.warnings == ()

    def test_weighted_children_disable_the_nonlinear_columns(self):
        tree = sub("root", [leaf("a", 10, priority=3.0), leaf("b", 100, priority=1.0)])
        row = compare_methods(tree, PERCENT)[0]
        assert row.wlam == 32.5
        assert row.nam is None
        assert row.sigma_13 is None
        # sigma_12 compares wem against the weighted mean actually reported
        assert row.sigma_12 == pytest.approx((32.5 - 10) / 32.5, rel=1e-12)

    def test_grouped_node_adds_one_row_per_group(self):
        rows = compare_methods(two_group_tree(), PERCENT)
        assert [r.node_id for r in rows] == ["root", "root/g1", "root/g2"]
        root, g1, g2 = rows
        assert root.hybrid == pytest.approx(250 / 3, rel=1e-12)
        assert root.wlam == 80.0
        assert root.nam == pytest.approx(61.03515625, rel=1e-12)
        assert (g1.wem, g1.wlam, g1.nam) == (100.0, 100.0, 100.0)
        assert (g2.wem, g2.wlam, g2.nam) == (50.0, 50.0, 50.0)
        assert g2.hybrid is None

    def test_rows_cover_every_subsystem_in_preorder(self):
        tree = sub(
            "root",
            [
                sub("left", [leaf("a", 10), leaf("b", 90)]),
                sub("right", [leaf("c", 70), leaf("d", 80)]),
            ],
        )
        rows = compare_methods(tree, PERCENT)
        assert [r.node_id for r in rows] == ["root", "left", "right"]

    def test_chain_holds_on_the_weak_element_fixture(self):
        for row in compare_methods(weak_tree(), PERCENT):
            if row.nam is not None:
                assert row.wem <= row.nam + 1e-9
                assert row.nam <= row.wlam + 1e-9

    def test_zero_threshold_flags_any_spread(self):
        tree = sub("root", [leaf("a", 59), leaf("b", 60)])
        row = compare_methods(tree, PERCENT, adequacy_threshold=0.0)[0]
        assert row.warnings

    @pytest.mark.parametrize("threshold", [-0.5, 1.2])
    def test_threshold_must_sit_in_the_unit_interval(self, threshold):
        with pytest.raises(EvaluationError, match="threshold"):
            compare_methods(weak_tree(), PERCENT, adequacy_threshold=threshold)

    def test_invalid_tree_is_rejected(self):
        tree = sub("root", [HierarchyNode("a")])
        with pytest.raises(HierarchyValidationError):
            compare_methods(tree, PERCENT)


class TestSweep:
    def test_weak_element_grid_hits_the_known_row(self):
        rows = sweep(weak_tree(), PERCENT, "s1", 0, 100, 101)
        assert len(rows) == 101
        row = rows[10]
        assert row.varied == 10.0
        assert row.wem == 10.0
        assert row.wlam == 70.0
        assert row.nam == pytest.approx(NAM_WEAK, rel=1e-12)
        assert row.hybrid is None

    def test_columns_rise_with_the_single_weak_element(self):
        rows = sweep(weak_tree(), PERCENT, "s1", 0, 100, 101)
        for previous, current in zip(rows, rows[1:]):
            assert previous.wem <= current.wem
            assert previous.wlam <= current.wlam
            assert previous.nam <= current.nam

    def test_curves_meet_at_the_unanimous_endpoint(self):
        last = sweep(weak_tree(), PERCENT, "s1", 0, 100, 101)[-1]
        assert last.varied == 100.0
        assert last.wem == last.wlam == last.nam == 100.0

    def test_equal_bounds_repeat_the_same_row(self):
        rows = sweep(weak_tree(), PERCENT, "s1", 40, 40, 3)
        assert [r.varied for r in rows] == [40.0, 40.0, 40.0]
        assert len({(r.wem, r.wlam, r.nam) for r in rows}) == 1

    def test_two_group_hybrid_endpoints(self):
        rows = sweep(two_group_tree(), PERCENT, "s1", 0, 100, 11)
        assert rows[0].hybrid == pytest.approx(50 / 3, rel=1e-12)
        assert rows[-1].hybrid == pytest.approx(250 / 3, rel=1e-12)

    def test_two_group_wem_caps_at_the_static_group(self):
        rows = sweep(two_group_tree(), PERCENT, "s1", 0, 100, 11)
        for row in rows:
            assert row.wem == min(row.varied, 50.0)

    def test_minimum_of_two_steps(self):
        rows = sweep(weak_tree(), PERCENT, "s1", 0, 100, 2)
        assert [r.varied for r in rows] == [0.0, 100.0]

    def test_too_few_steps_is_rejected(self):
        with pytest.raises(EvaluationError, match="steps must be at least 2"):
            sweep(weak_tree(), PERCENT, "s1", 0, 100, 1)

    @pytest.mark.parametrize("start,stop,name", [(-5, 50, "from"), (0, 150, "to")])
    def test_bounds_must_sit_on_the_scale(self, start, stop, name):
        with pytest.raises(EvaluationError, match=f"sweep {name} value"):
            sweep(weak_tree(), PERCENT, "s1", start, stop, 5)

    def test_leaf_root_cannot_sweep(self):
        with pytest.raises(EvaluationError, match="subsystem root"):
            sweep(leaf("only", 10), PERCENT, "only", 0, 100, 5)

    def test_unknown_leaf_is_rejected(self):
        with pytest.raises(EvaluationError, match="unknown element id 'ghost'"):
            sweep(weak_tree(), PERCENT, "ghost", 0, 100, 5)

    def test_subsystem_target_is_rejected(self):
        tree = sub("root", [sub("inner", [leaf("a", 10)]), leaf("b", 20)])
        with pytest.raises(EvaluationError, match="only leaves can vary"):
            sweep(tree, PERCENT, "inner", 0, 100, 5)


class TestDeepChain:
    """A chain far deeper than the recursion limit runs through every traversal."""

    DEPTH = 20 * sys.getrecursionlimit()

    @classmethod
    def value(cls, k):
        """Distinct leaf values, so every node has a single weakest leaf."""
        return 10 + 80 * k / (cls.DEPTH + 1)

    @classmethod
    def chain(cls):
        # Node n<k> holds leaf c<k> and the rest of the chain; wlam and nam alternate.
        node = leaf(f"c{cls.DEPTH}", cls.value(cls.DEPTH))
        for k in reversed(range(cls.DEPTH)):
            method = Method.WLAM if k % 2 == 0 else Method.NAM
            node = sub(f"n{k}", [leaf(f"c{k}", cls.value(k)), node], MethodConfig(method))
        return node

    @classmethod
    def below_root(cls, bottom):
        """Value of node n1 by a bottom-up loop over the public operators."""
        value = bottom
        for k in reversed(range(1, cls.DEPTH)):
            evals = EvaluationVector(((f"c{k}", cls.value(k)), ("rest", value)), PERCENT)
            value = PERCENT.clamp(wlam(evals) if k % 2 == 0 else nam(evals))
        return EvaluationVector((("c0", cls.value(0)), ("n1", value)), PERCENT)

    def test_every_traversal_completes(self):
        depth = self.DEPTH
        root = self.chain()
        assert validate_hierarchy(root, PERCENT) == []
        ids = [node.id for node in root.walk()]
        expected = [name for k in range(depth) for name in (f"n{k}", f"c{k}")]
        assert ids == [*expected, f"c{depth}"]

        stored = self.below_root(self.value(depth))
        report = aggregate(root, PERCENT)
        assert report.value == PERCENT.clamp(wlam(stored))
        assert report.weakest_ids == ("c0",)
        assert sum(1 for _ in report.walk()) == 2 * depth + 1

        rows = compare_methods(root, PERCENT)
        assert [row.node_id for row in rows] == [f"n{k}" for k in range(depth)]
        assert [row.weakest_ids for row in rows[:2]] == [("c0",), ("c1",)]

        swept = sweep(root, PERCENT, f"c{depth}", self.value(depth), 100, 2)
        top = self.below_root(100.0)
        assert swept == [
            SweepRow(self.value(depth), wem(stored), wlam(stored), nam(stored), None),
            SweepRow(100, wem(top), wlam(top), nam(top), None),
        ]

    def test_to_dict_of_a_3000_level_chain(self):
        depth = 3000

        def value(k):
            return float(10 + k % 80) if k < depth else 50.0

        node = leaf(f"c{depth}", value(depth))
        for k in reversed(range(depth)):
            node = sub(f"n{k}", [leaf(f"c{k}", value(k)), node])
        # n<k>'s value by the public operator, bottom up.
        expected = [0.0] * depth + [value(depth)]
        for k in reversed(range(depth)):
            pair = EvaluationVector(((f"c{k}", value(k)), ("rest", expected[k + 1])), PERCENT)
            expected[k] = PERCENT.clamp(wlam(pair))

        as_dict = aggregate(node, PERCENT).to_dict()
        # Walked level by level: == on the nested dicts would recurse too.
        keys = ["node", "method", "value", "weakest", "adequacy", "warnings", "children"]
        for k in range(depth):
            assert list(as_dict) == keys
            assert as_dict["node"] == f"n{k}"
            assert as_dict["method"] == "wlam"
            assert as_dict["value"] == expected[k]
            tied = [f"c{j}" for j in range(k + -k % 80, depth, 80)]
            assert as_dict["weakest"] == (tied or [f"c{k}"])
            low = min(value(k), expected[k + 1])
            assert as_dict["adequacy"] == (expected[k] - low) / expected[k]
            assert as_dict["warnings"] == []
            first, rest = as_dict["children"]
            assert first == {
                "node": f"c{k}",
                "method": "leaf",
                "value": value(k),
                "weakest": [f"c{k}"],
                "adequacy": 0.0,
                "warnings": [],
                "children": [],
            }
            as_dict = rest
        assert as_dict == {
            "node": f"c{depth}",
            "method": "leaf",
            "value": 50.0,
            "weakest": [f"c{depth}"],
            "adequacy": 0.0,
            "warnings": [],
            "children": [],
        }


class TestPublicEntriesValidate:
    """Each library function validates the tree on every call, after its
    own argument checks; the CLI skips only the second validation pass."""

    @staticmethod
    def invalid_tree():
        return sub("root", [sub("inner", [leaf("a", 10)]), leaf("b", 120)])

    VIOLATIONS = ("leaf 'b': value 120 is outside [0.0, 100.0]",)

    def test_aggregate_rejects_an_invalid_tree(self):
        with pytest.raises(HierarchyValidationError) as excinfo:
            aggregate(self.invalid_tree(), PERCENT)
        assert excinfo.value.violations == self.VIOLATIONS

    def test_compare_methods_rejects_an_invalid_tree(self):
        with pytest.raises(HierarchyValidationError) as excinfo:
            compare_methods(self.invalid_tree(), PERCENT, 0.3)
        assert excinfo.value.violations == self.VIOLATIONS

    def test_sweep_rejects_an_invalid_tree(self):
        with pytest.raises(HierarchyValidationError) as excinfo:
            sweep(self.invalid_tree(), PERCENT, "a", 0, 100, 5)
        assert excinfo.value.violations == self.VIOLATIONS

    def test_compare_methods_checks_the_threshold_first(self):
        with pytest.raises(EvaluationError, match="threshold must lie in"):
            compare_methods(self.invalid_tree(), PERCENT, 1.5)

    @pytest.mark.parametrize(
        "vary, start, stop, steps, message",
        [
            ("a", 0, 100, 1, "steps must be at least 2"),
            ("a", -1, 100, 5, "sweep from value -1 is outside"),
            ("a", 0, 101, 5, "sweep to value 101 is outside"),
            ("ghost", 0, 100, 5, "unknown element id 'ghost'"),
            ("inner", 0, 100, 5, "only leaves can vary"),
        ],
    )
    def test_sweep_checks_its_arguments_first(self, vary, start, stop, steps, message):
        with pytest.raises(EvaluationError, match=message):
            sweep(self.invalid_tree(), PERCENT, vary, start, stop, steps)


def grid_before_overflow_fallback(start, stop, steps):
    """The grid's formula at every point, including those where ``span * index``
    overflows to inf."""
    span = stop - start
    return [stop if index == steps - 1 else start + span * index / (steps - 1)
            for index in range(steps)]


class TestGrid:
    """``hierarchy._grid`` gives finite points in order, both ends exact, and
    changes no point that its formula gives finite."""

    @settings(deadline=None, max_examples=400)
    @given(st.floats(0, sys.float_info.max), st.floats(0, sys.float_info.max),
           st.integers(2, 300))
    @example(0.0, 3e307, 11)
    @example(0.0, sys.float_info.max, 2)
    @example(0.0, sys.float_info.max, 3)
    @example(sys.float_info.max, 0.0, 51)
    @example(1e-300, sys.float_info.max, 300)
    def test_points_are_finite_in_order_and_keep_their_bits(self, start, stop, steps):
        points = _grid(start, stop, steps)
        assert len(points) == steps
        assert (points[0], points[-1]) == (start, stop)
        low, high = sorted((start, stop))
        assert all(low <= point <= high for point in points)
        ordered = points if start <= stop else points[::-1]
        assert ordered == sorted(ordered)
        for point, formula in zip(points, grid_before_overflow_fallback(start, stop, steps)):
            if math.isfinite(formula):
                assert point.hex() == formula.hex()

    def test_the_fallback_serves_only_points_whose_product_overflows(self):
        formula = grid_before_overflow_fallback(0.0, 3e307, 11)
        assert [x == math.inf for x in formula] == [False] * 6 + [True] * 4 + [False]
        assert _grid(0.0, 3e307, 11)[6:10] == [3e307 * (k / 10) for k in range(6, 10)]
