"""End-to-end tests of the command line interface."""

import json

import pytest

import aggeval.description
import aggeval.hierarchy
from aggeval.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, payload, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestEvaluateMethod:
    @pytest.mark.parametrize(
        "method,expected",
        [("wem", "10\n"), ("wlam", "70\n"), ("nam", "20.4082\n")],
    )
    def test_flat_methods_print_one_number(self, capsys, fixture_path, method, expected):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("weak_element.json"),
            "--method",
            method,
        )
        assert code == 0
        assert out == expected

    def test_hybrid_uses_the_groups_section(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("two_group.json"),
            "--method",
            "hybrid",
        )
        assert code == 0
        assert out == "83.3333\n"

    def test_hybrid_without_groups_fails_validation(self, capsys, fixture_path):
        code, _, err = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("weak_element.json"),
            "--method",
            "hybrid",
        )
        assert code == 2
        assert (
            err == "error: the hybrid method needs a groups section in the description\n"
        )

    def test_wem_then_reports_its_three_numbers(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("two_group.json"),
            "--method",
            "wem-then",
        )
        assert code == 0
        assert out == "critical_wem 100\naggregate 80\nadequacy -0.25\n"

    def test_wem_then_prefers_top_explicit_priorities(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            {
                "scale": {"min": 0, "max": 100},
                "elements": [
                    {"id": "s1", "evaluation": 30, "priority": 2.0},
                    {"id": "s2", "evaluation": 90, "priority": 1.0},
                ],
            },
        )
        code, out, _ = run(capsys, "evaluate", "--input", path, "--method", "wem-then")
        assert code == 0
        assert out == "critical_wem 30\naggregate 50\nadequacy 0.4\n"

    def test_json_format(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("weak_element.json"),
            "--method",
            "nam",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "method": "nam",
            "value": pytest.approx(20.408163265306122, rel=1e-12),
        }

    def test_csv_format(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("weak_element.json"),
            "--method",
            "nam",
            "--format",
            "csv",
        )
        assert code == 0
        assert out == "method,value\nnam,20.408163\n"

    def test_single_element_echo(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("single_leaf.json"),
            "--method",
            "nam",
        )
        assert code == 0
        assert out == "42\n"


class TestEvaluateSummary:
    def test_side_by_side_summary(self, capsys, fixture_path):
        code, out, _ = run(
            capsys, "evaluate", "--input", fixture_path("weak_element.json")
        )
        assert code == 0
        assert out == (
            "wem 10\nwlam 70\nnam 20.4082\nsigma_12 0.857143\nsigma_13 0.51\n"
        )

    def test_groups_add_the_hybrid_line(self, capsys, fixture_path):
        code, out, _ = run(capsys, "evaluate", "--input", fixture_path("two_group.json"))
        assert code == 0
        assert "hybrid 83.3333\n" in out
        assert "sigma_12 0.375\n" in out

    def test_explicit_priorities_disable_the_nonlinear_columns(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            {
                "scale": {"min": 0, "max": 100},
                "elements": [
                    {"id": "s1", "evaluation": 10, "priority": 3.0},
                    {"id": "s2", "evaluation": 100, "priority": 1.0},
                ],
            },
        )
        code, out, _ = run(capsys, "evaluate", "--input", path)
        assert code == 0
        assert "nam n/a\n" in out
        assert "sigma_13 n/a\n" in out
        assert "wlam 32.5\n" in out

    def test_summary_csv_columns(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("weak_element.json"),
            "--format",
            "csv",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "wem,wlam,nam,sigma_12,sigma_13"
        assert row == "10.000000,70.000000,20.408163,0.857143,0.510000"

    def test_all_equal_summary_shows_no_gap(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("all_equal.json"),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["wem"] == doc["wlam"] == doc["nam"] == 60.0
        assert doc["sigma_12"] == doc["sigma_13"] == 0.0


class TestEvaluateHierarchy:
    def test_tree_report(self, capsys, fixture_path):
        code, out, _ = run(
            capsys, "evaluate", "--input", fixture_path("plant_hierarchy.json")
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("plant [wlam] = ")
        assert "weakest supply_a" in lines[0]
        assert any(line.startswith("  line [nam] = ") for line in lines)
        assert any(line.startswith("  supply [nam] = 20.4082") for line in lines)
        assert (
            "    warning: adequacy 0.51 exceeds threshold 0.5; weakest: supply_a"
            in lines
        )
        assert "    press = 65" in lines

    def test_tree_report_csv(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("plant_hierarchy.json"),
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "node,method,value,adequacy,weakest"
        assert "supply,nam,20.408163,0.510000,supply_a" in lines

    def test_tree_report_json_mirrors_the_hierarchy(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("plant_hierarchy.json"),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["node"] == "plant"
        assert [c["node"] for c in doc["children"]] == ["line", "supply"]
        assert doc["children"][1]["warnings"]


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "evaluate", "--input", "/nowhere/else.json")
        assert code == 1
        assert err == "error: no such file: /nowhere/else.json\n"

    def test_directory_instead_of_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "evaluate", "--input", str(tmp_path))
        assert code == 1
        assert err.startswith("error: not a file: ")

    def test_syntax_error_exits_validation(self, capsys, fixture_path):
        code, _, err = run(
            capsys, "evaluate", "--input", fixture_path("invalid_syntax.json")
        )
        assert code == 2
        assert "invalid JSON" in err

    def test_range_error_exits_validation(self, capsys, fixture_path):
        code, _, err = run(
            capsys, "evaluate", "--input", fixture_path("invalid_range.json")
        )
        assert code == 2
        assert "elements[0].evaluation" in err

    def test_unknown_command_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "destroy")
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "evaluate")
        assert code == 1
        assert "--input" in err

    def test_bad_method_name_is_a_usage_error(self, capsys, fixture_path):
        code, _, err = run(
            capsys,
            "evaluate",
            "--input",
            fixture_path("weak_element.json"),
            "--method",
            "median",
        )
        assert code == 1
        assert "invalid choice" in err


class TestCompare:
    def test_hidden_weak_element_sets_the_warning_exit(self, capsys, fixture_path):
        code, out, _ = run(
            capsys, "compare", "--input", fixture_path("weak_element.json")
        )
        assert code == 3
        lines = out.splitlines()
        assert lines[0].split() == [
            "node",
            "wem",
            "wlam",
            "nam",
            "hybrid",
            "sigma_12",
            "sigma_13",
            "warnings",
        ]
        row = lines[1].split(maxsplit=7)
        assert row[:7] == ["system", "10", "70", "20.4082", "-", "0.857143", "0.51"]
        assert row[7].startswith("hidden weak element: s1")

    def test_equal_elements_stay_quiet(self, capsys, fixture_path):
        code, out, _ = run(capsys, "compare", "--input", fixture_path("all_equal.json"))
        assert code == 0
        assert "hidden weak element" not in out

    def test_higher_threshold_silences_the_warning(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "compare",
            "--input",
            fixture_path("weak_element.json"),
            "--threshold",
            "0.9",
        )
        assert code == 0
        assert "hidden weak element" not in out

    def test_threshold_outside_unit_interval_fails_validation(
        self, capsys, fixture_path
    ):
        code, _, err = run(
            capsys,
            "compare",
            "--input",
            fixture_path("weak_element.json"),
            "--threshold",
            "1.5",
        )
        assert code == 2
        assert "threshold" in err

    def test_grouped_document_gets_group_rows(self, capsys, fixture_path):
        code, out, _ = run(capsys, "compare", "--input", fixture_path("two_group.json"))
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines[1:]] == [
            "system",
            "system/g1",
            "system/g2",
        ]
        root = lines[1].split()
        assert root[1:5] == ["50", "80", "61.0352", "83.3333"]
        assert lines[2].split()[1:5] == ["100", "100", "100", "-"]

    def test_explicit_hierarchy_rows(self, capsys, fixture_path):
        code, out, _ = run(
            capsys, "compare", "--input", fixture_path("plant_hierarchy.json")
        )
        assert code == 3
        assert [line.split()[0] for line in out.splitlines()[1:]] == [
            "plant",
            "line",
            "supply",
        ]


class TestSweep:
    def test_weak_element_grid(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "sweep",
            "--input",
            fixture_path("weak_element.json"),
            "--vary",
            "s1",
            "--from",
            "0",
            "--to",
            "100",
            "--steps",
            "101",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "varied,wem,wlam,nam"
        assert len(lines) == 102
        assert lines[11] == "10,10.000000,70.000000,20.408163"
        assert lines[-1] == "100,100.000000,100.000000,100.000000"

    def test_runs_are_byte_identical(self, capsys, fixture_path):
        args = (
            "sweep",
            "--input",
            fixture_path("weak_element.json"),
            "--vary",
            "s1",
            "--from",
            "0",
            "--to",
            "100",
            "--steps",
            "101",
        )
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_two_group_grid_carries_the_hybrid_column(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "sweep",
            "--input",
            fixture_path("two_group.json"),
            "--vary",
            "s1",
            "--from",
            "0",
            "--to",
            "100",
            "--steps",
            "11",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "varied,wem,wlam,nam,hybrid"
        assert lines[1] == "0,0.000000,60.000000,0.000000,16.666667"
        assert lines[-1] == "100,50.000000,80.000000,61.035156,83.333333"

    def test_out_writes_the_same_csv_with_lf_endings(
        self, capsys, fixture_path, tmp_path
    ):
        target = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--input",
            fixture_path("weak_element.json"),
            "--vary",
            "s1",
            "--from",
            "0",
            "--to",
            "100",
            "--steps",
            "5",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").splitlines()[0] == "varied,wem,wlam,nam"
        assert data.endswith(b"\n")

    def test_minimum_grid(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "sweep",
            "--input",
            fixture_path("weak_element.json"),
            "--vary",
            "s1",
            "--from",
            "20",
            "--to",
            "80",
            "--steps",
            "2",
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["20", "80"]

    def test_single_step_fails_validation(self, capsys, fixture_path):
        code, _, err = run(
            capsys,
            "sweep",
            "--input",
            fixture_path("weak_element.json"),
            "--vary",
            "s1",
            "--from",
            "0",
            "--to",
            "100",
            "--steps",
            "1",
        )
        assert code == 2
        assert "steps must be at least 2" in err

    def test_bounds_outside_the_scale_fail_validation(self, capsys, fixture_path):
        code, _, err = run(
            capsys,
            "sweep",
            "--input",
            fixture_path("weak_element.json"),
            "--vary",
            "s1",
            "--from",
            "-5",
            "--to",
            "100",
            "--steps",
            "5",
        )
        assert code == 2
        assert "sweep from value" in err

    def test_unknown_element_fails_validation(self, capsys, fixture_path):
        code, _, err = run(
            capsys,
            "sweep",
            "--input",
            fixture_path("weak_element.json"),
            "--vary",
            "ghost",
            "--from",
            "0",
            "--to",
            "100",
            "--steps",
            "5",
        )
        assert code == 2
        assert "unknown element id 'ghost'" in err


class TestValidationRunsOnce:
    """The parser validates the tree; the commands do not validate it again."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        for module in (aggeval.description, aggeval.hierarchy):
            original = module.validate_hierarchy

            def counting(*args, _original=original, _name=module.__name__):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, "validate_hierarchy", counting)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate"],
            ["evaluate", "--format", "json"],
            ["compare"],
            ["compare", "--threshold", "0.1"],
            ["sweep", "--vary", "supply_a", "--from", "0", "--to", "100", "--steps", "3"],
        ],
    )
    def test_hierarchy_file_is_validated_once(self, capsys, fixture_path, validations, argv):
        path = fixture_path("plant_hierarchy.json")
        code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
        assert code in (0, 3) and out and not err
        assert validations == ["aggeval.description"]

    @pytest.mark.parametrize("name", ["weak_element.json", "two_group.json"])
    def test_flat_compare_is_not_validated_again(self, capsys, fixture_path, validations, name):
        code, out, err = run(capsys, "compare", "--input", fixture_path(name))
        assert code in (0, 3) and out and not err
        assert validations == []


class TestPriorities:
    def test_degree_ranking_table(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "priorities",
            "--input",
            fixture_path("path_network.json"),
            "--strategy",
            "degree",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["rank", "node", "score", "priority"]
        assert lines[1].split() == ["1", "b", "2", "1"]
        assert lines[2].split() == ["2", "a", "1", "0.5"]
        assert lines[3].split() == ["3", "c", "1", "0.5"]

    def test_flow_volume_breaks_degree_ties(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "priorities",
            "--input",
            fixture_path("tie_break_network.json"),
            "--strategy",
            "degree",
        )
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()[1:]] == [
            "a",
            "d",
            "b",
            "c",
        ]

    def test_betweenness_ranking_floors_the_endpoints(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "priorities",
            "--input",
            fixture_path("tie_break_network.json"),
            "--strategy",
            "betweenness",
        )
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[1] for line in lines[1:]] == ["b", "c", "a", "d"]
        assert lines[3].split()[2:] == ["0", "1e-06"]

    def test_grouping_clusters_close_priorities(self, capsys, fixture_path):
        code, out, _ = run(
            capsys,
            "priorities",
            "--input",
            fixture_path("path_network.json"),
            "--strategy",
            "degree",
            "--group-tolerance",
            "0.1",
        )
        assert code == 0
        assert "groups (tolerance 0.1):" in out
        assert "g1: priority 1, members b" in out
        assert "g2: priority 0.5, members a, c" in out

    def test_single_node_network(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            {
                "scale": {"min": 0, "max": 100},
                "elements": [{"id": "only", "evaluation": 42}],
                "network": {"nodes": ["only"]},
            },
        )
        code, out, _ = run(capsys, "priorities", "--input", path, "--strategy", "degree")
        assert code == 0
        assert out.splitlines()[1].split() == ["1", "only", "0", "1"]

    def test_description_without_network_fails_validation(self, capsys, fixture_path):
        code, _, err = run(
            capsys,
            "priorities",
            "--input",
            fixture_path("weak_element.json"),
            "--strategy",
            "degree",
        )
        assert code == 2
        assert err == "error: description has no network section\n"


class TestHostileInput:
    def test_non_utf8_file_is_one_diagnostic(self, capsys, tmp_path):
        data = b'{"scale": {"min": 0, "max": 100}, "elements": [{"id": "s\xff", "evaluation": 1}]}'
        path = tmp_path / "latin.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 2
        assert out == ""
        offset = data.index(b"\xff")
        assert err == (
            f"error: {path}: not valid UTF-8: invalid start byte at byte {offset}\n"
        )

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "scale": {"min": 0, "max": 100},
                "elements": [
                    {"id": "a", "evaluation": 50, "priority": 1e308},
                    {"id": "b", "evaluation": 60, "priority": 1e308},
                ],
            },
            {
                "scale": {"min": 0, "max": 1e308},
                "elements": [
                    {"id": "a", "evaluation": 1e308},
                    {"id": "b", "evaluation": 9e307},
                ],
            },
        ],
        ids=["huge-priorities", "huge-evaluations"],
    )
    def test_overflowing_sums_are_an_impossible_request(self, capsys, tmp_path, payload):
        code, out, err = run(capsys, "evaluate", "--input", write_doc(tmp_path, payload))
        assert code == 2
        assert out == ""
        assert err == "error: numeric overflow: intermediate overflow in fsum\n"

    # One priority of 1e308 makes its product 50 * 1e308 overflow while the
    # weighted mean itself is about 50; it must be computed, not reported as inf.
    HUGE_ONE = {
        "scale": {"min": 0, "max": 100},
        "elements": [
            {"id": "a", "evaluation": 50, "priority": 1e308},
            {"id": "b", "evaluation": 60},
        ],
    }
    HUGE_IN_SUBSYSTEM = {
        "scale": {"min": 0, "max": 100},
        "elements": [
            {"id": "a", "evaluation": 50, "priority": 1e308},
            {"id": "b", "evaluation": 60},
            {"id": "c", "evaluation": 70},
        ],
        "hierarchy": {"id": "root", "children": [{"id": "s", "children": ["a", "b"]}, "c"]},
    }

    def test_one_huge_priority_is_a_finite_weighted_mean(self, capsys, tmp_path):
        code, out, err = run(capsys, "evaluate", "--input", write_doc(tmp_path, self.HUGE_ONE))
        assert (code, err) == (0, "")
        assert out == "wem 50\nwlam 50\nnam n/a\nsigma_12 0\nsigma_13 n/a\n"

    def test_one_huge_priority_inside_a_subsystem(self, capsys, tmp_path):
        path = write_doc(tmp_path, self.HUGE_IN_SUBSYSTEM)
        code, out, err = run(capsys, "evaluate", "--input", path)
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == [
            "root [wlam] = 60 (adequacy 0.166667; weakest a)",
            "  s [wlam] = 50 (adequacy 0; weakest a)",
        ]
        code, out, err = run(capsys, "compare", "--input", path)
        assert (code, err) == (0, "")
        assert out.splitlines()[2].split() == ["s", "50", "50", "-", "-", "0", "-", "-"]

    def test_one_huge_priority_in_a_sweep(self, capsys, tmp_path):
        path = write_doc(tmp_path, self.HUGE_IN_SUBSYSTEM)
        code, out, err = run(
            capsys, "sweep", "--input", path, "--vary", "b",
            "--from", "0", "--to", "100", "--steps", "3",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "0,50.000000,60.000000,58.333333"

    def test_one_huge_group_priority_is_a_finite_hybrid(self, capsys, tmp_path):
        payload = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": "a", "evaluation": 50}, {"id": "b", "evaluation": 60}],
            "groups": [
                {"id": "g1", "members": ["a"], "priority": 1e308},
                {"id": "g2", "members": ["b"], "priority": 1},
            ],
        }
        path = write_doc(tmp_path, payload)
        code, out, err = run(capsys, "evaluate", "--input", path, "--method", "hybrid")
        assert (code, out, err) == (0, "50\n", "")

    @pytest.mark.parametrize(
        "extra",
        [
            ["evaluate"],
            ["compare"],
            ["sweep", "--vary", "a", "--from", "0", "--to", "100", "--steps", "3"],
        ],
        ids=["evaluate", "compare", "sweep"],
    )
    def test_nesting_too_deep_to_decode_is_one_diagnostic(self, capsys, tmp_path, extra):
        # Built as a string: json.dumps would itself recurse this deep.
        depth = 5000
        text = (
            '{"scale": {"min": 0, "max": 100},'
            ' "elements": [{"id": "a", "evaluation": 50}], "hierarchy": '
            + '{"id": "s", "children": [' * depth
            + '"a"'
            + "]}" * depth
            + "}"
        )
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, extra[0], "--input", str(path), *extra[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: nesting deeper than the JSON decoder allows\n"
