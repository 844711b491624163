"""End-to-end tests of the command line interface."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import aggeval.description
import aggeval.hierarchy
from aggeval import HierarchyNode, aggregate, cli
from aggeval.cli import main
from aggeval.description import _Columns, _Compiled
from test_reference_oracle import workloads


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


PRIORITIES_DOC = {
    "scale": {"min": 0, "max": 100},
    "elements": [
        {"id": "s1", "evaluation": 10, "priority": 3.0},
        {"id": "s2", "evaluation": 100, "priority": 1.0},
    ],
}


class TestFlatRecordLayout:
    """Exact bytes of flat ``evaluate`` in every format: hybrid sits after
    nam in text and CSV but last in JSON; a missing value is ``n/a``,
    ``null`` or an empty cell."""

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("text", "wem 50\nwlam 80\nnam 61.0352\nhybrid 83.3333\n"
                     "sigma_12 0.375\nsigma_13 0.1808\n"),
            ("json", '{\n  "wem": 50.0,\n  "wlam": 80.0,\n  "nam": 61.03515625,\n'
                     '  "sigma_12": 0.375,\n  "sigma_13": 0.1808,\n'
                     '  "hybrid": 83.33333333333333\n}\n'),
            ("csv", "wem,wlam,nam,hybrid,sigma_12,sigma_13\n"
                    "50.000000,80.000000,61.035156,83.333333,0.375000,0.180800\n"),
        ],
    )
    def test_grouped_summary(self, capsys, fixture_path, fmt, expected):
        code, out, _ = run(
            capsys, "evaluate", "--input", fixture_path("two_group.json"), "--format", fmt
        )
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("json", '{\n  "wem": 10.0,\n  "wlam": 32.5,\n  "nam": null,\n'
                     '  "sigma_12": 0.6923076923076923,\n  "sigma_13": null\n}\n'),
            ("csv", "wem,wlam,nam,sigma_12,sigma_13\n10.000000,32.500000,,0.692308,\n"),
        ],
    )
    def test_summary_without_nam(self, capsys, tmp_path, fmt, expected):
        path = write_doc(tmp_path, PRIORITIES_DOC)
        code, out, _ = run(capsys, "evaluate", "--input", path, "--format", fmt)
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("json", '{\n  "method": "wem-then",\n  "critical_wem": 100.0,\n'
                     '  "aggregate": 80.0,\n  "adequacy": -0.25\n}\n'),
            ("csv", "method,critical_wem,aggregate,adequacy\n"
                    "wem-then,100.000000,80.000000,-0.250000\n"),
        ],
    )
    def test_wem_then_record(self, capsys, fixture_path, fmt, expected):
        code, out, _ = run(
            capsys, "evaluate", "--input", fixture_path("two_group.json"),
            "--method", "wem-then", "--format", fmt,
        )
        assert (code, out) == (0, expected)


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


class TestTreeCsvQuoting:
    """Tree ``evaluate --format csv`` quotes an id cell holding a comma, a
    quote, CR or LF, with its quotes doubled (RFC 4180)."""

    IDS = ["a,b", 'c"d', "e\nf", "g\rh", "plain"]

    def _rows(self, capsys, tmp_path, hierarchy):
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": i, "evaluation": 50 if k < 2 else 70}
                         for k, i in enumerate(self.IDS)],
            "hierarchy": hierarchy,
        }
        path = write_doc(tmp_path, doc)
        code, out, err = run(capsys, "evaluate", "--input", path, "--format", "csv")
        assert (code, err) == (0, "")
        return list(csv.reader(io.StringIO(out, newline="")))

    def test_every_row_parses_to_five_fields_and_keeps_its_ids(self, capsys, tmp_path):
        inner = {"id": "sub,1", "method": {"method": "wem"}, "children": self.IDS[:3]}
        rows = self._rows(
            capsys, tmp_path, {"id": 'top"', "children": [inner, *self.IDS[3:]]}
        )
        assert rows[0] == ["node", "method", "value", "adequacy", "weakest"]
        assert all(len(row) == 5 for row in rows)
        assert [row[0] for row in rows[1:]] == ['top"', "sub,1", *self.IDS]
        assert rows[1][4].split(";") == ["a,b", 'c"d']
        assert rows[2][1:] == ["wem", "50.000000", "0.000000", 'a,b;c"d']
        for row in rows[3:]:
            assert row[4] == row[0]

    def test_quoted_bytes(self, capsys, tmp_path):
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": "a,b", "evaluation": 50}, {"id": 'c"d', "evaluation": 50}],
            "hierarchy": {"id": "root", "children": ["a,b", 'c"d']},
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "evaluate", "--input", path, "--format", "csv")
        assert (code, out) == (
            0,
            "node,method,value,adequacy,weakest\n"
            'root,wlam,50.000000,0.000000,"a,b;c""d"\n'
            '"a,b",leaf,50.000000,0.000000,"a,b"\n'
            '"c""d",leaf,50.000000,0.000000,"c""d"\n',
        )


class TestTextLineBreaksInIds:
    """Text output writes CR and LF in an id as the two characters ``\\r``
    and ``\\n``, so each node, row or group stays on one line."""

    BREAKS = [("\n", "\\n"), ("\r", "\\r")]

    def _tree(self, tmp_path, brk):
        leaf = f"e{brk}f"
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": leaf, "evaluation": 10}, {"id": "plain", "evaluation": 90}],
            "hierarchy": {"id": "root", "children": [leaf, "plain"]},
        }
        return write_doc(tmp_path, doc)

    @pytest.mark.parametrize("brk,shown", BREAKS)
    def test_evaluate_tree_text(self, capsys, tmp_path, brk, shown):
        code, out, _ = run(capsys, "evaluate", "--input", self._tree(tmp_path, brk))
        assert code == 0
        assert out.split("\n") == [
            f"root [wlam] = 50 (adequacy 0.8; weakest e{shown}f)",
            f"  e{shown}f = 10",
            "  plain = 90",
            "",
        ]

    @pytest.mark.parametrize("brk,shown", BREAKS)
    def test_compare_table(self, capsys, tmp_path, brk, shown):
        code, out, _ = run(capsys, "compare", "--input", self._tree(tmp_path, brk))
        assert code == 3
        assert out.split("\n") == [
            "node  wem  wlam  nam  hybrid  sigma_12  sigma_13  warnings",
            f"root  10   50    18   -       0.8       0.444444  hidden weak element: "
            f"e{shown}f (sigma_12 0.8 > threshold 0.5)",
            "",
        ]

    @pytest.mark.parametrize("brk,shown", BREAKS)
    def test_priorities_table_and_groups(self, capsys, tmp_path, brk, shown):
        node = f"a{brk}b"
        doc = {
            "scale": {"min": 0, "max": 100},
            "elements": [{"id": "x", "evaluation": 10}],
            "network": {"nodes": [node, "c", "d"], "edges": [[node, "c"], ["c", "d"]]},
        }
        code, out, _ = run(capsys, "priorities", "--input", write_doc(tmp_path, doc),
                           "--strategy", "degree", "--group-tolerance", "0.01")
        assert code == 0
        # The escaped id is four characters wide, and its column is too.
        assert out.split("\n") == [
            "rank  node  score  priority",
            "1     c     2      1",
            f"2     a{shown}b  1      0.5",
            "3     d     1      0.5",
            "groups (tolerance 0.01):",
            "g1: priority 1, members c",
            f"g2: priority 0.5, members a{shown}b, d",
            "",
        ]


class TestSharedParser:
    """The argument parser is built once, at import; each call looks its
    command's handler up by name."""

    def test_patched_handler_is_the_one_that_runs(self, fixture_path):
        calls = []

        def fake(args):
            calls.append(args.threshold)
            return 7

        with mock.patch.object(cli, "_cmd_compare", fake):
            code = main(["compare", "--input", fixture_path("weak_element.json"),
                         "--threshold", "0.25"])
        assert (code, calls) == (7, [0.25])

    def test_main_does_not_build_a_parser(self, capsys, fixture_path):
        with mock.patch.object(cli, "_build_parser", side_effect=AssertionError):
            code, out, _ = run(capsys, "evaluate", "--input",
                               fixture_path("weak_element.json"), "--method", "wem")
        assert (code, out) == (0, "10\n")

    def test_alternating_calls_match_a_fresh_parser(self, capsys, fixture_path):
        weak = fixture_path("weak_element.json")
        calls = [
            ["evaluate", "--input", weak],
            ["evaluate"],
            ["compare", "--input", weak],
            ["--help"],
            ["evaluate", "--input", weak, "--method", "median"],
            ["sweep", "--help"],
            ["evaluate", "--input", weak, "--format", "csv"],
            ["destroy"],
        ]
        shared = [run(capsys, *argv) for argv in calls + calls]
        fresh = []
        for argv in calls:
            with mock.patch.object(cli, "_PARSER", cli._build_parser()):
                fresh.append(run(capsys, *argv))
        assert shared == fresh + fresh
        assert [code for code, _, _ in fresh] == [0, 1, 3, 0, 1, 0, 0, 1]
        assert fresh[3][1].startswith("usage: aggeval ")


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

    def test_unreadable_file_is_a_usage_error(self, capsys, monkeypatch, fixture_path):
        # File modes do not stop every user (root reads anything), so the
        # denial is raised by a stand-in for the parser's open().
        path = fixture_path("weak_element.json")

        def deny(name, *args, **kwargs):
            raise PermissionError(13, "Permission denied", name)

        monkeypatch.setattr(aggeval.description, "open", deny, raising=False)
        code, out, err = run(capsys, "evaluate", "--input", path)
        assert (code, out) == (1, "")
        assert err == f"error: permission denied: {path}\n"

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

    def test_a_span_whose_grid_products_overflow_stays_finite(self, capsys, tmp_path):
        path = write_doc(tmp_path, {
            "scale": {"min": 0, "max": 3e307},
            "elements": [{"id": "a", "evaluation": 1e307}, {"id": "b", "evaluation": 2e307},
                         {"id": "c", "evaluation": 5e306}],
        })
        code, out, err = run(capsys, "sweep", "--input", path, "--vary", "a",
                             "--from", "0", "--to", "3e307", "--steps", "11")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        varied = [float(row[0]) for row in rows]
        assert [row[0] for row in rows] == ["0", "3e+306", "6e+306", "9e+306", "1.2e+307",
                                            "1.5e+307", "1.8e+307", "2.1e+307", "2.4e+307",
                                            "2.7e+307", "3e+307"]
        assert varied == sorted(varied)
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)


METHOD_CHOICES = [None, "wem", "wlam", "nam", "hybrid", "wem-then"]


class TestNoElementObjects:
    """No command builds an ``Element``: the description each one loads
    still holds the parser's element columns afterwards."""

    @pytest.fixture
    def loaded(self, monkeypatch):
        descriptions = []

        def keeping(path):
            desc = aggeval.description.load_description(path)
            descriptions.append(desc)
            return desc

        monkeypatch.setattr(cli, "load_description", keeping)
        return descriptions

    @pytest.mark.parametrize(
        "name",
        [
            "weak_element.json",  # flat, neither groups nor priorities
            "two_group.json",  # flat with groups
            "element priorities",  # flat with element priorities
            "plant_hierarchy.json",
            "path_network.json",
        ],
    )
    def test_every_command_leaves_the_columns(self, capsys, fixture_path, tmp_path, loaded, name):
        if name == "element priorities":
            path = write_doc(tmp_path, {
                "scale": {"min": 0, "max": 100},
                "elements": [
                    {"id": "a", "evaluation": 30, "priority": 2},
                    {"id": "b", "evaluation": 80, "priority": 2},
                    {"id": "c", "evaluation": 10},
                ],
            })
        else:
            path = fixture_path(name)
        vary = json.loads(Path(path).read_text(encoding="utf-8"))["elements"][0]["id"]
        grid = ["--vary", vary, "--from", "0", "--to", "100", "--steps", "3"]
        calls = [
            ["evaluate", "--format", fmt, *(["--method", method] if method else [])]
            for fmt in ("text", "json", "csv")
            for method in METHOD_CHOICES
        ]
        calls += [
            ["compare"],
            ["sweep", *grid],
            ["sweep", *grid, "--out", str(tmp_path / "sweep.csv")],
            ["priorities", "--strategy", "combined"],
        ]
        for argv in calls:
            code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
            # hybrid without groups and priorities without a network exit 2
            # after the load.
            assert code in (0, 2, 3) and (out or err or "--out" in argv), argv
            assert len(loaded) == 1, argv
            assert type(vars(loaded.pop())["elements"]) is _Columns, argv


LEAF_ROOT = {
    "scale": {"min": 0, "max": 100},
    "elements": [{"id": "e1", "evaluation": 42}],
    "hierarchy": "e1",
}


def hierarchy_files(tmp_path, fixture_path):
    """The hierarchy fixture, a leaf root, and a hybrid tree, each with a
    leaf to vary, by name."""
    sweep = workloads.materialize("tree-sweep", 1, str(tmp_path / "tree-sweep"))
    return {
        "plant": (fixture_path("plant_hierarchy.json"), "supply_a"),
        "leaf root": (write_doc(tmp_path, LEAF_ROOT), "e1"),
        "tree-sweep": (sweep.path, sweep.commands[0].argv[4]),
    }


def tree_calls(vary, out):
    grid = ["--vary", vary, "--from", "0", "--to", "100", "--steps", "5"]
    return [
        ["evaluate"],
        ["evaluate", "--format", "csv"],
        ["compare"],
        ["compare", "--threshold", "0.1"],
        ["sweep", *grid],
        ["sweep", *grid, "--out", out],
    ]


@pytest.fixture
def loaded(monkeypatch):
    """Each description a command loads, in order."""
    descriptions = []

    def keeping(path):
        desc = aggeval.description.load_description(path)
        descriptions.append(desc)
        return desc

    monkeypatch.setattr(cli, "load_description", keeping)
    return descriptions


def node_builds(monkeypatch):
    """The ``HierarchyNode`` objects the parser's builder makes, as a list."""
    built = []
    original = aggeval.description._built

    def counting(cls, fields):
        obj = original(cls, fields)
        if cls is HierarchyNode:
            built.append(obj)
        return obj

    monkeypatch.setattr(aggeval.description, "_built", counting)
    return built


class TestNoHierarchyNodeObjects:
    """``evaluate`` in every format, ``compare`` and ``sweep`` on a
    hierarchy file build no node tree: the description each loads still
    holds the parser's compiled entries afterwards.  ``hierarchy_root()``
    builds the tree, once."""

    @pytest.mark.parametrize("name", ["plant", "leaf root", "tree-sweep"])
    def test_commands_leave_the_entries(self, capsys, fixture_path, tmp_path, loaded, name):
        path, vary = hierarchy_files(tmp_path, fixture_path)[name]
        calls = tree_calls(vary, str(tmp_path / "sweep.csv"))
        # One method over the flat element vector, in any format.
        calls += [["evaluate", "--method", m, "--format", "json"] for m in METHOD_CHOICES[1:]]
        for argv in calls:
            code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
            # A leaf root cannot be swept, and hybrid needs a groups section.
            assert code in (0, 2, 3) and (out or err or "--out" in argv), argv
            assert len(loaded) == 1, argv
            assert type(vars(loaded.pop())["hierarchy"]) is _Compiled, argv

    @pytest.mark.parametrize("name", ["plant", "leaf root", "tree-sweep"])
    def test_json_and_hierarchy_root_build_the_tree_once(
        self, capsys, fixture_path, tmp_path, loaded, monkeypatch, name
    ):
        path, _ = hierarchy_files(tmp_path, fixture_path)[name]
        built = node_builds(monkeypatch)
        code, out, _ = run(capsys, "evaluate", "--input", path, "--format", "json")
        assert code == 0 and out
        assert type(vars(loaded.pop())["hierarchy"]) is _Compiled
        assert built == []
        desc = aggeval.description.load_description(path)
        root = desc.hierarchy_root()
        assert desc.hierarchy_root() is root is desc.hierarchy is vars(desc)["hierarchy"]
        assert len(built) == sum(1 for _ in root.walk())


class TestStoredEntriesAreNeverWritten:
    """The commands roll up, compare and sweep copies of the value lists:
    after each, twice over, the loaded description gives what a fresh load
    gives, down to ``aggregate`` on its tree."""

    @pytest.mark.parametrize("name", ["plant", "leaf root", "tree-sweep"])
    def test_commands_twice_then_aggregate(self, capsys, fixture_path, tmp_path, monkeypatch, name):
        path, vary = hierarchy_files(tmp_path, fixture_path)[name]
        out_path = tmp_path / "sweep.csv"
        calls = tree_calls(vary, str(out_path))
        calls = calls[4:] + calls[2:4] + calls[:2]  # sweep, compare, then evaluate

        def outputs():
            results = []
            for argv in calls:
                out_path.unlink(missing_ok=True)
                results.append(run(capsys, argv[0], "--input", path, *argv[1:]))
                if "--out" in argv:
                    results.append(out_path.read_text(encoding="utf-8") if out_path.exists() else None)
            return results

        fresh = outputs()
        desc = aggeval.description.load_description(path)
        monkeypatch.setattr(cli, "load_description", lambda _: desc)
        assert outputs() == fresh
        assert outputs() == fresh
        assert type(vars(desc)["hierarchy"]) is _Compiled
        reloaded = aggeval.description.load_description(path)
        assert aggregate(desc.hierarchy, desc.scale) == aggregate(reloaded.hierarchy, reloaded.scale)
        assert desc == reloaded


class TestValidationRunsOnce:
    """The parse checks the tree in its one pass, running the shared method
    checker once per configured subsystem; no command calls
    ``validate_hierarchy``, from any module."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        modules = [m for n, m in sys.modules.items() if n == "aggeval" or n.startswith("aggeval.")]
        for module in modules:
            for name in ("validate_hierarchy", "_check_method"):
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counting(*args, _original=original, _name=f"{module.__name__}.{name}"):
                    calls.append(_name)
                    return _original(*args)

                monkeypatch.setattr(module, name, counting)
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
        # plant, line and supply each have a method object.
        assert validations == ["aggeval.description._check_method"] * 3

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

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_tolerance_fails_before_the_table(self, capsys, fixture_path, tolerance):
        code, out, err = run(
            capsys,
            "priorities",
            "--input",
            fixture_path("path_network.json"),
            "--strategy",
            "degree",
            "--group-tolerance",
            tolerance,
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: tolerance must be finite and nonnegative, got {float(tolerance)!r}\n"
        )

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

    def test_integer_beyond_the_float_range_is_a_located_diagnostic(self, capsys, tmp_path):
        # json.dumps writes Python ints in full, so these stay integer literals.
        payload = {
            "scale": {"min": 0, "max": 100},
            "elements": [
                {"id": "a", "evaluation": 10**400},
                {"id": "b", "evaluation": 50, "priority": -(10**400)},
                {"id": "c", "evaluation": 101},
            ],
        }
        code, out, err = run(capsys, "evaluate", "--input", write_doc(tmp_path, payload))
        assert (code, out) == (2, "")
        assert err == (
            "error: elements[0].evaluation: number out of float range\n"
            "elements[1].priority: number out of float range\n"
            "elements[2].evaluation: value 101.0 is outside [0.0, 100.0]\n"
        )

    def test_number_literal_too_long_to_decode_is_one_diagnostic(self, capsys, tmp_path):
        text = (
            '{"scale": {"min": 0, "max": 100},'
            ' "elements": [{"id": "a", "evaluation": 1' + "0" * 5000 + "}]}"
        )
        path = tmp_path / "long.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: number literal longer than the JSON decoder allows\n"


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_child(*argv, stdout=subprocess.PIPE, **env_changes):
    """``python -m aggeval`` in one child process; a None value removes
    that variable from its environment."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, "-m", "aggeval", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, check=False,
    )


def assert_one_error_line(err):
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n")


class TestErrorBoundary:
    """Every failure ends in one ``error:`` line and exit 1 or 2 from
    ``main``, never in a traceback."""

    @staticmethod
    def bad_path(kind, tmp_path, fixture_path):
        """A path that cannot be opened, and the reason printed for it."""
        if kind == "under-a-file":
            return fixture_path("weak_element.json") + "/x", errno.ENOTDIR
        if kind == "name-too-long":
            return str(tmp_path / ("x" * 300)), errno.ENAMETOOLONG
        loop = tmp_path / "loop"
        loop.symlink_to(loop.name)
        return str(loop), errno.ELOOP

    KINDS = ["under-a-file", "name-too-long", "symlink-loop"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_input_that_cannot_be_opened(self, capsys, tmp_path, fixture_path, kind):
        path, number = self.bad_path(kind, tmp_path, fixture_path)
        code, out, err = run(capsys, "evaluate", "--input", path)
        assert (code, out) == (1, "")
        assert err == f"error: {os.strerror(number).lower()}: {path}\n"

    @pytest.mark.parametrize("kind", KINDS)
    def test_out_that_cannot_be_opened(self, capsys, tmp_path, fixture_path, kind):
        path, number = self.bad_path(kind, tmp_path, fixture_path)
        code, out, err = run(capsys, "sweep", "--input", fixture_path("weak_element.json"),
                             "--vary", "s1", "--from", "0", "--to", "100", "--steps", "3",
                             "--out", path)
        assert (code, out) == (1, "")
        assert err == f"error: {os.strerror(number).lower()}: {path}\n"

    def test_empty_input_name_keeps_its_message(self, capsys):
        code, _, err = run(capsys, "evaluate", "--input", "")
        assert code == 1
        assert err == "error: no such file: [Errno 2] No such file or directory: ''\n"

    def test_no_command_is_pinned(self, capsys):
        assert run(capsys) == (1, "", (
            "usage: aggeval [-h] command ...\n"
            "aggeval: error: the following arguments are required: command\n"
        ))

    def test_unknown_command_is_pinned(self, capsys):
        assert run(capsys, "destroy") == (1, "", (
            "usage: aggeval [-h] command ...\n"
            "aggeval: error: argument command: invalid choice: 'destroy' "
            "(choose from 'evaluate', 'compare', 'sweep', 'priorities')\n"
        ))

    # Child processes, one at a time: these fail at the real stdout or file.

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["evaluate", "compare", "sweep"])
    def test_stdout_on_a_full_device(self, fixture_path, command, unbuffered):
        extra = ["--vary", "press", "--from", "0", "--to", "100", "--steps", "3"]
        with open("/dev/full", "wb") as full:
            done = run_child(command, "--input", fixture_path("plant_hierarchy.json"),
                             *(extra if command == "sweep" else []),
                             stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert done.returncode == 1
        assert done.stderr.decode() == f"error: {os.strerror(errno.ENOSPC).lower()}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    def test_out_on_a_full_device(self, fixture_path):
        done = run_child("sweep", "--input", fixture_path("weak_element.json"), "--vary", "s1",
                         "--from", "0", "--to", "100", "--steps", "3", "--out", "/dev/full")
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr.decode() == f"error: {os.strerror(errno.ENOSPC).lower()}\n"

    TREE = (
        '{"scale": {"min": 0, "max": 100}, "elements": [{"id": "%s", "evaluation": 10},'
        ' {"id": "b", "evaluation": 90}], "hierarchy": {"id": "root", "children": ["%s", "b"]}}'
    )

    @pytest.mark.parametrize("argv", [["evaluate"], ["evaluate", "--format", "csv"], ["compare"]],
                             ids=["evaluate", "evaluate-csv", "compare"])
    def test_lone_surrogate_id_cannot_be_written(self, tmp_path, argv):
        path = tmp_path / "surrogate.json"
        path.write_text(self.TREE % ("\\ud800", "\\ud800"), encoding="utf-8")
        done = run_child(*argv, "--input", str(path))
        assert (done.returncode, done.stdout) == (1, b"")
        err = done.stderr.decode()
        assert_one_error_line(err)
        assert err.startswith("error: cannot write output: 'utf-8' codec can't encode")

    def test_lone_surrogate_id_in_json_is_escaped(self, capsys, tmp_path):
        path = tmp_path / "surrogate.json"
        path.write_text(self.TREE % ("\\ud800", "\\ud800"), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert '"node": "\\ud800"' in out

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_id_the_output_encoding_cannot_hold(self, tmp_path, command):
        path = tmp_path / "cafe.json"
        path.write_text(self.TREE % ("caf\u00e9", "caf\u00e9"), encoding="utf-8")
        done = run_child(command, "--input", str(path), PYTHONIOENCODING="ascii")
        assert (done.returncode, done.stdout) == (1, b"")
        err = done.stderr.decode()
        assert_one_error_line(err)
        assert err.startswith("error: cannot write output: 'ascii' codec can't encode")

    def test_closed_pipe_exits_quietly(self, fixture_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_child("evaluate", "--input", fixture_path("plant_hierarchy.json"),
                             stdout=write_end, PYTHONUNBUFFERED=None)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


# Usage lines, continued usage lines and argparse's or main's error lines.
STDERR_LINE = re.compile(r"(error: |usage: |aggeval(?: \w+)?: error: | {2,}).*")
NUMBERS = ["-1", "0", "1", "100", "nan", "inf", "-inf", "1e400", "-1e400", "-0.0", "0.5"]


class TestNumericArgvProperty:
    """Hostile numbers in every numeric option end in a documented exit code
    with only usage or ``error:`` lines on stderr."""

    FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["compare", "sweep", "priorities"]),
        file=st.sampled_from(["weak_element.json", "plant_hierarchy.json", "two_group.json",
                              "path_network.json"]),
        steps=st.sampled_from(["-1", "0", "1", "2", "3", "1000"]),
        start=st.sampled_from(NUMBERS),
        stop=st.sampled_from(NUMBERS),
        number=st.sampled_from(NUMBERS),
    )
    def test_exit_code_and_stderr(self, command, file, steps, start, stop, number):
        path = str(self.FIXTURES / file)
        if command == "compare":
            argv = ["compare", "--input", path, "--threshold", number]
        elif command == "sweep":
            vary = "press" if file == "plant_hierarchy.json" else "a" if "network" in file else "s1"
            argv = ["sweep", "--input", path, "--vary", vary, "--from", start, "--to", stop,
                    "--steps", steps]
        else:
            argv = ["priorities", "--input", path, "--strategy", "combined",
                    "--group-tolerance", number]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in {0, 1, 2, 3}
        for line in err.getvalue().splitlines():
            assert STDERR_LINE.fullmatch(line), (argv, line)
        if code in {0, 3}:
            assert err.getvalue() == ""


def test_python_dash_m_runs_the_cli(capsys, fixture_path):
    path = fixture_path("plant_hierarchy.json")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "aggeval", "evaluate", "--input", path],
        capture_output=True,
        env=env,
        check=False,
    )
    code, out, err = run(capsys, "evaluate", "--input", path)
    assert code == 0 and out
    assert (done.returncode, done.stdout, done.stderr) == (
        code,
        out.encode("utf-8"),
        err.encode("utf-8"),
    )


def overshoot_doc(values, priorities=None, groups=None):
    """A flat document on [0, 100] whose means round a few ulps above 100."""
    elements = [{"id": i, "evaluation": v} for i, v in zip("abcde", values)]
    for element, priority in zip(elements, priorities or []):
        element["priority"] = priority
    doc = {"scale": {"min": 0, "max": 100}, "elements": elements}
    if groups:
        doc["groups"] = [{"id": g, "members": m, "priority": p} for g, m, p in groups]
    return doc


OVERSHOOT = [100, 99.99999999999999, 100]


class TestFlatValuesStayOnTheScale:
    """Flat ``evaluate`` clamps every aggregate it prints to the scale, as
    the roll-up does; sigmas and adequacy come from the unclamped values."""

    def evaluate(self, capsys, tmp_path, doc, *method):
        path = write_doc(tmp_path, doc)
        return run(capsys, "evaluate", "--input", path, "--format", "json", *method)

    def test_nam(self, capsys, tmp_path):
        doc = overshoot_doc([99.9999999999999, 100, 99.99999999999999, 100, 100])
        assert self.evaluate(capsys, tmp_path, doc, "--method", "nam") == (
            0, '{\n  "method": "nam",\n  "value": 100.0\n}\n', "")
        assert self.evaluate(capsys, tmp_path, doc) == (0, (
            '{\n  "wem": 99.9999999999999,\n  "wlam": 99.99999999999997,\n  "nam": 100.0,\n'
            '  "sigma_12": 7.105427357601004e-16,\n  "sigma_13": 1.2789769243681799e-15\n}\n'
        ), "")

    def test_weighted_wlam_and_wem_then(self, capsys, tmp_path):
        doc = overshoot_doc(OVERSHOOT, priorities=[3.3, 0.3, 3.3])
        assert self.evaluate(capsys, tmp_path, doc, "--method", "wlam") == (
            0, '{\n  "method": "wlam",\n  "value": 100.0\n}\n', "")
        assert self.evaluate(capsys, tmp_path, doc, "--method", "wem-then") == (0, (
            '{\n  "method": "wem-then",\n  "critical_wem": 100.0,\n  "aggregate": 100.0,\n'
            '  "adequacy": 1.4210854715202002e-16\n}\n'
        ), "")
        assert self.evaluate(capsys, tmp_path, doc) == (0, (
            '{\n  "wem": 99.99999999999999,\n  "wlam": 100.0,\n  "nam": null,\n'
            '  "sigma_12": 2.8421709430404003e-16,\n  "sigma_13": null\n}\n'
        ), "")

    def test_hybrid(self, capsys, tmp_path):
        doc = overshoot_doc(OVERSHOOT, groups=[("g1", ["a", "c"], 3.3), ("g2", ["b"], 0.3)])
        assert self.evaluate(capsys, tmp_path, doc, "--method", "hybrid") == (
            0, '{\n  "method": "hybrid",\n  "value": 100.0\n}\n', "")
        assert self.evaluate(capsys, tmp_path, doc) == (0, (
            '{\n  "wem": 99.99999999999999,\n  "wlam": 100.0,\n  "nam": 99.99999999999997,\n'
            '  "sigma_12": 1.4210854715202004e-16,\n  "sigma_13": 0.0,\n  "hybrid": 100.0\n}\n'
        ), "")


class TestNegativeThresholdSpelling:
    """argparse reads a negative number with an exponent as an option after
    a space; after ``=`` it reaches the range check."""

    def test_after_a_space_is_a_usage_error(self, capsys, fixture_path):
        code, out, err = run(capsys, "compare", "--input", fixture_path("weak_element.json"),
                             "--threshold", "-1e5")
        assert (code, out) == (1, "")
        assert err.endswith("aggeval compare: error: argument --threshold: expected one argument\n")

    def test_after_equals_is_a_range_error(self, capsys, fixture_path):
        assert run(capsys, "compare", "--input", fixture_path("weak_element.json"),
                   "--threshold=-1e5") == (
            2, "", "error: adequacy threshold must lie in [0, 1], got -100000.0\n")


def test_compare_on_a_single_element_prints_only_the_header(capsys, tmp_path):
    path = write_doc(tmp_path, {"scale": {"min": 0, "max": 100},
                                "elements": [{"id": "a", "evaluation": 50}], "hierarchy": "a"})
    assert run(capsys, "compare", "--input", path) == (
        0, "node  wem  wlam  nam  hybrid  sigma_12  sigma_13  warnings\n", "")
    desc = aggeval.description.load_description(path)
    assert aggeval.hierarchy.compare_methods(desc.hierarchy, desc.scale) == []
