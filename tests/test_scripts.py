"""The experiment scripts keep the promises the README makes for them."""

import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_sweep_data_is_reproduced_byte_for_byte(tmp_path, monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "generate_sweep_data.py"))["main"]
    steps = 101
    runs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        monkeypatch.setattr(
            sys,
            "argv",
            ["generate_sweep_data.py", "--out-dir", str(out_dir), "--steps", str(steps)],
        )
        main()
        runs.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
    first, second = runs
    assert sorted(first) == [
        "two_group.csv",
        "weak_element.csv",
        "weak_element_n4.csv",
        "weak_element_n5.csv",
    ]
    assert first == second
    for data in first.values():
        assert data.count(b"\n") == steps + 1


def test_same_output_finds_no_difference_between_equal_sources():
    src = str(SCRIPTS.parent / "src")
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "same_output.py"), src, src, "--fixtures-only"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = done.stdout.splitlines()[-1]
    assert last.startswith("0 of ") and last.endswith(" calls differ")
    assert int(last.split()[2]) > 300


def test_demo_prints_the_worked_example_and_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["demo_weak_element.py"])
    runpy.run_path(str(SCRIPTS / "demo_weak_element.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[1:4]] == [
        ["wem", "10.0000"], ["wlam", "70.0000"], ["nam", "20.4082"],
    ]
    table = lines[lines.index("weak value      wem     wlam      nam") + 1:]
    assert [row.split() for row in table] == [
        ["0.0", "0.00", "66.67", "0.00"],
        ["10.0", "10.00", "70.00", "20.41"],
        ["25.0", "25.00", "75.00", "44.44"],
        ["50.0", "50.00", "83.33", "72.00"],
        ["75.0", "75.00", "91.67", "89.26"],
        ["90.0", "90.00", "96.67", "96.31"],
        ["100.0", "100.00", "100.00", "100.00"],
    ]


def test_cold_start_reports_one_pair_of_equal_sources():
    src = str(SCRIPTS.parent / "src")
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "cold_start.py"), src, src, "--pairs", "1"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "tree-sweep, seed 1, 1 pairs, order alternating"
    assert [line.split()[:2] for line in lines[1:3]] == [["first", "median"], ["second", "median"]]
    assert lines[3].startswith("second/first ratio median ")
    assert lines[4] in ("second lower in 0 of 1 pairs", "second lower in 1 of 1 pairs")
    assert lines[5] == "call digests agree: yes"
