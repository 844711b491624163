"""Full diagnostics of 300 seeded broken descriptions, pinned tuple for tuple.

``tests/data/diagnostics_golden.json`` was recorded with
``tests/data/make_diagnostics_golden.py``.  Each document holds several
faults across every section, so a change to the parser's rules, their
order or their wording shows up here as a tuple mismatch.
"""

import json
from pathlib import Path

import pytest

from aggeval import DescriptionError, parse_description

CASES = json.loads(
    (Path(__file__).resolve().parent / "data" / "diagnostics_golden.json").read_text(
        encoding="utf-8"
    )
)


def test_corpus_covers_every_section():
    assert len(CASES) == 300
    sections = {
        d.split(":")[0].split(".")[0].split("[")[0]
        for case in CASES
        for d in case["diagnostics"]
    }
    assert {"document", "scale", "elements", "groups", "hierarchy", "network"} <= sections


def test_diagnostics_match_the_recorded_tuples():
    mismatched = []
    for index, case in enumerate(CASES):
        with pytest.raises(DescriptionError) as info:
            parse_description(case["document"])
        if info.value.diagnostics != tuple(case["diagnostics"]):
            mismatched.append((index, info.value.diagnostics, case["diagnostics"]))
    assert mismatched == []
