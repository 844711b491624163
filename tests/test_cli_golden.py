"""Every call of ``scripts/same_output.py``'s command mix, pinned by digest.

``tests/data/cli_golden.json`` holds, per call, the exit code and a digest
of stdout, stderr and the written ``--out`` file, with the sha256 of each
generated input and the library surface.  It was recorded with

    python3 scripts/same_output.py src --golden tests/data/cli_golden.json --record

A change that alters output on purpose records it again and lists the
changed calls.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"


def test_cli_outputs_match_the_golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))["python"]
    if recorded != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"recorded with Python {recorded}, whose argparse messages this pins")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_output.py"), str(ROOT / "src"),
         "--golden", str(GOLDEN)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
