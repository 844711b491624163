"""One set-up sample, taken in a fresh interpreter.

Times ``import aggeval.cli`` plus the first call of each command of the
workload's round, in process CPU seconds like the benchmark's latencies,
and prints one JSON line with the seconds and, per call, the exit code
and output digest for the parent to check.

Usage: python3 -I setup_probe.py <src dir> <json list of argv lists>
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import digest  # noqa: E402


def main() -> None:
    src, argvs = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    outs = [argv[argv.index("--out") + 1] if "--out" in argv else None for argv in argvs]
    for path in outs:
        if path and os.path.exists(path):
            os.unlink(path)
    captured = []
    start = time.process_time()
    import aggeval.cli

    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = aggeval.cli.main(argv)
        captured.append((rc, out, err))
    seconds = time.process_time() - start
    calls = []
    for (rc, out, err), path in zip(captured, outs):
        data = None
        if path:
            with open(path, "rb") as handle:
                data = handle.read()
        calls.append([rc, digest(out.getvalue(), err.getvalue(), data)])
    print(json.dumps({"seconds": seconds, "calls": calls}))


if __name__ == "__main__":
    main()
