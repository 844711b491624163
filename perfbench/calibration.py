"""A fixed plain-Python reference job that round times are divided by.

The machine this benchmark runs on is a share of a busy host: the same
round's CPU time moves by up to a factor of two over seconds, because
the speed of the core moves with what else runs on the host.  Such a
change slows any Python code alike, so the benchmark runs this job next
to every round and reports a round's CPU time as a multiple of the job's.

The job does the kind of work the program under test does (JSON decode,
float roll-ups, dict and list building, a breadth-first betweenness) with
the code of ``reference.py``, on inputs that are fixed and independent of
``--seed``.  It shares no code with the package under test, so a faster
package lowers the ratio and a faster or slower machine leaves it alone.
"""

from __future__ import annotations

import gc
import json
import random
import time

from reference import betweenness, compare_rows, roll
from workloads import encode, network_priorities, tree_sweep

_TREE = encode(tree_sweep(random.Random("reference-job"))[0])
_NET = network_priorities(random.Random("reference-job"))["network"]
_NODES = _NET["nodes"][:80]
_EDGES = [e for e in _NET["edges"] if e[0] in set(_NODES) and e[1] in set(_NODES)]
ROLLUPS = 10


def job() -> None:
    doc = json.loads(_TREE)
    evals = {e["id"]: e["evaluation"] for e in doc["elements"]}
    for _ in range(ROLLUPS):
        compare_rows(roll(doc["hierarchy"], evals))
    betweenness(_NODES, _EDGES)


def reference_ms() -> float:
    """Thread CPU ms of one job.

    The cyclic garbage collector is off while it runs, so the job's time
    does not depend on how many objects the package under test keeps
    alive; the job makes no reference cycles, so nothing leaks.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        job()
        return (time.thread_time() - start) * 1e3
    finally:
        if enabled:
            gc.enable()
