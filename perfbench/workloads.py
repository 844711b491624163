"""Seeded input generators and the command mix of each workload.

Every generator takes a ``random.Random`` and returns a description
document (plain JSON data).  ``materialize`` writes it with a fixed
encoding, so the same seed always gives byte-identical files.  The
program under test sees only those files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

SCALE = {"min": 0, "max": 100}

# Subsystem methods cycle through this list in the tree workloads.
METHOD_CYCLE = ("wlam", "nam", "hybrid", "wem-then", "wem")


@dataclass(frozen=True)
class Command:
    """One CLI call of a round: its name, argv, and the file it writes."""

    name: str
    argv: tuple[str, ...]
    out_path: str | None = None


@dataclass(frozen=True)
class Prepared:
    """A generated workload on disk."""

    name: str
    doc: dict
    path: str
    digest: str
    size: int
    commands: tuple[Command, ...]
    vary_id: str | None = None


def _value(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 3)


def _leaf_values(rng: random.Random, ids: list[str]) -> list[dict]:
    """Healthy values with one weak element, so adequacy warnings fire."""
    weak = rng.randrange(len(ids))
    return [
        {"id": leaf, "evaluation": _value(rng, 0, 20) if k == weak else _value(rng, 40, 100)}
        for k, leaf in enumerate(ids)
    ]


def _method(rng: random.Random, kind: str, ids: list[str], groups: int) -> dict:
    """Method object for a subsystem whose children are the leaves ``ids``."""
    method: dict = {"method": kind}
    if kind == "hybrid":
        shuffled = ids[:]
        rng.shuffle(shuffled)
        size = len(ids) // groups
        method["groups"] = [
            {
                "id": f"g{k + 1}",
                "members": shuffled[k * size : (k + 1) * size],
                "priority": _value(rng, 0.5, 2),
            }
            for k in range(groups)
        ]
    elif kind == "wem-then":
        method["critical"] = rng.sample(ids, 3)
    return method


# flat-grouped: N=2000 elements in G=50 shuffled groups of 40.  The
# description parse and the core kernels do the work: hybrid's per-group
# subset, and nam's log-domain path (groups have more than 30 elements).
# compare goes through the synthetic-root grouping path; hierarchy depth
# is 1 and priority is never called.
def flat_grouped(rng: random.Random) -> dict:
    n_groups, size = 50, 40
    ids = [f"e{k:04d}" for k in range(n_groups * size)]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    elements: list[dict] = []
    groups = []
    for g in range(n_groups):
        members = shuffled[g * size : (g + 1) * size]
        elements.extend(_leaf_values(rng, members))
        groups.append(
            {"id": f"g{g + 1}", "members": members, "priority": _value(rng, 0.5, 2)}
        )
    elements.sort(key=lambda e: e["id"])
    return {"scale": SCALE, "elements": elements, "groups": groups}


def _subsystems(
    rng: random.Random, count: int, leaves: int, hybrid_groups: int, prefix: str
) -> tuple[list[dict], list[dict]]:
    """``count`` subsystems of ``leaves`` leaves, methods cycling."""
    elements: list[dict] = []
    nodes = []
    for s in range(count):
        ids = [f"{prefix}{s:02d}_{k:02d}" for k in range(leaves)]
        elements.extend(_leaf_values(rng, ids))
        kind = METHOD_CYCLE[s % len(METHOD_CYCLE)]
        method = _method(rng, kind, ids, hybrid_groups)
        if s % 7 == 0:
            method["threshold"] = 0.3
        nodes.append({"id": f"{prefix}{s:02d}", "method": method, "children": ids})
    return elements, nodes


# tree-rollup: a hybrid root over 10 groups with 50 subsystems of 50
# leaves and a 200-deep chain of 2-child wlam/nam subsystems.  One pass
# covers validation of a deep branch (walk is O(depth^2)), roll-up,
# compare rows and a ~150 KB depth-indented report.  It uses the same
# hierarchy layer as tree-sweep but reads the tree once, so a plan that
# speeds up sweep but adds a compile cost to a single pass shows here.
def tree_rollup(rng: random.Random) -> dict:
    elements, children = _subsystems(rng, 50, 50, 5, "s")
    depth = 200
    chain_leaves = [f"c{k:03d}" for k in range(depth + 1)]
    elements.extend(_leaf_values(rng, chain_leaves))
    node: object = chain_leaves[depth]
    for k in reversed(range(depth)):
        node = {
            "id": f"chain{k:03d}",
            "method": {"method": "wlam" if k % 2 == 0 else "nam"},
            "children": [chain_leaves[k], node],
        }
    children.append(node)
    root = {
        "id": "root",
        "method": {"method": "hybrid", "groups": _cover(rng, children, 10)},
        "children": children,
    }
    return {"scale": SCALE, "elements": elements, "hierarchy": root}


def _cover(rng: random.Random, children: list[dict], groups: int) -> list[dict]:
    """Partition of all children into ``groups`` groups (sizes may differ)."""
    ids = [c["id"] for c in children]
    rng.shuffle(ids)
    return [
        {"id": f"g{k + 1}", "members": ids[k::groups], "priority": _value(rng, 0.5, 2)}
        for k in range(groups)
    ]


# tree-sweep: a 20x20 tree with the same method cycle under a hybrid
# root.  Every node has at most 30 children, so nam takes the
# direct-product path.  A 51-step sweep is 51 full re-rolls of a small
# tree: per-node re-validation and rebuild do the work and parsing is a
# small share.  This is what a compiled or incremental sweep speeds up.
def tree_sweep(rng: random.Random) -> tuple[dict, str]:
    elements, children = _subsystems(rng, 20, 20, 5, "t")
    root = {
        "id": "root",
        "method": {"method": "hybrid", "groups": _cover(rng, children, 4)},
        "children": children,
    }
    hybrid_nodes = [c for c in children if c["method"]["method"] == "hybrid"]
    vary = rng.choice(rng.choice(hybrid_nodes)["children"])
    return {"scale": SCALE, "elements": elements, "hierarchy": root}, vary


# network-priorities: a random digraph, 200 nodes and 800 distinct edges
# without self-loops, carrying 100 flows along random walks of 1-6 edges
# with volumes U(1, 10).  The only workload that calls the priority
# layer: the combined strategy computes all three bases and the
# tolerance path ranks twice, so O(V*E) betweenness does the work; core
# and hierarchy are never called.
def network_priorities(rng: random.Random) -> dict:
    nodes = [f"n{k:03d}" for k in range(200)]
    edges: set[tuple[str, str]] = set()
    while len(edges) < 800:
        a, b = rng.sample(nodes, 2)
        edges.add((a, b))
    edge_list = sorted(edges)
    successors: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edge_list:
        successors[a].append(b)
    starts = [n for n in nodes if successors[n]]
    flows = []
    for _ in range(100):
        route = [rng.choice(starts)]
        for _ in range(rng.randint(1, 6)):
            options = successors[route[-1]]
            if not options:
                break
            route.append(rng.choice(options))
        flows.append({"route": route, "volume": _value(rng, 1, 10)})
    elements = [{"id": n, "evaluation": _value(rng, 40, 100)} for n in nodes]
    return {
        "scale": SCALE,
        "elements": elements,
        "network": {"nodes": nodes, "edges": [list(e) for e in edge_list], "flows": flows},
    }


WORKLOADS = ("flat-grouped", "tree-rollup", "tree-sweep", "network-priorities")


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def materialize(name: str, seed: int, workdir: str) -> Prepared:
    """Generate workload ``name`` from ``seed`` into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    vary_id = None
    if name == "flat-grouped":
        doc = flat_grouped(rng)
    elif name == "tree-rollup":
        doc = tree_rollup(rng)
    elif name == "tree-sweep":
        doc, vary_id = tree_sweep(rng)
    elif name == "network-priorities":
        doc = network_priorities(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    data = encode(doc)
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "input.json")
    with open(path, "wb") as handle:
        handle.write(data)
    if name in ("flat-grouped", "tree-rollup"):
        commands = (
            Command("evaluate", ("evaluate", "--input", path)),
            Command("compare", ("compare", "--input", path)),
        )
    elif name == "tree-sweep":
        out = os.path.join(workdir, "sweep.csv")
        commands = (
            Command(
                "sweep",
                ("sweep", "--input", path, "--vary", vary_id, "--from", "0",
                 "--to", "100", "--steps", "51", "--out", out),
                out_path=out,
            ),
        )
    else:
        commands = (
            Command(
                "priorities",
                ("priorities", "--input", path, "--strategy", "combined",
                 "--group-tolerance", "0.05"),
            ),
        )
    return Prepared(
        name=name,
        doc=doc,
        path=path,
        digest=hashlib.sha256(data).hexdigest(),
        size=len(data),
        commands=commands,
        vary_id=vary_id,
    )
