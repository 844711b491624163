"""Plain-Python reference results and output checks.

The reference works on the generated description documents and shares
no code with the package under test.  ``Expected.check`` compares the key
numbers of a command's first output against it; ``Checker`` then holds
every later call of that command to the same exit code and bytes.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field

# Printed values carry 6 significant digits (text) or 6 decimals (CSV).
REL_TOL = 2e-5
ABS_TOL = 2e-6


def close(got: float, want: float) -> bool:
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def r_wem(values: list[float]) -> float:
    return min(values)


def r_wlam(values: list[float], weights: list[float] | None = None) -> float:
    if weights is None:
        weights = [1.0] * len(values)
    return math.fsum(w * v for w, v in zip(weights, values)) / math.fsum(weights)


def r_nam(values: list[float]) -> float:
    """prod(e) / mean(e) ** (N - 1), always evaluated in the log domain."""
    if 0.0 in values:
        return 0.0
    n = len(values)
    mean = math.fsum(values) / n
    return math.exp(math.fsum(math.log(v) for v in values) - (n - 1) * math.log(mean))


def r_hybrid(by_id: dict[str, float], groups: list[dict]) -> float:
    parts = [(g["priority"], r_nam([by_id[m] for m in g["members"]])) for g in groups]
    return math.fsum(p * v for p, v in parts) / math.fsum(p for p, _ in parts)


def _sigma(aggregate: float, weakest: float) -> float:
    return 0.0 if aggregate == 0.0 else max(0.0, (aggregate - weakest) / aggregate)


@dataclass
class Node:
    """Reference roll-up of one hierarchy node."""

    id: str
    value: float
    children: list["Node"] = field(default_factory=list)
    method: dict | None = None
    warnings: int = 0


def roll(raw, evals: dict[str, float]) -> Node:
    """Bottom-up roll-up of a description hierarchy (no priorities)."""
    if isinstance(raw, str):
        return Node(raw, evals[raw])
    kids = [roll(child, evals) for child in raw["children"]]
    values = [k.value for k in kids]
    method = raw.get("method", {"method": "wlam"})
    kind = method["method"]
    if kind == "wem":
        value = r_wem(values)
    elif kind == "wlam":
        value = r_wlam(values)
    elif kind == "nam":
        value = r_nam(values)
    elif kind == "hybrid":
        value = r_hybrid({k.id: k.value for k in kids}, method["groups"])
    else:
        value = r_wlam(values)
    if kind == "wem-then":
        critical = min(k.value for k in kids if k.id in method["critical"])
    else:
        critical = r_wem(values)
    adequacy = 0.0 if value == 0.0 else (value - critical) / value
    warnings = int("threshold" in method and adequacy > method["threshold"])
    value = min(max(value, 0.0), 100.0)
    return Node(raw["id"], value, kids, method, warnings)


def _walk(node: Node):
    yield node
    for child in node.children:
        yield from _walk(child)


def compare_rows(root: Node) -> list[tuple[str, float, float, float, float | None]]:
    """(id, wem, wlam, nam, hybrid) for every compare row, in preorder."""
    rows = []
    for node in _walk(root):
        if not node.children:
            continue
        by_id = {k.id: k.value for k in node.children}
        values = list(by_id.values())
        groups = node.method.get("groups") if node.method else None
        hybrid = r_hybrid(by_id, groups) if groups else None
        rows.append((node.id, r_wem(values), r_wlam(values), r_nam(values), hybrid))
        for group in groups or ():
            member_values = [by_id[m] for m in group["members"]]
            rows.append(
                (f"{node.id}/{group['id']}", r_wem(member_values),
                 r_wlam(member_values), r_nam(member_values), None)
            )
    return rows


def flat_root(doc: dict) -> dict:
    """The synthetic hybrid root ``compare`` builds over a flat file."""
    return {
        "id": "system",
        "method": {"method": "hybrid", "groups": doc["groups"]},
        "children": [e["id"] for e in doc["elements"]],
    }


def betweenness(nodes: list[str], edges: list[list[str]]) -> dict[str, float]:
    """Directed unweighted betweenness (Brandes 2001) over index arrays."""
    index = {n: k for k, n in enumerate(nodes)}
    succ: list[list[int]] = [[] for _ in nodes]
    for a, b in edges:
        succ[index[a]].append(index[b])
    total = [0.0] * len(nodes)
    for s in range(len(nodes)):
        sigma = [0] * len(nodes)
        dist = [-1] * len(nodes)
        preds: list[list[int]] = [[] for _ in nodes]
        sigma[s], dist[s] = 1, 0
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in succ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * len(nodes)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                total[w] += delta[w]
    return {n: total[k] for k, n in enumerate(nodes)}


def combined_scores(net: dict) -> dict[str, float]:
    """Mean of max-scaled degree, betweenness and flow volume per node."""
    nodes = net["nodes"]
    degree = {n: 0.0 for n in nodes}
    for a, b in net["edges"]:
        degree[a] += 1
        degree[b] += 1
    flow = {n: 0.0 for n in nodes}
    for f in net["flows"]:
        for n in set(f["route"]):
            flow[n] += f["volume"]
    parts = [degree, betweenness(nodes, net["edges"]), flow]
    scaled = []
    for part in parts:
        top = max(part.values())
        scaled.append({n: (v / top if top > 0 else 0.0) for n, v in part.items()})
    return {n: math.fsum(p[n] for p in scaled) / 3 for n in nodes}


def priority_groups(priorities: dict[str, float], tolerance: float) -> list[set[str]]:
    items = sorted(priorities.items(), key=lambda kv: (-kv[1], kv[0]))
    groups = [{items[0][0]}]
    for (_, previous), (node, current) in zip(items, items[1:]):
        if previous - current > tolerance:
            groups.append(set())
        groups[-1].add(node)
    return groups


class Expected:
    """Reference results for one generated workload, computed once."""

    def __init__(self, name: str, doc: dict, vary_id: str | None = None):
        self.name = name
        self.doc = doc
        self.vary_id = vary_id
        evals = {e["id"]: e["evaluation"] for e in doc["elements"]}
        self.evals = evals
        if name == "flat-grouped":
            self.root = roll(flat_root(doc), evals)
        elif name in ("tree-rollup", "tree-sweep"):
            self.root = roll(doc["hierarchy"], evals)
        if name == "network-priorities":
            self.scores = combined_scores(doc["network"])

    # -- per command ---------------------------------------------------

    def check(self, command: str, rc: int, out: str, err: str, data: bytes | None) -> list[str]:
        """Problems with the first output of ``command``; empty when right."""
        problems = [] if err == "" else [f"unexpected stderr: {err[:200]!r}"]
        try:
            problems += getattr(self, "_" + command)(rc, out, data)
        except (ValueError, IndexError, KeyError) as exc:
            problems.append(f"unparseable output: {exc!r}")
        return problems

    def _evaluate(self, rc: int, out: str, data) -> list[str]:
        problems = _want(rc, 0, "exit code")
        lines = out.splitlines()
        if self.name == "flat-grouped":
            values = list(self.evals.values())
            wem_v, wlam_v, nam_v = r_wem(values), r_wlam(values), r_nam(values)
            want = {
                "wem": wem_v,
                "wlam": wlam_v,
                "nam": nam_v,
                "hybrid": r_hybrid(self.evals, self.doc["groups"]),
                "sigma_12": _sigma(wlam_v, wem_v),
                "sigma_13": _sigma(nam_v, wem_v),
            }
            got = dict(line.split() for line in lines)
            problems += _want(sorted(got), sorted(want), "summary keys")
            for key, value in want.items():
                if not close(float(got[key]), value):
                    problems.append(f"{key}: got {got[key]}, want {value:.6g}")
            return problems
        nodes = list(_walk(self.root))
        warnings = sum(n.warnings for n in nodes)
        problems += _want(len(lines), len(nodes) + warnings, "report lines")
        problems += _want(
            sum("warning:" in line for line in lines), warnings, "warning lines"
        )
        head = lines[0].split()
        problems += _want(head[:2], [self.root.id, f"[{self.root.method['method']}]"], "root")
        if not close(float(head[3]), self.root.value):
            problems.append(f"root value: got {head[3]}, want {self.root.value:.6g}")
        return problems

    def _compare(self, rc: int, out: str, data) -> list[str]:
        rows = compare_rows(self.root)
        warned = any(_sigma(wlam_v, wem_v) > 0.5 for _, wem_v, wlam_v, _, _ in rows)
        problems = _want(rc, 3 if warned else 0, "exit code")
        lines = out.splitlines()
        problems += _want(len(lines) - 1, len(rows), "compare rows")
        cells = lines[1].split()
        node_id, wem_v, wlam_v, nam_v, hybrid_v = rows[0]
        problems += _want(cells[0], node_id, "first row")
        for label, cell, want in (
            ("wem", cells[1], wem_v),
            ("wlam", cells[2], wlam_v),
            ("nam", cells[3], nam_v),
            ("hybrid", cells[4], hybrid_v),
        ):
            if want is None or not close(float(cell), want):
                problems.append(f"root {label}: got {cell}, want {want}")
        return problems

    def _sweep(self, rc: int, out: str, data) -> list[str]:
        problems = _want(rc, 0, "exit code") + _want(out, "", "stdout")
        lines = (data or b"").decode("utf-8").splitlines()
        problems += _want(lines[0], "varied,wem,wlam,nam,hybrid", "csv header")
        problems += _want(len(lines) - 1, 51, "csv rows")
        for line, value in ((lines[1], 0.0), (lines[-1], 100.0)):
            evals = dict(self.evals)
            evals[self.vary_id] = value
            root = roll(self.doc["hierarchy"], evals)
            _, wem_v, wlam_v, nam_v, hybrid_v = compare_rows(root)[0]
            got = [float(c) for c in line.split(",")]
            for label, cell, want in zip(
                ("varied", "wem", "wlam", "nam", "hybrid"),
                got,
                (value, wem_v, wlam_v, nam_v, hybrid_v),
            ):
                if not close(cell, want):
                    problems.append(f"sweep at {value:g} {label}: got {cell}, want {want:.6f}")
        return problems

    def _priorities(self, rc: int, out: str, data) -> list[str]:
        problems = _want(rc, 0, "exit code")
        lines = out.splitlines()
        nodes = self.doc["network"]["nodes"]
        table = [line.split() for line in lines[1 : 1 + len(nodes)]]
        problems += _want(sorted(row[1] for row in table), sorted(nodes), "ranked nodes")
        top = max(self.scores.values())
        previous = math.inf
        for position, (rank, node, score, priority) in enumerate(table, 1):
            problems += _want(rank, str(position), "rank")
            want = self.scores[node]
            if not close(float(score), want):
                problems.append(f"{node} score: got {score}, want {want:.6g}")
            if not close(float(priority), max(want / top, 1e-6)):
                problems.append(f"{node} priority: got {priority}")
            if float(score) > previous:
                problems.append(f"rank {rank} ({node}) scores above the row before it")
            previous = float(score)
        priorities = {n: max(s / top, 1e-6) for n, s in self.scores.items()}
        want_groups = priority_groups(priorities, 0.05)
        group_lines = lines[2 + len(nodes) :]
        problems += _want(lines[1 + len(nodes)], "groups (tolerance 0.05):", "groups header")
        got_groups = [set(line.split("members ", 1)[1].split(", ")) for line in group_lines]
        problems += _want(got_groups, want_groups, "priority groups")
        return problems


def _want(got, want, label: str) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def digest(out: str, err: str, data: bytes | None) -> str:
    h = hashlib.sha256()
    for part in (out.encode("utf-8"), err.encode("utf-8"), data or b""):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class Checker:
    """Checks every call: reference numbers on the first, then repeats.

    A call fails when its exit code or output bytes differ from the first
    call of the same command, or when the first call disagrees with the
    reference.  ``failed`` counts failing calls against ``attempted``.
    """

    def __init__(self, expected: Expected):
        self.expected = expected
        self.first: dict[str, tuple[int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, command: str, rc: int, out: str, err: str, data: bytes | None) -> bool:
        key = digest(out, err, data)
        if command in self.first:
            return self.repeat(command, rc, key)
        self.first[command] = (rc, key)
        return self._count(command, self.expected.check(command, rc, out, err, data))

    def repeat(self, command: str, rc: int, key: str) -> bool:
        """Check a later call of ``command`` by exit code and output digest."""
        want_rc, want_key = self.first[command]
        problems = _want(rc, want_rc, "exit code")
        if key != want_key:
            problems.append("output differs from its first call")
        return self._count(command, problems)

    def _count(self, command: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{command}: {p}" for p in problems)
        return not problems

    def fail(self, command: str, reason: str) -> None:
        """Count a call that raised instead of returning an exit code."""
        self._count(command, [reason])
