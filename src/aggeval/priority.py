"""Element priorities derived from network structure.

A node matters more when it is better connected (degree), sits on more
shortest paths (betweenness), or carries more traffic (flow volume).
:func:`derive_priorities` turns any of these bases, with an optional
tie-break chain, into a strictly positive weight vector ready for the
aggregation operators; :func:`group_by_priority` then clusters nodes of
similar weight into priority groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import EvaluationError, Group, PriorityVector, _Record
from .network import Network

__all__ = [
    "MIN_PRIORITY",
    "FlowVolumes",
    "Normalization",
    "PriorityBasis",
    "PriorityStrategy",
    "RankedNode",
    "betweenness_centrality",
    "degree_centrality",
    "derive_priorities",
    "flow_volume",
    "group_by_priority",
    "rank_nodes",
    "route_priority",
]

# Weights must stay strictly positive for the aggregation operators, so
# zero-scoring nodes are floored here instead of dropping out silently.
MIN_PRIORITY = 1e-6


class PriorityBasis(str, Enum):
    DEGREE = "degree"
    BETWEENNESS = "betweenness"
    FLOW_VOLUME = "flow"
    COMBINED = "combined"


class Normalization(str, Enum):
    NONE = "none"
    MAX_TO_ONE = "max-to-one"


@dataclass(frozen=True, repr=False, eq=False)
class PriorityStrategy(_Record):
    """How to score nodes: primary basis, tie-break chain, normalization.

    Ties left after the chain are broken by node id, so rankings are
    always deterministic.
    """

    basis: PriorityBasis
    tie_break: tuple[PriorityBasis, ...] = ()
    normalization: Normalization = Normalization.MAX_TO_ONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "tie_break", tuple(self.tie_break))
        if len(set(self.tie_break)) != len(self.tie_break):
            raise EvaluationError("tie-break chain must not repeat a basis")


def _undeclared(a: str, b: str, end: str, node: str) -> EvaluationError:
    return EvaluationError(f"edge ({a!r}, {b!r}) {end} at undeclared node {node!r}")


def degree_centrality(net: Network) -> dict[str, int]:
    """In-degree plus out-degree per node."""
    degree = {n: 0 for n in net.nodes}
    for a, b in net.edges:
        try:
            degree[a] += 1
        except KeyError:
            raise _undeclared(a, b, "starts", a) from None
        try:
            degree[b] += 1
        except KeyError:
            raise _undeclared(a, b, "ends", b) from None
    return degree


def betweenness_centrality(net: Network) -> dict[str, float]:
    """Directed unweighted betweenness.

    For every node v this is the sum over ordered pairs (s, t), s != v != t,
    of the fraction of shortest s-t paths passing through v.  Unreachable
    pairs contribute nothing.  Computed by accumulating shortest-path
    dependencies source by source, which visits each edge O(|V|) times
    instead of enumerating paths.
    """
    # Index each distinct id once; edges from undeclared nodes are
    # skipped, as in Network.successors().
    nodes = list(dict.fromkeys(net.nodes))
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    successors: list[list[int]] = [[] for _ in range(n)]
    for a, b in net.edges:
        if a in index:
            try:
                successors[index[a]].append(index[b])
            except KeyError:
                raise _undeclared(a, b, "ends", b) from None
    centrality = [0.0] * n
    for source in range(n):
        # BFS phase: shortest-path counts sigma and predecessor lists;
        # the growing visit order doubles as the queue.
        distance = [-1] * n
        distance[source] = 0
        sigma = [0] * n
        sigma[source] = 1
        predecessors: list[list[int] | None] = [None] * n
        order = [source]
        for v in order:
            step = distance[v] + 1
            for w in successors[v]:
                if distance[w] < 0:
                    distance[w] = step
                    sigma[w] = sigma[v]
                    predecessors[w] = [v]
                    order.append(w)
                elif distance[w] == step:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        # Accumulation phase, farthest nodes first; the source has no
        # predecessors and earns no credit.
        delta = [0.0] * n
        for w in reversed(order[1:]):
            for v in predecessors[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            centrality[w] += delta[w]
    return dict(zip(nodes, centrality))


@dataclass
class FlowVolumes:
    """Traffic totals per node and per edge."""

    nodes: dict[str, float]
    edges: dict[tuple[str, str], float]


def flow_volume(net: Network) -> FlowVolumes:
    """Sum the volume of every flow over the nodes and edges it touches.

    A flow contributes its volume once per node and once per edge of its
    route, even if the route revisits them.
    """
    nodes = {n: 0.0 for n in net.nodes}
    edges: dict[tuple[str, str], float] = {e: 0.0 for e in net.edges}
    for flow in net.flows:
        for node in set(flow.route):
            if node in nodes:
                nodes[node] += flow.volume
        for edge in set(flow.edges()):
            if edge in edges:
                edges[edge] += flow.volume
    return FlowVolumes(nodes=nodes, edges=edges)


def route_priority(net: Network) -> dict[tuple[str, ...], float]:
    """Total volume per distinct route, keyed by the exact node sequence."""
    totals: dict[tuple[str, ...], float] = {}
    for flow in net.flows:
        totals[flow.route] = totals.get(flow.route, 0.0) + flow.volume
    return totals


def _scores(net: Network, basis: PriorityBasis) -> dict[str, float]:
    if basis is PriorityBasis.DEGREE:
        return {n: float(d) for n, d in degree_centrality(net).items()}
    if basis is PriorityBasis.BETWEENNESS:
        return betweenness_centrality(net)
    if basis is PriorityBasis.FLOW_VOLUME:
        return flow_volume(net).nodes
    # COMBINED: average of the three bases, each rescaled by its own
    # maximum so no basis dominates on units alone.
    parts = [
        _max_scaled(_scores(net, b))
        for b in (
            PriorityBasis.DEGREE,
            PriorityBasis.BETWEENNESS,
            PriorityBasis.FLOW_VOLUME,
        )
    ]
    return {n: math.fsum(p[n] for p in parts) / len(parts) for n in net.nodes}


def _max_scaled(scores: dict[str, float]) -> dict[str, float]:
    top = max(scores.values(), default=0.0)
    if top <= 0:
        return {n: 0.0 for n in scores}
    return {n: v / top for n, v in scores.items()}


@dataclass(frozen=True, repr=False, eq=False)
class RankedNode(_Record):
    """One row of a priority ranking."""

    node: str
    score: float
    priority: float


def rank_nodes(net: Network, strategy: PriorityStrategy) -> list[RankedNode]:
    """Rank all nodes by the strategy, best first.

    The primary basis decides the order; equal scores fall through the
    tie-break chain and finally the node id.  Priorities are the primary
    scores after normalization, floored at :data:`MIN_PRIORITY`; when
    every score is zero (or the network has one node) all priorities
    become 1.
    """
    if not net.nodes:
        raise EvaluationError("empty network: no nodes to prioritize")
    primary = _scores(net, strategy.basis)
    chain = [_scores(net, basis) for basis in strategy.tie_break]

    def sort_key(node: str) -> tuple:
        return (-primary[node], *(-c[node] for c in chain), node)

    ordered = sorted(net.nodes, key=sort_key)
    top = max(primary.values())
    ranked: list[RankedNode] = []
    for node in ordered:
        score = primary[node]
        if strategy.normalization is Normalization.MAX_TO_ONE:
            weight = 1.0 if top <= 0 else score / top
        else:
            weight = score
        ranked.append(
            RankedNode(node=node, score=score, priority=max(weight, MIN_PRIORITY))
        )
    return ranked


def derive_priorities(net: Network, strategy: PriorityStrategy) -> PriorityVector:
    """Strictly positive priorities for every node, in rank order."""
    return PriorityVector(
        tuple((r.node, r.priority) for r in rank_nodes(net, strategy))
    )


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise EvaluationError(f"tolerance must be finite and nonnegative, got {tolerance!r}")


def group_by_priority(
    priorities: PriorityVector, tolerance: float
) -> tuple[Group, ...]:
    """Cluster elements whose priorities sit within ``tolerance`` of a chain.

    Single linkage over the descending priority list: a gap larger than
    ``tolerance`` starts a new group, so transitive chains of close
    priorities stay together.  Each group's priority is the mean of its
    members' and groups come out ordered by descending priority, named
    ``g1, g2, ...``.
    """
    _check_tolerance(tolerance)
    items = sorted(priorities.weights, key=lambda kv: (-kv[1], kv[0]))
    clusters: list[list[tuple[str, float]]] = [[items[0]]]
    for previous, current in zip(items, items[1:]):
        if previous[1] - current[1] > tolerance:
            clusters.append([])
        clusters[-1].append(current)
    groups = []
    for index, members in enumerate(clusters, 1):
        mean = math.fsum(rho for _, rho in members) / len(members)
        groups.append(
            Group(
                id=f"g{index}",
                members=tuple(node for node, _ in members),
                priority=mean,
            )
        )
    return tuple(groups)
