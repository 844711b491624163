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
from typing import Iterable

from .core import EvaluationError, Group, PriorityVector, _built, _Record
from .network import Network, _lower, _Net, _undeclared

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


class PriorityStrategy(_Record):
    """How to score nodes: primary basis, tie-break chain, normalization.

    Ties left after the chain are broken by node id, so rankings are
    always deterministic.  A basis or normalization given by name becomes
    its member.
    """

    basis: PriorityBasis
    tie_break: tuple[PriorityBasis, ...] = ()
    normalization: Normalization = Normalization.MAX_TO_ONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", PriorityBasis(self.basis))
        object.__setattr__(self, "tie_break", tuple(map(PriorityBasis, self.tie_break)))
        object.__setattr__(self, "normalization", Normalization(self.normalization))
        if len(set(self.tie_break)) != len(self.tie_break):
            raise EvaluationError("tie-break chain must not repeat a basis")


def _degree(net: _Net) -> list[int]:
    if net.stray:  # the first edge with an undeclared end
        a, b = net.stray[0]
        raise EvaluationError(_undeclared(a, b, "ends" if a in net.index else "starts"))
    return net.degree


def degree_centrality(net: Network) -> dict[str, int]:
    """In-degree plus out-degree per node."""
    lists = _lower(net)[1]
    return dict(zip(lists.index, _degree(lists)))


def _betweenness(net: _Net) -> list[float]:
    # Edges from undeclared nodes are skipped, as in Network.successors().
    for a, b in net.stray:
        if a in net.index:
            raise EvaluationError(_undeclared(a, b, "ends"))
    successors = net.successors
    n = len(successors)
    centrality = [0.0] * n
    for source in range(n):
        # BFS phase: shortest-path counts sigma and predecessors, an int
        # while there is one, else a list; the growing visit order doubles
        # as the queue.
        distance = [-1] * n
        distance[source] = 0
        sigma = [0] * n
        sigma[source] = 1
        predecessors: list[int | list[int] | None] = [None] * n
        order = [source]
        for v in order:
            step = distance[v] + 1
            for w in successors[v]:
                if distance[w] < 0:
                    distance[w] = step
                    sigma[w] = sigma[v]
                    predecessors[w] = v
                    order.append(w)
                elif distance[w] == step:
                    sigma[w] += sigma[v]
                    preds = predecessors[w]
                    if type(preds) is int:
                        predecessors[w] = [preds, v]
                    else:
                        preds.append(v)  # type: ignore[union-attr]
        # Accumulation phase, farthest nodes first; the source has no
        # predecessors and earns no credit.  A lone predecessor has w's
        # sigma, so its term sigma[v] / sigma[w] * (1.0 + delta[w]) is
        # 1.0 + delta[w], bit for bit.
        delta = [0.0] * n
        for w in reversed(order[1:]):
            preds = predecessors[w]
            if type(preds) is int:
                delta[preds] += 1.0 + delta[w]
            else:
                for v in preds:  # type: ignore[union-attr]
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            centrality[w] += delta[w]
    return centrality


def betweenness_centrality(net: Network) -> dict[str, float]:
    """Directed unweighted betweenness.

    For every node v this is the sum over ordered pairs (s, t), s != v != t,
    of the fraction of shortest s-t paths passing through v.  Unreachable
    pairs contribute nothing.  Computed by accumulating shortest-path
    dependencies source by source, which visits each edge O(|V|) times
    instead of enumerating paths.
    """
    lists = _lower(net)[1]
    return dict(zip(lists.index, _betweenness(lists)))


def _volumes(net: _Net) -> list[float]:
    """Each node's flow volume: a flow adds its volume once per node of its route."""
    index, volumes = net.index, [0.0] * len(net.index)
    for route, volume in net.flows:
        for node in set(route):
            if node in index:
                volumes[index[node]] += volume
    return volumes


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
    lists = _lower(net)[1]
    edges: dict[tuple[str, str], float] = {e: 0.0 for e in net.edges}
    for flow in net.flows:
        for edge in set(flow.edges()):
            if edge in edges:
                edges[edge] += flow.volume
    return FlowVolumes(nodes=dict(zip(lists.index, _volumes(lists))), edges=edges)


def route_priority(net: Network) -> dict[tuple[str, ...], float]:
    """Total volume per distinct route, keyed by the exact node sequence."""
    totals: dict[tuple[str, ...], float] = {}
    for flow in net.flows:
        totals[flow.route] = totals.get(flow.route, 0.0) + flow.volume
    return totals


def _scores(net: _Net, basis: PriorityBasis) -> list[float]:
    if basis is PriorityBasis.DEGREE:
        return [float(d) for d in _degree(net)]
    if basis is PriorityBasis.BETWEENNESS:
        return _betweenness(net)
    if basis is PriorityBasis.FLOW_VOLUME:
        return _volumes(net)
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
    return [math.fsum(p) / len(parts) for p in zip(*parts)]


def _max_scaled(scores: list[float]) -> list[float]:
    top = max(scores, default=0.0)
    if top <= 0:
        return [0.0] * len(scores)
    return [v / top for v in scores]


class RankedNode(_Record):
    """One row of a priority ranking."""

    node: str
    score: float
    priority: float


def _ranking(net: _Net, strategy: PriorityStrategy) -> list[tuple[str, float, float]]:
    """:func:`rank_nodes`' rows as (node, score, priority) triples."""
    if not net.index:
        raise EvaluationError("empty network: no nodes to prioritize")
    primary = _scores(net, strategy.basis)
    chain = [_scores(net, basis) for basis in strategy.tie_break]
    ids = list(net.index)
    # Best first: the highest primary score, then down the chain, then the id.
    keys = list(zip(*[[-v for v in scores] for scores in (primary, *chain)], ids))
    ordered = sorted(range(len(ids)), key=keys.__getitem__)
    top = max(primary)
    rows = []
    for i in ordered:
        weight = primary[i]
        if strategy.normalization is Normalization.MAX_TO_ONE:
            weight = 1.0 if top <= 0 else weight / top
        rows.append((ids[i], primary[i], max(weight, MIN_PRIORITY)))
    return rows


def rank_nodes(net: Network, strategy: PriorityStrategy) -> list[RankedNode]:
    """Rank all nodes by the strategy, best first.

    The primary basis decides the order; equal scores fall through the
    tie-break chain and finally the node id.  Priorities are the primary
    scores after normalization, floored at :data:`MIN_PRIORITY`; when
    every score is zero (or the network has one node) all priorities
    become 1.
    """
    return [_built(RankedNode, {"node": node, "score": score, "priority": priority})
            for node, score, priority in _ranking(_lower(net)[1], strategy)]


def derive_priorities(net: Network, strategy: PriorityStrategy) -> PriorityVector:
    """Strictly positive priorities for every node, in rank order."""
    return PriorityVector(
        tuple((r.node, r.priority) for r in rank_nodes(net, strategy))
    )


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise EvaluationError(f"tolerance must be finite and nonnegative, got {tolerance!r}")


def _clusters(weights: Iterable[tuple[str, float]],
              tolerance: float) -> list[tuple[tuple[str, ...], float]]:
    """:func:`group_by_priority`'s groups as (members, priority) pairs."""
    items = sorted(weights, key=lambda kv: (-kv[1], kv[0]))
    clusters: list[list[tuple[str, float]]] = [[items[0]]]
    for previous, current in zip(items, items[1:]):
        if previous[1] - current[1] > tolerance:
            clusters.append([])
        clusters[-1].append(current)
    return [(tuple(node for node, _ in members),
             math.fsum(rho for _, rho in members) / len(members)) for members in clusters]


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
    return tuple(_built(Group, {"id": f"g{k}", "members": members, "priority": mean})
                 for k, (members, mean) in enumerate(_clusters(priorities.weights, tolerance), 1))
