"""Tests for network-derived priorities and priority grouping."""

import random
from collections import deque

import numpy as np
import pytest

from aggeval import (
    EvaluationError,
    Flow,
    MIN_PRIORITY,
    Network,
    Normalization,
    PriorityBasis,
    PriorityStrategy,
    PriorityVector,
    betweenness_centrality,
    degree_centrality,
    derive_priorities,
    flow_volume,
    group_by_priority,
    rank_nodes,
    route_priority,
    validate_network,
)

PATH = Network(("a", "b", "c"), (("a", "b"), ("b", "c")))
PATH_WITH_FLOW = Network(
    ("a", "b", "c"), (("a", "b"), ("b", "c")), (Flow(("a", "b", "c"), volume=3.0),)
)
DIAMOND = Network(
    ("a", "b", "c", "d"),
    (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")),
    (Flow(("a", "b", "d"), volume=5.0), Flow(("a", "c", "d"), volume=2.0)),
)


def random_digraph(rng, n, p):
    nodes = tuple(f"n{i}" for i in range(n))
    edges = tuple(
        (a, b) for a in nodes for b in nodes if a != b and rng.random() < p
    )
    return Network(nodes, edges)


def brute_betweenness(net):
    """Independent oracle: enumerate simple paths, keep the shortest ones."""
    adjacency = {n: [] for n in net.nodes}
    for a, b in net.edges:
        adjacency[a].append(b)

    def simple_paths(source, target):
        found = []
        stack = [(source, (source,))]
        while stack:
            node, path = stack.pop()
            if node == target:
                found.append(path)
                continue
            for successor in adjacency[node]:
                if successor not in path:
                    stack.append((successor, path + (successor,)))
        return found

    centrality = {n: 0.0 for n in net.nodes}
    for source in net.nodes:
        for target in net.nodes:
            if source == target:
                continue
            paths = simple_paths(source, target)
            if not paths:
                continue
            shortest = min(len(p) for p in paths)
            best = [p for p in paths if len(p) == shortest]
            for node in net.nodes:
                if node in (source, target):
                    continue
                passing = sum(1 for p in best if node in p)
                centrality[node] += passing / len(best)
    return centrality


class TestDegreeCentrality:
    def test_path_degrees(self):
        assert degree_centrality(PATH) == {"a": 1, "b": 2, "c": 1}

    def test_isolated_node_scores_zero(self):
        net = Network(("a", "b", "x"), (("a", "b"),))
        assert degree_centrality(net)["x"] == 0

    def test_matches_adjacency_row_and_column_sums(self):
        rng = random.Random(7)
        for _ in range(20):
            net = random_digraph(rng, 10, 0.3)
            matrix = np.zeros((10, 10), dtype=int)
            index = {n: i for i, n in enumerate(net.nodes)}
            for a, b in net.edges:
                matrix[index[a], index[b]] = 1
            expected = matrix.sum(axis=0) + matrix.sum(axis=1)
            got = degree_centrality(net)
            assert [got[n] for n in net.nodes] == expected.tolist()

    @pytest.mark.parametrize(
        "net, message",
        [
            (Network(("a",), (("a", "b"),)), "edge ('a', 'b') ends at undeclared node 'b'"),
            (Network(("b",), (("a", "b"),)), "edge ('a', 'b') starts at undeclared node 'a'"),
        ],
    )
    def test_undeclared_edge_end_is_a_diagnostic(self, net, message):
        assert message in validate_network(net)
        with pytest.raises(EvaluationError) as excinfo:
            degree_centrality(net)
        assert str(excinfo.value) == message


class TestNetworksThatFailValidation:
    """The priority functions read a network that fails validation: only a
    basis that needs the faulty part fails."""

    def test_a_volume_that_is_no_number_fails_only_the_flow_basis(self):
        net = Network(("a", "b"), (("a", "b"),), (Flow(("a", "b"), volume="3"),))
        assert validate_network(net) == ["flow #1: volume must be positive, got '3'"]
        assert degree_centrality(net) == {"a": 1, "b": 1}
        assert betweenness_centrality(net) == {"a": 0.0, "b": 0.0}
        for call in (flow_volume, lambda n: rank_nodes(n, PriorityStrategy(PriorityBasis.FLOW_VOLUME))):
            with pytest.raises(TypeError, match=r"for \+=: 'float' and 'str'"):
                call(net)

    def test_a_repeated_edge_is_a_second_predecessor(self):
        # The kernel keeps a lone predecessor as an int; a repeated edge
        # makes it two, as in the reference kernel.
        net = Network(("a", "b", "c", "d"), (("a", "b"), ("a", "b"), ("b", "c"), ("a", "d"),
                                             ("d", "c"), ("c", "a")))
        assert_bit_identical(betweenness_centrality(net), _reference_betweenness(net))

    @pytest.mark.parametrize("basis", list(PriorityBasis))
    def test_a_repeated_node_ranks_once(self, basis):
        # The twin declares each id once, in order of first declaration.
        edges = (("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"))
        flows = (Flow(("a", "b", "c", "a"), 2.0), Flow(("c", "a"), 0.5), Flow(("c",), 3.0))
        repeated = Network(("a", "b", "c", "a", "b"), edges, flows)
        twin = Network(("a", "b", "c"), edges, flows)
        strategy = PriorityStrategy(basis)
        assert rank_nodes(repeated, strategy) == rank_nodes(twin, strategy)
        priorities, twin_priorities = (derive_priorities(net, strategy) for net in (repeated, twin))
        assert priorities == twin_priorities
        assert group_by_priority(priorities, 0.1) == group_by_priority(twin_priorities, 0.1)


class TestBetweennessCentrality:
    def test_edge_to_an_undeclared_node_is_a_diagnostic(self):
        net = Network(("a",), (("a", "b"),))
        with pytest.raises(EvaluationError) as excinfo:
            betweenness_centrality(net)
        assert str(excinfo.value) == "edge ('a', 'b') ends at undeclared node 'b'"

    def test_edges_from_undeclared_nodes_are_skipped(self):
        net = Network(("a", "b", "c"), (("a", "b"), ("x", "b"), ("x", "y"), ("b", "c")))
        assert betweenness_centrality(net) == betweenness_centrality(PATH)

    def test_path_center_carries_the_one_pair(self):
        assert betweenness_centrality(PATH) == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_complete_digraph_has_no_intermediaries(self):
        nodes = ("a", "b", "c")
        edges = tuple((x, y) for x in nodes for y in nodes if x != y)
        assert betweenness_centrality(Network(nodes, edges)) == {
            "a": 0.0,
            "b": 0.0,
            "c": 0.0,
        }

    def test_directed_three_cycle(self):
        net = Network(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
        assert betweenness_centrality(net) == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_directed_four_cycle(self):
        # Each node is the sole interior stop of three ordered pairs: one
        # at distance 2 and, going the long way round, two at distance 3.
        net = Network(
            ("a", "b", "c", "d"),
            (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")),
        )
        result = betweenness_centrality(net)
        assert result == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 3.0}

    def test_shared_shortest_paths_split_credit(self):
        result = betweenness_centrality(DIAMOND)
        assert result == {"a": 0.0, "b": 0.5, "c": 0.5, "d": 0.0}

    def test_unreachable_pairs_contribute_nothing(self):
        net = Network(("a", "b", "c"), (("a", "b"),))
        assert betweenness_centrality(net) == {"a": 0.0, "b": 0.0, "c": 0.0}

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_path_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        net = random_digraph(rng, rng.choice((5, 6)), 0.35)
        got = betweenness_centrality(net)
        expected = brute_betweenness(net)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_duplicate_ids_count_once(self):
        net = Network(("a", "b", "c", "a"), (("a", "b"), ("b", "c")))
        assert betweenness_centrality(net) == {"a": 0.0, "b": 1.0, "c": 0.0}


def _reference_betweenness(net):
    """The str-keyed Brandes kernel the indexed one replaced, kept as oracle.

    Valid for networks that pass validate_network; the indexed kernel must
    reproduce its floats bit for bit and its key order.
    """
    successors = net.successors()
    centrality = {n: 0.0 for n in net.nodes}
    for source in net.nodes:
        order = []
        predecessors = {n: [] for n in net.nodes}
        sigma = {n: 0 for n in net.nodes}
        sigma[source] = 1
        distance = {n: -1 for n in net.nodes}
        distance[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in successors[v]:
                if distance[w] < 0:
                    distance[w] = distance[v] + 1
                    queue.append(w)
                if distance[w] == distance[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = {n: 0.0 for n in net.nodes}
        while order:
            w = order.pop()
            for v in predecessors[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                centrality[w] += delta[w]
    return centrality


def mixed_digraph(rng, n):
    """A valid digraph with ties, isolated nodes and unreachable pairs.

    Nodes are declared in shuffled order.  Beside sparse random edges it
    carries a chain of diamonds and a directed grid, both full of tied
    shortest paths, and a few nodes with no edges at all.
    """
    nodes = [f"n{i}" for i in range(n)]
    rng.shuffle(nodes)
    pool = nodes[: n - rng.randint(0, min(3, n - 1))]
    edges = set()
    start = 0
    while start + 3 < len(pool) and rng.random() < 0.6:
        a, b, c, d = pool[start : start + 4]
        edges.update({(a, b), (a, c), (b, d), (c, d)})
        start += 3
    side = rng.randint(2, 4)
    if start + side * side <= len(pool):
        grid = pool[start : start + side * side]
        for r in range(side):
            for c in range(side):
                here = grid[r * side + c]
                if c + 1 < side:
                    edges.add((here, grid[r * side + c + 1]))
                if r + 1 < side:
                    edges.add((here, grid[(r + 1) * side + c]))
    p = rng.uniform(0.0, 3.0 / len(pool))
    edges.update(
        (a, b) for a in pool for b in pool if a != b and rng.random() < p
    )
    edge_list = sorted(edges)
    rng.shuffle(edge_list)
    net = Network(tuple(nodes), tuple(edge_list))
    assert validate_network(net) == []
    return net


def workload_digraph(rng):
    """200 nodes and 800 distinct edges, like the priorities benchmark."""
    nodes = [f"n{k:03d}" for k in range(200)]
    edges = set()
    while len(edges) < 800:
        a, b = rng.sample(nodes, 2)
        edges.add((a, b))
    return Network(tuple(nodes), tuple(sorted(edges)))


def assert_bit_identical(got, expected):
    assert got == expected
    assert list(got) == list(expected)
    assert [repr(v) for v in got.values()] == [repr(v) for v in expected.values()]


class TestBetweennessBitIdentity:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_kernel_on_mixed_digraphs(self, seed):
        rng = random.Random(seed)
        net = mixed_digraph(rng, rng.randint(2, 60))
        assert_bit_identical(betweenness_centrality(net), _reference_betweenness(net))

    def test_matches_reference_kernel_on_workload_shaped_digraph(self):
        net = workload_digraph(random.Random(5))
        assert_bit_identical(betweenness_centrality(net), _reference_betweenness(net))

    def test_tied_paths_give_fractional_credit(self):
        # Diamonds and grids split credit between tied shortest paths, so
        # the generator must yield fractional scores for the checks above
        # to cover the sigma ratios.
        rng = random.Random(0)
        found = False
        for _ in range(20):
            scores = betweenness_centrality(mixed_digraph(rng, 40))
            found = found or any(v != int(v) for v in scores.values())
        assert found


class TestBetweennessAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_networkx_on_random_digraphs(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(100 + seed)
        net = mixed_digraph(rng, rng.randint(2, 40))
        graph = nx.DiGraph()
        graph.add_nodes_from(net.nodes)
        graph.add_edges_from(net.edges)
        expected = nx.betweenness_centrality(graph, normalized=False)
        assert betweenness_centrality(net) == pytest.approx(
            expected, rel=1e-9, abs=1e-12
        )


class TestFlowVolume:
    def test_single_flow_covers_its_route(self):
        volumes = flow_volume(PATH_WITH_FLOW)
        assert volumes.nodes == {"a": 3.0, "b": 3.0, "c": 3.0}
        assert volumes.edges == {("a", "b"): 3.0, ("b", "c"): 3.0}

    def test_flows_add_up_on_shared_segments(self):
        volumes = flow_volume(DIAMOND)
        assert volumes.nodes == {"a": 7.0, "b": 5.0, "c": 2.0, "d": 7.0}
        assert volumes.edges[("a", "b")] == 5.0
        assert volumes.edges[("c", "d")] == 2.0

    def test_revisited_stops_count_once(self):
        net = Network(
            ("a", "b"),
            (("a", "b"), ("b", "a")),
            (Flow(("a", "b", "a"), volume=2.0),),
        )
        volumes = flow_volume(net)
        assert volumes.nodes == {"a": 2.0, "b": 2.0}
        assert volumes.edges == {("a", "b"): 2.0, ("b", "a"): 2.0}

    def test_matches_membership_recount(self):
        rng = random.Random(11)
        net = random_digraph(rng, 6, 0.5)
        flows = []
        for _ in range(8):
            start = rng.choice(net.nodes)
            route = [start]
            for _ in range(3):
                options = [b for a, b in net.edges if a == route[-1]]
                if not options:
                    break
                route.append(rng.choice(options))
            if len(route) >= 2:
                flows.append(Flow(tuple(route), volume=rng.uniform(0.5, 4)))
        net = Network(net.nodes, net.edges, tuple(flows))
        volumes = flow_volume(net)
        for node in net.nodes:
            expected = sum(f.volume for f in flows if node in f.route)
            assert volumes.nodes[node] == pytest.approx(expected)


class TestRoutePriority:
    def test_volumes_accumulate_per_exact_route(self):
        net = Network(
            ("a", "b", "c"),
            (("a", "b"), ("b", "c")),
            (
                Flow(("a", "b"), volume=1.0),
                Flow(("a", "b"), volume=2.5),
                Flow(("a", "b", "c"), volume=4.0),
            ),
        )
        assert route_priority(net) == {
            ("a", "b"): 3.5,
            ("a", "b", "c"): 4.0,
        }

    def test_no_flows_means_no_routes(self):
        assert route_priority(PATH) == {}


class TestRankNodes:
    def test_path_degree_ranking(self):
        ranked = rank_nodes(PATH, PriorityStrategy(PriorityBasis.DEGREE))
        assert [(r.node, r.score, r.priority) for r in ranked] == [
            ("b", 2.0, 1.0),
            ("a", 1.0, 0.5),
            ("c", 1.0, 0.5),
        ]

    def test_tie_break_chain_then_node_id(self):
        # All degrees tie at 2; flow volume separates a/d from b from c,
        # and the id breaks the remaining a/d tie.
        strategy = PriorityStrategy(
            PriorityBasis.DEGREE, tie_break=(PriorityBasis.FLOW_VOLUME,)
        )
        ranked = rank_nodes(DIAMOND, strategy)
        assert [r.node for r in ranked] == ["a", "d", "b", "c"]

    def test_scaling_volumes_preserves_the_ranking(self):
        strategy = PriorityStrategy(
            PriorityBasis.DEGREE, tie_break=(PriorityBasis.FLOW_VOLUME,)
        )
        scaled = Network(
            DIAMOND.nodes,
            DIAMOND.edges,
            tuple(Flow(f.route, f.volume * 40.0) for f in DIAMOND.flows),
        )
        assert [r.node for r in rank_nodes(scaled, strategy)] == [
            r.node for r in rank_nodes(DIAMOND, strategy)
        ]

    def test_zero_scores_are_floored(self):
        net = Network(("a", "b", "x"), (("a", "b"),))
        ranked = rank_nodes(net, PriorityStrategy(PriorityBasis.DEGREE))
        floor = [r for r in ranked if r.node == "x"][0]
        assert floor.score == 0.0
        assert floor.priority == MIN_PRIORITY

    def test_all_zero_scores_become_unit_priorities(self):
        net = Network(("a", "b"))
        ranked = rank_nodes(net, PriorityStrategy(PriorityBasis.DEGREE))
        assert [r.priority for r in ranked] == [1.0, 1.0]

    def test_raw_normalization_keeps_scores(self):
        strategy = PriorityStrategy(
            PriorityBasis.DEGREE, normalization=Normalization.NONE
        )
        ranked = rank_nodes(PATH, strategy)
        assert [(r.node, r.priority) for r in ranked] == [
            ("b", 2.0),
            ("a", 1.0),
            ("c", 1.0),
        ]

    def test_combined_basis_averages_rescaled_parts(self):
        # degree (0.5, 1, 0.5) + betweenness (0, 1, 0) + flow (1, 1, 1),
        # each already max-scaled, averaged per node.
        ranked = rank_nodes(PATH_WITH_FLOW, PriorityStrategy(PriorityBasis.COMBINED))
        by_node = {r.node: r.score for r in ranked}
        assert by_node == pytest.approx({"a": 0.5, "b": 1.0, "c": 0.5})

    def test_empty_network_is_rejected(self):
        with pytest.raises(EvaluationError, match="empty network"):
            rank_nodes(Network(()), PriorityStrategy(PriorityBasis.DEGREE))

    def test_repeated_tie_break_basis_is_rejected(self):
        with pytest.raises(EvaluationError, match="must not repeat"):
            PriorityStrategy(
                PriorityBasis.DEGREE,
                tie_break=(PriorityBasis.FLOW_VOLUME, PriorityBasis.FLOW_VOLUME),
            )


class TestDerivePriorities:
    def test_path_priorities_in_rank_order(self):
        priorities = derive_priorities(PATH, PriorityStrategy(PriorityBasis.DEGREE))
        assert priorities.weights == (("b", 1.0), ("a", 0.5), ("c", 0.5))

    def test_single_node_gets_unit_priority(self):
        priorities = derive_priorities(
            Network(("only",)), PriorityStrategy(PriorityBasis.DEGREE)
        )
        assert priorities.weights == (("only", 1.0),)

    def test_priorities_are_always_usable_weights(self):
        rng = random.Random(3)
        for basis in PriorityBasis:
            for _ in range(5):
                net = random_digraph(rng, 7, 0.25)
                priorities = derive_priorities(net, PriorityStrategy(basis))
                assert set(priorities.ids) == set(net.nodes)
                assert all(rho > 0 for _, rho in priorities.weights)


class TestGroupByPriority:
    def test_close_priorities_share_a_group(self):
        priorities = PriorityVector((("b", 1.0), ("a", 0.5), ("c", 0.5)))
        groups = group_by_priority(priorities, 0.1)
        assert [(g.id, g.members, g.priority) for g in groups] == [
            ("g1", ("b",), 1.0),
            ("g2", ("a", "c"), 0.5),
        ]

    def test_wide_tolerance_collapses_to_one_group(self):
        priorities = PriorityVector((("b", 1.0), ("a", 0.5), ("c", 0.5)))
        groups = group_by_priority(priorities, 0.5)
        assert len(groups) == 1
        assert groups[0].members == ("b", "a", "c")
        assert groups[0].priority == pytest.approx(2 / 3)

    def test_chained_gaps_stay_linked(self):
        # 1.0-0.9 and 0.9-0.8 are each within tolerance, so the cluster
        # spans 0.2 even though its extremes are farther apart than that.
        priorities = PriorityVector((("a", 1.0), ("b", 0.9), ("c", 0.8)))
        groups = group_by_priority(priorities, 0.1)
        assert len(groups) == 1
        assert groups[0].priority == pytest.approx(0.9)

    def test_large_gap_starts_a_new_group(self):
        priorities = PriorityVector((("a", 1.0), ("b", 0.9), ("c", 0.5)))
        groups = group_by_priority(priorities, 0.1)
        assert [g.members for g in groups] == [("a", "b"), ("c",)]
        assert groups[0].priority == pytest.approx(0.95)

    def test_zero_tolerance_groups_exact_ties_only(self):
        priorities = PriorityVector((("a", 0.5), ("b", 1.0), ("c", 0.5)))
        groups = group_by_priority(priorities, 0.0)
        assert [g.members for g in groups] == [("b",), ("a", "c")]

    @pytest.mark.parametrize("tolerance", [-0.1, float("nan"), float("inf")])
    def test_bad_tolerance_is_rejected(self, tolerance):
        priorities = PriorityVector((("a", 1.0),))
        with pytest.raises(EvaluationError, match="tolerance"):
            group_by_priority(priorities, tolerance)

    def test_groups_partition_the_ids_in_descending_order(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 12)
            priorities = PriorityVector(
                tuple((f"n{i}", rng.uniform(0.01, 2.0)) for i in range(n))
            )
            tolerance = rng.uniform(0, 0.5)
            groups = group_by_priority(priorities, tolerance)
            collected = [m for g in groups for m in g.members]
            assert sorted(collected) == sorted(priorities.ids)
            assert len(collected) == len(set(collected))
            means = [g.priority for g in groups]
            assert means == sorted(means, reverse=True)
