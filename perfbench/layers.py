"""Per-layer metrics of the traced run.

Each row: metric name, unit, better direction, the per-call tracer key
it reads, and the end-to-end effect it should explain (which metric on
which workload).  ``ms`` is self time per CLI call; ``calls`` and
``count`` are exact counts per CLI call.  BENCHMARK.json's ``per_layer``
list is these rows' name, unit and better fields, in this order.
"""

from __future__ import annotations

# (name, unit, better, tracer key, should move)
LAYER_METRICS = (
    ("description.json_decode.ms", "ms", "lower", "description.json_decode.ms",
     "round_cost on every workload; largest share on flat-grouped and tree-rollup, smallest on tree-sweep"),
    ("description.load_description.self_ms", "ms", "lower", "description.load_description.ms",
     "round_cost on every workload; largest share on flat-grouped and tree-rollup, smallest on tree-sweep"),
    ("description.hierarchy_root.ms", "ms", "lower", "description.hierarchy_root.ms",
     "compare and sweep share of round_cost; the synthetic root on flat-grouped"),
    ("network.validate_hierarchy.ms", "ms", "lower", "network.validate_hierarchy.ms",
     "evaluate and compare share of round_cost on tree-rollup (deep branch)"),
    ("network.validate_hierarchy.calls", "calls", "lower", "network.validate_hierarchy.calls",
     "evaluate and compare share of round_cost on tree-rollup (deep branch)"),
    ("network.validate_network.ms", "ms", "lower", "network.validate_network.ms",
     "round_cost on network-priorities"),
    *(
        (f"core.{op}.{kind}", unit, "lower", f"core.{op}.{kind}",
         "evaluate share of round_cost on flat-grouped, round_cost on tree-sweep; no change on network-priorities")
        for op in ("wem", "wlam", "nam", "hybrid_grouped", "wem_then_aggregate")
        for kind, unit in (("ms", "ms"), ("calls", "calls"))
    ),
    ("core.EvaluationVector.count", "count", "lower", "core.EvaluationVector.count",
     "evaluate share of round_cost on flat-grouped, round_cost on tree-sweep; no change on network-priorities"),
    ("core.GroupedSystem.count", "count", "lower", "core.GroupedSystem.count",
     "evaluate share of round_cost on flat-grouped, round_cost on tree-sweep; no change on network-priorities"),
    ("core.EvaluationVector.subset.ms", "ms", "lower", "core.EvaluationVector.subset.ms",
     "evaluate share of round_cost on flat-grouped, round_cost on tree-sweep; no change on network-priorities"),
    ("hierarchy.aggregate.self_ms", "ms", "lower", "hierarchy.aggregate.ms",
     "evaluate share of round_cost on tree-rollup; a compiled plan must not raise it"),
    ("hierarchy.compare_methods.self_ms", "ms", "lower", "hierarchy.compare_methods.ms",
     "compare share of round_cost on flat-grouped (the O(N^2) member scan)"),
    ("hierarchy.sweep.self_ms", "ms", "lower", "hierarchy.sweep.ms",
     "round_cost on tree-sweep"),
    ("hierarchy.AggregationReport.count", "count", "lower", "hierarchy.AggregationReport.count",
     "round_cost on tree-sweep and tree-rollup"),
    *(
        (f"priority.{fn}.ms", "ms", "lower", f"priority.{fn}.ms",
         "round_cost on network-priorities only")
        for fn in ("betweenness_centrality", "degree_centrality", "flow_volume", "group_by_priority")
    ),
    ("priority.betweenness_centrality.calls", "calls", "lower", "priority.betweenness_centrality.calls",
     "round_cost on network-priorities only"),
    ("priority.rank_nodes.calls", "calls", "lower", "priority.rank_nodes.calls",
     "round_cost on network-priorities only"),
    ("priority.rank_nodes.self_ms", "ms", "lower", "priority.rank_nodes.ms",
     "round_cost on network-priorities only"),
    ("cli.main.self_ms", "ms", "lower", "cli.main.ms",
     "evaluate share of round_cost on tree-rollup (argparse, rendering, writes)"),
    ("cli.output_bytes", "B", "lower", "cli.output_bytes",
     "none: output must stay byte-identical"),
    ("trace.overhead_ms", "ms", "lower", "trace.overhead_ms",
     "none: traced minus untraced per-call median"),
)
