"""Which functions the traced run wraps, and the per-layer metrics built from them.

``WRAPS`` names each public function at the place its caller looks it up.
``LAYER_METRICS`` lists every per-layer metric with the end-to-end metric
and workload it should move; ``BENCHMARK.json`` carries the same names.
"""

from __future__ import annotations

import functools
from collections import defaultdict

READ_KINDS = ("topl", "dtopl")

# (target, span name); counter hooks are attached in ``install``.
WRAPS = (
    ("repro.service.facade:CommunityService.handle_json", "service.handle"),
    ("repro.service.schema:decode_request", "service.decode"),
    ("repro.service.schema:ToplResponse.to_json", "service.encode"),
    ("repro.service.schema:DToplResponse.to_json", "service.encode"),
    ("repro.service.schema:UpdateResponse.to_json", "service.encode"),
    ("repro.serve.batch:BatchQueryEngine.answer", "serve.answer"),
    ("repro.query.topl:TopLProcessor.query", "query.topl"),
    ("repro.query.dtopl:DTopLProcessor.query", "query.dtopl"),
    ("repro.query.dtopl:greedy_select_diversified", "query.greedy"),
    ("repro.query.topl:extract_seed_community", "query.seed"),
    ("repro.query.seed:keyword_qualified_vertices", "query.keyword_filter"),
    ("repro.query.topl:hop_subgraph", "graph.hop"),
    ("repro.query.seed:hop_distances_within", "graph.hop"),
    ("repro.query.seed:ktruss_component_of", "truss.ktruss"),
    ("repro.query.topl:community_propagation", "influence.propagate"),
    ("repro.fastgraph.kernels:community_propagation_csr", "influence.propagate"),
    ("repro.core.engine:InfluentialCommunityEngine.apply_updates", "dynamic.apply"),
    ("repro.dynamic.truss_maintenance:IncrementalTrussState.apply", "dynamic.truss"),
    ("repro.core.engine:affected_centers", "dynamic.affected"),
    ("repro.core.engine:refresh_vertex_aggregates", "dynamic.refresh"),
    ("repro.fastgraph.offline:fast_refresh_records", "dynamic.refresh"),
    ("repro.core.engine:patch_tree_index", "index.patch"),
    ("repro.fastgraph.delta:DeltaCSR.compact", "fastgraph.compact"),
    ("repro.graph.social_network:SocialNetwork.freeze", "graph.freeze"),
    ("repro.core.engine:precompute", "index.precompute"),
    ("repro.core.engine:build_tree_index", "index.tree"),
    ("repro.store:open_store", "store.open"),
)

# (name, unit, better, end-to-end metric it should move, on which workload)
LAYER_METRICS = (
    ("service.decode_ms", "ms", "lower", "topl_p50_ms", "smallworld-http"),
    ("service.encode_ms", "ms", "lower", "topl_p50_ms", "smallworld-http"),
    ("service.gateway_overhead_ms", "ms", "lower", "topl_p50_ms, slo_met_frac", "smallworld-http"),
    ("service.coalesced_frac", "frac", "higher", "slo_met_frac", "smallworld-http"),
    ("service.rejected_frac", "frac", "lower", "slo_met_frac", "smallworld-http"),
    ("serve.result_hit_rate", "frac", "higher", "topl_p50_ms", "smallworld-http"),
    ("serve.propagation_hit_rate", "frac", "higher", "topl_p50_ms", "planted-query"),
    ("serve.answer_self_ms", "ms", "lower", "topl_p50_ms", "sparse-churn"),
    ("query.traversal_self_ms", "ms", "lower", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.visited_leaf_frac", "frac", "lower", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.early_stop_frac", "frac", "higher", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.pruned_keyword_frac", "frac", "higher", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.pruned_support_frac", "frac", "higher", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.pruned_score_frac", "frac", "higher", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.extractions", "count/query", "lower", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.scored_per_extraction", "frac", "higher", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.seed_self_ms", "ms", "lower", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.keyword_filter_ms", "ms", "lower", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("graph.hop_ms", "ms", "lower", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("truss.ktruss_ms", "ms", "lower", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("influence.propagate_ms", "ms", "lower", "topl_p50_ms, dtopl_p50_ms", "planted-query"),
    ("query.greedy_ms", "ms", "lower", "dtopl_p50_ms", "planted-query"),
    ("query.increment_evals", "count/query", "lower", "dtopl_p50_ms", "planted-query"),
    ("dynamic.truss_ms", "ms", "lower", "update_p50_ms", "sparse-churn"),
    ("dynamic.affected_ms", "ms", "lower", "update_p50_ms", "sparse-churn"),
    ("dynamic.refresh_ms", "ms", "lower", "update_p50_ms", "sparse-churn"),
    ("index.patch_ms", "ms", "lower", "update_p50_ms", "sparse-churn"),
    ("index.rebuild_ms", "ms", "lower", "update_p50_ms", "sparse-churn"),
    ("dynamic.damage_ratio", "frac", "lower", "update_p90_ms", "sparse-churn"),
    ("dynamic.rebuild_frac", "frac", "lower", "update_p90_ms", "sparse-churn"),
    ("fastgraph.compactions", "count", "lower", "update_p90_ms", "sparse-churn"),
    ("fastgraph.dirt_ratio", "frac", "lower", "topl_p50_ms", "sparse-churn"),
    ("graph.freeze_s", "s", "lower", "setup_s", "planted-query, sparse-churn"),
    ("index.precompute_s", "s", "lower", "setup_s", "planted-query, sparse-churn"),
    ("index.tree_s", "s", "lower", "setup_s", "planted-query, sparse-churn"),
    ("store.open_s", "s", "lower", "setup_s", "smallworld-http"),
    ("loadgen.late_p95_ms", "ms", "lower", "(large: run invalid)", "smallworld-http"),
    ("trace.spans", "count", "lower", "(tracing overhead)", "all"),
    ("trace.span_cost_us", "us", "lower", "(tracing overhead)", "all"),
    ("trace.overhead_frac", "frac", "lower", "(tracing overhead)", "all"),
    ("trace.topl_p50_ms", "ms", "lower", "(traced topl_p50_ms; minus the untraced one)", "all"),
)


def install(tracer, requests_from_endpoint: bool = False) -> None:
    """Wrap every function of ``WRAPS``; counters come from return values.

    With ``requests_from_endpoint`` each ``handle_json`` call other than a
    build starts a request named after its endpoint (the HTTP server, where
    executor threads run requests that no client loop can mark).
    """
    hooks = {
        "query.topl": _count_topl,
        "query.dtopl": _count_dtopl,
        "dynamic.apply": _count_update,
    }
    for target, span in WRAPS:
        hook = hooks.get(span)
        on_result = None
        if hook is not None:
            on_result = functools.partial(hook, tracer)
        new_request = None
        if requests_from_endpoint and span == "service.handle":
            new_request = _endpoint_request
        tracer.wrap(target, span, on_result=on_result, new_request=new_request)


def _endpoint_request(args):
    endpoint = args[1]
    return None if endpoint == "build" else endpoint


def _count_topl(tracer, args, result) -> None:
    processor, statistics = args[0], result.statistics
    tracer.count("query.executed")
    tracer.count("query.visited_leaves", statistics.visited_leaf_vertices)
    tracer.count("query.total_leaves", processor.graph.num_vertices())
    tracer.count("query.early_stops", bool(statistics.heap_terminated_early))
    tracer.count("query.scored", statistics.communities_scored)
    tracer.count(
        "query.pruning_candidates",
        statistics.candidates_examined + statistics.pruned_index_entries,
    )
    tracer.count("query.pruned_keyword", statistics.pruned_by_keyword)
    tracer.count("query.pruned_support", statistics.pruned_by_support)
    tracer.count("query.pruned_score", statistics.pruned_by_score)


def _count_dtopl(tracer, args, result) -> None:
    tracer.count("query.dtopl_executed")
    tracer.count("query.increment_evals", result.increment_evaluations)


def _count_update(tracer, args, result) -> None:
    tracer.count("dynamic.updates")
    tracer.count("dynamic.damage", result.damage_ratio)
    tracer.count("dynamic.rebuilds", result.mode == "rebuild")
    tracer.count("dynamic.dirt", result.overlay_dirt_ratio)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(totals: dict, counters: dict, request_kinds, extra: dict) -> dict:
    """Per-layer values from span totals, counters and workload extras.

    ``totals`` maps ``(span, request kind)`` to ``[self s, inclusive s,
    calls]`` (see :func:`tracing.totals_by_kind`).  Times are per request
    of the kind the layer serves: read-path times per executed read (a
    result-cache hit executes nothing), update-path times per update,
    set-up times per set-up.  ``extra`` supplies what the spans cannot:
    cache and gateway statistics and load-generator lateness.
    """
    by_kind = defaultdict(int)
    for kind in request_kinds:
        by_kind[kind] += 1
    reads = by_kind["topl"] + by_kind["dtopl"]
    requests = reads + by_kind["update"]

    def total(span, kinds, column=0):
        return sum(totals.get((span, kind), (0.0, 0.0, 0))[column] for kind in kinds)

    def counter(name, kinds=READ_KINDS):
        return sum(counters.get(f"{name}@{kind}", 0.0) for kind in kinds)

    executed = counter("query.executed")
    executed_dtopl = counter("query.dtopl_executed")
    updates = counter("dynamic.updates", ("update",))
    setups = by_kind["setup"]
    all_kinds = READ_KINDS + ("update",)

    def read_ms(span):
        return 1000.0 * _ratio(total(span, READ_KINDS), executed)

    def update_ms(span, column=0):
        return 1000.0 * _ratio(total(span, ("update",), column), by_kind["update"])

    def setup_s(span):
        return _ratio(total(span, ("setup",), 1), setups)

    metrics = {
        "service.decode_ms": 1000.0 * _ratio(total("service.decode", all_kinds), requests),
        "service.encode_ms": 1000.0 * _ratio(total("service.encode", all_kinds), requests),
        "service.gateway_overhead_ms": extra.get("gateway_overhead_ms", 0.0),
        "service.coalesced_frac": extra.get("coalesced_frac", 0.0),
        "service.rejected_frac": extra.get("rejected_frac", 0.0),
        "serve.result_hit_rate": extra.get("result_hit_rate", 0.0),
        "serve.propagation_hit_rate": extra.get("propagation_hit_rate", 0.0),
        "serve.answer_self_ms": 1000.0 * _ratio(total("serve.answer", READ_KINDS), reads),
        "query.traversal_self_ms": read_ms("query.topl"),
        "query.visited_leaf_frac": _ratio(
            counter("query.visited_leaves"), counter("query.total_leaves")
        ),
        "query.early_stop_frac": _ratio(counter("query.early_stops"), executed),
        "query.extractions": _ratio(total("query.seed", READ_KINDS, 2), executed),
        "query.scored_per_extraction": _ratio(
            counter("query.scored"), total("query.seed", READ_KINDS, 2)
        ),
        "query.seed_self_ms": read_ms("query.seed"),
        "query.keyword_filter_ms": read_ms("query.keyword_filter"),
        "graph.hop_ms": read_ms("graph.hop"),
        "truss.ktruss_ms": read_ms("truss.ktruss"),
        "influence.propagate_ms": read_ms("influence.propagate"),
        "query.greedy_ms": 1000.0 * _ratio(total("query.greedy", READ_KINDS), executed_dtopl),
        "query.increment_evals": _ratio(counter("query.increment_evals"), executed_dtopl),
        "dynamic.truss_ms": update_ms("dynamic.truss"),
        "dynamic.affected_ms": update_ms("dynamic.affected"),
        "dynamic.refresh_ms": update_ms("dynamic.refresh"),
        "index.patch_ms": update_ms("index.patch"),
        "index.rebuild_ms": update_ms("index.precompute", 1) + update_ms("index.tree", 1),
        "dynamic.damage_ratio": _ratio(counter("dynamic.damage", ("update",)), updates),
        "dynamic.rebuild_frac": _ratio(counter("dynamic.rebuilds", ("update",)), updates),
        "fastgraph.compactions": float(total("fastgraph.compact", ("update",), 2)),
        "fastgraph.dirt_ratio": _ratio(counter("dynamic.dirt", ("update",)), updates),
        "graph.freeze_s": setup_s("graph.freeze"),
        "index.precompute_s": setup_s("index.precompute"),
        "index.tree_s": setup_s("index.tree"),
        "store.open_s": setup_s("store.open"),
        "loadgen.late_p95_ms": extra.get("late_p95_ms", 0.0),
    }
    for rule in ("keyword", "support", "score"):
        metrics[f"query.pruned_{rule}_frac"] = _ratio(
            counter(f"query.pruned_{rule}"), counter("query.pruning_candidates")
        )
    return metrics


def format_table(metrics: dict) -> str:
    """The per-layer table: value, unit, and the end-to-end metric it should move."""
    lines = [f"{'metric':32} {'value':>12} {'unit':11} moves -> on"]
    for name, unit, _, moves, workload in LAYER_METRICS:
        value = metrics.get(name)
        shown = "-" if value is None else f"{value:12.4f}"
        lines.append(f"{name:32} {shown:>12} {unit:11} {moves} -> {workload}")
    return "\n".join(lines)
