"""Command-line interface for the TopL-ICDE / DTopL-ICDE library.

The CLI wires the library's pieces together for shell usage::

    repro generate --dataset uni --vertices 500 --out graph.json
    repro stats graph.json
    repro topl graph.json --keywords movies,books --k 3 --radius 2 --theta 0.2 --top-l 3
    repro dtopl graph.json --keywords movies,books --top-l 3 --candidate-factor 3
    repro sweep graph.json --parameter theta
    repro serve graph.json --queries 32 --repeat 2
    repro serve graph.json --queries 32 --no-cache
    repro update graph.json --script edits.json --out-graph graph2.json
    repro update graph.json --random 50 --out-script edits.json
    repro gateway graph.json --port 8344             # HTTP service API
    repro store pack graph.json --out graph.repro-store
    repro store inspect graph.repro-store            # header + section table
    repro store verify graph.repro-store             # checksums + full decode
    repro topl graph.repro-store --keywords movies   # reuse a packed index

The graph argument of ``stats``, ``topl``, ``dtopl``, ``sweep``, ``serve``,
``update`` and ``gateway`` is either a graph JSON (the offline phase runs) or
a packed store (opened as it was packed, no offline phase): the file's
:data:`repro.store.MAGIC` header decides.

Every data-plane subcommand routes through the versioned service API —
:class:`repro.service.CommunityService` and the typed request objects of
:mod:`repro.service.schema` — so the CLI, the HTTP gateway and programmatic
callers exercise exactly the same boundary.

Every subcommand is also callable programmatically through :func:`main`,
which accepts an ``argv`` list and returns a process exit code — that is how
the test-suite exercises it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro._version import __version__
from repro.exceptions import ReproError
from repro.graph.datasets import dataset_names, load_dataset
from repro.graph.io import load_graph_json, save_graph_json, write_edge_list
from repro.graph.statistics import compute_statistics
from repro.query.params import make_dtopl_query, make_topl_query
from repro.serve.batch import ServingConfig
from repro.service.agateway import DEFAULT_PORT
from repro.service.facade import CommunityService
from repro.service.schema import (
    BatchRequest,
    BuildRequest,
    DToplRequest,
    ToplRequest,
    UpdateRequest,
)
from repro.store.container import MAGIC
from repro.workloads.queries import QueryWorkload
from repro.workloads.reporting import format_table
from repro.workloads.sweeps import PAPER_PARAMETER_GRID

#: Session name the CLI hosts its engine under (one graph per invocation).
CLI_SESSION = "cli"


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for documentation tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-L most influential community detection over social networks",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__} (service schema v1)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a dataset and save it")
    generate.add_argument("--dataset", choices=dataset_names(), default="uni")
    generate.add_argument("--vertices", type=int, default=1000)
    generate.add_argument("--keywords-per-vertex", type=int, default=3)
    generate.add_argument("--keyword-domain", type=int, default=50)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, help="output JSON path")
    generate.add_argument(
        "--edge-list", default=None, help="optionally also write a tab-separated edge list"
    )

    stats = subparsers.add_parser(
        "stats",
        help="print Table-II style statistics of a graph (and, for a store, "
        "the engine diagnostics)",
    )
    stats.add_argument("graph", help=_GRAPH_HELP)

    topl = subparsers.add_parser("topl", help="answer a TopL-ICDE query")
    _add_query_arguments(topl)

    dtopl = subparsers.add_parser("dtopl", help="answer a DTopL-ICDE query")
    _add_query_arguments(dtopl)
    dtopl.add_argument("--candidate-factor", type=int, default=3)

    sweep = subparsers.add_parser(
        "sweep", help="run a Table-III parameter sweep and print one row per setting"
    )
    sweep.add_argument("graph", help=_GRAPH_HELP)
    sweep.add_argument(
        "--parameter",
        default="theta",
        choices=["theta", "num_query_keywords", "k", "radius", "top_l"],
    )
    sweep.add_argument("--seed", type=int, default=97)

    serve = subparsers.add_parser(
        "serve",
        help="answer a batch of mixed TopL/DTopL queries (with caching)",
    )
    _add_serve_arguments(serve)

    update = subparsers.add_parser(
        "update",
        help="replay an edge edit script, maintaining trussness and the index incrementally",
    )
    update.add_argument("graph", help=_GRAPH_HELP)
    update.add_argument(
        "--script", default=None, help="edit-script JSON (format: docs/dynamic.md)"
    )
    update.add_argument(
        "--random",
        type=int,
        default=None,
        metavar="N",
        help="generate a random N-edit script instead of reading --script",
    )
    update.add_argument("--insert-ratio", type=float, default=0.5,
                        help="insertion fraction of a --random script")
    update.add_argument("--seed", type=int, default=7, help="--random script seed")
    update.add_argument(
        "--focus",
        default=None,
        help="restrict a --random script to the neighbourhood of this vertex "
        "(localized churn stays under the damage threshold)",
    )
    update.add_argument("--focus-radius", type=int, default=2,
                        help="hop radius of the --focus neighbourhood")
    update.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="replay the script in chunks of this many edits (default: one batch)",
    )
    update.add_argument(
        "--damage-threshold",
        type=float,
        default=None,
        help="affected-vertex fraction above which a full rebuild is cheaper",
    )
    update.add_argument("--out-graph", default=None, help="write the mutated graph JSON here")
    update.add_argument(
        "--out-store", default=None, help="checkpoint the updated session to this store file"
    )
    update.add_argument("--out-script", default=None,
                        help="write the (possibly generated) edit script here")
    _add_backend_argument(update)

    gateway = subparsers.add_parser(
        "gateway",
        help="serve the versioned HTTP API (POST /v1/{build,topl,dtopl,update,batch})",
    )
    gateway.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="optionally pre-load this graph JSON or store as the 'default' "
        "session (omit to start empty; clients create sessions via POST /v1/build)",
    )
    _add_backend_argument(gateway)
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=DEFAULT_PORT)
    gateway.add_argument(
        "--session",
        default="default",
        help="session name the pre-loaded graph is hosted under",
    )
    gateway.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="front door backpressure bound: concurrent requests "
        "beyond this get 429 + Retry-After",
    )

    store = subparsers.add_parser(
        "store",
        help="persistent binary store: pack / inspect / verify "
        "(mmap cold start, docs/store.md)",
    )
    store_actions = store.add_subparsers(dest="action", required=True)

    store_pack = store_actions.add_parser(
        "pack", help="run the offline phase and pack graph + index into a store file"
    )
    store_pack.add_argument("graph", help="graph JSON produced by `repro generate`")
    store_pack.add_argument("--out", required=True, help="output store path")
    store_pack.add_argument("--max-radius", type=int, default=3)
    store_pack.add_argument(
        "--thresholds", default="0.1,0.2,0.3", help="comma-separated pre-selected thresholds"
    )
    store_pack.add_argument("--fanout", type=int, default=8)
    store_pack.add_argument("--leaf-capacity", type=int, default=16)
    _add_backend_argument(store_pack)

    store_inspect = store_actions.add_parser(
        "inspect", help="print the store header, section table and meta as JSON"
    )
    store_inspect.add_argument("store", help="store file produced by `repro store pack`")

    store_verify = store_actions.add_parser(
        "verify",
        help="fully verify a store (structure, checksums, payload decode)",
    )
    store_verify.add_argument("store", help="store file produced by `repro store pack`")

    return parser


_GRAPH_HELP = "graph JSON produced by `repro generate`, or a store from `repro store pack`"


def _graph_source(path: str) -> dict:
    """The :class:`BuildRequest` source of a graph argument.

    A file that starts with the store magic opens as a store; anything else
    (a missing file included, which the build then reports) is graph JSON.
    """
    try:
        with open(path, "rb") as handle:
            is_store = handle.read(len(MAGIC)) == MAGIC
    except OSError:
        is_store = False
    return {"store_path": path} if is_store else {"graph_path": path}


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        choices=["reference", "fast"],
        help="graph core: dict-based reference (the default) or array-backed "
        "fast (identical answers; see docs/backends.md); a store keeps the "
        "backend it was packed with unless this is given",
    )


def _backend_config(args: argparse.Namespace) -> dict:
    """The ``BuildRequest.config`` entry of ``--backend``: none when unset
    (``sweep`` has no such flag)."""
    backend = getattr(args, "backend", None)
    return {} if backend is None else {"backend": backend}


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help=_GRAPH_HELP)
    _add_backend_argument(parser)
    parser.add_argument(
        "--keywords",
        default=None,
        help="comma-separated query keywords; sampled from the graph's domain when omitted",
    )
    parser.add_argument("--num-keywords", type=int, default=5,
                        help="number of keywords to sample when --keywords is omitted")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--radius", type=int, default=2)
    parser.add_argument("--theta", type=float, default=0.2)
    parser.add_argument("--top-l", type=int, default=5)
    parser.add_argument("--seed", type=int, default=97, help="keyword sampling seed")


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    _add_query_arguments(parser)
    parser.add_argument("--queries", type=int, default=32, help="batch size")
    parser.add_argument(
        "--dtopl-share",
        type=float,
        default=0.25,
        help="fraction of the batch answered as DTopL-ICDE queries",
    )
    parser.add_argument("--candidate-factor", type=int, default=3)
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the batch this many times (repeats exercise the result cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result and propagation caches",
    )
    parser.add_argument(
        "--result-cache", type=int, default=None, help="result cache capacity"
    )
    parser.add_argument(
        "--propagation-cache",
        type=int,
        default=None,
        help="propagation cache capacity",
    )
    parser.add_argument("--out", default=None, help="optionally write a JSON report")


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #
def _command_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(
        args.dataset,
        num_vertices=args.vertices,
        keywords_per_vertex=args.keywords_per_vertex,
        domain_size=args.keyword_domain,
        rng=args.seed,
    )
    save_graph_json(graph, args.out)
    if args.edge_list:
        write_edge_list(graph, args.edge_list)
    print(
        f"wrote {graph.name}: |V| = {graph.num_vertices()}, |E| = {graph.num_edges()} "
        f"-> {args.out}"
    )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    source = _graph_source(args.graph)
    if "graph_path" in source:
        graph = load_graph_json(args.graph)
        print(format_table([compute_statistics(graph).as_row()], title="graph statistics"))
        return 0
    # A store carries a built engine: print its diagnostics too, the same
    # describe() document the gateway's /v1/health serves.
    service = CommunityService()
    service.build(BuildRequest(session=CLI_SESSION, **source))
    engine = service.engine(CLI_SESSION)
    row = compute_statistics(engine.graph).as_row()
    print(format_table([row], title="graph statistics"))
    print("engine diagnostics:")
    print(json.dumps(engine.describe(), indent=2, default=str))
    return 0


def _build_session(
    args: argparse.Namespace, serving_config: Optional[ServingConfig] = None
) -> CommunityService:
    """Build the CLI's service session from the subcommand arguments.

    Routes through a :class:`BuildRequest`, exactly like a remote client:
    a store opens as packed, and the backend flag (plus a fresh build's
    ``max_radius``) travel as config overrides.
    """
    source = _graph_source(args.graph)
    service = CommunityService(serving_config=serving_config)
    config = _backend_config(args)
    if "graph_path" in source and hasattr(args, "radius"):
        config["max_radius"] = max(args.radius, 1)
    service.build(BuildRequest(session=CLI_SESSION, config=config, **source))
    return service


def _query_keywords(args: argparse.Namespace, service: CommunityService) -> frozenset:
    if args.keywords:
        return frozenset(token.strip() for token in args.keywords.split(",") if token.strip())
    workload = QueryWorkload(service.engine(CLI_SESSION).graph, rng=args.seed)
    return workload.sample_keywords(args.num_keywords)


def _command_topl(args: argparse.Namespace) -> int:
    service = _build_session(args)
    keywords = _query_keywords(args, service)
    query = make_topl_query(
        keywords, k=args.k, radius=args.radius, theta=args.theta, top_l=args.top_l
    )
    response = service.topl(ToplRequest(query=query, session=CLI_SESSION))
    print(f"query keywords: {', '.join(sorted(keywords))}")
    print(
        f"answered in {response.elapsed_seconds * 1000:.1f} ms — "
        f"{len(response.communities)} communities, "
        f"{response.statistics.total_pruned} candidates pruned"
    )
    print(
        format_table(
            response.summary_rows(),
            title="top-L most influential communities",
        )
    )
    return 0


def _command_dtopl(args: argparse.Namespace) -> int:
    service = _build_session(args)
    keywords = _query_keywords(args, service)
    query = make_dtopl_query(
        keywords,
        k=args.k,
        radius=args.radius,
        theta=args.theta,
        top_l=args.top_l,
        candidate_factor=args.candidate_factor,
    )
    response = service.dtopl(DToplRequest(query=query, session=CLI_SESSION))
    print(f"query keywords: {', '.join(sorted(keywords))}")
    print(
        f"answered in {response.elapsed_seconds * 1000:.1f} ms — "
        f"diversity score {response.diversity_score:.2f}, "
        f"{response.increment_evaluations} marginal-gain evaluations"
    )
    print(
        format_table(
            response.summary_rows(), title="diversified top-L communities"
        )
    )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    # Sweep steps share one session serving engine: overlapping candidate
    # centres across settings hit the propagation cache exactly like
    # production traffic with recurring query shapes.  The whole-result cache
    # stays off — settings that clamp to the same effective query must still
    # execute, or a row would report the previous setting's timing and
    # pruning counters.
    service = _build_session(args, serving_config=ServingConfig(result_cache_capacity=0))
    engine = service.engine(CLI_SESSION)
    workload = QueryWorkload(engine.graph, rng=args.seed)
    rows = []
    for setting in PAPER_PARAMETER_GRID.sweep(args.parameter):
        radius = min(setting["radius"], engine.index.max_radius)
        query = workload.topl_query(
            num_keywords=setting["num_query_keywords"],
            k=setting["k"],
            radius=radius,
            theta=setting["theta"],
            top_l=setting["top_l"],
        )
        started = time.perf_counter()
        result = service.answer_one(CLI_SESSION, query)
        rows.append(
            {
                args.parameter: setting["swept_value"],
                "wall_clock_s": round(time.perf_counter() - started, 4),
                "communities": len(result),
                "pruned": result.statistics.total_pruned,
            }
        )
    print(format_table(rows, title=f"sweep over {args.parameter}"))
    cache_stats = service.serving(CLI_SESSION).cache_statistics()["propagation_cache"]
    print(
        f"propagation cache: {cache_stats['hits']} hits / "
        f"{cache_stats['lookups']} lookups"
    )
    return 0


def _mixed_batch(args: argparse.Namespace, workload: QueryWorkload) -> list:
    """Build the serve command's batch: TopL and DTopL queries interleaved."""
    num_queries = max(args.queries, 1)
    share = min(max(args.dtopl_share, 0.0), 1.0)
    num_dtopl = int(round(num_queries * share))
    stride = num_queries // num_dtopl if num_dtopl else 0
    dtopl_positions = {index * stride for index in range(num_dtopl)}
    fixed_keywords = None
    if args.keywords:
        fixed_keywords = frozenset(
            token.strip() for token in args.keywords.split(",") if token.strip()
        )
    queries: list = []
    for position in range(num_queries):
        keywords = fixed_keywords or workload.sample_keywords(args.num_keywords)
        if position in dtopl_positions:
            queries.append(
                make_dtopl_query(
                    keywords,
                    k=args.k,
                    radius=args.radius,
                    theta=args.theta,
                    top_l=args.top_l,
                    candidate_factor=args.candidate_factor,
                )
            )
        else:
            queries.append(
                make_topl_query(
                    keywords, k=args.k, radius=args.radius, theta=args.theta, top_l=args.top_l
                )
            )
    return queries


def _serving_config_from_args(args: argparse.Namespace) -> ServingConfig:
    from repro.serve.batch import (
        DEFAULT_PROPAGATION_CACHE_CAPACITY,
        DEFAULT_RESULT_CACHE_CAPACITY,
    )

    result_cache = 0 if args.no_cache else args.result_cache
    propagation_cache = 0 if args.no_cache else args.propagation_cache
    return ServingConfig(
        result_cache_capacity=(
            DEFAULT_RESULT_CACHE_CAPACITY if result_cache is None else result_cache
        ),
        propagation_cache_capacity=(
            DEFAULT_PROPAGATION_CACHE_CAPACITY
            if propagation_cache is None
            else propagation_cache
        ),
    )


def _command_serve(args: argparse.Namespace) -> int:
    service = _build_session(args, serving_config=_serving_config_from_args(args))
    engine = service.engine(CLI_SESSION)
    workload = QueryWorkload(engine.graph, rng=args.seed)
    queries = _mixed_batch(args, workload)
    rows = []
    for round_number in range(1, max(args.repeat, 1) + 1):
        response = service.batch(
            BatchRequest(session=CLI_SESSION, queries=tuple(queries))
        )
        statistics = response.statistics
        rows.append(
            {
                "round": round_number,
                "queries": statistics["total_queries"],
                "wall_clock_s": round(statistics["elapsed_seconds"], 4),
                "qps": round(statistics["queries_per_second"], 2),
                "cache_hits": statistics["result_cache_hits"],
                "prop_hits": statistics["propagation_cache_hits"],
                "executed": statistics["executed"],
            }
        )
    print(format_table(rows, title="batch serving throughput"))
    cache_statistics = service.serving(CLI_SESSION).cache_statistics()
    for cache_name, payload in cache_statistics.items():
        print(
            f"{cache_name}: {payload['hits']} hits / {payload['lookups']} lookups "
            f"({payload['evictions']} evictions)"
        )
    if args.out:
        report = {
            "graph": engine.graph.name,
            "num_vertices": engine.graph.num_vertices(),
            "batch_size": len(queries),
            "rounds": rows,
            "caches": cache_statistics,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.out}")
    return 0


def _command_update(args: argparse.Namespace) -> int:
    from repro.dynamic.updates import UpdateBatch, random_update_batch
    from repro.exceptions import DynamicUpdateError
    from repro.graph.core import AdjacencyCore

    # Argument validation and script loading come before the offline phase:
    # it is the expensive step, and misuse should fail fast.
    if (args.script is None) == (args.random is None):
        raise DynamicUpdateError("exactly one of --script or --random is required")
    source = _graph_source(args.graph)
    config = _backend_config(args)
    service = CommunityService()
    if "store_path" in source:
        # A store opens without an offline phase, so its session comes first
        # and the script is drawn from (and checked against) the packed graph.
        service.build(BuildRequest(session=CLI_SESSION, config=config, **source))
        graph = service.engine(CLI_SESSION).graph
    else:
        graph = load_graph_json(args.graph)
    if args.script is not None:
        batch = UpdateBatch.load(args.script)
    else:
        focus = args.focus
        if focus is not None and focus not in graph:
            # Graph JSON vertex ids are ints or strings; retry the int form.
            try:
                focus = int(focus)
            except ValueError:
                pass
        batch = random_update_batch(
            graph,
            args.random,
            rng=args.seed,
            insert_ratio=args.insert_ratio,
            focus=focus,
            focus_radius=args.focus_radius,
        )
    batch.validate_against(AdjacencyCore(graph))
    if args.out_script:
        batch.save(args.out_script)
        print(f"edit script ({len(batch)} edits) written to {args.out_script}")

    if "graph_path" in source:
        from repro.graph.io import graph_to_dict

        # The graph is already loaded above (script validation); ship it
        # inline instead of making the facade parse the same file again.
        service.build(
            BuildRequest(session=CLI_SESSION, graph=graph_to_dict(graph), config=config)
        )

    # max(..., 1) keeps range()'s step legal when the script is empty.
    chunk = max(len(batch), 1) if args.batch_size is None else max(args.batch_size, 1)
    rows = []
    for start in range(0, len(batch), chunk):
        response = service.update(
            UpdateRequest(
                session=CLI_SESSION,
                edits=tuple(batch[start:start + chunk]),
                damage_threshold=args.damage_threshold,
            )
        )
        report = response.report
        rows.append(
            {
                "edits": f"{start}..{min(start + chunk, len(batch)) - 1}",
                "mode": report["applied_mode"],
                "affected": report["affected_vertices"],
                "damage": round(report["damage_ratio"], 3),
                "dirt": round(report["overlay_dirt_ratio"], 3),
                "truss_changed": report["truss_changed_edges"],
                "new_vertices": report["new_vertices"],
                "epoch": report["epoch"],
                "wall_clock_s": round(report["elapsed_seconds"], 4),
            }
        )
    if rows:
        print(format_table(rows, title="dynamic update replay"))
    engine = service.engine(CLI_SESSION)
    shape = engine.graph_summary()
    print(
        f"graph after replay: |V| = {shape['num_vertices']}, "
        f"|E| = {shape['num_edges']} "
        f"(backend {engine.config.backend}, epoch {engine.epoch}, "
        f"overlay dirt {engine.overlay_dirt_ratio():.3f})"
    )
    if args.out_graph:
        save_graph_json(engine.graph, args.out_graph)
        print(f"mutated graph written to {args.out_graph}")
    if args.out_store:
        engine.checkpoint_store(args.out_store)
        print(f"updated store written to {args.out_store}")
    return 0


def _command_gateway(args: argparse.Namespace) -> int:
    from repro.service.agateway import AsyncServiceGateway

    service = CommunityService()
    if args.graph:
        response = service.build(
            BuildRequest(
                session=args.session,
                config=_backend_config(args),
                **_graph_source(args.graph),
            )
        )
        graph_info = response.engine["graph"]
        print(
            f"session {args.session!r}: |V| = {graph_info['num_vertices']}, "
            f"|E| = {graph_info['num_edges']} "
            f"(backend {response.engine['backend']})"
        )
    gateway = AsyncServiceGateway(
        service, host=args.host, port=args.port, max_pending=args.max_pending
    )
    gateway.start()
    print(f"serving the v1 API on {gateway.url} (Ctrl-C to stop)")
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("gateway stopped")
    finally:
        gateway.shutdown()
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from repro.store import inspect_store, verify_store

    if args.action == "pack":
        thresholds = [float(token) for token in args.thresholds.split(",") if token]
        response = CommunityService().build(
            BuildRequest(
                session=CLI_SESSION,
                graph_path=args.graph,
                save_store_path=args.out,
                config={
                    **_backend_config(args),
                    "max_radius": args.max_radius,
                    "thresholds": thresholds,
                    "fanout": args.fanout,
                    "leaf_capacity": args.leaf_capacity,
                },
            )
        )
        graph, store = response.engine["graph"], response.engine["store"]
        print(
            f"packed {graph['name']}: |V| = {graph['num_vertices']}, "
            f"|E| = {graph['num_edges']} into a format-{store['format_version']} store "
            f"({store['file_size']} bytes) in {response.elapsed_seconds:.2f}s"
        )
        print(f"store written to {args.out}")
        return 0
    if args.action == "inspect":
        document = inspect_store(args.store)
    else:
        # verify: a store that verifies clean is guaranteed to open.
        document = verify_store(args.store)
    try:
        print(json.dumps(document, indent=2))
    except BrokenPipeError:
        # `repro store inspect ... | head` closed the pipe; point stdout at
        # devnull so the interpreter's exit-time flush stays quiet too.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "stats": _command_stats,
    "topl": _command_topl,
    "dtopl": _command_dtopl,
    "sweep": _command_sweep,
    "serve": _command_serve,
    "update": _command_update,
    "gateway": _command_gateway,
    "store": _command_store,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised through `main` in tests
    sys.exit(main())
