"""Replicated shard workers behind one pool object.

Topology: ``num_shards * replicas`` long-lived worker processes, each
holding a full engine rebuilt from the router engine's
:meth:`~repro.core.engine.InfluentialCommunityEngine.to_payload` (the same
document the spawn-mode batch workers use, so the offline phase never
re-runs).  Reads for a shard round-robin over its live replicas; updates
broadcast to every replica so graph epochs advance in lockstep with the
router's authoritative engine.

Failure semantics: a replica whose pipe breaks is marked dead and its
request retried on the next replica of the same shard — a query only fails
once *every* replica of some shard is gone.  :meth:`ShardWorkerPool.restart_dead`
respawns dead replicas from a fresh payload of the router engine (which has
every broadcast update applied), so a revived replica is consistent by
construction; a supervisor thread can call it periodically.

``mode="inline"`` swaps the processes for in-process execution against the
router engine — the identical collect/merge code path minus the transport,
which is what the equivalence suite and 1-core boxes use.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import UpdateBatch
from repro.exceptions import ServingError
from repro.query.params import TopLQuery
from repro.serve.cache import maybe_cache
from repro.service.sharded.collect import (
    ShardTopLCollector,
    statistics_from_wire,
    statistics_to_wire,
)
from repro.service.sharded.plan import ShardPlan

#: Propagation-cache capacity of each worker (epoch-tagged, worker-local).
WORKER_PROPAGATION_CACHE_CAPACITY = 4096

#: Seconds a replica gets to answer a health probe before counting as dead.
HEALTH_TIMEOUT_SECONDS = 10.0


class _ReplicaLost(Exception):
    """Internal: the replica's pipe broke mid-request (triggers failover)."""


def _make_collector(
    engine: InfluentialCommunityEngine, plan: ShardPlan, shard: int, cache=None
) -> ShardTopLCollector:
    return ShardTopLCollector(
        engine.graph,
        index=engine.index,
        propagation_cache=cache,
        cache_epoch=engine.epoch,
        backend=engine.config.backend,
        frozen=engine.frozen_graph(),
        plan=plan,
        shard=shard,
    )


def _serve_op(engine: InfluentialCommunityEngine, plan: ShardPlan, shard: int,
              cache, op: str, data: dict):
    """Execute one pool op against a (worker or inline) engine."""
    if op == "collect":
        query: TopLQuery = data["query"]
        collector = _make_collector(engine, plan, shard, cache=cache)
        result = collector.query(query)
        return {
            "communities": result.communities,
            "statistics": statistics_to_wire(result.statistics),
        }
    if op == "update":
        engine.apply_updates(
            UpdateBatch.from_json(data["edits"]),
            damage_threshold=data["damage_threshold"],
            rebuild=data["rebuild"],
        )
        return {"epoch": engine.epoch}
    if op == "health":
        return {
            "shard": shard,
            "epoch": engine.epoch,
            "num_vertices": engine.graph.num_vertices(),
            "num_edges": engine.graph.num_edges(),
        }
    raise ServingError(f"unknown shard worker op {op!r}")


def _shard_worker_main(conn, payload: dict) -> None:
    """Entry point of one replica process: rebuild, then serve the pipe.

    ``payload`` is the router engine's
    :meth:`~repro.core.engine.InfluentialCommunityEngine.to_payload` plus
    this replica's ``shard`` and ``num_shards``.
    """
    engine = InfluentialCommunityEngine.from_payload(payload)
    plan = ShardPlan(payload["num_shards"])
    shard = payload["shard"]
    cache = maybe_cache(WORKER_PROPAGATION_CACHE_CAPACITY)
    while True:
        try:
            op, data = conn.recv()
        except (EOFError, OSError):  # router gone: exit quietly
            return
        if op == "stop":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            return
        try:
            result = _serve_op(engine, plan, shard, cache, op, data)
            message = ("ok", result)
        except Exception as error:
            message = ("error", f"{type(error).__name__}: {error}")
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


class _ProcessReplica:
    """Router-side handle of one worker process (pipe + liveness)."""

    def __init__(self, context, payload: dict, shard: int, number: int) -> None:
        self.shard = shard
        self.number = number
        self.alive = True
        self._lock = threading.Lock()
        parent_conn, child_conn = context.Pipe(duplex=True)
        self._conn = parent_conn
        self._process = context.Process(
            target=_shard_worker_main,
            args=(child_conn, payload),
            name=f"repro-shard-{shard}-r{number}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def request(self, op: str, data: Optional[dict] = None, timeout: Optional[float] = None):
        with self._lock:
            if not self.alive:
                raise _ReplicaLost(f"shard {self.shard} replica {self.number} is down")
            try:
                self._conn.send((op, data or {}))
                if timeout is not None and not self._conn.poll(timeout):
                    raise OSError("replica response timed out")
                status, result = self._conn.recv()
            except (BrokenPipeError, EOFError, OSError) as error:
                self.alive = False
                raise _ReplicaLost(
                    f"shard {self.shard} replica {self.number} lost: {error}"
                ) from error
        if status == "error":
            raise ServingError(result)
        return result

    def stop(self) -> None:
        with self._lock:
            if self.alive:
                try:
                    self._conn.send(("stop", {}))
                    self._conn.poll(2.0)
                except (BrokenPipeError, OSError):
                    pass
                self.alive = False
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=5)
        self._conn.close()

    def kill(self) -> None:
        """Hard-kill the worker (the degradation tests' failure injector).

        ``alive`` is deliberately left ``True`` — a real crash is not
        announced either.  The next routed request detects the broken pipe
        and fails over; :meth:`ShardWorkerPool.restart_dead` detects the dead
        process directly.
        """
        self._process.terminate()
        self._process.join(timeout=5)

    def healthy(self) -> bool:
        return self.alive and self._process.is_alive()


class _InlineReplica:
    """In-process stand-in for a worker: same ops, no transport.

    Serves straight off the router engine, so updates are visible without a
    broadcast and ``request`` is just a function call.  ``alive`` is still
    honoured — inline degradation tests flip it to exercise failover.
    """

    def __init__(self, engine: InfluentialCommunityEngine, plan: ShardPlan,
                 shard: int, number: int) -> None:
        self.shard = shard
        self.number = number
        self.alive = True
        self._engine = engine
        self._plan = plan
        self._cache = maybe_cache(WORKER_PROPAGATION_CACHE_CAPACITY)
        self.pid = None

    def healthy(self) -> bool:
        return self.alive

    def request(self, op: str, data: Optional[dict] = None, timeout: Optional[float] = None):
        if not self.alive:
            raise _ReplicaLost(f"shard {self.shard} replica {self.number} is down")
        if op == "update":
            # The router engine already applied the update; replaying it
            # here would double-apply.  Report the (shared) epoch instead.
            return {"epoch": self._engine.epoch}
        return _serve_op(
            self._engine, self._plan, self.shard, self._cache, op, data or {}
        )

    def stop(self) -> None:
        self.alive = False

    def kill(self) -> None:
        self.alive = False


class ShardWorkerPool:
    """``num_shards`` shards x ``replicas`` workers with exact fan-out reads.

    Parameters
    ----------
    engine:
        The router's authoritative engine; workers rebuild from its payload
        and restarts re-derive it, so the router never serves ahead of what
        it can restore.
    num_shards, replicas:
        Pool shape.  Reads use one replica per shard (round-robin); updates
        broadcast to all of them.
    mode:
        ``"process"`` spawns worker processes; ``"inline"`` runs the same
        collect path in-process (equivalence tests, single-core boxes).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when the
        platform offers it.
    supervise_interval:
        When set, a daemon thread calls :meth:`restart_dead` this often
        (seconds).  Left off in tests so failover is observable.
    """

    def __init__(
        self,
        engine: InfluentialCommunityEngine,
        num_shards: int,
        replicas: int = 1,
        mode: str = "process",
        start_method: Optional[str] = None,
        supervise_interval: Optional[float] = None,
    ) -> None:
        if replicas < 1:
            raise ServingError(f"replicas must be >= 1, got {replicas}")
        if mode not in ("process", "inline"):
            raise ServingError(f"mode must be 'process' or 'inline', got {mode!r}")
        self.plan = ShardPlan(num_shards)
        self.replicas = replicas
        self.mode = mode
        self._engine = engine
        self._closed = False
        self.restarts = 0
        self._route_lock = threading.Lock()
        self._rr = [0] * num_shards
        if mode == "process":
            available = multiprocessing.get_all_start_methods()
            if start_method is None:
                start_method = "fork" if "fork" in available else "spawn"
            self._context = multiprocessing.get_context(start_method)
        else:
            self._context = None
        self._replicas: list[list] = [
            [self._spawn(shard, number) for number in range(replicas)]
            for shard in self.plan.shards()
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="repro-shard-router"
        )
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_stop = threading.Event()
        if supervise_interval is not None:
            self._supervisor = threading.Thread(
                target=self._supervise,
                args=(supervise_interval,),
                name="repro-shard-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    # ------------------------------------------------------------------ #
    # replica lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, shard: int, number: int):
        if self.mode == "inline":
            return _InlineReplica(self._engine, self.plan, shard, number)
        payload = {
            **self._engine.to_payload(),
            "shard": shard,
            "num_shards": self.plan.num_shards,
        }
        return _ProcessReplica(self._context, payload, shard, number)

    def restart_dead(self) -> int:
        """Respawn every dead replica from the router engine's current state."""
        if self._closed:
            return 0
        respawned = 0
        for shard, replicas in enumerate(self._replicas):
            for number, replica in enumerate(replicas):
                if not replica.healthy():
                    replica.alive = False  # routed requests stop trying it
                    replicas[number] = self._spawn(shard, number)
                    respawned += 1
        self.restarts += respawned
        return respawned

    def _supervise(self, interval: float) -> None:  # pragma: no cover - timing
        while not self._supervisor_stop.wait(interval):
            try:
                self.restart_dead()
            except Exception:
                pass  # never let supervision kill the router

    def kill_replica(self, shard: int, number: int = 0) -> None:
        """Hard-kill one replica (failure injection for degradation tests)."""
        self._replicas[shard][number].kill()

    def stop(self) -> None:
        """Stop supervision, workers and the fan-out executor."""
        self._closed = True
        self._supervisor_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5)
        for replicas in self._replicas:
            for replica in replicas:
                replica.stop()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _next_replica(self, shard: int):
        with self._route_lock:
            replicas = self._replicas[shard]
            for _ in range(len(replicas)):
                replica = replicas[self._rr[shard] % len(replicas)]
                self._rr[shard] += 1
                if replica.alive:
                    return replica
        return None

    def _request_shard(self, shard: int, op: str, data: dict,
                       timeout: Optional[float] = None):
        for _ in range(len(self._replicas[shard])):
            replica = self._next_replica(shard)
            if replica is None:
                break
            try:
                return replica.request(op, data, timeout=timeout)
            except _ReplicaLost:
                continue  # failover to the next live replica
        raise ServingError(
            f"all {len(self._replicas[shard])} replica(s) of shard {shard} are "
            "unavailable (restart supervision will respawn them from the "
            "router engine)"
        )

    # ------------------------------------------------------------------ #
    # pool ops
    # ------------------------------------------------------------------ #
    def collect(self, query: TopLQuery) -> list[dict]:
        """Fan one candidate-collection query over every shard.

        Returns one ``{"communities": tuple, "statistics": QueryStatistics}``
        per shard, shard order.  Shard requests run concurrently (the workers
        are separate processes; the router threads only block on pipes).
        """
        futures = [
            self._executor.submit(self._request_shard, shard, "collect", {"query": query})
            for shard in self.plan.shards()
        ]
        collected = []
        for future in futures:
            result = future.result()
            collected.append(
                {
                    "communities": tuple(result["communities"]),
                    "statistics": statistics_from_wire(result["statistics"]),
                }
            )
        return collected

    def broadcast_update(self, edits_document: dict, damage_threshold, rebuild) -> dict:
        """Apply one update batch on every live replica (epochs stay lockstep).

        Dead replicas are skipped — their restart payload is generated from
        the router engine *after* it applied the update, so a respawned
        replica can never miss one.
        """
        data = {
            "edits": edits_document,
            "damage_threshold": damage_threshold,
            "rebuild": rebuild,
        }
        epochs: dict[str, int] = {}
        for shard, replicas in enumerate(self._replicas):
            for replica in replicas:
                if not replica.alive:
                    continue
                try:
                    result = replica.request("update", data)
                except _ReplicaLost:
                    continue
                epochs[f"{shard}.{replica.number}"] = result["epoch"]
        return epochs

    def health(self) -> dict:
        """Topology + per-replica liveness (what ``/v1/health`` reports)."""
        shards = []
        for shard, replicas in enumerate(self._replicas):
            entries = []
            for replica in replicas:
                entry = {"replica": replica.number, "alive": bool(replica.alive)}
                if replica.alive:
                    try:
                        probe = replica.request(
                            "health", timeout=HEALTH_TIMEOUT_SECONDS
                        )
                        entry["epoch"] = probe["epoch"]
                    except (_ReplicaLost, ServingError):
                        entry["alive"] = False
                if replica.pid is not None:
                    entry["pid"] = replica.pid
                entries.append(entry)
            shards.append({"shard": shard, "replicas": entries})
        return {
            "num_shards": self.plan.num_shards,
            "replicas": self.replicas,
            "mode": self.mode,
            "restarts": self.restarts,
            "shards": shards,
        }

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
