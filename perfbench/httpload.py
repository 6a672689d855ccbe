"""Open-loop HTTP workload: ``smallworld-http``.

A child process serves a store-backed session through ``AsyncServiceGateway``.
This process sends Poisson arrivals on a fixed schedule over at most
``nproc`` keep-alive connections, and times every request from the moment
it was due, so a stall shows up in the requests queued behind it.  Between
requests it probes the host's speed (see ``measure.probe_ms``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from perfbench import inputs
from perfbench.measure import probe_ms, required_samples

#: The client probes the host's speed this often, skipping a turn unless no
#: request is queued or in flight and the next one is not due for a while.
PROBE_EVERY_S = 0.1
PROBE_GAP_S = 0.015

#: Well under the server's capacity even when the shared host runs at half
#: speed, so the measured latencies are service times, not a growing queue.
RATE_PER_S = 60.0
POOL_TOPL = 192
POOL_DTOPL = 64
WRITE_EVERY = 5
SLO_MS = 25.0
LATENESS_BOUND_MS = 200.0
REQUEST_TIMEOUT_S = 10.0
CONFIG = {"backend": "fast", "max_radius": 2}


def smallworld_http(seed: int, seconds: float) -> dict:
    """Graph, request pool, arrival schedule and the request behind each arrival.

    Reads cycle TopL, TopL, TopL, DTopL (3:1) and pick their request
    Zipf-skewed from a pool of distinct TopL and DTopL requests; every
    fifth arrival is a growth write to a separate session, so the read
    session's result cache keeps its entries.
    """
    graph = inputs.small_world_graph(seed, vertices=400).to_wire()
    rng = random.Random(f"smallworld-http:requests:{seed}")
    params = {"num_keywords": 3, "k": 3, "radius": 2, "top_l": 5}
    pools = {
        "topl": inputs.distinct_queries(rng, ("topl",), POOL_TOPL, **params),
        "dtopl": inputs.distinct_queries(rng, ("dtopl",), POOL_DTOPL, **params),
    }
    # Enough arrivals for a p90 of writes and a p95 of DTopL (one read in four).
    minimum = max(
        required_samples(90) * WRITE_EVERY,
        required_samples(95) * 4 * WRITE_EVERY // (WRITE_EVERY - 1) + WRITE_EVERY,
    )
    count = max(int(round(RATE_PER_S * seconds)), minimum)
    schedule = inputs.poisson_schedule(rng, RATE_PER_S, count / RATE_PER_S)
    writes_needed = count // WRITE_EVERY
    reads_needed = count - writes_needed
    kinds = ["topl", "topl", "topl", "dtopl"]
    read_kinds = [kinds[i % 4] for i in range(reads_needed)]
    picks = {
        kind: iter(inputs.zipf_draws(rng, len(pools[kind]), read_kinds.count(kind)))
        for kind in pools
    }
    writes = iter(inputs.growth_writes(rng, writes_needed, session="writes"))
    arrivals = []
    read_index = 0
    for index in range(count):
        if index % WRITE_EVERY == WRITE_EVERY - 1:
            arrivals.append(("update", None, next(writes)))
        else:
            kind = read_kinds[read_index]
            read_index += 1
            slot = next(picks[kind])
            arrivals.append((kind, slot, inputs.read_request(pools[kind][slot])))
    return {"graph": graph, "pools": pools, "schedule": schedule, "arrivals": arrivals}


def _encode(kind: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"POST /v1/{kind} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _exchange(reader, writer, message: bytes) -> tuple:
    writer.write(message)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length)
    return status, body


async def _open_loop(port: int, schedule, messages, connections: int) -> tuple:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    records = [None] * len(schedule)
    probes = []
    in_flight = 0
    next_due = None

    async def generate(origin: float) -> None:
        nonlocal next_due
        for index, offset in enumerate(schedule):
            next_due = origin + offset
            delay = next_due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, next_due, loop.time()))
        next_due = None
        for _ in range(connections):
            queue.put_nowait(None)

    async def probe() -> None:
        while next_due is not None:
            await asyncio.sleep(PROBE_EVERY_S)
            idle = in_flight == 0 and queue.empty()
            if idle and next_due is not None and next_due - loop.time() > PROBE_GAP_S:
                probes.append(probe_ms())

    async def connect():
        return await asyncio.open_connection("127.0.0.1", port)

    async def send(stream) -> None:
        nonlocal in_flight
        reader, writer = stream
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                index, due, dispatched = item
                in_flight += 1
                sent = loop.time()
                try:
                    status, body = await asyncio.wait_for(
                        _exchange(reader, writer, messages[index]), REQUEST_TIMEOUT_S
                    )
                except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError):
                    status, body = 0, b""
                    writer.close()
                    reader, writer = await connect()
                records[index] = (due, dispatched, sent, loop.time(), status, body)
                in_flight -= 1
        finally:
            writer.close()

    # Connect before the schedule starts, so connection set-up is not timed.
    streams = [await connect() for _ in range(connections)]
    origin = loop.time() + 0.05
    next_due = origin
    await asyncio.gather(
        generate(origin), probe(), *(send(stream) for stream in streams)
    )
    return records, probes


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def run(seed: int, seconds: float, root: Path, scratch: Path, trace: bool) -> dict:
    """Pack the store, start the server child, drive the schedule, stop the child."""
    from repro.service import CommunityService
    from repro.store import pack_store

    spec = smallworld_http(seed, seconds)
    store = scratch / f"smallworld-{seed}.repro-store"
    packer = CommunityService()
    document, error = packer.handle_json(
        "build", {"schema_version": 1, "graph": spec["graph"], "config": CONFIG}
    )
    if error is not None:
        raise RuntimeError(f"build failed: {document}")
    pack_store(packer.engine("default"), store)
    del packer

    stats_path = scratch / f"smallworld-{seed}-server.json"
    command = [sys.executable, "-m", "perfbench.server", "--store", str(store),
               "--stats", str(stats_path), "--trace", str(int(trace))]
    if trace:
        command += ["--spans", str(scratch / f"spans-smallworld-http-{seed}-server.json.gz")]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join([str(root), str(root / "src")])
    connections = max(1, os.cpu_count() or 1)
    messages = [_encode(kind, payload) for kind, _, payload in spec["arrivals"]]
    with subprocess.Popen(
        command, cwd=root, env=environment, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    ) as child:
        try:
            ready = json.loads(child.stdout.readline())
            records, probes = asyncio.run(
                _open_loop(ready["port"], spec["schedule"], messages, connections)
            )
            peak_rss_mb = _peak_rss_mb(child.pid)
            child.stdin.write("stop\n")
            child.stdin.flush()
            if child.wait(timeout=60) != 0:
                raise RuntimeError(f"server child exited with {child.returncode}")
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    with open(stats_path, encoding="utf-8") as handle:
        server = json.load(handle)
    return {
        "spec": spec,
        "records": records,
        "server": server,
        "setup": ready["setup_s"],
        "setup_probes": ready["setup_probes"],
        "probes": probes,
        "engine": ready["engine"],
        "peak_rss_mb": peak_rss_mb,
        "connections": connections,
        "fingerprint": inputs.fingerprint(spec["graph"], spec["schedule"], spec["arrivals"]),
    }
