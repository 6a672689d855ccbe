"""Seeded inputs: graphs, request streams, edit scripts and arrival schedules.

Everything here depends only on the standard library and the seed, never on
``repro``, so a change to the program cannot change what it is fed.  The
program only ever sees the wire documents built here: a graph document in
the ``repro.graph.io`` JSON format, request documents of the ``/v1`` wire
schema, and (for the HTTP workload) a store file packed from the graph.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque

GRAPH_FORMAT_VERSION = 1
SCHEMA_VERSION = 1
VOCABULARY = tuple(f"kw{i:02d}" for i in range(50))

#: First id handed to vertices created by growth writes (far above any
#: generated vertex id, so a growth write never touches the base graph).
GROWTH_ID_BASE = 1_000_000


class Graph:
    """A small mutable copy of the generated network (adjacency + weights)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.keywords: dict = {}
        self.adjacency: dict = {}
        self.probability: dict = {}
        self.edge_order: list = []

    def add_vertex(self, vertex: int, keywords) -> None:
        self.keywords[vertex] = tuple(sorted(keywords))
        self.adjacency[vertex] = set()

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def add_edge(self, u: int, v: int, p_uv: float, p_vu: float) -> None:
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)
        self.probability[(u, v)] = p_uv
        self.probability[(v, u)] = p_vu
        self.edge_order.append((u, v))

    def remove_edge(self, u: int, v: int) -> None:
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        del self.probability[(u, v)]
        del self.probability[(v, u)]

    def ball(self, center: int, radius: int) -> list:
        """Vertices within ``radius`` hops of ``center``, in BFS order."""
        seen = {center: 0}
        order = [center]
        queue = deque([center])
        while queue:
            vertex = queue.popleft()
            depth = seen[vertex]
            if depth == radius:
                continue
            for neighbour in sorted(self.adjacency[vertex]):
                if neighbour not in seen:
                    seen[neighbour] = depth + 1
                    order.append(neighbour)
                    queue.append(neighbour)
        return order

    def to_wire(self) -> dict:
        """The ``repro.graph.io`` graph document of the current state."""
        edges = []
        emitted = set()
        for u, v in self.edge_order:
            key = frozenset((u, v))
            if (u, v) in self.probability and key not in emitted:
                emitted.add(key)
                edges.append(
                    {"u": u, "v": v, "p_uv": self.probability[(u, v)],
                     "p_vu": self.probability[(v, u)]}
                )
        return {
            "format_version": GRAPH_FORMAT_VERSION,
            "name": self.name,
            "vertices": [
                {"id": vertex, "keywords": list(keywords)}
                for vertex, keywords in self.keywords.items()
            ],
            "edges": edges,
        }


def _keywords(rng: random.Random, per_vertex: int = 3) -> tuple:
    return tuple(rng.sample(VOCABULARY, per_vertex))


def planted_graph(
    seed: int,
    communities: int,
    size: int,
    p_in: float,
    p_out: float,
    weights: tuple,
    name: str,
) -> Graph:
    """Planted dense communities joined by sparse bridges.

    Each community gets exactly ``p_in`` of its vertex pairs as edges and
    the bridges exactly ``p_out`` of the cross pairs, placed at random:
    fixing the counts keeps the work per query alike from seed to seed.
    """
    rng = random.Random(f"{name}:{seed}")
    graph = Graph(name)
    for vertex in range(communities * size):
        graph.add_vertex(vertex, _keywords(rng))
    low, high = weights
    inner = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for block in range(communities):
        base = block * size
        for i, j in sorted(rng.sample(inner, round(p_in * len(inner)))):
            graph.add_edge(base + i, base + j, rng.uniform(low, high), rng.uniform(low, high))
    block_pairs = [(b, c) for b in range(communities) for c in range(b + 1, communities)]
    cross = len(block_pairs) * size * size
    for index in sorted(rng.sample(range(cross), round(p_out * cross))):
        block, other = block_pairs[index // (size * size)]
        u = block * size + index % (size * size) // size
        v = other * size + index % size
        graph.add_edge(u, v, rng.uniform(low, high), rng.uniform(low, high))
    return graph


def small_world_graph(seed: int, vertices: int = 400, name: str = "Uni") -> Graph:
    """Newman-Watts-Strogatz small world with uniform keywords.

    A ring where each vertex links to its 6 nearest neighbours, plus
    shortcuts from 16.7% of the ring edges' sources to random vertices
    (an exact count, like the planted graphs' edge counts).
    """
    rng = random.Random(f"{name}:{seed}")
    graph = Graph(name)
    for vertex in range(vertices):
        graph.add_vertex(vertex, _keywords(rng))
    for vertex in range(vertices):
        for offset in (1, 2, 3):
            graph.add_edge(
                vertex, (vertex + offset) % vertices, rng.uniform(0.5, 0.6), rng.uniform(0.5, 0.6)
            )
    ring = list(graph.edge_order)
    for u, _ in sorted(rng.sample(ring, round(0.167 * len(ring)))):
        w = rng.randrange(vertices)
        while w == u or graph.has_edge(u, w):
            w = rng.randrange(vertices)
        graph.add_edge(u, w, rng.uniform(0.5, 0.6), rng.uniform(0.5, 0.6))
    return graph


# --------------------------------------------------------------------------- #
# request documents
# --------------------------------------------------------------------------- #
def query_wire(kind: str, keywords, k: int, radius: int, top_l: int, theta: float = 0.2) -> dict:
    query = {
        "type": kind,
        "keywords": sorted(keywords),
        "k": k,
        "radius": radius,
        "theta": theta,
        "top_l": top_l,
    }
    if kind == "dtopl":
        query["candidate_factor"] = 3
    return query


def read_request(query: dict, session: str = "default") -> dict:
    return {"schema_version": SCHEMA_VERSION, "session": session, "query": query}


def update_request(edits: list, session: str = "default") -> dict:
    return {"schema_version": SCHEMA_VERSION, "session": session, "edits": edits}


def distinct_queries(rng: random.Random, kinds, count: int, num_keywords: int, **params) -> list:
    """``count`` queries cycling through ``kinds``, no two alike."""
    seen = set()
    queries = []
    while len(queries) < count:
        kind = kinds[len(queries) % len(kinds)]
        keywords = tuple(sorted(rng.sample(VOCABULARY, num_keywords)))
        if (kind, keywords) in seen:
            continue
        seen.add((kind, keywords))
        queries.append(query_wire(kind, keywords, **params))
    return queries


def growth_writes(rng: random.Random, count: int, session: str) -> list:
    """``count`` update requests, each adding a new three-member group.

    The group's vertices are new and linked only to each other, so a
    growth write never touches the base graph: its damage is near zero on
    any network, and it measures the fixed cost of the write path.
    """
    requests = []
    for index in range(count):
        a, b, c = (GROWTH_ID_BASE + 3 * index + offset for offset in range(3))
        edits = [
            _insert(rng, a, b, keywords_u=_keywords(rng, 2), keywords_v=_keywords(rng, 2)),
            _insert(rng, b, c, keywords_v=_keywords(rng, 2)),
            _insert(rng, a, c),
        ]
        requests.append(update_request(edits, session=session))
    return requests


def _insert(rng: random.Random, u: int, v: int, keywords_u=(), keywords_v=()) -> dict:
    edit = {
        "op": "insert",
        "u": u,
        "v": v,
        "p_uv": rng.uniform(0.1, 0.9),
        "p_vu": rng.uniform(0.1, 0.9),
    }
    if keywords_u:
        edit["keywords_u"] = sorted(keywords_u)
    if keywords_v:
        edit["keywords_v"] = sorted(keywords_v)
    return edit


def churn_script(
    rng: random.Random,
    graph: Graph,
    steps: int,
    reads: tuple,
    read_params: dict,
    keywords_per_read: int,
    edits_per_step: int = 10,
    radius: int = 2,
) -> list:
    """Localised churn: per step one edit batch, then ``reads`` queries.

    Each batch inserts and deletes edges among the vertices within
    ``radius`` hops of a seeded focus vertex.  The script is validated
    against ``graph``, which it mutates as it goes, so every batch is valid
    at the epoch it will be applied.  Reads draw their keywords from the
    focus ball, so they ask about the region that just changed.
    """
    vertices = sorted(graph.adjacency)
    script = []
    for _ in range(steps):
        pool = []
        while len(pool) < 4:
            pool = graph.ball(rng.choice(vertices), radius)
        members = set(pool)
        edits = []
        while len(edits) < edits_per_step:
            # Deletions and insertions are equally likely, so the edge
            # count (and the cost of later steps) stays level over a run.
            if rng.random() < 0.5:
                edges = [
                    (u, v) for u in pool for v in sorted(graph.adjacency[u])
                    if v in members and u < v
                ]
                if edges:
                    u, v = rng.choice(edges)
                    graph.remove_edge(u, v)
                    edits.append({"op": "delete", "u": u, "v": v})
                continue
            for _ in range(64):
                u, v = rng.sample(pool, 2)
                if not graph.has_edge(u, v):
                    edit = _insert(rng, u, v)
                    graph.add_edge(u, v, edit["p_uv"], edit["p_vu"])
                    edits.append(edit)
                    break
        ball_keywords = sorted({kw for vertex in pool for kw in graph.keywords[vertex]})
        count = min(keywords_per_read, len(ball_keywords))
        queries = [
            query_wire(kind, rng.sample(ball_keywords, count), **read_params) for kind in reads
        ]
        script.append({"update": update_request(edits), "reads": queries})
    return script


# --------------------------------------------------------------------------- #
# open-loop traffic
# --------------------------------------------------------------------------- #
def poisson_schedule(rng: random.Random, rate: float, seconds: float) -> list:
    """Arrival offsets of a Poisson process conditioned on ``rate * seconds`` arrivals.

    Given its count, a Poisson process places arrivals uniformly at random,
    so sorting uniform draws gives the process without letting the count
    itself vary between seeds.
    """
    count = int(round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def zipf_draws(rng: random.Random, pool_size: int, count: int, exponent: float = 1.0) -> list:
    """``count`` indices into a pool, rank ``i`` drawn with weight ``1 / (i + 1) ** s``."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(pool_size)]
    ranking = list(range(pool_size))
    rng.shuffle(ranking)
    ranks = rng.choices(range(pool_size), weights=weights, k=count)
    return [ranking[rank] for rank in ranks]


def repeat_share(sequence) -> float:
    """Share of items that repeat an earlier item of ``sequence``."""
    items = list(sequence)
    if not items:
        return 0.0
    return 1.0 - len(set(items)) / len(items)


def fingerprint(*documents) -> str:
    """Short digest of JSON documents: equal seeds show equal inputs."""
    digest = hashlib.sha256()
    for document in documents:
        digest.update(json.dumps(document, sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()[:16]
