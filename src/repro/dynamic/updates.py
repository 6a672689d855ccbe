"""Edge edit scripts: the input format of the dynamic-graph subsystem.

An :class:`UpdateBatch` is an ordered sequence of :class:`EdgeUpdate` edits
(edge insertions and deletions) with *sequential* semantics: each edit is
validated and applied against the graph state produced by the edits before
it, so a script may insert an edge and delete it again later.  Scripts
round-trip through a small JSON document (see :meth:`UpdateBatch.to_json`)
that the ``repro update`` CLI subcommand replays.

Vertices referenced by an insertion but absent from the graph are created on
the fly; an edit may carry keyword sets for such *new* endpoints (keywords of
existing vertices are never modified by an edit script).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro._rng import RandomLike, resolve_rng
from repro.exceptions import DynamicUpdateError
from repro.graph.core import GraphCore
from repro.graph.social_network import SocialNetwork, VertexId
from repro.truss.support import edge_key

PathLike = Union[str, Path]

INSERT = "insert"
DELETE = "delete"
_OPS = (INSERT, DELETE)

#: Default activation probability of inserted edges (mirrors ``add_edge``).
DEFAULT_INSERT_PROBABILITY = 0.5


@dataclass(frozen=True)
class EdgeUpdate:
    """One edit of an edit script: insert or delete the edge ``{u, v}``.

    Attributes
    ----------
    op:
        ``"insert"`` or ``"delete"``.
    u, v:
        Endpoints of the structural edge.
    p_uv, p_vu:
        Directional activation probabilities of an insertion (``p_vu``
        defaults to ``p_uv``, ``p_uv`` to 0.5); must be omitted on deletions.
    keywords_u, keywords_v:
        Keyword sets applied to an endpoint *created* by this insertion;
        ignored for endpoints that already exist.
    """

    op: str
    u: VertexId
    v: VertexId
    p_uv: Optional[float] = None
    p_vu: Optional[float] = None
    keywords_u: frozenset = field(default_factory=frozenset)
    keywords_v: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise DynamicUpdateError(f"edit op must be one of {_OPS}, got {self.op!r}")
        if self.u == self.v:
            raise DynamicUpdateError(f"self-loop edit on vertex {self.u!r} is not allowed")
        if self.op == DELETE and (self.p_uv is not None or self.p_vu is not None):
            raise DynamicUpdateError("deletions must not carry probabilities")
        object.__setattr__(self, "keywords_u", frozenset(self.keywords_u))
        object.__setattr__(self, "keywords_v", frozenset(self.keywords_v))

    @property
    def key(self) -> frozenset:
        """Canonical (orientation-free) key of the edited edge."""
        return edge_key(self.u, self.v)

    @classmethod
    def insert(
        cls,
        u: VertexId,
        v: VertexId,
        p_uv: float = DEFAULT_INSERT_PROBABILITY,
        p_vu: Optional[float] = None,
        keywords_u: Iterable[str] = (),
        keywords_v: Iterable[str] = (),
    ) -> "EdgeUpdate":
        """Build an insertion edit."""
        return cls(
            op=INSERT, u=u, v=v, p_uv=p_uv, p_vu=p_vu,
            keywords_u=frozenset(keywords_u), keywords_v=frozenset(keywords_v),
        )

    @classmethod
    def delete(cls, u: VertexId, v: VertexId) -> "EdgeUpdate":
        """Build a deletion edit."""
        return cls(op=DELETE, u=u, v=v)

    def resolved_probabilities(self) -> tuple[float, float]:
        """The effective ``(p_uv, p_vu)`` of an insertion after defaulting.

        ``p_uv`` defaults to :data:`DEFAULT_INSERT_PROBABILITY` and ``p_vu``
        to ``p_uv``.  This is the single source of the defaulting rule:
        every application site (:meth:`UpdateBatch.apply_to`, incremental
        truss maintenance, JSON encoding) shares it, which is what keeps the
        two graph cores bit-identical under the same script.
        """
        p_uv = DEFAULT_INSERT_PROBABILITY if self.p_uv is None else self.p_uv
        return p_uv, (p_uv if self.p_vu is None else self.p_vu)

    def as_dict(self) -> dict:
        """JSON-compatible representation of the edit."""
        record: dict = {"op": self.op, "u": self.u, "v": self.v}
        if self.op == INSERT:
            record["p_uv"], record["p_vu"] = self.resolved_probabilities()
            if self.keywords_u:
                record["keywords_u"] = sorted(self.keywords_u)
            if self.keywords_v:
                record["keywords_v"] = sorted(self.keywords_v)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "EdgeUpdate":
        """Parse one edit from its :meth:`as_dict` representation."""
        try:
            op = record["op"]
            u = record["u"]
            v = record["v"]
        except (KeyError, TypeError) as exc:
            raise DynamicUpdateError(f"malformed edit record: {record!r}") from exc
        return cls(
            op=op,
            u=u,
            v=v,
            p_uv=record.get("p_uv"),
            p_vu=record.get("p_vu"),
            keywords_u=frozenset(record.get("keywords_u", ())),
            keywords_v=frozenset(record.get("keywords_v", ())),
        )


class UpdateBatch:
    """An ordered edit script over a social network.

    The batch is immutable once constructed; :meth:`validate_against`
    dry-runs the whole script against a graph core so application is
    all-or-nothing.
    """

    def __init__(self, updates: Iterable[EdgeUpdate] = ()) -> None:
        self.updates: tuple[EdgeUpdate, ...] = tuple(updates)
        for update in self.updates:
            if not isinstance(update, EdgeUpdate):
                raise DynamicUpdateError(
                    f"expected an EdgeUpdate, got {type(update).__name__}"
                )

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self.updates)

    def __getitem__(self, index: int) -> EdgeUpdate:
        return self.updates[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UpdateBatch(insertions={self.num_insertions}, "
            f"deletions={self.num_deletions})"
        )

    @property
    def num_insertions(self) -> int:
        """Number of insertion edits."""
        return sum(1 for update in self.updates if update.op == INSERT)

    @property
    def num_deletions(self) -> int:
        """Number of deletion edits."""
        return sum(1 for update in self.updates if update.op == DELETE)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate_against(self, core: GraphCore) -> None:
        """Dry-run the script against ``core``; raise before any mutation.

        Sequential semantics: each edit is checked against the edge set
        produced by the edits before it, so ``insert(a, b)`` followed by
        ``delete(a, b)`` is valid even when ``{a, b}`` is not in the graph.
        """
        # Edges inserted (True) or deleted (False) by earlier edits of this
        # script; every other edge is looked up in the core, so validation
        # costs O(edits) rather than O(|E|).
        pending: dict[frozenset, bool] = {}
        for position, update in enumerate(self.updates):
            key = update.key
            exists = pending.get(key)
            if exists is None:
                exists = core.has_edge(update.u, update.v)
            if update.op == INSERT:
                if exists:
                    raise DynamicUpdateError(
                        f"edit {position}: edge ({update.u!r}, {update.v!r}) "
                        "already exists (probability changes are not edits)"
                    )
                for probability in (update.p_uv, update.p_vu):
                    if probability is not None and not 0.0 <= float(probability) <= 1.0:
                        raise DynamicUpdateError(
                            f"edit {position}: probability {probability!r} "
                            "is outside [0, 1]"
                        )
                pending[key] = True
            else:
                if not exists:
                    raise DynamicUpdateError(
                        f"edit {position}: edge ({update.u!r}, {update.v!r}) "
                        "does not exist"
                    )
                pending[key] = False

    def apply_to(self, core: GraphCore) -> list:
        """Apply the script to ``core`` directly, with no index maintenance.

        Used by forced rebuilds, where incremental bookkeeping would be
        thrown away anyway.  Returns the vertices the script created, in
        creation order.  Call :meth:`validate_against` first — application
        assumes a valid script.
        """
        new_vertices: list[VertexId] = []
        for update in self.updates:
            if update.op == INSERT:
                new_vertices.extend(
                    vertex for vertex in (update.u, update.v) if vertex not in core.table
                )
                p_uv, p_vu = update.resolved_probabilities()
                core.note_insert(
                    update.u, update.v, p_uv, p_vu,
                    keywords_u=update.keywords_u, keywords_v=update.keywords_v,
                )
            else:
                core.note_delete(update.u, update.v)
        return new_vertices

    # ------------------------------------------------------------------ #
    # edit-script JSON round trip
    # ------------------------------------------------------------------ #
    def to_json(self) -> dict:
        """Return the JSON edit-script document for this batch."""
        return {"format": "repro-edit-script", "version": 1,
                "edits": [update.as_dict() for update in self.updates]}

    @classmethod
    def from_json(cls, payload) -> "UpdateBatch":
        """Parse a batch from an edit-script document (or a bare edit list)."""
        if isinstance(payload, dict):
            try:
                edits = payload["edits"]
            except KeyError as exc:
                raise DynamicUpdateError(
                    "edit-script document is missing the 'edits' list"
                ) from exc
        else:
            edits = payload
        if not isinstance(edits, list):
            raise DynamicUpdateError(
                f"'edits' must be a list, got {type(edits).__name__}"
            )
        return cls(EdgeUpdate.from_dict(record) for record in edits)

    def save(self, path: PathLike) -> None:
        """Write the edit script to ``path`` as JSON."""
        with Path(path).open("w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2)

    @classmethod
    def load(cls, path: PathLike) -> "UpdateBatch":
        """Load an edit script saved by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise DynamicUpdateError(f"edit script not found: {path}")
        with path.open("r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))


def random_update_batch(
    graph: SocialNetwork,
    size: int,
    rng: RandomLike = 7,
    insert_ratio: float = 0.5,
    focus: Optional[VertexId] = None,
    focus_radius: int = 2,
    weight_range: tuple[float, float] = (0.1, 0.9),
    grow_probability: float = 0.0,
    keyword_pool: Sequence[str] = (),
) -> UpdateBatch:
    """Generate a random, sequentially-valid edit script over ``graph``.

    Parameters
    ----------
    graph:
        The network the script will be applied to (left untouched here).
    size:
        Number of edits.
    rng:
        Seed or ``random.Random`` instance (scripts are reproducible).
    insert_ratio:
        Target fraction of insertions (deletions make up the rest; the ratio
        degrades gracefully when the candidate pool runs dry).
    focus / focus_radius:
        When ``focus`` is given, edits are restricted to vertices within
        ``focus_radius`` hops of it — a locality-biased churn model (real
        update streams cluster around active communities).
    weight_range:
        Interval the directional probabilities of insertions are drawn from.
    grow_probability:
        Probability that an insertion attaches a brand-new vertex instead of
        connecting two existing ones (models user arrival).
    keyword_pool:
        Keywords sampled for newly created vertices (1-3 each) when non-empty.
    """
    if size < 0:
        raise DynamicUpdateError(f"size must be >= 0, got {size}")
    generator = resolve_rng(rng)

    if focus is not None:
        from repro.graph.traversal import bfs_distances

        pool = sorted(bfs_distances(graph, focus, max_depth=focus_radius), key=repr)
    else:
        pool = list(graph.vertices())

    pool_set = set(pool)
    edges = [
        edge_key(u, v)
        for u, v in graph.edges()
        if u in pool_set and v in pool_set
    ]
    edge_set = set(edges)
    numeric_ids = [v for v in graph.vertices() if isinstance(v, int)]
    next_vertex = (max(numeric_ids) + 1) if numeric_ids else len(pool)

    def draw_probability() -> float:
        low, high = weight_range
        return generator.uniform(low, high)

    def new_vertex_keywords() -> frozenset:
        if not keyword_pool:
            return frozenset()
        count = generator.randint(1, min(3, len(keyword_pool)))
        return frozenset(generator.sample(list(keyword_pool), count))

    updates: list[EdgeUpdate] = []
    while len(updates) < size:
        want_insert = generator.random() < insert_ratio
        if not want_insert and not edges:
            want_insert = True
        if want_insert:
            edit = None
            if grow_probability > 0.0 and generator.random() < grow_probability:
                anchor = generator.choice(pool) if pool else None
                if anchor is not None:
                    vertex = next_vertex
                    next_vertex += 1
                    edit = EdgeUpdate.insert(
                        anchor,
                        vertex,
                        draw_probability(),
                        draw_probability(),
                        keywords_v=new_vertex_keywords(),
                    )
                    pool.append(vertex)
                    pool_set.add(vertex)
            if edit is None:
                if len(pool) < 2:
                    break
                for _ in range(64):
                    u, v = generator.sample(pool, 2)
                    key = edge_key(u, v)
                    if key not in edge_set:
                        edit = EdgeUpdate.insert(
                            u, v, draw_probability(), draw_probability()
                        )
                        break
                else:  # pool is (near-)complete: fall back to a deletion
                    if not edges:
                        break
                    edit = None
            if edit is not None:
                edge_set.add(edit.key)
                edges.append(edit.key)
                updates.append(edit)
                continue
        if not edges:
            break
        position = generator.randrange(len(edges))
        key = edges[position]
        edges[position] = edges[-1]
        edges.pop()
        edge_set.discard(key)
        u, v = sorted(key, key=repr)
        updates.append(EdgeUpdate.delete(u, v))
    return UpdateBatch(updates)
