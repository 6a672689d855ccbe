"""Engine configuration.

Bundles the offline-phase parameters (``r_max``, pre-selected thresholds,
bit-vector width, index fanout / leaf capacity) so the engine, benches and
examples all agree on one configuration object.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.dynamic.maintenance import DEFAULT_DAMAGE_THRESHOLD
from repro.exceptions import QueryParameterError
from repro.index.precompute import DEFAULT_MAX_RADIUS, DEFAULT_THRESHOLDS
from repro.index.tree import DEFAULT_FANOUT, DEFAULT_LEAF_CAPACITY
from repro.keywords.bitvector import DEFAULT_NUM_BITS


@dataclass(frozen=True)
class EngineConfig:
    """Offline-phase configuration of the influential-community engine.

    Attributes
    ----------
    max_radius:
        ``r_max``: the largest query radius the index will support.
    thresholds:
        Pre-selected influence thresholds ``theta_1 < ... < theta_m`` used for
        the pre-computed score upper bounds.
    num_bits:
        Width of the keyword bit vectors.
    fanout:
        Fanout ``gamma`` of non-leaf index nodes.
    leaf_capacity:
        Number of vertices per leaf node.
    damage_threshold:
        Dynamic updates: when the fraction of centre vertices whose
        pre-computed records an edit batch invalidates exceeds this,
        ``apply_updates`` falls back to a full rebuild instead of patching
        (1.0 never rebuilds; small values rebuild eagerly).
    backend:
        ``"reference"`` (default) runs every computation on the dict-based
        :class:`~repro.graph.social_network.SocialNetwork`; ``"fast"``
        routes the offline build and online scoring through the array-backed
        :mod:`repro.fastgraph` core (``graph.freeze()`` snapshots).  The two
        backends produce bit-identical indexes and answers — the choice is
        purely a performance trade; see ``docs/backends.md``.
    compact_dirt_ratio:
        Fast backend only: dynamic updates patch the CSR snapshot in place
        through a :class:`~repro.fastgraph.delta.DeltaCSR` overlay
        (tombstones + spilled insertions); once the overlay's dirt ratio
        exceeds this, ``apply_updates`` folds it back into a pure CSR.
        Higher values compact less often (more overlay scan cost per query),
        lower values compact eagerly; the default keeps compaction amortized
        O(1) per edit.  See ``docs/backends.md``.

    Which kernel runs the fast backend's offline pass is not a setting: the
    batched numpy pass runs when numpy imports, the stdlib record kernel
    otherwise, and both produce the same bytes (``describe()["kernels"]``
    reports the active one).
    """

    max_radius: int = DEFAULT_MAX_RADIUS
    thresholds: tuple[float, ...] = field(default_factory=lambda: tuple(DEFAULT_THRESHOLDS))
    num_bits: int = DEFAULT_NUM_BITS
    fanout: int = DEFAULT_FANOUT
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY
    damage_threshold: float = DEFAULT_DAMAGE_THRESHOLD
    backend: str = "reference"
    compact_dirt_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.max_radius < 1:
            raise QueryParameterError(f"max_radius must be >= 1, got {self.max_radius}")
        ordered = tuple(sorted(set(float(t) for t in self.thresholds)))
        if not ordered:
            raise QueryParameterError("at least one pre-selected threshold is required")
        for theta in ordered:
            if not 0.0 <= theta < 1.0:
                raise QueryParameterError(
                    f"pre-selected thresholds must be in [0, 1), got {theta}"
                )
        object.__setattr__(self, "thresholds", ordered)
        if self.num_bits < 1:
            raise QueryParameterError(f"num_bits must be >= 1, got {self.num_bits}")
        if self.fanout < 2:
            raise QueryParameterError(f"fanout must be >= 2, got {self.fanout}")
        if self.leaf_capacity < 1:
            raise QueryParameterError(f"leaf_capacity must be >= 1, got {self.leaf_capacity}")
        if not 0.0 < self.damage_threshold <= 1.0:
            raise QueryParameterError(
                f"damage_threshold must be in (0, 1], got {self.damage_threshold}"
            )
        if self.backend not in ("reference", "fast"):
            raise QueryParameterError(
                f"backend must be 'reference' or 'fast', got {self.backend!r}"
            )
        if not self.compact_dirt_ratio > 0.0:
            raise QueryParameterError(
                f"compact_dirt_ratio must be > 0, got {self.compact_dirt_ratio}"
            )

    @classmethod
    def paper_defaults(cls) -> "EngineConfig":
        """The configuration matching Table III's defaults."""
        return cls()

    def describe(self) -> dict:
        """Return a flat dict of the configuration (used in reports)."""
        return {
            "r_max": self.max_radius,
            "thresholds": list(self.thresholds),
            "B": self.num_bits,
            "fanout": self.fanout,
            "leaf_capacity": self.leaf_capacity,
            "damage_threshold": self.damage_threshold,
            "backend": self.backend,
            "compact_dirt_ratio": self.compact_dirt_ratio,
        }


#: Settings earlier releases took and this one accepts and ignores.  Format-2
#: store files pack ``dataclasses.asdict(config)``, and v1 wire clients may
#: send them in ``BuildRequest.config``.  ``kernel_tier`` picked the fast
#: backend's offline kernel, which the platform now decides.
RETIRED_SETTINGS = frozenset({"kernel_tier"})


def without_retired_settings(settings: Mapping) -> dict:
    """``settings`` as a new dict without its :data:`RETIRED_SETTINGS` keys."""
    return {key: value for key, value in settings.items() if key not in RETIRED_SETTINGS}
