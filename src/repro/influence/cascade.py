"""Monte-Carlo Independent Cascade (IC) spread estimation.

The paper's influence model is MIA (Section II-B), but its related-work
discussion grounds the influential score in the classic influence-maximisation
literature where spread is defined by the Independent Cascade model.  This
module provides an IC simulator so that users (and one of the extra ablation
benches) can compare the deterministic MIA-based influential score against a
sampled IC spread for the same seed community.

It is an optional extension: nothing on the TopL-ICDE / DTopL-ICDE hot path
depends on it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro._rng import RandomLike, resolve_rng
from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.social_network import SocialNetwork, VertexId


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of a Monte-Carlo IC estimation."""

    seed_vertices: frozenset
    num_simulations: int
    mean_spread: float
    std_spread: float
    activation_frequency: dict

    def activation_probability(self, vertex: VertexId) -> float:
        """Estimated probability that ``vertex`` ends up activated."""
        return self.activation_frequency.get(vertex, 0.0)


def simulate_independent_cascade(
    graph: SocialNetwork,
    seed_vertices: Iterable[VertexId],
    rng: RandomLike = None,
) -> frozenset:
    """Run a single IC simulation and return the set of activated vertices.

    Each newly activated vertex gets one chance to activate each inactive
    neighbour ``v`` with probability ``p_{u,v}``.
    """
    seeds = frozenset(seed_vertices)
    if not seeds:
        raise GraphError("seed set must contain at least one vertex")
    for vertex in seeds:
        if not graph.has_vertex(vertex):
            raise VertexNotFoundError(vertex)
    generator = resolve_rng(rng)
    activated = set(seeds)
    frontier = list(seeds)
    adjacency = graph.adjacency()
    while frontier:
        next_frontier: list[VertexId] = []
        for vertex in frontier:
            for neighbour in adjacency[vertex]:
                if neighbour in activated:
                    continue
                if generator.random() < graph.probability(vertex, neighbour):
                    activated.add(neighbour)
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return frozenset(activated)


def estimate_spread(
    graph: SocialNetwork,
    seed_vertices: Iterable[VertexId],
    num_simulations: int = 100,
    rng: RandomLike = None,
) -> CascadeResult:
    """Estimate the expected IC spread of ``seed_vertices`` by simulation."""
    if num_simulations <= 0:
        raise GraphError(f"num_simulations must be positive, got {num_simulations}")
    seeds = frozenset(seed_vertices)
    generator = resolve_rng(rng)
    sizes: list[int] = []
    activation_counts: dict[VertexId, int] = {}
    for _ in range(num_simulations):
        activated = simulate_independent_cascade(graph, seeds, rng=generator)
        sizes.append(len(activated))
        for vertex in activated:
            activation_counts[vertex] = activation_counts.get(vertex, 0) + 1
    mean = sum(sizes) / num_simulations
    variance = sum((s - mean) ** 2 for s in sizes) / num_simulations
    frequency = {v: c / num_simulations for v, c in activation_counts.items()}
    return CascadeResult(
        seed_vertices=seeds,
        num_simulations=num_simulations,
        mean_spread=mean,
        std_spread=variance ** 0.5,
        activation_frequency=frequency,
    )
