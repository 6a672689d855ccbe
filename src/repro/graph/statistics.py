"""Descriptive statistics over social networks.

Used by the Table II reproduction (dataset statistics) and by the workload
reports.  Everything here is read-only and dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.social_network import SocialNetwork


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics of a social network (Table II style)."""

    name: str
    num_vertices: int
    num_edges: int
    min_degree: int
    max_degree: int
    avg_degree: float
    num_triangles: int
    avg_clustering: float
    num_components: int
    keyword_domain_size: int
    avg_keywords_per_vertex: float
    avg_edge_probability: float

    def as_row(self) -> dict:
        """Return a flat dict suitable for tabular reports."""
        return {
            "dataset": self.name,
            "|V(G)|": self.num_vertices,
            "|E(G)|": self.num_edges,
            "avg_deg": round(self.avg_degree, 3),
            "max_deg": self.max_degree,
            "triangles": self.num_triangles,
            "avg_clustering": round(self.avg_clustering, 4),
            "components": self.num_components,
            "|Sigma|": self.keyword_domain_size,
            "avg_|v.W|": round(self.avg_keywords_per_vertex, 3),
            "avg_p": round(self.avg_edge_probability, 4),
        }


def count_triangles(graph: SocialNetwork) -> int:
    """Count the triangles of ``graph`` via neighbour-set intersections.

    Each triangle is counted exactly once by orienting it from its
    lowest-ordered vertex (ordering by ``repr`` keeps mixed label types
    comparable).
    """
    order = {v: i for i, v in enumerate(graph.vertices())}
    total = 0
    for u in graph.vertices():
        higher_neighbors = {w for w in graph.neighbors(u) if order[w] > order[u]}
        for v in higher_neighbors:
            total += sum(1 for w in graph.neighbors(v) if order[w] > order[v] and w in higher_neighbors)
    return total


def local_clustering(graph: SocialNetwork, vertex) -> float:
    """Return the local clustering coefficient of ``vertex``."""
    neighbors = graph.neighbor_set(vertex)
    degree = len(neighbors)
    if degree < 2:
        return 0.0
    links = 0
    for u in neighbors:
        links += sum(1 for w in graph.neighbors(u) if w in neighbors)
    links //= 2
    return 2.0 * links / (degree * (degree - 1))


def average_clustering(graph: SocialNetwork) -> float:
    """Return the average local clustering coefficient."""
    if graph.num_vertices() == 0:
        return 0.0
    return sum(local_clustering(graph, v) for v in graph.vertices()) / graph.num_vertices()


def compute_statistics(graph: SocialNetwork) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for ``graph``."""
    num_vertices = graph.num_vertices()
    num_edges = graph.num_edges()
    degrees = [graph.degree(v) for v in graph.vertices()]
    keyword_sizes = [len(graph.keywords(v)) for v in graph.vertices()]
    probabilities = [graph.probability(u, v) for u, v in graph.edges()]
    return GraphStatistics(
        name=graph.name,
        num_vertices=num_vertices,
        num_edges=num_edges,
        min_degree=min(degrees) if degrees else 0,
        max_degree=max(degrees) if degrees else 0,
        avg_degree=(2.0 * num_edges / num_vertices) if num_vertices else 0.0,
        num_triangles=count_triangles(graph),
        avg_clustering=average_clustering(graph),
        num_components=len(graph.connected_components()),
        keyword_domain_size=len(graph.keyword_domain()),
        avg_keywords_per_vertex=(sum(keyword_sizes) / num_vertices) if num_vertices else 0.0,
        avg_edge_probability=(sum(probabilities) / len(probabilities)) if probabilities else 0.0,
    )
