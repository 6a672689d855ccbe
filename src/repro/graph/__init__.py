"""Graph substrate: data model, traversal, generators, datasets, and I/O."""

from repro.graph.core import AdjacencyCore, GraphCore
from repro.graph.social_network import SocialNetwork
from repro.graph.subgraph import SubgraphView
from repro.graph.traversal import (
    bfs_distances,
    eccentricity,
    hop_distances_within,
    hop_subgraph,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    newman_watts_strogatz_graph,
    planted_community_graph,
    ring_lattice_graph,
)
from repro.graph.keyword_assignment import assign_keywords, keyword_profile
from repro.graph.datasets import (
    amazon_like,
    dataset_names,
    dblp_like,
    gau,
    load_dataset,
    synthetic_small_world,
    uni,
    zipf,
)
from repro.graph.statistics import GraphStatistics, compute_statistics
from repro.graph.validation import (
    ValidationReport,
    largest_connected_component,
    require_connected,
    validate_graph,
)

__all__ = [
    "AdjacencyCore",
    "GraphCore",
    "SocialNetwork",
    "SubgraphView",
    "bfs_distances",
    "eccentricity",
    "hop_distances_within",
    "hop_subgraph",
    "barabasi_albert_graph",
    "complete_graph",
    "erdos_renyi_graph",
    "newman_watts_strogatz_graph",
    "planted_community_graph",
    "ring_lattice_graph",
    "assign_keywords",
    "keyword_profile",
    "amazon_like",
    "dataset_names",
    "dblp_like",
    "gau",
    "load_dataset",
    "synthetic_small_world",
    "uni",
    "zipf",
    "GraphStatistics",
    "compute_statistics",
    "ValidationReport",
    "largest_connected_component",
    "require_connected",
    "validate_graph",
]
