"""Dataset registry: the paper's evaluation graphs and their stand-ins.

The paper evaluates on two real graphs (Table II) and three synthetic ones:

============  =========  ===========  ==========================================
dataset       |V(G)|      |E(G)|       nature
============  =========  ===========  ==========================================
DBLP           317,080    1,049,866   co-authorship network (SNAP)
Amazon         334,863      925,872   co-purchase ("also bought") network (SNAP)
Uni / Gau / Zipf  varies     varies   NWS small-world, keyword dist. varies
============  =========  ===========  ==========================================

The real SNAP dumps are not available in this offline environment, so
:func:`dblp_like` and :func:`amazon_like` generate *structural stand-ins*:

* **DBLP-like** — a clustered graph built from many small dense "paper
  cliques" (co-author groups) glued by shared prolific authors, reproducing
  the high clustering / dense-truss structure of co-authorship data.
* **Amazon-like** — a preferential-attachment backbone (popular products)
  with local co-purchase triangles overlaid, giving the heavy-tailed degree
  profile and moderate clustering of co-purchase data.

Both accept a ``num_vertices`` parameter (default a laptop-friendly size) and
scale up to the paper's sizes when explicitly requested.  Every generator
assigns keyword sets and edge probabilities exactly like the synthetic
pipeline so all five datasets exercise identical code paths.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro._rng import RandomLike, resolve_rng
from repro.exceptions import DatasetError
from repro.graph.generators import (
    DEFAULT_WEIGHT_RANGE,
    barabasi_albert_graph,
    newman_watts_strogatz_graph,
)
from repro.graph.keyword_assignment import assign_keywords
from repro.graph.social_network import SocialNetwork
from repro.graph.validation import largest_connected_component
from repro.keywords.vocabulary import Vocabulary

#: Sizes reported in Table II of the paper, kept for documentation and for
#: full-scale runs (not generated by default).
PAPER_DATASET_SIZES = {
    "DBLP": {"num_vertices": 317_080, "num_edges": 1_049_866},
    "Amazon": {"num_vertices": 334_863, "num_edges": 925_872},
}

#: Default stand-in sizes used by examples, tests, and benches.
DEFAULT_STANDIN_VERTICES = 2_000
DEFAULT_SYNTHETIC_VERTICES = 2_000


def _finalize(
    graph: SocialNetwork,
    keywords_per_vertex: int,
    distribution: str,
    domain_size: int,
    vocabulary: Optional[Vocabulary],
    rng: random.Random,
) -> SocialNetwork:
    """Keep the largest component and assign keywords — shared tail of all loaders."""
    original_name = graph.name
    graph = largest_connected_component(graph)
    graph.name = original_name
    assign_keywords(
        graph,
        keywords_per_vertex=keywords_per_vertex,
        distribution=distribution,
        vocabulary=vocabulary,
        domain_size=domain_size,
        rng=rng,
    )
    return graph


def dblp_like(
    num_vertices: int = DEFAULT_STANDIN_VERTICES,
    keywords_per_vertex: int = 3,
    domain_size: int = 50,
    vocabulary: Optional[Vocabulary] = None,
    rng: RandomLike = 7,
) -> SocialNetwork:
    """Generate a DBLP-style co-authorship stand-in.

    Construction: vertices are authors; "papers" are small cliques of 2–6
    authors sampled with a bias towards a pool of prolific authors, so the
    graph acquires the dense overlapping-clique structure (and hence rich
    k-trusses) characteristic of co-authorship networks.
    """
    if num_vertices < 10:
        raise DatasetError(f"DBLP-like graphs need at least 10 vertices, got {num_vertices}")
    generator = resolve_rng(rng)
    graph = SocialNetwork(name="dblp-like")
    for author in range(num_vertices):
        graph.add_vertex(author)

    # ~20% of authors are "prolific" and appear in many papers.
    num_prolific = max(1, num_vertices // 5)
    prolific = list(range(num_prolific))
    # Aim for an edge/vertex ratio close to DBLP's (~3.3 edges per vertex).
    num_papers = int(num_vertices * 1.1)
    low, high = DEFAULT_WEIGHT_RANGE
    for _ in range(num_papers):
        paper_size = generator.randint(2, 6)
        authors: set[int] = set()
        # Each paper has a decent chance of involving a prolific author.
        if generator.random() < 0.7:
            authors.add(generator.choice(prolific))
        while len(authors) < paper_size:
            authors.add(generator.randrange(num_vertices))
        author_list = sorted(authors)
        for i, u in enumerate(author_list):
            for v in author_list[i + 1:]:
                if not graph.has_edge(u, v):
                    graph.add_edge(
                        u, v, generator.uniform(low, high), generator.uniform(low, high)
                    )
    return _finalize(graph, keywords_per_vertex, "uniform", domain_size, vocabulary, generator)


def amazon_like(
    num_vertices: int = DEFAULT_STANDIN_VERTICES,
    keywords_per_vertex: int = 3,
    domain_size: int = 50,
    vocabulary: Optional[Vocabulary] = None,
    rng: RandomLike = 11,
) -> SocialNetwork:
    """Generate an Amazon-style co-purchase stand-in.

    Construction: a Barabási–Albert backbone (products attach to popular
    products) plus triangle-closing edges (two products co-purchased with a
    common third are often co-purchased themselves), approximating the
    moderately clustered, heavy-tailed structure of the Amazon graph.
    """
    if num_vertices < 10:
        raise DatasetError(f"Amazon-like graphs need at least 10 vertices, got {num_vertices}")
    generator = resolve_rng(rng)
    graph = barabasi_albert_graph(
        num_vertices, edges_per_vertex=2, rng=generator, name="amazon-like"
    )
    low, high = DEFAULT_WEIGHT_RANGE
    # Triangle closure: for a sample of vertices, connect two of their
    # neighbours, creating the co-purchase triangles that give the graph its
    # truss structure.
    vertices = list(graph.vertices())
    closures = num_vertices  # one closure attempt per vertex on average
    for _ in range(closures):
        center = generator.choice(vertices)
        neighbors = list(graph.neighbors(center))
        if len(neighbors) < 2:
            continue
        u, v = generator.sample(neighbors, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, generator.uniform(low, high), generator.uniform(low, high))
    return _finalize(graph, keywords_per_vertex, "uniform", domain_size, vocabulary, generator)


def synthetic_small_world(
    distribution: str,
    num_vertices: int = DEFAULT_SYNTHETIC_VERTICES,
    keywords_per_vertex: int = 3,
    domain_size: int = 50,
    ring_neighbors: int = 6,
    shortcut_probability: float = 0.167,
    vocabulary: Optional[Vocabulary] = None,
    rng: RandomLike = 23,
) -> SocialNetwork:
    """Generate one of the paper's synthetic graphs (``Uni`` / ``Gau`` / ``Zipf``).

    The structure is a Newman–Watts–Strogatz small world with the paper's
    ``m = 6`` and ``mu = 0.167`` defaults; ``distribution`` selects the keyword
    sampling law and names the graph accordingly.
    """
    generator = resolve_rng(rng)
    short_names = {"uniform": "Uni", "gaussian": "Gau", "zipf": "Zipf"}
    short = short_names.get(distribution.lower())
    if short is None:
        raise DatasetError(
            f"unknown synthetic distribution {distribution!r}; "
            f"expected one of {sorted(short_names)}"
        )
    graph = newman_watts_strogatz_graph(
        num_vertices,
        ring_neighbors=ring_neighbors,
        shortcut_probability=shortcut_probability,
        rng=generator,
        name=short,
    )
    return _finalize(graph, keywords_per_vertex, distribution.lower(), domain_size, vocabulary, generator)


def uni(num_vertices: int = DEFAULT_SYNTHETIC_VERTICES, **kwargs) -> SocialNetwork:
    """The paper's ``Uni`` synthetic graph (uniform keyword distribution)."""
    return synthetic_small_world("uniform", num_vertices=num_vertices, **kwargs)


def gau(num_vertices: int = DEFAULT_SYNTHETIC_VERTICES, **kwargs) -> SocialNetwork:
    """The paper's ``Gau`` synthetic graph (Gaussian keyword distribution)."""
    return synthetic_small_world("gaussian", num_vertices=num_vertices, **kwargs)


def zipf(num_vertices: int = DEFAULT_SYNTHETIC_VERTICES, **kwargs) -> SocialNetwork:
    """The paper's ``Zipf`` synthetic graph (Zipf keyword distribution)."""
    return synthetic_small_world("zipf", num_vertices=num_vertices, **kwargs)


#: Dataset name -> loader, in the paper's order.
_LOADERS: dict[str, Callable[..., SocialNetwork]] = {
    "dblp": dblp_like,
    "amazon": amazon_like,
    "uni": uni,
    "gau": gau,
    "zipf": zipf,
}


def dataset_names() -> tuple[str, ...]:
    """Return the registered dataset names (paper order)."""
    return tuple(_LOADERS)


def load_dataset(name: str, **kwargs) -> SocialNetwork:
    """Load a dataset by name (case-insensitive) with loader-specific kwargs."""
    loader = _LOADERS.get(name.lower())
    if loader is None:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(dataset_names())}"
        )
    return loader(**kwargs)
