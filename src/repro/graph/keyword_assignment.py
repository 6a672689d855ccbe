"""Assigning keyword sets to graph vertices.

Section VIII-A attaches a keyword set ``v_i.W`` to every vertex, drawn from a
keyword domain ``Sigma`` under a Uniform, Gaussian, or Zipf distribution.
Table III varies both the number of keywords per vertex (``|v_i.W|`` from 1 to
5, default 3) and the domain size (``|Sigma|`` from 10 to 80, default 50).

:func:`assign_keywords` mutates a graph in place; :func:`keyword_profile`
summarises the resulting assignment for reports and tests.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Union

from repro._rng import RandomLike, resolve_rng
from repro.exceptions import DatasetError
from repro.graph.social_network import SocialNetwork
from repro.keywords.vocabulary import (
    KeywordDistribution,
    Vocabulary,
    default_vocabulary,
    make_distribution,
)

#: Table III defaults.
DEFAULT_KEYWORDS_PER_VERTEX = 3
DEFAULT_DOMAIN_SIZE = 50


def assign_keywords(
    graph: SocialNetwork,
    keywords_per_vertex: int = DEFAULT_KEYWORDS_PER_VERTEX,
    distribution: Union[str, KeywordDistribution] = "uniform",
    vocabulary: Optional[Vocabulary] = None,
    domain_size: int = DEFAULT_DOMAIN_SIZE,
    rng: RandomLike = None,
) -> SocialNetwork:
    """Assign a keyword set to every vertex of ``graph`` (in place).

    Parameters
    ----------
    graph:
        The social network to annotate.
    keywords_per_vertex:
        Target ``|v_i.W|``; every vertex receives exactly this many distinct
        keywords (capped by the domain size).
    distribution:
        Either a distribution name (``"uniform"`` / ``"gaussian"`` / ``"zipf"``)
        or an already-constructed :class:`KeywordDistribution`.
    vocabulary:
        Keyword domain; defaults to :func:`default_vocabulary` of
        ``domain_size`` keywords.
    domain_size:
        Size of the default vocabulary when ``vocabulary`` is omitted.
    rng:
        Seed or RNG instance for reproducibility.

    Returns
    -------
    SocialNetwork
        The same ``graph`` instance, for chaining.
    """
    if keywords_per_vertex <= 0:
        raise DatasetError(
            f"keywords_per_vertex must be positive, got {keywords_per_vertex}"
        )
    if vocabulary is None:
        vocabulary = default_vocabulary(domain_size)
    if isinstance(distribution, str):
        distribution = make_distribution(distribution, vocabulary)
    elif distribution.vocabulary is not vocabulary:
        # An explicit distribution wins; adopt its vocabulary for consistency.
        vocabulary = distribution.vocabulary

    generator = resolve_rng(rng)
    for vertex in graph.vertices():
        keywords = distribution.sample_keywords(keywords_per_vertex, rng=generator)
        graph.set_keywords(vertex, keywords)
    return graph


def keyword_profile(graph: SocialNetwork) -> dict:
    """Summarise the keyword assignment of ``graph``.

    Returns a dict with the domain size, the average / min / max keywords per
    vertex, and the frequency of each keyword — used by dataset statistics and
    sanity-checked in tests (e.g. Zipf assignments should be skewed while
    Uniform ones should be flat).
    """
    counts = Counter()
    sizes: list[int] = []
    for vertex in graph.vertices():
        keywords = graph.keywords(vertex)
        sizes.append(len(keywords))
        counts.update(keywords)
    num_vertices = graph.num_vertices()
    return {
        "domain_size": len(counts),
        "num_vertices": num_vertices,
        "avg_keywords_per_vertex": (sum(sizes) / num_vertices) if num_vertices else 0.0,
        "min_keywords_per_vertex": min(sizes) if sizes else 0,
        "max_keywords_per_vertex": max(sizes) if sizes else 0,
        "keyword_frequencies": dict(counts),
    }


def vertices_with_any_keyword(graph: SocialNetwork, query_keywords) -> set:
    """Return the vertices whose keyword set intersects ``query_keywords``."""
    query = frozenset(query_keywords)
    return {v for v in graph.vertices() if graph.keywords(v) & query}
