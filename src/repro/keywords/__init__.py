"""Keyword handling: bit-vector signatures and sampling vocabularies."""

from repro.keywords.bitvector import (
    DEFAULT_NUM_BITS,
    BitVector,
    aggregate,
    hash_keyword,
)
from repro.keywords.vocabulary import (
    GaussianKeywordDistribution,
    KeywordDistribution,
    UniformKeywordDistribution,
    Vocabulary,
    ZipfKeywordDistribution,
    default_vocabulary,
    distribution_names,
    make_distribution,
)

__all__ = [
    "DEFAULT_NUM_BITS",
    "BitVector",
    "aggregate",
    "hash_keyword",
    "GaussianKeywordDistribution",
    "KeywordDistribution",
    "UniformKeywordDistribution",
    "Vocabulary",
    "ZipfKeywordDistribution",
    "default_vocabulary",
    "distribution_names",
    "make_distribution",
]
