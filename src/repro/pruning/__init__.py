"""Pruning strategies: community-level, index-level, and diversity-score rules."""

from repro.pruning.stats import ABLATION_CONFIGS, PruningConfig, PruningCounters
from repro.pruning.rules import (
    center_has_query_keyword,
    has_any_query_keyword,
    keyword_prune_by_bitvector,
    score_prune,
    select_score_bound,
    support_prune,
    trussness_prune,
)
from repro.pruning.index_rules import (
    entry_priority,
    index_keyword_prune,
    index_score_prune,
    index_support_prune,
)
from repro.pruning.diversity import (
    apply_to_coverage,
    coverage_map,
    diversity_score,
    marginal_gain,
)

__all__ = [
    "ABLATION_CONFIGS",
    "PruningConfig",
    "PruningCounters",
    "center_has_query_keyword",
    "has_any_query_keyword",
    "keyword_prune_by_bitvector",
    "score_prune",
    "select_score_bound",
    "support_prune",
    "trussness_prune",
    "entry_priority",
    "index_keyword_prune",
    "index_score_prune",
    "index_support_prune",
    "apply_to_coverage",
    "coverage_map",
    "diversity_score",
    "marginal_gain",
]
