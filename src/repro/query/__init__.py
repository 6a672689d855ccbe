"""Online query processing: TopL-ICDE (Algorithm 3) and DTopL-ICDE (Algorithm 4)."""

from repro.query.params import (
    DTopLQuery,
    TopLQuery,
    make_dtopl_query,
    make_topl_query,
)
from repro.query.results import (
    DTopLResult,
    QueryStatistics,
    SeedCommunity,
    TopLResult,
)
from repro.query.seed import (
    extract_seed_community,
    is_valid_seed_community,
)
from repro.query.topl import TopLProcessor, topl_icde
from repro.query.dtopl import DTopLProcessor, dtopl_icde, greedy_select_diversified

__all__ = [
    "DTopLQuery",
    "TopLQuery",
    "make_dtopl_query",
    "make_topl_query",
    "DTopLResult",
    "QueryStatistics",
    "SeedCommunity",
    "TopLResult",
    "extract_seed_community",
    "is_valid_seed_community",
    "TopLProcessor",
    "topl_icde",
    "DTopLProcessor",
    "dtopl_icde",
    "greedy_select_diversified",
]
