"""repro — Top-L Most Influential Community Detection over social networks.

A from-scratch reproduction of *"Top-L Most Influential Community Detection
Over Social Networks"* (ICDE 2024): the TopL-ICDE problem, its diversified
variant DTopL-ICDE, the pruning strategies and tree index of the paper, plus
every substrate they rest on (k-truss / k-core decomposition, the MIA
influence model, synthetic social-network generators and dataset stand-ins).

Quick start
-----------
>>> from repro import InfluentialCommunityEngine, make_topl_query
>>> from repro.graph import datasets
>>> graph = datasets.uni(num_vertices=400, rng=1)
>>> engine = InfluentialCommunityEngine.build(graph)
>>> result = engine.topl(make_topl_query({"movies"}, k=3, radius=2, theta=0.2, top_l=3))
>>> len(result) <= 3
True
"""

from repro._version import __version__
from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.maintenance import UpdateReport
from repro.dynamic.updates import EdgeUpdate, UpdateBatch, random_update_batch
from repro.exceptions import (
    DatasetError,
    DynamicUpdateError,
    GraphError,
    IndexStateError,
    InvalidProbabilityError,
    MalformedRequestError,
    QueryParameterError,
    ReproError,
    ScenarioError,
    SerializationError,
    ServiceRequestError,
    ServingError,
    SessionExistsError,
    StaleGraphViewError,
    StoreFormatError,
    UnknownSessionError,
    UnsupportedSchemaVersionError,
    VertexNotFoundError,
)
from repro.fastgraph import CSRGraph, VertexTable
from repro.graph.social_network import SocialNetwork
from repro.graph.subgraph import SubgraphView
from repro.index.tree import TreeIndex, build_tree_index
from repro.pruning.stats import PruningConfig
from repro.query.params import DTopLQuery, TopLQuery, make_dtopl_query, make_topl_query
from repro.query.results import DTopLResult, SeedCommunity, TopLResult
from repro.query.topl import TopLProcessor, topl_icde
from repro.query.dtopl import DTopLProcessor, dtopl_icde
from repro.serve.batch import BatchQueryEngine, BatchResult, BatchStatistics, ServingConfig
from repro.serve.cache import LRUCache
from repro.service.facade import CommunityService

__all__ = [
    "EngineConfig",
    "InfluentialCommunityEngine",
    "EdgeUpdate",
    "UpdateBatch",
    "UpdateReport",
    "random_update_batch",
    "DatasetError",
    "DynamicUpdateError",
    "GraphError",
    "IndexStateError",
    "InvalidProbabilityError",
    "MalformedRequestError",
    "QueryParameterError",
    "ReproError",
    "ScenarioError",
    "SerializationError",
    "ServiceRequestError",
    "ServingError",
    "SessionExistsError",
    "StaleGraphViewError",
    "StoreFormatError",
    "UnknownSessionError",
    "UnsupportedSchemaVersionError",
    "VertexNotFoundError",
    "CSRGraph",
    "VertexTable",
    "SocialNetwork",
    "SubgraphView",
    "TreeIndex",
    "build_tree_index",
    "PruningConfig",
    "DTopLQuery",
    "TopLQuery",
    "make_dtopl_query",
    "make_topl_query",
    "DTopLResult",
    "SeedCommunity",
    "TopLResult",
    "TopLProcessor",
    "topl_icde",
    "DTopLProcessor",
    "dtopl_icde",
    "BatchQueryEngine",
    "BatchResult",
    "BatchStatistics",
    "ServingConfig",
    "LRUCache",
    "CommunityService",
    "__version__",
]
