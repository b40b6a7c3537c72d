"""PG-HIVE: hybrid incremental schema discovery for property graphs.

Reproduction of Sideri et al., EDBT 2026 (arXiv:2512.01092).  The public
API in one import::

    from repro import ChangeSet, SchemaSession, PropertyGraph, Node, Edge

    session = SchemaSession()
    session.subscribe(lambda event: print(event.diff.summary()))
    session.apply(ChangeSet.inserts(nodes=[...], edges=[...]))
    print(session.schema().summary())       # mid-stream snapshot
    session.checkpoint("discovery.ckpt")    # resume later, anywhere

One-shot discovery stays one line (``PGHive().discover(graph)``); it and
every other historical entry point are adapters over the session.  For
partitioned/parallel ingestion, ``ShardedSchemaSession(n_shards=4)``
accepts the same change feed and serves the same snapshots from N
mergeable per-shard sessions (optionally in worker processes).
"""

from repro.core.config import AdaptiveOverrides, ClusteringMethod, PGHiveConfig
from repro.core.pipeline import DiscoveryResult, PGHive
from repro.core.recovery import DurableSchemaSession, DurableShardedSchemaSession
from repro.core.session import ChangeReport, DiffEvent, SchemaSession
from repro.core.sharding import ShardedChangeReport, ShardedSchemaSession
from repro.core.state import DiscoveryState
from repro.graph.changes import ChangeSet, HashPartitioner
from repro.graph.columnar import changesets_from_elements
from repro.errors import DegradedModeWarning
from repro.graph.model import Edge, Node, PropertyGraph, label_token
from repro.graph.store import GraphStore
from repro.lsh.base import GroupingRule
from repro.schema.cardinality import Cardinality
from repro.schema.datatypes import DataType
from repro.schema.diff import SchemaDiff, diff_schemas
from repro.schema.model import EdgeType, NodeType, SchemaGraph, schema_fingerprint
from repro.schema.validation import ValidationMode, validate_graph

__version__ = "1.2.0"

__all__ = [
    "AdaptiveOverrides",
    "Cardinality",
    "ChangeReport",
    "ChangeSet",
    "ClusteringMethod",
    "DataType",
    "DegradedModeWarning",
    "DiffEvent",
    "DiscoveryResult",
    "DiscoveryState",
    "DurableSchemaSession",
    "DurableShardedSchemaSession",
    "Edge",
    "EdgeType",
    "GraphStore",
    "GroupingRule",
    "HashPartitioner",
    "Node",
    "NodeType",
    "PGHive",
    "PGHiveConfig",
    "PropertyGraph",
    "SchemaDiff",
    "SchemaGraph",
    "SchemaSession",
    "ShardedChangeReport",
    "ShardedSchemaSession",
    "ValidationMode",
    "changesets_from_elements",
    "diff_schemas",
    "label_token",
    "schema_fingerprint",
    "validate_graph",
    "__version__",
]
