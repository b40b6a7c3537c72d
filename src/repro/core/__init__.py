"""PG-HIVE core: the hybrid incremental schema-discovery pipeline."""

from repro.core.accumulators import (
    DatatypeAccumulator,
    DistinctTracker,
    EndpointAccumulator,
    KeyAccumulator,
    SummaryOptions,
    TypeSummaries,
)
from repro.core.adaptive import (
    AdaptiveParameters,
    adapt_parameters,
    alpha_for_label_count,
    estimate_distance_scale,
)
from repro.core.cardinality_inference import (
    bounds_for_edge_type,
    compute_cardinalities,
    compute_cardinalities_streaming,
)
from repro.core.clustering import ClusteringOutcome
from repro.core.config import AdaptiveOverrides, ClusteringMethod, PGHiveConfig
from repro.core.constraints import infer_property_constraints, property_frequency
from repro.core.datatype_inference import (
    infer_datatypes,
    infer_datatypes_streaming,
    sample_values,
)
from repro.core.key_inference import (
    candidate_keys_for_type,
    candidate_keys_from_summaries,
    infer_keys,
    infer_keys_streaming,
    to_pg_keys,
)
from repro.core.pipeline import CAPABILITIES, DiscoveryResult, PGHive
from repro.core.preprocess import Preprocessor
from repro.core.serialization import to_pg_schema, to_xsd
from repro.core.session import ChangeReport, DiffEvent, SchemaSession
from repro.core.sharding import ShardedChangeReport, ShardedSchemaSession
from repro.core.state import DiscoveryState
from repro.core.type_extraction import (
    extract_edge_types,
    extract_node_types,
    extract_types,
)

__all__ = [
    "AdaptiveOverrides",
    "AdaptiveParameters",
    "CAPABILITIES",
    "ChangeReport",
    "ClusteringMethod",
    "ClusteringOutcome",
    "DatatypeAccumulator",
    "DiffEvent",
    "DiscoveryResult",
    "DiscoveryState",
    "DistinctTracker",
    "EndpointAccumulator",
    "KeyAccumulator",
    "PGHive",
    "PGHiveConfig",
    "Preprocessor",
    "SchemaSession",
    "ShardedChangeReport",
    "ShardedSchemaSession",
    "SummaryOptions",
    "TypeSummaries",
    "adapt_parameters",
    "alpha_for_label_count",
    "bounds_for_edge_type",
    "candidate_keys_for_type",
    "candidate_keys_from_summaries",
    "compute_cardinalities",
    "compute_cardinalities_streaming",
    "estimate_distance_scale",
    "extract_edge_types",
    "extract_node_types",
    "extract_types",
    "infer_datatypes",
    "infer_datatypes_streaming",
    "infer_keys",
    "infer_keys_streaming",
    "infer_property_constraints",
    "property_frequency",
    "sample_values",
    "to_pg_keys",
    "to_pg_schema",
    "to_xsd",
]
