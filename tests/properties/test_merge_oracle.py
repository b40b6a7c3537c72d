"""Property-based equivalence: the token-filtered schema merge vs its oracle.

:func:`repro.schema.merge.merge_into` sorts only the same-token labelled
target edge types when it looks for a labelled incoming edge type's
match; :func:`tests.seed_reference.reference_merge_into` sorts every
target edge type and filters afterwards.  Folding the same random
schemas -- labelled and unlabeled node and edge types, several labelled
edge types per token with disjoint endpoints -- through both must give
the same types under the same ids, and so the same fingerprint, before
and after :func:`~repro.schema.merge.canonicalize_schema`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.merge import canonicalize_schema, merge_into
from repro.schema.model import EdgeType, NodeType, SchemaGraph, schema_fingerprint
from tests.seed_reference import reference_merge_into

LABELS = ["Person", "Org", "Post", ""]
EDGE_LABELS = ["KNOWS", "LIKES", "AT"]
KEYS = ["name", "age", "url", "rank", "size"]


@st.composite
def schemas(draw, tag: str):
    schema = SchemaGraph(tag)
    serial = 0
    for index in range(draw(st.integers(0, 4))):
        label = draw(st.sampled_from(LABELS))
        labels = {label} if label else set()
        if labels and schema.node_type_by_token(label) is not None:
            labels = set()
        node_type = NodeType(f"{tag}n{index}", labels, abstract=not labels)
        for _ in range(draw(st.integers(1, 3))):
            serial += 1
            keys = draw(st.frozensets(st.sampled_from(KEYS), max_size=4))
            node_type.record_instance(f"{tag}-v{serial}", keys)
        schema.add_node_type(node_type)
    for index in range(draw(st.integers(0, 5))):
        labelled = draw(st.booleans())
        labels = {draw(st.sampled_from(EDGE_LABELS))} if labelled else set()
        edge_type = EdgeType(f"{tag}e{index}", labels, abstract=not labels)
        for _ in range(draw(st.integers(1, 3))):
            serial += 1
            keys = draw(st.frozensets(st.sampled_from(KEYS), max_size=3))
            edge_type.record_instance(f"{tag}-r{serial}", keys)
        edge_type.source_tokens = draw(
            st.sets(st.sampled_from(LABELS), min_size=1, max_size=2)
        )
        edge_type.target_tokens = draw(
            st.sets(st.sampled_from(LABELS), min_size=1, max_size=2)
        )
        schema.add_edge_type(edge_type)
    return schema


def layout(schema: SchemaGraph) -> tuple:
    """Every type under its id, in registry order (ids included)."""
    return tuple(
        (
            schema_type.type_id,
            schema_type.token,
            schema_type.abstract,
            tuple(sorted(schema_type.instance_ids)),
            tuple(schema_type.properties),
        )
        for schema_type in (*schema.node_types(), *schema.edge_types())
    )


def fold(merge, inputs: list[SchemaGraph], theta: float) -> SchemaGraph:
    target = SchemaGraph("folded")
    for schema in inputs:
        merge(target, schema, theta)
    return target


class TestMergeMatchesReference:
    @given(
        inputs=st.lists(
            st.integers(0, 10_000).flatmap(lambda n: schemas(f"s{n}")),
            min_size=1,
            max_size=4,
        ),
        theta=st.sampled_from([0.5, 0.9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fold_matches_reference(self, inputs, theta):
        fast = fold(merge_into, inputs, theta)
        reference = fold(reference_merge_into, inputs, theta)
        assert layout(fast) == layout(reference)
        assert schema_fingerprint(fast) == schema_fingerprint(reference)
        canonicalize_schema(fast)
        canonicalize_schema(reference)
        assert layout(fast) == layout(reference)
