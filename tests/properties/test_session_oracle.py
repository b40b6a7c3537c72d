"""Property-based equivalence: session change feed vs full-recompute oracle.

Interleaved insert/delete change-sets driven through a streaming
:class:`SchemaSession` (which builds accumulators and falls back to the
full re-scan only after the first deletion) must land on exactly the
schema that a union-backed session read by full recompute
(``seed_reference.full_scan``) produces for the same operation sequence.
The session additionally resolves edge endpoints from its union graph
instead of requiring shipped stubs; the oracle receives classic
stub-carrying batches, so the test also pins that the two ingestion
paths agree.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PGHiveConfig
from repro.core.session import SchemaSession
from repro.graph.changes import ChangeSet
from repro.graph.model import Edge, Node, PropertyGraph
from repro.schema.model import schema_fingerprint

from tests.seed_reference import full_scan, full_scan_session

LABELS = ["Person", "Org", "Post"]
KEYS = ["name", "age", "url", "rank"]


@st.composite
def operation_scripts(draw):
    """A short program of insert/delete operations over a shared universe.

    Inserts reference fresh element ids; deletions pick (by index) from
    the ids inserted so far, so every script is valid for both surfaces.
    """
    ops = []
    serial = 0
    op_count = draw(st.integers(2, 5))
    for _ in range(op_count):
        kind = draw(st.sampled_from(["insert", "del_nodes", "del_edges"]))
        if kind == "insert":
            nodes = []
            for _ in range(draw(st.integers(1, 3))):
                serial += 1
                label = draw(st.sampled_from(LABELS))
                keys = draw(
                    st.frozensets(st.sampled_from(KEYS), min_size=1, max_size=3)
                )
                nodes.append(
                    (f"v{serial}", label, {k: f"{k}-{serial}" for k in sorted(keys)})
                )
            edge_count = draw(st.integers(0, 2))
            edge_picks = [
                (draw(st.integers(0, 10_000)), draw(st.integers(0, 10_000)))
                for _ in range(edge_count)
            ]
            ops.append(("insert", nodes, edge_picks))
        else:
            picks = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
            ops.append((kind, picks))
    return ops


def interpret(ops):
    """Resolve an abstract script into concrete per-op payloads."""
    node_ids: list[tuple[str, str, dict]] = []  # (id, label, props)
    edge_ids: list[str] = []
    live_nodes: dict[str, tuple[str, dict]] = {}
    serial = 0
    resolved = []
    for op in ops:
        if op[0] == "insert":
            _, nodes, edge_picks = op
            for node_id, label, props in nodes:
                live_nodes[node_id] = (label, props)
                node_ids.append((node_id, label, props))
            edges = []
            pool = list(live_nodes)
            for left, right in edge_picks:
                if len(pool) < 2:
                    break
                serial += 1
                source = pool[left % len(pool)]
                target = pool[right % len(pool)]
                edge_id = f"r{serial}"
                edges.append((edge_id, source, target))
                edge_ids.append(edge_id)
            resolved.append(("insert", nodes, edges))
        elif op[0] == "del_nodes":
            if not node_ids:
                continue
            targets = sorted({node_ids[i % len(node_ids)][0] for i in op[1]})
            for node_id in targets:
                live_nodes.pop(node_id, None)
            resolved.append(("del_nodes", targets))
        else:
            if not edge_ids:
                continue
            targets = sorted({edge_ids[i % len(edge_ids)] for i in op[1]})
            resolved.append(("del_edges", targets))
    return resolved


def drive_session(resolved, config):
    """Feed the script as change-sets (no endpoint stubs shipped)."""
    session = SchemaSession(config, retain_union=True)
    for op in resolved:
        if op[0] == "insert":
            _, nodes, edges = op
            node_objs = [
                Node(node_id, {label}, props) for node_id, label, props in nodes
            ]
            edge_objs = [
                Edge(edge_id, source, target, {"REL"})
                for edge_id, source, target in edges
            ]
            session.apply(ChangeSet.inserts(nodes=node_objs, edges=edge_objs))
        elif op[0] == "del_nodes":
            session.apply(ChangeSet.deletions(nodes=op[1]))
        else:
            session.apply(ChangeSet.deletions(edges=op[1]))
    return session.schema()


def drive_full_scan(resolved, config):
    """Feed the script as stub-carrying batches; read by full recompute."""
    oracle = full_scan_session(config)
    known: dict[str, Node] = {}
    for op in resolved:
        if op[0] == "insert":
            _, nodes, edges = op
            batch = PropertyGraph("batch")
            for node_id, label, props in nodes:
                node = Node(node_id, {label}, props)
                known[node_id] = node
                batch.put_node(node)
            for edge_id, source, target in edges:
                for endpoint in (source, target):
                    if not batch.has_node(endpoint):
                        batch.add_node(known[endpoint])  # classic stub
                batch.add_edge(Edge(edge_id, source, target, {"REL"}))
            oracle.add_batch(batch)
        elif op[0] == "del_nodes":
            oracle.apply(ChangeSet.deletions(nodes=op[1]))
        else:
            oracle.apply(ChangeSet.deletions(edges=op[1]))
    return full_scan(oracle, config)


class TestSessionMatchesFullRecomputeOracle:
    @given(ops=operation_scripts())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_interleaved_feed_matches_full_recompute(self, ops):
        resolved = interpret(ops)
        config = PGHiveConfig(seed=3, infer_keys=True)
        session_schema = drive_session(resolved, config)
        oracle_schema = drive_full_scan(resolved, config)
        assert schema_fingerprint(session_schema) == schema_fingerprint(
            oracle_schema
        )
