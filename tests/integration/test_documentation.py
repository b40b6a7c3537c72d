"""Documentation sanity: README quickstart runs; required docs exist."""

from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


class TestReadmeQuickstart:
    def test_quickstart_snippet_executes(self):
        # The exact code block from README.md's Quickstart section.
        from repro import Edge, Node, PGHive, PGHiveConfig, PropertyGraph

        graph = PropertyGraph("example")
        graph.add_node(
            Node("bob", {"Person"}, {"name": "Bob", "bday": "2/5/1980"})
        )
        graph.add_node(
            Node("alice", frozenset(), {"name": "Alice", "bday": "19/12/1999"})
        )
        graph.add_node(
            Node("acme", {"Org"}, {"name": "ACME", "url": "acme.example"})
        )
        graph.add_edge(Edge("e1", "bob", "acme", {"WORKS_AT"}, {"from": 2000}))

        result = PGHive(PGHiveConfig()).discover(graph)
        text = result.to_pg_schema()
        assert "CREATE GRAPH TYPE" in text
        summary = result.schema.summary()
        assert summary["node_types"] >= 2

        # Claims made in the README about this snippet:
        person = result.schema.node_type_by_token("Person")
        assert "alice" in person.instance_ids
        from repro import DataType

        assert person.properties["bday"].data_type is DataType.DATE
        works_at = result.schema.edge_type_by_token("WORKS_AT")
        assert works_at.properties["from"].data_type is DataType.INTEGER
        assert works_at.cardinality is not None


class TestReadmeSessionQuickstart:
    def test_session_snippet_executes(self, tmp_path):
        # The session code block from README.md's Quickstart section.
        from repro import ChangeSet, Edge, Node, SchemaSession

        session = SchemaSession(schema_name="example")
        events = []
        session.subscribe(events.append)

        session.apply(ChangeSet.inserts(
            nodes=[
                Node("bob", {"Person"}, {"name": "Bob", "bday": "2/5/1980"}),
                Node("alice", frozenset(),
                     {"name": "Alice", "bday": "19/12/1999"}),
                Node("acme", {"Org"}, {"name": "ACME", "url": "acme.example"}),
            ],
            edges=[Edge("e1", "bob", "acme", {"WORKS_AT"}, {"from": 2000})],
        ))

        schema = session.schema()
        assert schema.summary()["node_types"] >= 2
        assert events and not events[0].diff.is_empty

        # Claims made in the README about this snippet:
        person = schema.node_type_by_token("Person")
        assert "alice" in person.instance_ids
        from repro import DataType

        assert person.properties["bday"].data_type is DataType.DATE
        works_at = schema.edge_type_by_token("WORKS_AT")
        assert works_at.properties["from"].data_type is DataType.INTEGER
        assert works_at.cardinality is not None

        path = session.checkpoint(tmp_path / "example.ckpt")
        resumed = SchemaSession.restore(path)
        from repro import schema_fingerprint

        assert schema_fingerprint(resumed.schema_graph) == schema_fingerprint(
            schema
        )


class TestReadmeShardedQuickstart:
    def test_sharded_snippet_executes(self, tmp_path):
        # The sharded code block from README.md's Quickstart section
        # (serial shards here; parallel mode is pinned in
        # tests/core/test_sharding.py).
        from repro import Edge, Node, PGHiveConfig, PropertyGraph, ShardedSchemaSession
        from repro.graph.json_io import iter_columnar_changesets_jsonl, write_graph_jsonl

        graph = PropertyGraph("events")
        for serial in range(12):
            label = "Person" if serial % 2 else "Org"
            graph.add_node(
                Node(f"v{serial}", {label}, {f"{label.lower()}_id": serial})
            )
        for serial in range(8):
            graph.add_edge(
                Edge(
                    f"r{serial}",
                    f"v{serial % 12}",
                    f"v{(serial + 3) % 12}",
                    {"REL"},
                )
            )
        path = write_graph_jsonl(graph, tmp_path / "events.jsonl")

        with ShardedSchemaSession(PGHiveConfig(), n_shards=4) as session:
            for change_set in iter_columnar_changesets_jsonl(path, batch_size=5):
                session.apply(change_set)
            summary = session.schema().summary()
            assert summary["node_types"] >= 2
            assert summary["node_instances"] == 12
            directory = session.checkpoint(tmp_path / "discovery.ckpt")
        assert (directory / "manifest.ckpt").exists()


class TestRequiredDocuments:
    def test_design_document_covers_every_figure(self):
        design = (REPO / "DESIGN.md").read_text()
        for artefact in (
            "Table 1",
            "Table 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
        ):
            assert artefact in design, f"DESIGN.md missing {artefact}"

    def test_experiments_document_records_deviations(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        assert "SchemI runtime" in experiments
        assert "Nemenyi" in experiments
        assert "reproduced" in experiments

    def test_readme_documents_examples(self):
        readme = (REPO / "README.md").read_text()
        for example in sorted((REPO / "examples").glob("*.py")):
            assert example.name in readme, f"README.md missing {example.name}"

    def test_every_bench_mapped_in_design(self):
        design = (REPO / "DESIGN.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("bench_*.py")):
            if bench.name in ("bench_common.py",):
                continue
            assert bench.name in design or bench.stem.split("_", 1)[1] in design, (
                f"DESIGN.md does not reference {bench.name}"
            )
