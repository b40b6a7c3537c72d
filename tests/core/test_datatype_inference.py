"""Unit tests for schema-level datatype inference (section 4.4)."""

import numpy as np
from repro.core.config import PGHiveConfig
from repro.core.datatype_inference import (
    collect_property_values,
    infer_datatypes,
    sample_values,
)
from repro.core.pipeline import PGHive
from repro.schema.datatypes import DataType


class TestSampleValues:
    def test_min_sample_floor(self):
        rng = np.random.default_rng(0)
        values = list(range(50))
        sampled = sample_values(values, fraction=0.1, min_sample=1000, rng=rng)
        assert sorted(sampled) == values  # floor exceeds population

    def test_fraction_applied(self):
        rng = np.random.default_rng(0)
        values = list(range(10_000))
        sampled = sample_values(values, fraction=0.1, min_sample=10, rng=rng)
        assert len(sampled) == 1000
        assert set(sampled) <= set(values)

    def test_no_duplicates(self):
        rng = np.random.default_rng(0)
        sampled = sample_values(list(range(100)), 0.5, 10, rng)
        assert len(sampled) == len(set(sampled))

    def test_empty(self):
        rng = np.random.default_rng(0)
        assert sample_values([], 0.1, 10, rng) == []


class TestInferDatatypes:
    def test_figure1_types(self, figure1_graph):
        result = PGHive(PGHiveConfig(seed=0)).discover(figure1_graph)
        person = result.schema.node_type_by_token("Person")
        assert person.properties["name"].data_type is DataType.STRING
        assert person.properties["bday"].data_type is DataType.DATE
        knows = result.schema.edge_type_by_token("KNOWS")
        assert knows.properties["since"].data_type is DataType.INTEGER

    def test_collect_property_values(self, figure1_graph):
        result = PGHive(PGHiveConfig(seed=0)).discover(figure1_graph)
        person = result.schema.node_type_by_token("Person")
        values = collect_property_values(figure1_graph, person, "gender", False)
        assert sorted(values) == ["female", "male", "male"]

    def test_missing_instances_skipped(self, figure1_graph):
        result = PGHive(PGHiveConfig(seed=0)).discover(figure1_graph)
        person = result.schema.node_type_by_token("Person")
        person.instance_ids.add("ghost")
        values = collect_property_values(figure1_graph, person, "gender", False)
        assert len(values) == 3  # ghost silently skipped

    def test_unvalued_property_defaults_to_string(self, figure1_graph):
        result = PGHive(PGHiveConfig(seed=0)).discover(figure1_graph)
        person = result.schema.node_type_by_token("Person")
        person.ensure_property("phantom")
        infer_datatypes(result.schema, figure1_graph)
        assert person.properties["phantom"].data_type is DataType.STRING

    def test_compatibility_guarantee(self, figure1_graph):
        # Section 4.7: every observed value is compatible with the inferred
        # type.
        from repro.schema.datatypes import is_value_compatible

        result = PGHive(PGHiveConfig(seed=0)).discover(figure1_graph)
        for node_type in result.schema.node_types():
            for key, spec in node_type.properties.items():
                values = collect_property_values(
                    figure1_graph, node_type, key, False
                )
                for value in values:
                    assert is_value_compatible(value, spec.data_type)
