"""PGL301/PGL302 fire inside hot-path functions only; PGL303 in loops."""

from repro.analysis.rules.hotpath import (
    ColumnLoopRule,
    ElementMaterialisationRule,
    SearchsortedLoopRule,
    is_hot_function,
)

from tests.analysis.conftest import assert_fixture

RULES = [
    ElementMaterialisationRule(scope=()),
    ColumnLoopRule(scope=()),
    SearchsortedLoopRule(scope=()),
]


def test_fires_on_hot_path_violations():
    assert_fixture(RULES, "hotpath_bad.py")


def test_silent_on_vectorised_and_cold_code():
    assert_fixture(RULES, "hotpath_good.py")


def test_hot_function_name_detection():
    assert is_hot_function("SchemaSession._ingest_columnar")
    assert is_hot_function("KeyAccumulator.record_into")
    assert is_hot_function("columnar_changesets_from_rows")
    assert is_hot_function("partition_columnar")
    assert not is_hot_function("SchemaSession.apply")
    assert not is_hot_function("to_property_graph")
