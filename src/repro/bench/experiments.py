"""Experiment drivers for every paper table and figure.

Each function returns plain data (rows / dicts); the ``benchmarks/``
files format and print them.  Grids follow section 5: noise in
{0, 10, 20, 30, 40} %, label availability in {100, 50, 0} %, the four
methods, and the eight Table 2 datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import (
    AVAILABILITIES,
    NOISE_LEVELS,
    CaseResult,
    all_methods,
    evaluate_on,
)
from repro.core.config import AdaptiveOverrides, ClusteringMethod, PGHiveConfig
from repro.core.datatype_inference import sample_values
from repro.core.pipeline import PGHive
from repro.datasets.base import GeneratedDataset
from repro.datasets.noise import apply_noise
from repro.datasets.registry import load_all
from repro.eval.ranking import NemenyiResult, nemenyi_test
from repro.eval.sampling_error import bin_errors, sampling_error
from repro.graph.batching import split_into_batches
from repro.util import derive_seed


def load_bench_datasets(scale: float, seed: int = 0) -> list[GeneratedDataset]:
    """All eight datasets at bench scale."""
    return load_all(scale=scale, seed=seed)


# ----------------------------------------------------------------------
# Figures 3, 4, 5: the quality/efficiency grid
# ----------------------------------------------------------------------
@dataclass
class QualityGrid:
    """All case results of the section 5 grid."""

    cases: list[CaseResult] = field(default_factory=list)

    def select(
        self,
        dataset: str | None = None,
        noise: float | None = None,
        availability: float | None = None,
        method: str | None = None,
    ) -> list[CaseResult]:
        """Filter cases by any combination of coordinates."""
        picked = []
        for case in self.cases:
            if dataset is not None and case.dataset != dataset:
                continue
            if noise is not None and case.noise != noise:
                continue
            if availability is not None and case.availability != availability:
                continue
            if method is not None and case.method != method:
                continue
            picked.append(case)
        return picked

    def method_names(self) -> list[str]:
        """Distinct method names in first-seen order."""
        seen: dict[str, None] = {}
        for case in self.cases:
            seen.setdefault(case.method, None)
        return list(seen)


def run_quality_grid(
    datasets: list[GeneratedDataset],
    noise_levels: tuple[float, ...] = NOISE_LEVELS,
    availabilities: tuple[float, ...] = AVAILABILITIES,
    seed: int = 0,
) -> QualityGrid:
    """Run every method over the full noise x availability grid."""
    grid = QualityGrid()
    for dataset in datasets:
        for availability in availabilities:
            for noise in noise_levels:
                noisy = apply_noise(
                    dataset,
                    property_noise=noise,
                    label_availability=availability,
                    seed=derive_seed(seed, dataset.name, noise, availability),
                )
                for method in all_methods(seed=seed):
                    grid.cases.append(
                        evaluate_on(method, noisy, noise, availability)
                    )
    return grid


def figure3_ranking(grid: QualityGrid) -> tuple[NemenyiResult, NemenyiResult]:
    """Nemenyi analysis for nodes and edges (100 % labels, all noise).

    GMM is excluded from the edge analysis (it discovers no edge types),
    exactly as in the paper's Figure 3.
    """
    node_scores: dict[str, list[float]] = {}
    edge_scores: dict[str, list[float]] = {}
    for case in grid.select(availability=1.0):
        if case.node_f1 is not None:
            node_scores.setdefault(case.method, []).append(case.node_f1)
        if case.edge_f1 is not None:
            edge_scores.setdefault(case.method, []).append(case.edge_f1)
    return nemenyi_test(node_scores), nemenyi_test(edge_scores)


def figure4_series(
    grid: QualityGrid, kind: str = "nodes"
) -> list[tuple[str, float, str, list[float | None]]]:
    """(dataset, availability, method) -> F1 series over noise levels."""
    series = []
    datasets: dict[str, None] = {}
    for case in grid.cases:
        datasets.setdefault(case.dataset, None)
    for dataset in datasets:
        for availability in AVAILABILITIES:
            for method in grid.method_names():
                values: list[float | None] = []
                for noise in NOISE_LEVELS:
                    cases = grid.select(dataset, noise, availability, method)
                    if not cases or not cases[0].supported:
                        values.append(None)
                    else:
                        values.append(
                            cases[0].node_f1 if kind == "nodes" else cases[0].edge_f1
                        )
                if any(value is not None for value in values):
                    series.append((dataset, availability, method, values))
    return series


def figure5_series(
    grid: QualityGrid,
) -> list[tuple[str, str, list[float | None]]]:
    """(dataset, method) -> execution-seconds series over noise (100 % labels)."""
    series = []
    datasets: dict[str, None] = {}
    for case in grid.cases:
        datasets.setdefault(case.dataset, None)
    for dataset in datasets:
        for method in grid.method_names():
            values: list[float | None] = []
            for noise in NOISE_LEVELS:
                cases = grid.select(dataset, noise, 1.0, method)
                values.append(cases[0].seconds if cases and cases[0].supported else None)
            series.append((dataset, method, values))
    return series


def headline_summary(grid: QualityGrid) -> dict[str, float]:
    """The section 5 headline numbers derived from the grid."""
    def best_pg(case_list, attr):
        values = [
            getattr(c, attr)
            for c in case_list
            if c.method.startswith("PG-HIVE") and getattr(c, attr) is not None
        ]
        return max(values) if values else None

    node_gain, edge_gain = 0.0, 0.0
    speedup = 0.0
    datasets: dict[str, None] = {}
    for case in grid.cases:
        datasets.setdefault(case.dataset, None)
    for dataset in datasets:
        for noise in NOISE_LEVELS:
            cases = grid.select(dataset, noise, 1.0)
            pg_node = best_pg(cases, "node_f1")
            pg_edge = best_pg(cases, "edge_f1")
            for case in cases:
                if case.method.startswith("PG-HIVE") or not case.supported:
                    continue
                if pg_node is not None and case.node_f1 is not None:
                    node_gain = max(node_gain, pg_node - case.node_f1)
                if pg_edge is not None and case.edge_f1 is not None:
                    edge_gain = max(edge_gain, pg_edge - case.edge_f1)
                if case.method == "SchemI" and case.seconds:
                    pg_seconds = [
                        c.seconds
                        for c in cases
                        if c.method.startswith("PG-HIVE") and c.seconds
                    ]
                    if pg_seconds:
                        speedup = max(speedup, case.seconds / min(pg_seconds))
    return {
        "max_node_f1_gain": node_gain,
        "max_edge_f1_gain": edge_gain,
        "max_speedup_vs_schemi": speedup,
    }


# ----------------------------------------------------------------------
# Figure 6: parameter sensitivity vs the adaptive choice
# ----------------------------------------------------------------------
def figure6_heatmap(
    dataset: GeneratedDataset,
    table_counts: tuple[int, ...] = (5, 10, 20, 30, 40),
    alphas: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
    kind: str = "nodes",
    seed: int = 0,
) -> dict:
    """F1 over a (T, alpha) grid plus the adaptive configuration's score."""
    from repro.eval.clustering_metrics import majority_f1

    truth = dataset.node_truth if kind == "nodes" else dataset.edge_truth

    def score(config: PGHiveConfig) -> float:
        result = PGHive(config).discover(dataset.graph)
        assignment = (
            result.node_assignments() if kind == "nodes" else result.edge_assignments()
        )
        return majority_f1(assignment, truth).macro_f1

    cells: dict[tuple[int, float], float] = {}
    for tables in table_counts:
        for alpha in alphas:
            overrides = AdaptiveOverrides(num_tables=tables, alpha=alpha)
            config = PGHiveConfig(
                method=ClusteringMethod.ELSH,
                post_processing=False,
                seed=seed,
                node_lsh=overrides,
                edge_lsh=overrides,
            )
            cells[(tables, alpha)] = score(config)

    adaptive_config = PGHiveConfig(
        method=ClusteringMethod.ELSH, post_processing=False, seed=seed
    )
    adaptive_result = PGHive(adaptive_config).discover(dataset.graph)
    adaptive_params = (
        adaptive_result.node_parameters
        if kind == "nodes"
        else adaptive_result.edge_parameters
    )
    assignment = (
        adaptive_result.node_assignments()
        if kind == "nodes"
        else adaptive_result.edge_assignments()
    )
    from repro.eval.clustering_metrics import majority_f1 as _f1

    return {
        "dataset": dataset.name,
        "cells": cells,
        "adaptive_f1": _f1(assignment, truth).macro_f1,
        "adaptive_T": adaptive_params.num_tables if adaptive_params else None,
        "adaptive_alpha": adaptive_params.alpha if adaptive_params else None,
        "adaptive_b": adaptive_params.bucket_length if adaptive_params else None,
    }


# ----------------------------------------------------------------------
# Figure 7: incremental execution time per batch
# ----------------------------------------------------------------------
def figure7_incremental(
    dataset: GeneratedDataset,
    method: ClusteringMethod,
    batch_count: int = 10,
    seed: int = 0,
) -> list[float]:
    """Per-batch processing seconds for a 10-batch random split."""
    from repro.core.session import SchemaSession

    batches = split_into_batches(dataset.graph, batch_count, seed=seed)
    config = PGHiveConfig(method=method, post_processing=False, seed=seed)
    session = SchemaSession(config, schema_name=f"{dataset.name}-inc")
    seconds = [session.add_batch(batch).seconds for batch in batches]
    session.finalize()
    return seconds


# ----------------------------------------------------------------------
# Figure 8: datatype-inference sampling error
# ----------------------------------------------------------------------
def figure8_sampling_errors(
    dataset: GeneratedDataset,
    method: ClusteringMethod,
    sample_fraction: float = 0.1,
    min_sample: int = 1000,
    seed: int = 0,
) -> dict[str, float]:
    """Figure 8 bins for one dataset under one clustering method.

    Discovery runs first (types gather their instances), then for every
    (type, property) the sampled inference is compared against the full
    scan with the section 5 error definition.
    """
    from repro.core.datatype_inference import collect_property_values

    config = PGHiveConfig(method=method, post_processing=False, seed=seed)
    result = PGHive(config).discover(dataset.graph)
    rng = np.random.default_rng(derive_seed(seed, "figure8", dataset.name))
    errors: list[float] = []
    for is_edge, types in (
        (False, result.schema.node_types()),
        (True, result.schema.edge_types()),
    ):
        for schema_type in types:
            for key in schema_type.properties:
                values = collect_property_values(
                    dataset.graph, schema_type, key, is_edge
                )
                if not values:
                    continue
                sampled = sample_values(values, sample_fraction, min_sample, rng)
                errors.append(sampling_error(values, sampled))
    return bin_errors(errors)
