"""Rule registry: every shipped rule family, plus the default analyzer.

Rule ids are stable API (suppression comments reference them):

* ``PGL101`` ordered consumption of hash-ordered sets
* ``PGL102`` nondeterministic sources (clock, unseeded RNG, environment)
* ``PGL201`` state-completeness contracts (merge/checkpoint/fingerprint)
* ``PGL301`` element materialisation on the columnar hot path
* ``PGL302`` per-row Python loops over value columns on the hot path
* ``PGL303`` ``searchsorted`` calls inside loops or comprehensions
* ``PGL401`` unpicklable callables submitted to process pools
* ``PGL501`` mutable default arguments
* ``PGL502`` accumulator ``merge_from``/``copy`` signature drift
* ``PGL601`` pickled artifacts written without the atomic durability helper
* ``PGL701`` durable-session mutation reachable before the WAL append
* ``PGL702`` interprocedural pickle-to-raw-write paths around the helpers
* ``PGL703`` renames without fsync bracketing
* ``PGL801`` handles acquired without with/try-finally/owner release
* ``PGL802`` multi-field state mutation torn by a raise in between
* ``PGL803`` shared-memory handles: ownership plus a module unlink path
* ``PGL901`` shared process-wide state mutated outside owner/lock scope
* ``PGL001``-``PGL003`` suppression hygiene (framework meta-rules)
"""

from __future__ import annotations

from repro.analysis.framework import Analyzer, Rule
from repro.analysis.rules.api_hygiene import (
    AccumulatorSignatureRule,
    MutableDefaultRule,
)
from repro.analysis.rules.concurrency import SharedStateMutationRule
from repro.analysis.rules.crash_consistency import (
    InterprocDurableWriteRule,
    RenameFsyncRule,
    WalBeforeApplyRule,
)
from repro.analysis.rules.crossproc import ProcessPoolSubmissionRule
from repro.analysis.rules.durable_io import DurableArtifactWriteRule
from repro.analysis.rules.determinism import (
    NondeterministicSourceRule,
    OrderedSetConsumptionRule,
)
from repro.analysis.rules.exception_safety import (
    PartialMutationRule,
    ResourceLifecycleRule,
    SharedMemoryLifecycleRule,
)
from repro.analysis.rules.hotpath import (
    ColumnLoopRule,
    ElementMaterialisationRule,
    SearchsortedLoopRule,
)
from repro.analysis.rules.state_completeness import StateCompletenessRule


def all_rules() -> list[Rule]:
    """One fresh instance of every shipped rule, repo-scoped."""
    return [
        OrderedSetConsumptionRule(),
        NondeterministicSourceRule(),
        StateCompletenessRule(),
        ElementMaterialisationRule(),
        ColumnLoopRule(),
        SearchsortedLoopRule(),
        ProcessPoolSubmissionRule(),
        MutableDefaultRule(),
        AccumulatorSignatureRule(),
        DurableArtifactWriteRule(),
        WalBeforeApplyRule(),
        InterprocDurableWriteRule(),
        RenameFsyncRule(),
        ResourceLifecycleRule(),
        PartialMutationRule(),
        SharedMemoryLifecycleRule(),
        SharedStateMutationRule(),
    ]


def default_analyzer() -> Analyzer:
    """The analyzer the CLI and the CI gate run."""
    return Analyzer(all_rules())


__all__ = [
    "AccumulatorSignatureRule",
    "ColumnLoopRule",
    "DurableArtifactWriteRule",
    "ElementMaterialisationRule",
    "InterprocDurableWriteRule",
    "MutableDefaultRule",
    "NondeterministicSourceRule",
    "OrderedSetConsumptionRule",
    "PartialMutationRule",
    "ProcessPoolSubmissionRule",
    "RenameFsyncRule",
    "SearchsortedLoopRule",
    "SharedMemoryLifecycleRule",
    "SharedStateMutationRule",
    "StateCompletenessRule",
    "WalBeforeApplyRule",
    "all_rules",
    "default_analyzer",
]
