"""Invariant-enforcing static analysis for the discovery core.

The codebase's headline guarantees -- bit-identical checkpoint/restore,
sharded == single-session fingerprints, columnar == seed-reference
oracles -- rest on invariants that code review alone does not enforce:
deterministic iteration in merge paths, every piece of mutable state
threaded through merge/checkpoint/fingerprint, and no per-element object
churn on the columnar hot path.  This package makes those invariants
machine-checked: ``python -m repro.analysis src tests`` parses the tree,
runs a set of AST rules, and exits non-zero on any unsuppressed
diagnostic (the CI ``repro-lint`` job gates on exactly that).

Rule families (see :mod:`repro.analysis.rules`):

* ``PGL1xx`` determinism -- order-sensitive consumption of hash-ordered
  sets, and wall-clock / unseeded-randomness / environment reads in
  non-bench discovery code.
* ``PGL2xx`` state-completeness -- every field of ``DiscoveryState``,
  the accumulators, the schema types, and the ``Interner`` must be
  referenced by its merge, checkpoint encode/decode, copy, and
  fingerprint paths ("added a field, forgot merge/checkpoint" fails CI).
* ``PGL3xx`` hot-path hygiene -- no ``Node``/``Edge`` materialisation or
  per-row column walks inside the columnar ingest call graph.
* ``PGL4xx`` cross-process safety -- nothing unpicklable submitted to a
  ``ProcessPoolExecutor``.
* ``PGL5xx`` API hygiene -- mutable default arguments and accumulator
  ``merge_from``/``copy`` signature drift.

False positives are silenced in place with a justified suppression::

    start = time.perf_counter()  # repro-lint: ignore[PGL102] -- wall-clock diagnostics only

The justification text after the bracket is mandatory (``PGL001``), the
rule id must exist (``PGL002``), and a suppression that stops matching
anything is itself flagged (``PGL003``) -- so the suppression inventory
stays an honest, reviewable list of deliberate exceptions.
"""

from repro.analysis.framework import (
    Analyzer,
    Diagnostic,
    ModuleContext,
    Project,
    Rule,
)
from repro.analysis.rules import all_rules, default_analyzer

__all__ = [
    "Analyzer",
    "Diagnostic",
    "ModuleContext",
    "Project",
    "Rule",
    "all_rules",
    "default_analyzer",
]
