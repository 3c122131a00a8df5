"""The public request API: one design-point abstraction for the whole library.

:class:`CompileTarget` is the unified, immutable compile request — pipeline
DAG + resolution + memory spec + scheduler options + generator name — that
every layer consumes and produces:

* :func:`repro.core.compile_pipeline` compiles a target (ImaGen ILP or a
  baseline generator, chosen by ``target.generator``);
* :class:`repro.service.CompileEngine` serves targets one at a time
  (``submit``) and in batches (``submit_batch``);
* :func:`repro.baselines.generate_baseline` compiles baseline-flavoured
  targets through the same cache;
* :func:`repro.dse.sweep_memory_configurations` enumerates
  ``target.with_options(...)`` derivations.

:func:`compile_fingerprint` gives every target a stable content hash — the
cache key used across the in-memory and on-disk tiers.
"""

from repro.api.fingerprint import (
    FINGERPRINT_VERSION,
    compile_fingerprint,
    dag_fingerprint,
    normalize_memory_spec,
    normalize_options,
)
from repro.api.target import IMAGEN_GENERATOR, CompileTarget

__all__ = [
    "CompileTarget",
    "FINGERPRINT_VERSION",
    "IMAGEN_GENERATOR",
    "compile_fingerprint",
    "dag_fingerprint",
    "normalize_memory_spec",
    "normalize_options",
]
