"""Content-addressed fingerprints for compile targets.

The compile cache (:mod:`repro.service.cache`) is keyed by a stable hash of
everything a generator's output depends on: the pipeline graph, the image
resolution, the memory specification, the generator name, and — for the
ImaGen optimizer — the scheduler options.  Two targets with the same
fingerprint are guaranteed to produce the same design, so the second one can
be served from cache without running the generator again.

Normalization rules
-------------------
* The DAG is hashed through :meth:`repro.ir.dag.PipelineDAG.canonical_form`,
  which is invariant to stage/edge insertion order and to the pipeline's
  display name.  Edge windows serialize as 4-element spatial quads; an edge
  with temporal extent appends ``[min_dt, max_dt]`` for a 6-element form, so
  purely spatial DAGs hash exactly as they did before the time axis existed
  while any temporal read necessarily moves the digest.
* ``SchedulerOptions.coalescing_policy`` and ``per_stage_coalescing`` only
  influence the schedule when ``coalescing`` is enabled, so they are dropped
  from the fingerprint when it is off.  This is what lets the all-DP design
  point of a DSE sweep (``coalescing=False, policy="all"``) hit the cache
  entry written by a plain baseline compile (``policy="auto"``).
* The generator name is fingerprinted only when it is not ``"imagen"``, so
  digests of optimizer requests are stable across library versions that
  predate generator-aware fingerprints (existing disk caches stay valid).
* Baseline generators (Darkroom/SODA/FixyNN) ignore scheduler options, so
  options are dropped entirely from their fingerprints — a baseline design is
  cacheable regardless of what options the request happened to carry.
* Three scheduler options were retired when the scheduler kept a single
  solve path: the ILP ``backend``, the ``disjunction_strategy`` and its
  ``max_subproblems`` limit.  A fourth, the ``ports`` override, was retired
  so the memory spec alone sets the port count.  :data:`RETIRED_OPTIONS`
  keeps them at the only values they can still take, and
  :func:`normalize_options` merges it in, so the fingerprint of every
  target that did not set them is unchanged.
* Everything is serialized to JSON with sorted keys before hashing, so dict
  ordering never leaks into the digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.api.target import CompileTarget, require_target
from repro.core.scheduler import SchedulerOptions
from repro.ir.dag import PipelineDAG
from repro.memory.spec import MemorySpec

#: Bump when the canonical serialization or the scheduler semantics change in
#: a way that invalidates previously persisted cache entries.
FINGERPRINT_VERSION = 1

#: Retired ``SchedulerOptions`` fields at their fixed values.  Fingerprints and
#: wire payloads still carry them; a wire payload may only repeat them.
RETIRED_OPTIONS = {
    "ports": None,
    "backend": "auto",
    "disjunction_strategy": "bigm",
    "max_subproblems": 4096,
}


def normalize_options(options: SchedulerOptions) -> dict:
    """Reduce scheduler options to the fields that can change the schedule."""
    data = {
        "coalescing": options.coalescing,
        "pruning": options.pruning,
        **RETIRED_OPTIONS,
    }
    if options.coalescing:
        data["coalescing_policy"] = options.coalescing_policy
        data["per_stage_coalescing"] = sorted(options.per_stage_coalescing.items())
    return data


def normalize_memory_spec(spec: MemorySpec) -> dict:
    """Flatten a memory spec into plain JSON-serializable fields."""
    return asdict(spec)


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dag_fingerprint(dag: PipelineDAG) -> str:
    """Stable hash of the pipeline structure alone."""
    return _digest({"version": FINGERPRINT_VERSION, "dag": dag.canonical_form()})


def compile_fingerprint(target: CompileTarget) -> str:
    """Stable hash of one complete :class:`CompileTarget`."""
    target = require_target(target)
    payload = {
        "version": FINGERPRINT_VERSION,
        "dag": target.dag.canonical_form(),
        "resolution": [target.image_width, target.image_height],
        "memory_spec": normalize_memory_spec(target.memory_spec),
    }
    if target.is_imagen:
        payload["options"] = normalize_options(target.options)
    else:
        # Baseline generators ignore scheduler options: fingerprinting the
        # generator name alone keeps their designs cacheable across requests
        # that differ only in optimizer knobs.
        payload["generator"] = target.generator
    return _digest(payload)
