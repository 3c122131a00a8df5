"""JSON wire codec for the HTTP serving front.

Stability: public.  (The payload layouts themselves are specified, with
versioning and compatibility rules, in ``docs/wire-protocol.md``.)

The network boundary of the compilation service speaks plain JSON.  This
module defines the (de)serialization of the two objects that cross it:

* :func:`target_to_wire` / :func:`target_from_wire` round-trip a full
  :class:`repro.api.CompileTarget` — pipeline DAG (stages, edges, stencil
  windows *and* stage expressions), image resolution,
  :class:`repro.memory.spec.MemorySpec`,
  :class:`repro.core.scheduler.SchedulerOptions`, generator name, label and
  metadata.  A round-tripped target has the same content fingerprint
  (:func:`repro.api.compile_fingerprint`) as the original, so remote clients
  hit exactly the cache entries that in-process callers warm.
* :func:`result_to_wire` flattens a :class:`repro.service.jobs.CompileResult`
  into fingerprint + source + seconds plus the area/power summary of
  :func:`repro.estimate.report.accelerator_report` — the metrics the paper
  reports per design point, without shipping a whole schedule.

Solved schedules persist through the disk cache's own codec,
:func:`repro.service.cache.serialize_schedule`; this module never ships one.

The layout mirrors the canonical serialization used for fingerprinting
(:mod:`repro.api.fingerprint` / ``PipelineDAG.canonical_form``): memory specs
flatten through :func:`repro.api.fingerprint.normalize_memory_spec`, stencil
windows use the same ``[min_dx, max_dx, min_dy, max_dy]`` quadruple, and
free-form :attr:`Stage.metadata` is excluded just as it is from the
fingerprint.  Unlike the canonical form — which collapses expressions to
display strings because a hash only needs stability — the wire form keeps
expressions structural, so the receiving side rebuilds the identical AST and
produces bit-identical functional simulation, RTL and PE-area estimates.

Malformed payloads raise :class:`WireFormatError` (a ``ValueError``), which
the HTTP layer maps to a 400 response.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

from repro.api.fingerprint import RETIRED_OPTIONS, normalize_memory_spec
from repro.api.target import CompileTarget
from repro.core.scheduler import SchedulerOptions
from repro.dsl import ast
from repro.estimate.report import accelerator_report
from repro.ir.dag import PipelineDAG, Stage, window_to_list
from repro.ir.stencil import StencilWindow
from repro.memory.spec import MemorySpec
from repro.service.jobs import BatchResult, CompileResult
from repro.service.verify import (
    CHECK_KIND_MIN_VERSION,
    READABLE_VERIFY_VERSIONS,
    VERIFY_FORMAT_VERSION,
    VERIFY_REQUEST_FIELDS,
    VerifyRequest,
    VerifyResult,
)
from repro.trace import spans_to_payload

#: Bump when the wire layout changes incompatibly; requests carrying another
#: version are rejected with a clear error instead of being misparsed.
#:
#: Version 2 (the temporal-IR release) adds two *optional* extensions to the
#: target payload: a ``dt`` field on ``ref`` expressions and a 6-element
#: ``[min_dx, max_dx, min_dy, max_dy, min_dt, max_dt]`` edge-window form.
#: Purely spatial targets never use either, so the encoder stamps them
#: ``version: 1`` — byte-identical to what a v1 build emits — and stamps
#: ``version: 2`` only when the pipeline actually reads past frames.  The
#: decoder accepts both versions (:data:`READABLE_WIRE_VERSIONS`).
WIRE_FORMAT_VERSION = 2

#: Target-payload versions this build decodes.
READABLE_WIRE_VERSIONS = (1, 2)


class WireFormatError(ValueError):
    """A wire payload that cannot be decoded into the requested object."""


def _require(payload: dict, key: str, context: str):
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise WireFormatError(f"{context} is missing required field {key!r}") from None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
def expr_to_wire(expr: ast.Expr | None) -> dict | None:
    """Serialize one stage expression AST (``None`` for input stages)."""
    if expr is None:
        return None
    if isinstance(expr, ast.Const):
        return {"kind": "const", "value": expr.value}
    if isinstance(expr, ast.StageRef):
        ref = {"kind": "ref", "stage": expr.stage, "dx": expr.dx, "dy": expr.dy}
        # Spatial refs omit dt entirely, keeping v1 payloads byte-identical.
        if expr.dt:
            ref["dt"] = expr.dt
        return ref
    if isinstance(expr, ast.BinOp):
        return {
            "kind": "binop",
            "op": expr.op,
            "left": expr_to_wire(expr.left),
            "right": expr_to_wire(expr.right),
        }
    if isinstance(expr, ast.UnaryOp):
        return {"kind": "unary", "op": expr.op, "operand": expr_to_wire(expr.operand)}
    if isinstance(expr, ast.Call):
        return {"kind": "call", "fn": expr.fn, "args": [expr_to_wire(a) for a in expr.args]}
    raise WireFormatError(f"Cannot serialize expression node {type(expr).__name__}")


def expr_from_wire(payload: dict | None) -> ast.Expr | None:
    """Rebuild a stage expression from :func:`expr_to_wire` output."""
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise WireFormatError(f"Expression must be an object or null, got {type(payload).__name__}")
    kind = _require(payload, "kind", "expression")
    try:
        if kind == "const":
            return ast.Const(float(_require(payload, "value", "const expression")))
        if kind == "ref":
            return ast.StageRef(
                str(_require(payload, "stage", "ref expression")),
                int(payload.get("dx", 0)),
                int(payload.get("dy", 0)),
                int(payload.get("dt", 0)),
            )
        if kind == "binop":
            return ast.BinOp(
                str(_require(payload, "op", "binop expression")),
                expr_from_wire(_require(payload, "left", "binop expression")),
                expr_from_wire(_require(payload, "right", "binop expression")),
            )
        if kind == "unary":
            return ast.UnaryOp(
                str(_require(payload, "op", "unary expression")),
                expr_from_wire(_require(payload, "operand", "unary expression")),
            )
        if kind == "call":
            args = _require(payload, "args", "call expression")
            return ast.Call(
                str(_require(payload, "fn", "call expression")),
                tuple(expr_from_wire(a) for a in args),
            )
    except WireFormatError:
        raise
    except Exception as exc:  # bad operator, wrong arity, non-numeric offset, ...
        raise WireFormatError(f"Invalid {kind!r} expression: {exc}") from None
    raise WireFormatError(f"Unknown expression kind {kind!r}")


# ---------------------------------------------------------------------------
# DAG
# ---------------------------------------------------------------------------
def dag_to_wire(dag: PipelineDAG) -> dict:
    """Serialize the pipeline graph, preserving stage/edge insertion order."""
    return {
        "name": dag.name,
        "stages": [
            {
                "name": stage.name,
                "is_input": stage.is_input,
                "is_output": stage.is_output,
                "virtual_of": stage.virtual_of,
                "expression": expr_to_wire(stage.expression),
            }
            for stage in dag.stages()
        ],
        "edges": [
            {
                "producer": edge.producer,
                "consumer": edge.consumer,
                "window": window_to_list(edge.window),
            }
            for edge in dag.edges()
        ],
    }


def dag_from_wire(payload: dict) -> PipelineDAG:
    """Rebuild a validated :class:`PipelineDAG` from :func:`dag_to_wire` output."""
    if not isinstance(payload, dict):
        raise WireFormatError(f"DAG must be an object, got {type(payload).__name__}")
    dag = PipelineDAG(str(payload.get("name", "pipeline")))
    stages = _require(payload, "stages", "DAG")
    edges = _require(payload, "edges", "DAG")
    try:
        for stage in stages:
            dag.add_stage(
                Stage(
                    name=str(_require(stage, "name", "stage")),
                    is_input=bool(stage.get("is_input", False)),
                    is_output=bool(stage.get("is_output", False)),
                    virtual_of=stage.get("virtual_of"),
                    expression=expr_from_wire(stage.get("expression")),
                )
            )
        for edge in edges:
            window = _require(edge, "window", "edge")
            if not isinstance(window, (list, tuple)) or len(window) not in (4, 6):
                raise WireFormatError(
                    "Edge window must be [min_dx, max_dx, min_dy, max_dy] or "
                    "[min_dx, max_dx, min_dy, max_dy, min_dt, max_dt]"
                )
            dag.add_edge(
                str(_require(edge, "producer", "edge")),
                str(_require(edge, "consumer", "edge")),
                StencilWindow(*(int(v) for v in window)),
            )
        return dag.validated()
    except WireFormatError:
        raise
    except Exception as exc:  # duplicate stages, cycles, degenerate windows, ...
        raise WireFormatError(f"Invalid pipeline DAG: {exc}") from None


# ---------------------------------------------------------------------------
# Memory spec / scheduler options
# ---------------------------------------------------------------------------
def memory_spec_from_wire(payload: dict) -> MemorySpec:
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"memory_spec must be an object, got {type(payload).__name__}"
        )
    known = {f.name for f in fields(MemorySpec)}
    unknown = set(payload) - known
    if unknown:
        raise WireFormatError(f"Unknown memory_spec fields: {sorted(unknown)}")
    try:
        return MemorySpec(**payload)
    except Exception as exc:
        raise WireFormatError(f"Invalid memory_spec: {exc}") from None


def options_to_wire(options: SchedulerOptions) -> dict:
    """All scheduler knobs, verbatim (unlike the fingerprint normalization,
    which drops fields that cannot change the schedule), plus the retired
    ones at their fixed values (:data:`repro.api.fingerprint.RETIRED_OPTIONS`)."""
    return {**asdict(options), **RETIRED_OPTIONS}


def options_from_wire(payload: dict) -> SchedulerOptions:
    if not isinstance(payload, dict):
        raise WireFormatError(f"options must be an object, got {type(payload).__name__}")
    payload = dict(payload)
    for name, fixed in RETIRED_OPTIONS.items():
        if name in payload and payload.pop(name) != fixed:
            raise WireFormatError(
                f"options.{name} is retired; only {json.dumps(fixed)} is accepted"
            )
    known = {f.name for f in fields(SchedulerOptions)}
    unknown = set(payload) - known
    if unknown:
        raise WireFormatError(f"Unknown options fields: {sorted(unknown)}")
    try:
        return SchedulerOptions(**payload)
    except Exception as exc:
        raise WireFormatError(f"Invalid options: {exc}") from None


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------
def target_to_wire(target: CompileTarget) -> dict:
    """Flatten one :class:`CompileTarget` into a JSON-serializable request.

    ``metadata`` is carried verbatim, so it must itself be JSON-serializable
    (it is free-form caller data; the library never puts non-JSON values in
    it).
    """
    payload = {
        # Spatial targets stamp version 1 — byte-identical to a v1 build's
        # output — so their fingerprints and cache keys never move.
        "version": WIRE_FORMAT_VERSION if target.dag.is_temporal() else 1,
        "dag": dag_to_wire(target.dag),
        "resolution": [target.image_width, target.image_height],
        "memory_spec": normalize_memory_spec(target.memory_spec),
        "options": options_to_wire(target.options),
        "generator": target.generator,
    }
    if target.label:
        payload["label"] = target.label
    if target.metadata:
        payload["metadata"] = dict(target.metadata)
    return payload


def target_from_wire(payload: dict) -> CompileTarget:
    """Rebuild a :class:`CompileTarget` from :func:`target_to_wire` output.

    The round-tripped target carries the same content fingerprint as the
    original, so the serving layer's cache and in-flight dedup treat remote
    and in-process submissions of one design point identically.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"Compile target must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("version", WIRE_FORMAT_VERSION)
    if version not in READABLE_WIRE_VERSIONS:
        raise WireFormatError(
            f"Unsupported wire format version {version!r} (this build speaks "
            f"{', '.join(str(v) for v in READABLE_WIRE_VERSIONS)})"
        )
    resolution = _require(payload, "resolution", "compile target")
    if not isinstance(resolution, (list, tuple)) or len(resolution) != 2:
        raise WireFormatError("resolution must be [image_width, image_height]")
    try:
        width, height = (int(v) for v in resolution)
    except (TypeError, ValueError):
        raise WireFormatError(f"Non-integer resolution {resolution!r}") from None
    metadata = payload.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise WireFormatError(f"metadata must be an object, got {type(metadata).__name__}")
    try:
        return CompileTarget(
            dag=dag_from_wire(_require(payload, "dag", "compile target")),
            image_width=width,
            image_height=height,
            memory_spec=memory_spec_from_wire(
                _require(payload, "memory_spec", "compile target")
            ),
            options=options_from_wire(_require(payload, "options", "compile target")),
            generator=str(payload.get("generator", "imagen")),
            label=str(payload.get("label", "")),
            metadata=dict(metadata),
        )
    except WireFormatError:
        raise
    except Exception as exc:  # e.g. empty generator name
        raise WireFormatError(f"Invalid compile target: {exc}") from None


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
def result_to_wire(result: CompileResult, *, include_spans: bool = False) -> dict:
    """Flatten one :class:`CompileResult` into the response body.

    Successful results carry the flat area/power summary of
    :func:`repro.estimate.report.accelerator_report` (the per-design-point
    metrics of the paper's tables) instead of the full schedule; failures
    carry the captured error string.  Both shapes share fingerprint, source
    and latency so clients can always account for a request the same way.

    ``include_spans=True`` (the HTTP front's ``?trace=1``) adds the nested
    stage-span tree recorded while the job ran; it is omitted by default so
    the steady-state response body stays small.
    """
    payload = {
        "ok": result.ok,
        "fingerprint": result.fingerprint,
        "label": result.target.display_label,
        "generator": result.target.generator,
        "source": result.source,
        "seconds": result.seconds,
    }
    if result.error is not None:
        payload["error"] = result.error
    if result.accelerator is not None:
        payload["report"] = accelerator_report(result.accelerator).row()
    if include_spans:
        payload["spans"] = spans_to_payload(result.spans)
    return payload


def batch_result_to_wire(batch: BatchResult, *, include_spans: bool = False) -> dict:
    """Flatten a :class:`BatchResult`: ordered per-item results + aggregates."""
    payload = {
        "results": [
            result_to_wire(result, include_spans=include_spans)
            for result in batch.results
        ],
        "seconds": batch.seconds,
    }
    if batch.cache_stats is not None:
        payload["cache_stats"] = batch.cache_stats.as_dict()
    return payload


# ---------------------------------------------------------------------------
# Verify payloads (v1/v2) — see docs/verification.md and docs/wire-protocol.md
# ---------------------------------------------------------------------------
def verify_request_to_wire(request: VerifyRequest) -> dict:
    """Encode one :class:`~repro.service.verify.VerifyRequest`.

    Defaults are omitted on the wire — a minimal request is just
    ``{"target": {...}}`` — and ``version`` follows the same
    lowest-sufficient-version rule as target payloads: the v1 check kinds
    (``golden``/``cycle``/``both``) stamp 1, so their wire bytes are stable
    across the v2 bump; ``rtl``/``perf`` stamp 2.
    """
    payload = {
        "version": CHECK_KIND_MIN_VERSION.get(request.check, VERIFY_FORMAT_VERSION),
        "target": target_to_wire(request.target),
        "check": request.check,
    }
    if request.frames != 2:
        payload["frames"] = request.frames
    if request.seed != 0:
        payload["seed"] = request.seed
    if request.tolerance != 0.0:
        payload["tolerance"] = request.tolerance
    if request.expected_digest is not None:
        payload["expected_digest"] = request.expected_digest
    if request.strict:
        payload["strict"] = True
    return payload


def verify_request_from_wire(payload: dict) -> VerifyRequest:
    """Decode a verify request; unknown fields and bad versions are rejected.

    Any version in ``READABLE_VERIFY_VERSIONS`` decodes (v1 payloads stay
    readable after the v2 bump); future versions are rejected, and a check
    kind stamped below its own floor (``rtl``/``perf`` in a v1 payload) is a
    format error — a v1-era peer could never have produced it.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"Verify request must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("version", VERIFY_FORMAT_VERSION)
    if version not in READABLE_VERIFY_VERSIONS:
        raise WireFormatError(
            f"Unsupported verify payload version {version!r} (this build speaks "
            f"{', '.join(str(v) for v in READABLE_VERIFY_VERSIONS)})"
        )
    known = {"version", "target"} | {name for name, *_ in VERIFY_REQUEST_FIELDS}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise WireFormatError(f"Unknown verify request field(s): {', '.join(unknown)}")
    check = str(payload.get("check", "both"))
    floor = CHECK_KIND_MIN_VERSION.get(check)
    if floor is not None and version < floor:
        raise WireFormatError(
            f"Check kind {check!r} needs verify payload version >= {floor}, "
            f"got version {version}"
        )
    target = target_from_wire(_require(payload, "target", "verify request"))
    expected = payload.get("expected_digest")
    try:
        return VerifyRequest(
            target=target,
            check=str(payload.get("check", "both")),
            frames=int(payload.get("frames", 2)),
            seed=int(payload.get("seed", 0)),
            tolerance=float(payload.get("tolerance", 0.0)),
            expected_digest=None if expected is None else str(expected),
            strict=bool(payload.get("strict", False)),
        )
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"Invalid verify request: {exc}") from None


def verify_result_to_wire(result: VerifyResult, *, include_spans: bool = False) -> dict:
    """Flatten one :class:`~repro.service.verify.VerifyResult` for HTTP clients.

    ``ok`` says the check *ran*; ``passed`` says the design survived it —
    a failed golden check is ``ok: true, passed: false``.  ``golden``,
    ``cycle``, ``rtl`` and ``perf`` appear only for the check kinds that
    ran; errors carry
    ``error``/``error_kind`` instead (``error_kind: "SimulationError"`` is
    what the HTTP front maps to 422 ``verify-failed``).
    """
    payload = {
        "ok": result.ok,
        "passed": result.passed,
        "check": result.request.check,
        "fingerprint": result.fingerprint,
        "compile_fingerprint": result.compile_fingerprint,
        "source": result.source,
        "seconds": result.seconds,
    }
    if result.compile_source is not None:
        payload["compile_source"] = result.compile_source
    if result.golden is not None:
        payload["golden"] = result.golden
    if result.cycle is not None:
        payload["cycle"] = result.cycle
    if result.rtl is not None:
        payload["rtl"] = result.rtl
    if result.perf is not None:
        payload["perf"] = result.perf
    if result.error is not None:
        payload["error"] = result.error
        payload["error_kind"] = result.error_kind
    if include_spans:
        payload["spans"] = spans_to_payload(result.spans)
    return payload
