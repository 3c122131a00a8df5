"""Vectorized multi-frame functional replay with content-addressed digests.

The functional simulator (:mod:`repro.sim.functional`) is pixel-accurate but
was invoked one frame at a time; verification-as-a-service wants *frame
throughput*.  This module batches replay across frames: inputs become
``(frames, height, width)`` stacks and every stage expression evaluates once
over the whole stack (spatial offsets pad and slice only the trailing two
axes of each producer, see :func:`repro.dsl.ast.evaluate`), so the
Python/NumPy dispatch overhead is paid per *stage*, not per
``stage x frame``.

Frames are generated deterministically from ``(seed, input-stage name)`` so a
replay is reproducible anywhere from the scalar parameters alone, and outputs
collapse to a SHA-256 **digest** — the unit the verify service caches and
compares.  Two replays agree iff their digests match bit-for-bit; the digest
of a rewritten DAG (Darkroom linearization, coalescing relays) must equal the
digest of the original, which is exactly the golden check served by
``POST /v1/verify``.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.ir.dag import PipelineDAG
from repro.sim.functional import FunctionalResult, run_functional
from repro.trace import trace_span


def golden_frames(
    dag: PipelineDAG, width: int, height: int, *, frames: int = 2, seed: int = 0
) -> dict[str, np.ndarray]:
    """Deterministic ``(frames, height, width)`` input stacks for ``dag``.

    Each input stage gets its own stream seeded by ``(seed, crc32(name))``, so
    the stacks depend only on the scalar parameters — not on dict ordering,
    platform, or process — and any two services replaying the same request
    generate bit-identical inputs.  Values are integers in ``[0, 256)`` stored
    as float64, matching the test fixtures' convention.
    """
    if frames < 1:
        raise SimulationError(f"frames must be >= 1, got {frames}")
    if width < 1 or height < 1:
        raise SimulationError(f"Frame resolution must be positive, got {width}x{height}")
    stacks: dict[str, np.ndarray] = {}
    for stage in dag.input_stages():
        rng = np.random.default_rng([seed, zlib.crc32(stage.name.encode("utf-8"))])
        stacks[stage.name] = rng.integers(0, 256, size=(frames, height, width)).astype(
            np.float64
        )
    return stacks


def output_digest(outputs: dict[str, np.ndarray]) -> str:
    """SHA-256 over output stacks: names, shapes and raw float64 bytes.

    Bit-exact by construction — the replay pipeline only applies IEEE-exact
    elementwise operations in a fixed order, so a digest mismatch means the
    two pipelines *compute different functions*, never float wobble.
    """
    hasher = hashlib.sha256()
    for name in sorted(outputs):
        array = np.ascontiguousarray(np.asarray(outputs[name], dtype=np.float64))
        hasher.update(name.encode("utf-8"))
        hasher.update(repr(array.shape).encode("ascii"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


@dataclass
class BatchReplay:
    """One vectorized replay: the stacked outputs plus their digest."""

    dag: PipelineDAG
    frames: int
    seed: int
    result: FunctionalResult
    outputs: dict[str, np.ndarray]
    digest: str

    def output(self) -> np.ndarray:
        """The ``(frames, height, width)`` stack of the first output stage."""
        return self.result.output()


def replay_frames(
    dag: PipelineDAG, width: int, height: int, *, frames: int = 2, seed: int = 0
) -> BatchReplay:
    """Replay ``frames`` deterministic frames through ``dag`` in one pass.

    Spatial pipelines replay the stack as an independent-frame batch (the
    historic behaviour); temporal pipelines replay it as a time sequence
    (``axes="tyx"``), so ``dt`` references reach earlier frames of the same
    stack, clamped at frame 0.  Traced as a ``replay`` span.
    """
    with trace_span("replay", frames=frames, stages=len(dag.stage_names())):
        inputs = golden_frames(dag, width, height, frames=frames, seed=seed)
        axes = "tyx" if dag.is_temporal() else None
        result = run_functional(dag, inputs, axes=axes)
        outputs = result.outputs()
    return BatchReplay(
        dag=dag,
        frames=frames,
        seed=seed,
        result=result,
        outputs=outputs,
        digest=output_digest(outputs),
    )
