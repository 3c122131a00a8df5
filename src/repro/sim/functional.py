"""Functional (pixel-accurate) execution of a pipeline over NumPy images.

Scheduling never changes *what* an accelerator computes, only *when*; the
functional simulator therefore executes the DAG stage by stage in topological
order, evaluating each stage's DSL expression over whole images.  It is used
to validate the algorithm suite against independent NumPy/SciPy references
and to confirm that DAG rewrites (Darkroom linearization, line coalescing)
preserve semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.dsl.ast import Expr, StageRef, evaluate
from repro.errors import SimulationError
from repro.ir.dag import PipelineDAG
from repro.ir.traversal import topological_order


@dataclass
class FunctionalResult:
    """All intermediate and output images produced by a functional run."""

    dag: PipelineDAG
    images: dict[str, np.ndarray] = field(default_factory=dict)

    def image(self, stage: str) -> np.ndarray:
        if stage not in self.images:
            raise SimulationError(f"No image computed for stage {stage!r}")
        return self.images[stage]

    def output(self) -> np.ndarray:
        outputs = self.dag.output_stages()
        return self.image(outputs[0].name)

    def outputs(self) -> dict[str, np.ndarray]:
        return {s.name: self.image(s.name) for s in self.dag.output_stages()}


#: Accepted ``axes=`` values for :func:`run_functional`.
#: ``"yx"`` — a single 2-D frame; ``"fyx"`` — a 3-D stack of *independent*
#: frames (a batch); ``"tyx"`` — a 3-D *temporal sequence* whose leading axis
#: is time (frame ``i`` may read frames ``< i`` through ``dt`` references).
AXES_CONVENTIONS = ("yx", "fyx", "tyx")


def run_functional(
    dag: PipelineDAG,
    inputs: dict[str, np.ndarray] | np.ndarray,
    *,
    axes: str | None = None,
) -> FunctionalResult:
    """Execute every stage of ``dag`` over full images.

    ``inputs`` maps input-stage names to 2-D ``(height, width)`` arrays or 3-D
    ``(frames, height, width)`` batches; a single array may be passed when the
    pipeline has exactly one input stage.  Batched inputs evaluate every frame
    in one vectorized pass (see :mod:`repro.sim.batch` for the replay front).
    Stages without an expression (coalescing virtual readers) forward their
    first producer unchanged.

    A 3-D input is ambiguous: it may be a batch of independent frames
    (``axes="fyx"``) or a temporal sequence (``axes="tyx"``).  The two agree
    for purely spatial pipelines, so ``axes`` may be omitted there (historic
    behaviour: an independent-frame batch).  Temporal pipelines *must* pass
    ``axes="tyx"`` — any other convention (or none) raises
    :class:`SimulationError` rather than silently reinterpreting the axis.
    """
    if axes is not None and axes not in AXES_CONVENTIONS:
        raise SimulationError(
            f"Unknown axes convention {axes!r}; expected one of {AXES_CONVENTIONS}"
        )
    temporal = dag.is_temporal()
    if temporal and axes != "tyx":
        if axes is None:
            raise SimulationError(
                f"Pipeline {dag.name!r} reads past frames; a 3-D input is ambiguous "
                "(frame batch vs temporal sequence). Pass axes='tyx' for a "
                "(frames, height, width) temporal sequence."
            )
        raise SimulationError(
            f"Pipeline {dag.name!r} reads past frames, which axes={axes!r} cannot "
            "express; pass axes='tyx'"
        )

    input_stages = dag.input_stages()
    if isinstance(inputs, np.ndarray):
        if len(input_stages) != 1:
            raise SimulationError(
                f"Pipeline has {len(input_stages)} input stages; pass a dict of images"
            )
        inputs = {input_stages[0].name: inputs}

    expected_ndim = {None: (2, 3), "yx": (2,), "fyx": (3,), "tyx": (3,)}[axes]
    images: dict[str, np.ndarray] = {}
    for stage in input_stages:
        if stage.name not in inputs:
            raise SimulationError(f"No input image supplied for input stage {stage.name!r}")
        image = np.asarray(inputs[stage.name], dtype=np.float64)
        if image.ndim not in (2, 3):
            raise SimulationError(
                f"Input image for {stage.name!r} must be 2-D (or a 3-D frame batch)"
            )
        if image.ndim not in expected_ndim:
            raise SimulationError(
                f"Input image for {stage.name!r} is {image.ndim}-D, which does not "
                f"match axes={axes!r} (expected {' or '.join(str(n) for n in expected_ndim)}-D)"
            )
        images[stage.name] = image

    shapes = {img.shape for img in images.values()}
    if len(shapes) > 1:
        raise SimulationError(f"Input images must share one shape, got {shapes}")

    # Evaluate against every image computed so far (not just direct
    # producers): rewrites such as Darkroom linearization leave stage
    # expressions referring to the original producer while routing the data
    # through a relay, and both views are functionally identical.
    for name, expression in _walk_stages(dag):
        images[name] = evaluate(expression, images)

    return FunctionalResult(dag=dag, images=images)


def _walk_stages(dag: PipelineDAG) -> Iterator[tuple[str, Expr]]:
    """The one stage walker: ``(name, expression)`` of every non-input stage.

    Stages come in topological order, so every producer is computed before
    its consumers.  A stage without an expression (a coalescing virtual
    reader) reads its first producer unchanged.  The golden replay above and
    both RTL simulations in :mod:`repro.rtl.sim` evaluate exactly these
    expressions; only the reads they serve differ.
    """
    for name in topological_order(dag):
        stage = dag.stage(name)
        if stage.is_input:
            continue
        if stage.expression is None:
            yield name, StageRef(dag.producers_of(name)[0])
        else:
            yield name, stage.expression
