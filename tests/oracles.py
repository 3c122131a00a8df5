"""Slow reference implementations that the fast paths are tested against.

* :func:`replay_frames_loop` replays one frame at a time, the oracle of the
  whole-stack :func:`repro.sim.batch.replay_frames`;
* :func:`simulate_design_loop` evaluates every pixel on scalars, the oracle
  of the whole-frame :func:`repro.rtl.sim.simulate_design`.

Both share the evaluator and the stage walker with the paths they check;
only the dispatch differs (frames, pixels), and the pixel oracle works out
each read with its own scalar residency formula instead of a padded slice.
``pytest.ini`` puts this directory on ``sys.path``, so the suite and the
guards in ``benchmarks/`` import it as ``oracles``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.dsl import ast
from repro.rtl import sim as rtl_sim
from repro.sim.batch import BatchReplay, golden_frames, output_digest
from repro.sim.functional import FunctionalResult, run_functional


def replay_frames_loop(
    dag, width: int, height: int, *, frames: int = 2, seed: int = 0
) -> BatchReplay:
    """Per-frame replay: the semantics of ``replay_frames``, one frame at a time.

    Same inputs, same outputs, same digest; only the dispatch cost differs,
    and ``benchmarks/test_verify_throughput.py`` guards that speedup.

    For a temporal pipeline each iteration carries the sliding window of past
    input frames the deepest ``dt`` reference needs (clamp-at-frame-0 only
    ever applies inside the first ``depth`` frames, matching the vectorized
    semantics exactly), and keeps the window's last frame.
    """
    inputs = golden_frames(dag, width, height, frames=frames, seed=seed)
    per_frame: list[FunctionalResult] = []
    depth = dag.history_depth()
    for index in range(frames):
        if depth:
            lo = max(0, index - depth)
            window_inputs = {name: stack[lo : index + 1] for name, stack in inputs.items()}
            windowed = run_functional(dag, window_inputs, axes="tyx")
            per_frame.append(
                FunctionalResult(
                    dag=dag,
                    images={name: img[-1] for name, img in windowed.images.items()},
                )
            )
        else:
            frame_inputs = {name: stack[index] for name, stack in inputs.items()}
            per_frame.append(run_functional(dag, frame_inputs))
    stacked: dict[str, np.ndarray] = {}
    for name in per_frame[0].images:
        stacked[name] = np.stack([result.images[name] for result in per_frame])
    result = FunctionalResult(dag=dag, images=stacked)
    outputs = result.outputs()
    return BatchReplay(
        dag=dag,
        frames=frames,
        seed=seed,
        result=result,
        outputs=outputs,
        digest=output_digest(outputs),
    )


def simulate_design_loop(
    design, schedule, inputs: dict[str, np.ndarray]
) -> rtl_sim.RTLSimResult:
    """Per-pixel ``simulate_design``: every output pixel through scalar arithmetic.

    It runs the simulator's own frame loop; only the reads differ: single
    pixels worked out on scalars here, whole-frame views there.
    """

    def stage_pixels(frames, name: str, expression: ast.Expr) -> np.ndarray:
        out = np.empty(frames.shape, dtype=np.float64)
        for y, x in np.ndindex(*frames.shape):
            fetch = partial(_pixel, frames, name, y=y, x=x)
            out[y, x] = ast._evaluate(expression, fetch, ())
        return out

    return rtl_sim._stream(design, schedule, inputs, stage_pixels)


def _pixel(frames, consumer: str, ref: ast.StageRef, *, y: int, x: int) -> np.float64:
    """Pixel ``(y, x)`` of ``consumer``'s read ``ref``, worked out on scalars.

    The residency formula of ``repro.rtl.sim``'s module docstring, one pixel
    at a time: the requested row and column clamp at the border, and a row
    whose slot does not hold it at read time reads as 0.0.
    """
    height, width = frames.shape
    wanted = min(max(y + ref.dy, 0), height - 1)
    col = min(max(x + ref.dx, 0), width - 1)
    if ref.dt != 0:
        past = frames.past(consumer, ref)
        return np.float64(0.0) if past is None else past.image[wanted, col]
    edge = frames.route(consumer, ref.stage)
    if edge is None:
        return frames.history[ref.stage][frames.index].image[wanted, col]
    delta, lines, fifo = frames.line_buffer(consumer, edge)
    raster = min(max(y + edge.window.min_dy, 0), height - 1)
    if fifo:
        fresh = delta + (raster - wanted) * width >= 1
    else:
        avail = min(raster + (delta - 1) // width, height - 1)
        fresh = wanted + lines * ((avail - wanted) // lines) == wanted
    image = frames.history[edge.producer][frames.index].image
    return image[wanted, col] if fresh else np.float64(0.0)
