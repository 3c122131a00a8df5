"""Catalog of the evaluation algorithms (paper Table 3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algorithms.canny import build_canny_m, build_canny_s
from repro.algorithms.denoise import build_denoise_m
from repro.algorithms.harris import build_harris_m, build_harris_s
from repro.algorithms.temporal import build_frame_diff_m, build_temporal_denoise_m
from repro.algorithms.unsharp import build_unsharp_m
from repro.algorithms.xcorr import build_xcorr_m
from repro.errors import ReproError
from repro.ir.dag import PipelineDAG


@dataclass(frozen=True)
class AlgorithmInfo:
    """One row of Table 3."""

    name: str
    description: str
    builder: Callable[[], PipelineDAG]
    expected_stages: int
    expected_multi_consumer_stages: int

    def build(self) -> PipelineDAG:
        return self.builder()


_CATALOG: dict[str, AlgorithmInfo] = {
    info.name: info
    for info in (
        AlgorithmInfo("canny-s", "Canny edge detection (single-consumer)", build_canny_s, 9, 0),
        AlgorithmInfo("canny-m", "Canny edge detection (multi-consumer)", build_canny_m, 10, 1),
        AlgorithmInfo("harris-s", "Harris corner detection (single-consumer)", build_harris_s, 7, 0),
        AlgorithmInfo("harris-m", "Harris corner detection (multi-consumer)", build_harris_m, 7, 1),
        AlgorithmInfo("unsharp-m", "Unsharp masking", build_unsharp_m, 5, 1),
        AlgorithmInfo("xcorr-m", "Cross correlation", build_xcorr_m, 3, 1),
        AlgorithmInfo("denoise-m", "Image denoise", build_denoise_m, 5, 2),
    )
}

#: The built-in Table-3 evaluation suite.  Frozen at import time: algorithms
#: registered later via :func:`register_algorithm` are resolvable through
#: :func:`build_algorithm` / :func:`algorithm_names` but do not join the
#: benchmark suite that iterates this tuple.
ALGORITHM_NAMES: tuple[str, ...] = tuple(_CATALOG)

# Temporal extension suite: in the live catalog (buildable/compilable by
# name), but added after the freeze so the paper's Table 3 stays spatial-only.
_CATALOG.update(
    {
        info.name: info
        for info in (
            AlgorithmInfo(
                "temporal-denoise-m",
                "Spatio-temporal denoise (3-frame average)",
                build_temporal_denoise_m,
                4,
                1,
            ),
            AlgorithmInfo(
                "frame-diff-m",
                "Frame differencing / motion mask",
                build_frame_diff_m,
                4,
                1,
            ),
        )
    }
)

#: Names of the temporal extension suite (mirrors
#: :data:`repro.algorithms.temporal.TEMPORAL_ALGORITHM_NAMES`).
TEMPORAL_ALGORITHM_NAMES: tuple[str, ...] = tuple(
    name for name in _CATALOG if name not in ALGORITHM_NAMES
)


def algorithm_names() -> tuple[str, ...]:
    """Live view of every algorithm currently in the catalog."""
    return tuple(_CATALOG)


def register_algorithm(
    name: str,
    description: str,
    builder: Callable[[], PipelineDAG],
    *,
    replace: bool = False,
) -> AlgorithmInfo:
    """Install a custom pipeline into the catalog.

    The builder is invoked once to validate the DAG and derive the stage
    counts recorded in the :class:`AlgorithmInfo` row.  Registering a name
    that already exists raises :class:`ReproError` unless ``replace=True``.
    """
    if not replace and name in _CATALOG:
        raise ReproError(
            f"Algorithm {name!r} is already registered; pass replace=True to replace it"
        )
    dag = builder()
    dag.validated()
    info = AlgorithmInfo(
        name=name,
        description=description,
        builder=builder,
        expected_stages=len(dag),
        expected_multi_consumer_stages=len(dag.multi_consumer_stages()),
    )
    _CATALOG[name] = info
    return info


def unregister_algorithm(name: str) -> None:
    """Remove a previously registered algorithm.

    The built-in Table-3 suite cannot be unregistered: :data:`ALGORITHM_NAMES`
    and :func:`table3` contractually list those entries.
    """
    if name in ALGORITHM_NAMES:
        raise ReproError(f"Algorithm {name!r} is part of the built-in suite and cannot be unregistered")
    if name not in _CATALOG:
        raise ReproError(f"Unknown algorithm {name!r}; nothing to unregister")
    del _CATALOG[name]


def algorithm_info(name: str) -> AlgorithmInfo:
    try:
        return _CATALOG[name]
    except KeyError:
        raise ReproError(
            f"Unknown algorithm {name!r}; available: {', '.join(_CATALOG)}"
        ) from None


def build_algorithm(name: str) -> PipelineDAG:
    """Build one of the Table-3 pipelines by name."""
    return algorithm_info(name).build()


def table3() -> list[dict[str, object]]:
    """Reproduce Table 3: name, description, #stages, #multi-consumer stages.

    Only the built-in evaluation suite is listed; client algorithms added via
    :func:`register_algorithm` do not change the paper's table.
    """
    rows = []
    for name in ALGORITHM_NAMES:
        info = _CATALOG[name]
        dag = info.build()
        rows.append(
            {
                "algorithm": info.name,
                "description": info.description,
                "stages": len(dag),
                "multi_consumer_stages": len(dag.multi_consumer_stages()),
            }
        )
    return rows
