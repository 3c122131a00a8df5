"""Line-coalescing optimization (paper Sec. 6, Algorithm 1).

Coalescing places up to ``P`` (port count) consecutive line-buffer lines in a
single memory block, provided the block is large enough.  The paper expresses
this as a DAG rewrite: a consumer with stencil height ``SH`` becomes
``K = min(P, SH)`` *virtual* stages, each reading the lines that fall in one
block of the coalesced buffer; virtual stages of the same physical stage must
share a start cycle.

The scheduler realises the same constraints without rewriting the DAG:
:func:`coalescing_factors` gives the per-producer coalescing factor actually
achievable for a given image width and memory spec (what the scheduler and
allocator consume), and
:func:`repro.core.constraints.coalescing_safety_constraints` turns the
factors into scheduling constraints.
"""

from __future__ import annotations

from repro.ir.dag import PipelineDAG
from repro.memory.spec import MemorySpec


def coalescing_factors(
    dag: PipelineDAG, image_width: int, spec: MemorySpec
) -> dict[str, int]:
    """Achievable lines-per-block for each producer's line buffer.

    The factor is limited by the spec's ports and block capacity
    (``spec.coalescing_factor``).  Producers with no consumers get factor 1.
    The final factor is further clamped to the buffer's actual line count by
    the allocator (coalescing a one-line buffer is a no-op).
    """
    base = spec.coalescing_factor(image_width)
    factors: dict[str, int] = {}
    for producer in dag.stage_names():
        edges = dag.out_edges(producer)
        factors[producer] = base if edges and base > 1 else 1
    return factors
