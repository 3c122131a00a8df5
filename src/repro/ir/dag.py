"""The pipeline DAG intermediate representation.

A :class:`PipelineDAG` is the contract between the front end (DSL), the
optimizer (ILP scheduler), the baseline generators, the simulators, and the
RTL generator.  Nodes are :class:`Stage` objects; edges carry the stencil
window a consumer reads from a producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import GraphError
from repro.ir.stencil import StencilWindow


@dataclass
class Stage:
    """One pipeline stage (one DAG node).

    Attributes
    ----------
    name:
        Unique stage name (also used as the Verilog module/instance name).
    is_input:
        ``True`` for stages fed from off-chip memory (no on-chip producer).
    is_output:
        ``True`` for stages whose result is streamed back off-chip.
    expression:
        Optional DSL expression AST (``repro.dsl.ast.Expr``) describing the
        arithmetic.  The scheduler does not need it; the functional simulator
        and RTL generator do.
    virtual_of:
        Name of the physical stage this stage was split from by the
        line-coalescing rewrite (Sec. 6); ``None`` for physical stages.
    metadata:
        Free-form annotations (e.g. per-stage memory configuration chosen by
        the DSE driver).
    """

    name: str
    is_input: bool = False
    is_output: bool = False
    expression: Any | None = None
    virtual_of: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def is_virtual(self) -> bool:
        return self.virtual_of is not None

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "input" if self.is_input else "output" if self.is_output else "stage"
        return f"Stage({self.name!r}, {kind})"


@dataclass(frozen=True)
class Edge:
    """A producer -> consumer dependency annotated with the read stencil."""

    producer: str
    consumer: str
    window: StencilWindow

    @property
    def stencil_height(self) -> int:
        """SH of this edge: rows of the producer image the consumer reads."""
        return self.window.height

    @property
    def stencil_width(self) -> int:
        return self.window.width

    @property
    def temporal_depth(self) -> int:
        """Past frames of the producer this consumer reaches back (0 = spatial)."""
        return self.window.temporal_depth

    @property
    def is_temporal(self) -> bool:
        return self.window.is_temporal


class PipelineDAG:
    """Directed acyclic graph of pipeline stages.

    The class enforces acyclicity lazily (via :func:`repro.ir.validate.validate_dag`)
    so that construction can proceed incrementally; most consumers call
    :meth:`validated` once the graph is complete.
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self._stages: dict[str, Stage] = {}
        self._edges: list[Edge] = []
        self._out_edges: dict[str, list[Edge]] = {}
        self._in_edges: dict[str, list[Edge]] = {}

    # ------------------------------------------------------------------ build
    def add_stage(self, stage: Stage) -> Stage:
        if stage.name in self._stages:
            raise GraphError(f"Duplicate stage name: {stage.name!r}")
        self._stages[stage.name] = stage
        self._out_edges[stage.name] = []
        self._in_edges[stage.name] = []
        return stage

    def add_edge(self, producer: str, consumer: str, window: StencilWindow) -> Edge:
        if producer not in self._stages:
            raise GraphError(f"Unknown producer stage {producer!r}")
        if consumer not in self._stages:
            raise GraphError(f"Unknown consumer stage {consumer!r}")
        if producer == consumer:
            raise GraphError(f"Self edge on stage {producer!r}")
        for existing in self._out_edges[producer]:
            if existing.consumer == consumer:
                raise GraphError(
                    f"Duplicate edge {producer!r} -> {consumer!r}; "
                    "merge stencil windows before adding the edge"
                )
        edge = Edge(producer=producer, consumer=consumer, window=window)
        self._edges.append(edge)
        self._out_edges[producer].append(edge)
        self._in_edges[consumer].append(edge)
        return edge

    # ------------------------------------------------------------------ query
    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __len__(self) -> int:
        return len(self._stages)

    def stage(self, name: str) -> Stage:
        try:
            return self._stages[name]
        except KeyError:
            raise GraphError(f"Unknown stage {name!r}") from None

    def stages(self) -> list[Stage]:
        """All stages, in insertion order."""
        return list(self._stages.values())

    def stage_names(self) -> list[str]:
        return list(self._stages)

    def edges(self) -> list[Edge]:
        return list(self._edges)

    def edge(self, producer: str, consumer: str) -> Edge:
        for e in self._out_edges.get(producer, []):
            if e.consumer == consumer:
                return e
        raise GraphError(f"No edge {producer!r} -> {consumer!r}")

    def consumers_of(self, name: str) -> list[str]:
        """Names of stages that read the output of ``name`` (the set C_p)."""
        self.stage(name)
        return [e.consumer for e in self._out_edges[name]]

    def producers_of(self, name: str) -> list[str]:
        self.stage(name)
        return [e.producer for e in self._in_edges[name]]

    def out_edges(self, name: str) -> list[Edge]:
        self.stage(name)
        return list(self._out_edges[name])

    def in_edges(self, name: str) -> list[Edge]:
        self.stage(name)
        return list(self._in_edges[name])

    def input_stages(self) -> list[Stage]:
        return [s for s in self._stages.values() if s.is_input]

    def output_stages(self) -> list[Stage]:
        return [s for s in self._stages.values() if s.is_output]

    def multi_consumer_stages(self) -> list[str]:
        """Stages whose output is read by more than one consumer (MC stages, Table 3)."""
        return [name for name in self._stages if len(self._out_edges[name]) > 1]

    # ------------------------------------------------------------- temporal
    def is_temporal(self) -> bool:
        """True when any edge reads past frames (the pipeline needs frame buffers)."""
        return any(edge.window.is_temporal for edge in self._edges)

    def temporal_depth(self) -> int:
        """Deepest frame history any consumer needs (0 for single-frame pipelines)."""
        if not self._edges:
            return 0
        return max(edge.temporal_depth for edge in self._edges)

    def history_depth(self) -> int:
        """Frames of *input* history an output pixel may depend on.

        Temporal depth accumulates along paths: a stage reading its producer
        one frame back, whose producer itself reads the input one frame back,
        depends on input frames two back.  This is the window a per-frame
        replay must carry (the ``replay_frames_loop`` test oracle);
        contrast :meth:`temporal_depth`, the deepest *single edge*, which
        sizes the frame buffers.
        """
        from repro.ir.traversal import topological_order

        depth: dict[str, int] = {}
        for name in topological_order(self):
            incoming = self._in_edges[name]
            depth[name] = max(
                (depth[e.producer] + e.temporal_depth for e in incoming), default=0
            )
        return max(depth.values(), default=0)

    def frame_depths(self) -> dict[str, int]:
        """Per-producer frame-buffer depth: past frames its slowest consumer reads.

        Only producers with at least one temporal consumer edge appear; the
        allocator sizes one :class:`repro.memory.linebuffer.FrameBufferConfig`
        of ``depth x height x width`` pixels per entry.
        """
        depths: dict[str, int] = {}
        for edge in self._edges:
            if edge.temporal_depth > 0:
                depths[edge.producer] = max(depths.get(edge.producer, 0), edge.temporal_depth)
        return depths

    def is_single_consumer(self) -> bool:
        """True when every producer has at most one consumer (the ``-s`` algorithms)."""
        return not self.multi_consumer_stages()

    def iter_producer_consumer_pairs(self) -> Iterator[tuple[str, str, StencilWindow]]:
        for edge in self._edges:
            yield edge.producer, edge.consumer, edge.window

    # ------------------------------------------------------------ derivations
    def accessor_stages(self, producer: str) -> list[str]:
        """The set N_p: stages touching the line buffer of ``producer``.

        That is, the producer itself (its write port) plus every consumer.
        """
        return [producer, *self.consumers_of(producer)]

    def copy(self, name: str | None = None) -> "PipelineDAG":
        clone = PipelineDAG(name or self.name)
        for stage in self._stages.values():
            clone.add_stage(
                Stage(
                    name=stage.name,
                    is_input=stage.is_input,
                    is_output=stage.is_output,
                    expression=stage.expression,
                    virtual_of=stage.virtual_of,
                    metadata=dict(stage.metadata),
                )
            )
        for edge in self._edges:
            clone.add_edge(edge.producer, edge.consumer, edge.window)
        return clone

    def canonical_form(self) -> dict:
        """Canonical, order-independent serialization of the graph structure.

        Two DAGs that describe the same pipeline — same stages, same edges,
        same stencil windows, same stage arithmetic — produce the same
        canonical form regardless of the order in which stages and edges were
        added or the pipeline's display :attr:`name`.  This is the basis of
        the content-addressed compile cache
        (:mod:`repro.api.fingerprint`).

        Free-form :attr:`Stage.metadata` annotations are deliberately
        excluded: they do not influence scheduling, simulation or RTL
        generation.  Expressions are serialized through their stable ``str``
        form.

        Stencil windows serialize as the classic 4-element
        ``[min_dx, max_dx, min_dy, max_dy]`` list; edges with a temporal
        extent append ``min_dt, max_dt`` (6 elements).  Purely spatial
        pipelines therefore keep the exact canonical form — and the exact
        compile fingerprint — they had before the time axis existed.
        """
        stages = [
            {
                "name": stage.name,
                "is_input": stage.is_input,
                "is_output": stage.is_output,
                "virtual_of": stage.virtual_of,
                "expression": None if stage.expression is None else str(stage.expression),
            }
            for stage in sorted(self._stages.values(), key=lambda s: s.name)
        ]
        edges = [
            {
                "producer": edge.producer,
                "consumer": edge.consumer,
                "window": window_to_list(edge.window),
            }
            for edge in sorted(self._edges, key=lambda e: (e.producer, e.consumer))
        ]
        return {"stages": stages, "edges": edges}

    def validated(self) -> "PipelineDAG":
        """Run structural validation and return self (chaining helper)."""
        from repro.ir.validate import validate_dag

        validate_dag(self)
        return self

    def summary(self) -> str:
        """Human-readable one-line-per-stage description."""
        lines = [f"pipeline {self.name}: {len(self)} stages, {len(self._edges)} edges"]
        for stage in self._stages.values():
            consumers = ", ".join(
                f"{e.consumer}[{e.window}]" for e in self._out_edges[stage.name]
            )
            marker = "(input) " if stage.is_input else "(output) " if stage.is_output else ""
            lines.append(f"  {stage.name} {marker}-> {consumers or '(off-chip)'}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PipelineDAG({self.name!r}, stages={len(self)}, edges={len(self._edges)})"


def window_to_list(window: StencilWindow) -> list[int]:
    """Canonical list form of a stencil window.

    Spatial windows keep the historical 4-element
    ``[min_dx, max_dx, min_dy, max_dy]`` quadruple (so fingerprints and wire
    payloads of 2-D pipelines are byte-stable across the temporal-IR
    refactor); temporal windows append ``min_dt, max_dt``.
    """
    quad = [window.min_dx, window.max_dx, window.min_dy, window.max_dy]
    if window.is_temporal:
        return quad + [window.min_dt, window.max_dt]
    return quad


def window_from_list(values: "list[int] | tuple[int, ...]") -> StencilWindow:
    """Inverse of :func:`window_to_list`; accepts both 4- and 6-element forms."""
    if not isinstance(values, (list, tuple)) or len(values) not in (4, 6):
        raise GraphError(
            "Stencil window list must be [min_dx, max_dx, min_dy, max_dy] "
            "optionally followed by [min_dt, max_dt]"
        )
    return StencilWindow(*(int(v) for v in values))


def merge_parallel_edges(edges: Iterable[Edge]) -> dict[tuple[str, str], StencilWindow]:
    """Combine several reads of the same producer by the same consumer.

    The DSL front end produces one point-reference per mention of a producer;
    this helper unions them into the single rectangular window used on the edge.
    """
    merged: dict[tuple[str, str], StencilWindow] = {}
    for edge in edges:
        key = (edge.producer, edge.consumer)
        if key in merged:
            merged[key] = merged[key].union(edge.window)
        else:
            merged[key] = edge.window
    return merged
