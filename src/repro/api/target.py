"""The unified compile request object: :class:`CompileTarget`.

A :class:`CompileTarget` is one fully-specified design point — pipeline graph,
image resolution, on-chip memory structure, scheduler options, and the design
generator ("imagen" for the ILP optimizer, or a baseline name such as
"darkroom"/"soda"/"fixynn").  Every layer of the library consumes and produces
targets: :func:`repro.core.compile_pipeline` compiles one (a baseline one
too, from :meth:`with_generator`), :meth:`repro.service.CompileEngine.submit`
serves one, and the DSE sweep enumerates :meth:`with_options` derivations of
one.

Targets are immutable: every ``with_*`` method returns a new target, so a base
target can be shared and derived freely (the per-stage DSE sweep derives all
``2^k`` configurations from one base).  Construction resolves the library
defaults — dual-port ASIC SRAM, default :class:`SchedulerOptions` — and takes
a private copy of the options, so the caller's objects are never mutated and
never leak mutations into the target.

The ``label`` is carried for tracing/metrics only; it does not participate in
the content fingerprint, so differently-labelled but otherwise identical
targets share cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dc_field
from dataclasses import replace as dc_replace
from typing import Any

from repro.core.scheduler import SchedulerOptions
from repro.ir.dag import PipelineDAG
from repro.memory.spec import MemorySpec, asic_dual_port

#: Generator name of the ImaGen ILP optimizer (the library's own compiler).
IMAGEN_GENERATOR = "imagen"


def require_target(value: Any) -> "CompileTarget":
    """Return ``value`` if it is a :class:`CompileTarget`; raise ``TypeError`` otherwise."""
    if isinstance(value, CompileTarget):
        return value
    raise TypeError(f"Expected a CompileTarget, got {type(value).__name__}")


@dataclass(frozen=True, eq=False)
class CompileTarget:
    """One immutable design point: what to compile, at what size, onto what.

    ``==`` and ``hash`` are object identity (targets hold a DAG and an
    options dict, neither of which compares by value); the *content* identity
    of a target is its :attr:`fingerprint` — two targets describing the same
    design point always share one, however they were constructed.

    The target snapshots the pipeline by reference: treat a DAG as frozen
    once it is wrapped in a target.  Mutating it afterwards (``add_stage`` /
    ``add_edge``) is unsupported — the memoized fingerprint, and any cache
    entries keyed on it, would describe the pre-mutation pipeline.  Build a
    new DAG (or a new target from it) instead.

    Attributes
    ----------
    dag:
        The pipeline, from :func:`repro.dsl.parse_pipeline`,
        :class:`repro.dsl.PipelineBuilder`, or
        :func:`repro.algorithms.build_algorithm`.
    image_width, image_height:
        Input image resolution (e.g. 480x320 or 1920x1080).
    memory_spec:
        The on-chip memory structure available; ``None`` resolves to dual-port
        ASIC SRAM macros (:func:`repro.memory.spec.asic_dual_port`).
    options:
        Scheduler knobs; ``None`` resolves to default
        :class:`SchedulerOptions`.  The target stores a private copy.
    generator:
        ``"imagen"`` (default) runs the ILP optimizer; a baseline name
        (``"darkroom"``, ``"soda"``, ``"fixynn"``) runs that comparison
        generator instead.  Baselines ignore ``options``.
    label:
        Free-form tag used in traces and error messages; not fingerprinted.
    metadata:
        Free-form caller annotations carried alongside the target (e.g. sweep
        ids for correlating batch results); not fingerprinted.
    """

    dag: PipelineDAG
    image_width: int
    image_height: int
    memory_spec: MemorySpec | None = None
    options: SchedulerOptions | None = None
    generator: str = IMAGEN_GENERATOR
    label: str = ""
    metadata: dict[str, Any] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.generator, str) or not self.generator:
            raise TypeError(f"generator must be a non-empty string, got {self.generator!r}")
        # Resolve defaults and isolate mutable state on construction; frozen
        # dataclasses require object.__setattr__ for this one-time fixup.
        if self.memory_spec is None:
            object.__setattr__(self, "memory_spec", asic_dual_port())
        options = self.options or SchedulerOptions()
        options = dc_replace(
            options, per_stage_coalescing=dict(options.per_stage_coalescing)
        )
        object.__setattr__(self, "options", options)
        object.__setattr__(self, "metadata", dict(self.metadata))

    # ------------------------------------------------------------ derivations
    def with_options(self, **changes: Any) -> "CompileTarget":
        """A new target with the given :class:`SchedulerOptions` fields replaced.

        ``target.with_options(coalescing=True)`` is the canonical way to ask
        for the +LC design; the DSE sweep derives every per-stage
        configuration this way.  Unknown field names raise ``TypeError``.
        """
        return dc_replace(self, options=dc_replace(self.options, **changes))

    def with_resolution(self, image_width: int, image_height: int) -> "CompileTarget":
        """The same design point at a different image resolution."""
        return dc_replace(self, image_width=image_width, image_height=image_height)

    def with_memory_spec(self, memory_spec: MemorySpec) -> "CompileTarget":
        """The same design point on a different on-chip memory structure."""
        return dc_replace(self, memory_spec=memory_spec)

    def with_generator(self, generator: str) -> "CompileTarget":
        """The same design point produced by a different generator."""
        return dc_replace(self, generator=generator)

    def with_label(self, label: str) -> "CompileTarget":
        """The same target, relabelled for traces (fingerprint unchanged)."""
        return dc_replace(self, label=label)

    # --------------------------------------------------------------- transport
    def to_wire(self) -> dict:
        """JSON-serializable wire form of this target.

        Delegates to :func:`repro.service.wire.target_to_wire`; the result
        round-trips through :meth:`from_wire` with the same content
        fingerprint, which is what lets remote HTTP clients share cache
        entries with in-process callers.
        """
        from repro.service.wire import target_to_wire

        return target_to_wire(self)

    @classmethod
    def from_wire(cls, payload: dict) -> "CompileTarget":
        """Rebuild a target from :meth:`to_wire` output.

        Raises :class:`repro.service.wire.WireFormatError` on malformed
        payloads.
        """
        from repro.service.wire import target_from_wire

        return target_from_wire(payload)

    # ------------------------------------------------------------- inspection
    @property
    def is_imagen(self) -> bool:
        return self.generator == IMAGEN_GENERATOR

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.image_width, self.image_height)

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of this target (see :mod:`repro.api.fingerprint`).

        Computed once per instance (immutability makes that safe): the cache,
        the engine's dedup table and the compile metadata all key on it, so
        memoizing halves the hashing work of a large batch.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            from repro.api.fingerprint import compile_fingerprint

            cached = compile_fingerprint(self)
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @property
    def display_label(self) -> str:
        return self.label or self.dag.name

    def describe(self) -> str:
        return (
            f"CompileTarget({self.display_label}: {len(self.dag)} stages @ "
            f"{self.image_width}x{self.image_height}, {self.memory_spec.name}, "
            f"generator={self.generator})"
        )
