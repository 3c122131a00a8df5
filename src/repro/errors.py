"""Exception hierarchy shared by every subsystem of the ImaGen reproduction.

Keeping all exceptions in a single module lets callers catch broad classes
(``ReproError``) or precise failures (``InfeasibleError``) without importing
deep into implementation packages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class DSLError(ReproError):
    """Base class for front-end (DSL) errors."""


class DSLSyntaxError(DSLError):
    """The textual DSL could not be tokenized or parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class DSLSemanticError(DSLError):
    """The DSL program parsed but refers to undefined stages, rebinds names, etc."""


class GraphError(ReproError):
    """The pipeline DAG is malformed (cycles, dangling stages, bad stencils)."""


class ILPError(ReproError):
    """Base class for errors raised by the ILP substrate."""


class InfeasibleError(ILPError):
    """The (integer) program has no feasible solution."""


class UnboundedError(ILPError):
    """The (integer) program is unbounded."""


class SolverError(ILPError):
    """A backend failed for a reason other than infeasibility/unboundedness."""


class SchedulingError(ReproError):
    """The accelerator scheduler could not produce a legal pipeline schedule."""


class MemoryConfigError(ReproError):
    """The requested on-chip memory specification cannot implement the design."""


class AllocationError(MemoryConfigError):
    """Line-buffer lines could not be packed into the available memory blocks."""


class SimulationError(ReproError):
    """The cycle-level or functional simulator detected an illegal condition."""


class ContentionError(SimulationError):
    """A memory block received more accesses in one cycle than it has ports (R3)."""


class CausalityError(SimulationError):
    """A consumer read a pixel before its producer wrote it (R1)."""


class EvictionError(SimulationError):
    """A pixel still needed by a consumer was overwritten in a line buffer (R2)."""


class RTLError(ReproError):
    """Verilog generation or structural linting failed."""


class BaselineError(ReproError):
    """A baseline generator (Darkroom / SODA / FixyNN) cannot handle the input."""
