"""The ILP model object: variables, constraints, objective, and solutions."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ILPError
from repro.ilp.expr import LinExpr, Variable


class SolveStatus(enum.Enum):
    """Terminal status of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


def time_limit_message(limit: float, gap: float | None) -> str:
    """Why a solve stopped at its time limit, with the relative gap left
    between the incumbent and the best bound (``None``: no incumbent)."""
    if gap is None or not math.isfinite(gap):
        return f"time limit of {limit:g} s reached with no feasible solution"
    return f"time limit of {limit:g} s reached at a {gap:.1%} gap"


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalised form.

    Normalised form keeps all variable terms on the left and folds all
    constants into ``rhs`` so that backends translate it mechanically:
    ``sum(coeffs) sense rhs``.
    """

    expr: LinExpr
    sense: str  # '<=', '>=', '=='
    rhs: float
    name: str = ""

    @staticmethod
    def from_comparison(lhs: LinExpr, sense: str, rhs: LinExpr) -> "Constraint":
        if sense not in ("<=", ">=", "=="):
            raise ILPError(f"Unsupported constraint sense {sense!r}")
        diff = lhs - rhs
        constant = diff.constant
        diff = LinExpr(diff.coeffs, 0.0)
        return Constraint(expr=diff, sense=sense, rhs=-constant)

    def named(self, name: str) -> "Constraint":
        return Constraint(self.expr, self.sense, self.rhs, name)

    def satisfied_by(self, values: Mapping[Variable, float], tol: float = 1e-6) -> bool:
        value = self.expr.evaluate(values)
        if self.sense == "<=":
            return value <= self.rhs + tol
        if self.sense == ">=":
            return value >= self.rhs - tol
        return abs(value - self.rhs) <= tol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{self.expr!r} {self.sense} {self.rhs:g}"


@dataclass
class SolveResult:
    """Outcome of solving a model."""

    status: SolveStatus
    objective: float | None = None
    values: dict[Variable, float] = field(default_factory=dict)
    backend: str = ""
    iterations: int = 0
    message: str = ""
    #: Branch-and-bound nodes whose LP relaxation was solved (0 for backends
    #: that do not expose a node count).
    nodes: int = 0
    #: Nodes discarded by the incumbent bound without an LP solve.
    pruned: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def value(self, var: Variable) -> float:
        if var not in self.values:
            raise ILPError(f"No solution value for variable {var.name!r}")
        return self.values[var]


class Model:
    """A mixed-integer linear program.

    The model is solver-agnostic; see :func:`repro.ilp.solver.solve`.
    """

    def __init__(self, name: str = "model", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ILPError("Objective sense must be 'min' or 'max'")
        self.name = name
        self.sense = sense
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: set[str] = set()

    # -------------------------------------------------------------- building
    def add_var(
        self,
        name: str,
        *,
        lb: float | None = 0.0,
        ub: float | None = None,
        integer: bool = False,
    ) -> Variable:
        """Create a decision variable.  ``lb=None`` means unbounded below."""
        if name in self._names:
            raise ILPError(f"Duplicate variable name {name!r}")
        if lb is not None and ub is not None and lb > ub:
            raise ILPError(f"Variable {name!r} has lb {lb} > ub {ub}")
        var = Variable(name=name, lb=lb, ub=ub, integer=integer, index=len(self.variables))
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_integer_var(self, name: str, *, lb: float | None = 0.0, ub: float | None = None) -> Variable:
        return self.add_var(name, lb=lb, ub=ub, integer=True)

    def add_binary_var(self, name: str) -> Variable:
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise ILPError(
                "add_constraint expects a Constraint (build one with <=, >= or .eq())"
            )
        if name:
            constraint = constraint.named(name)
        for var in constraint.expr.variables():
            if var.index >= len(self.variables) or self.variables[var.index] is not var:
                raise ILPError(
                    f"Constraint {name or constraint!r} uses a variable not owned by this model"
                )
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expr: LinExpr | Variable, sense: str | None = None) -> None:
        if isinstance(expr, Variable):
            expr = expr + 0.0
        if not isinstance(expr, LinExpr):
            raise ILPError("Objective must be a linear expression")
        if sense is not None:
            if sense not in ("min", "max"):
                raise ILPError("Objective sense must be 'min' or 'max'")
            self.sense = sense
        self.objective = expr

    # --------------------------------------------------------------- queries
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for v in self.variables if v.integer)

    def is_feasible(self, values: Mapping[Variable, float], tol: float = 1e-6) -> bool:
        """Check a full assignment against bounds, integrality and constraints."""
        for var in self.variables:
            if var not in values:
                return False
            value = values[var]
            if var.lb is not None and value < var.lb - tol:
                return False
            if var.ub is not None and value > var.ub + tol:
                return False
            if var.integer and abs(value - round(value)) > tol:
                return False
        return all(c.satisfied_by(values, tol) for c in self.constraints)

    def objective_value(self, values: Mapping[Variable, float]) -> float:
        return self.objective.evaluate(values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"int={self.num_integer_variables}, cons={self.num_constraints})"
        )
