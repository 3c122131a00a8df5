"""The name of the backend that solves the big-M model.

HiGHS (:mod:`repro.ilp.highs`) is the only one: the scheduler hands it the
systems the min-cost-flow kernel (:mod:`repro.core.flow`) defers.
"""

from __future__ import annotations


def resolve_backend(backend: str = "auto") -> str:
    """``"highs"``, whatever ``backend`` asks for: there is no other."""
    return "highs"
