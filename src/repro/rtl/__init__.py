"""Synthesizable Verilog generation, structural linting and RTL simulation."""

from repro.rtl.generator import generate_verilog, VerilogDesign
from repro.rtl.lint import lint_verilog, LintReport
from repro.rtl.sim import (
    ElaboratedDesign,
    RTLSimResult,
    elaborate_design,
    measure_performance,
    rtl_replay,
    simulate_design,
)

__all__ = [
    "generate_verilog",
    "VerilogDesign",
    "lint_verilog",
    "LintReport",
    "ElaboratedDesign",
    "RTLSimResult",
    "elaborate_design",
    "measure_performance",
    "rtl_replay",
    "simulate_design",
]
