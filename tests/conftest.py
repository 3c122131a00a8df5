"""Shared fixtures for the test suite.

Tests use deliberately small image sizes (width 32-64) so cycle-level
simulation stays fast; the scheduling math is width-generic, so nothing is
lost relative to 320p/1080p other than absolute KB numbers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.core.access import Accessor
from repro.core.constraints import pair_gap
from repro.dse.sweep import _design_target
from repro.dsl import ast
from repro.dsl.builder import PipelineBuilder, window_sum
from repro.ir.dag import PipelineDAG, Stage
from repro.ir.stencil import StencilWindow
from repro.memory.spec import asic_dual_port, asic_fifo, asic_single_port

TEST_WIDTH = 64
TEST_HEIGHT = 48


def harris_tie_target(width: int, height: int) -> CompileTarget:
    """harris-m's Fig. 10 variant that coalesces only ``gauss``.

    At 64x48 and 480x320 (not at 1920x1080) its two optima are mirror
    images (grad_x and grad_y start cycles swapped), so no least optimum
    exists, the flow kernel defers, and the scheduler solves the big-M
    model: a catalog target that still reaches HiGHS.
    """
    base = CompileTarget(build_algorithm("harris-m"), image_width=width, image_height=height)
    return _design_target(
        base, {"K0": "DP", "gauss": "DPLC", "products": "DP", "structure": "DP"}
    )


@pytest.fixture
def image_size() -> tuple[int, int]:
    return TEST_WIDTH, TEST_HEIGHT


@pytest.fixture
def dual_port_spec():
    return asic_dual_port()

@pytest.fixture
def single_port_spec():
    return asic_single_port()


@pytest.fixture
def fifo_spec():
    return asic_fifo()


def writer_gap(height: int, width: int) -> int:
    """The start gap the ILP imposes on a reader trailing its buffer's writer (Eq. 12)."""
    writer = Accessor(stage="p", stencil_height=1, is_writer=True)
    return pair_gap(Accessor(stage="c", stencil_height=height), writer, width, 1)


def build_chain(num_stages: int = 3, stencil: int = 3, name: str = "chain") -> PipelineDAG:
    """A single-consumer chain: K0 -> K1 -> ... with `stencil`x`stencil` windows."""
    builder = PipelineBuilder(name)
    handle = builder.input("K0")
    for index in range(1, num_stages):
        handle = builder.stage(f"K{index}", window_sum(handle, stencil, stencil))
    builder.dag.stage(handle.name).is_output = True
    return builder.dag.validated()


def build_paper_example() -> PipelineDAG:
    """The 3-stage example of the paper's Sec. 4 listing.

    K1 reads a 3x3 window of K0; K2 reads a 2x2 window of K0 and a 3x3 window
    of K1 (so K0 is a multi-consumer stage).
    """
    builder = PipelineBuilder("paper-example")
    k0 = builder.input("K0")
    k1 = builder.stage("K1", window_sum(k0, 3, 3))
    k2_expr = (
        k0(0, 0)
        + k0(1, 0)
        + k0(0, 1)
        + k0(1, 1)
        + window_sum(k1, 3, 3)
    )
    builder.output("K2", k2_expr)
    return builder.build()


def build_virtual_reader(virtual_of: str | None = "K1") -> PipelineDAG:
    """``build_chain(3)`` plus a stage that reads two lines of K0 on K1's
    behalf, as the paper's coalescing rewrite (Sec. 6) would split K1.  No
    compile makes such a stage; a wire-decoded DAG may carry one."""
    dag = build_chain(3)
    dag.add_stage(Stage("K1_v1", virtual_of=virtual_of))
    dag.add_edge("K0", "K1_v1", StencilWindow.from_extent(3, 2))
    dag.add_edge("K1_v1", "K2", StencilWindow.point())
    return dag.validated()


def build_two_consumer(stencil_a: int = 3, stencil_b: int = 3) -> PipelineDAG:
    """A producer read by two independent consumers merged at the output."""
    builder = PipelineBuilder("two-consumer")
    k0 = builder.input("K0")
    a = builder.stage("A", window_sum(k0, stencil_a, stencil_a))
    b = builder.stage("B", window_sum(k0, stencil_b, stencil_b))
    builder.output("OUT", a(0, 0) + b(0, 0))
    return builder.build()


@pytest.fixture
def chain_dag() -> PipelineDAG:
    return build_chain()


@pytest.fixture
def paper_example_dag() -> PipelineDAG:
    return build_paper_example()


@pytest.fixture
def two_consumer_dag() -> PipelineDAG:
    return build_two_consumer()


@pytest.fixture
def small_image() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 256, size=(TEST_HEIGHT, TEST_WIDTH)).astype(np.float64)


@pytest.fixture
def broken_worker_start(monkeypatch) -> dict:
    """Make every ``repro-compile`` worker thread fail to start; set
    ``["on"]`` to False to mend it."""
    real_start = threading.Thread.start
    broken = {"on": True}

    def start(thread):
        if broken["on"] and thread.name.startswith("repro-compile"):
            raise RuntimeError("can't start new thread")
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return broken


def record_connections(server) -> list:
    """Wrap a running server's ``process_request``; the returned list gets
    the client address of every connection the server accepts from now on."""
    accepted: list = []
    process_request = server.process_request

    def recording(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server.process_request = recording
    return accepted
