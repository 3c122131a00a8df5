"""Unit tests for verification-as-a-service (VerifyEngine + POST /v1/verify)."""

import json
import threading
import time
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.algorithms import ALGORITHM_NAMES, build_algorithm
from repro.api import CompileTarget
from repro.baselines import BASELINE_NAMES
from repro.dsl import PipelineBuilder
from repro.dsl.builder import window_sum
from repro.dsl.parser import parse_pipeline
from repro.errors import SimulationError
from repro.rtl import generate_verilog, lint_verilog
from repro.service import (
    CompileEngine,
    QueueFullError,
    ServiceClient,
    ServiceError,
    VerifyEngine,
    VerifyRequest,
    start_server,
    verify_fingerprint,
    target_from_wire,
    target_to_wire,
    verify_request_from_wire,
    verify_request_to_wire,
    verify_result_to_wire,
)
from repro.service.wire import WireFormatError
from repro.sim.batch import replay_frames

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain

W, H = TEST_WIDTH, TEST_HEIGHT

ALL_GENERATORS = ("imagen",) + BASELINE_NAMES


@pytest.fixture
def engines(tmp_path):
    engine = CompileEngine(workers=2, cache_dir=tmp_path / "cache")
    verify = VerifyEngine(engine)
    yield engine, verify
    engine.shutdown()


def _target(name="unsharp-m", generator="imagen"):
    return CompileTarget(
        build_algorithm(name), image_width=W, image_height=H, generator=generator
    )


class TestGoldenRoundTrip:
    """Acceptance: every catalog algorithm, under every generator, replays
    bit-identically through the compiled DAG."""

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @pytest.mark.parametrize("generator", ALL_GENERATORS)
    def test_catalog_algorithm_verifies(self, engines, name, generator):
        _, verify = engines
        result = verify.submit(
            VerifyRequest(target=_target(name, generator), check="golden", frames=1)
        )
        assert result.ok
        assert result.passed, result.failure_summary()
        assert result.golden["max_abs_error"] == 0.0
        assert len(result.golden["digest"]) == 64

    def test_both_checks_pass_on_compiled_design(self, engines):
        _, verify = engines
        result = verify.submit(VerifyRequest(target=_target()))
        assert result.passed
        assert result.golden["passed"] is True
        assert result.cycle["passed"] is True
        assert result.cycle["method"] == "reserved-table"

    def test_generator_rewrites_share_the_reference_digest(self, engines):
        """Baseline rewrites (relays, linearization) must not change pixels."""
        _, verify = engines
        digests = set()
        for generator in ALL_GENERATORS:
            result = verify.submit(
                VerifyRequest(target=_target("harris-s", generator), check="golden")
            )
            assert result.passed
            digests.add(result.golden["digest"])
        assert len(digests) == 1

    def test_expected_digest_pins_the_verdict(self, engines):
        _, verify = engines
        first = verify.submit(VerifyRequest(target=_target(), check="golden"))
        pinned = verify.submit(
            VerifyRequest(
                target=_target(),
                check="golden",
                expected_digest=first.golden["digest"],
            )
        )
        assert pinned.passed
        wrong = verify.submit(
            VerifyRequest(target=_target(), check="golden", expected_digest="0" * 64)
        )
        assert wrong.ok
        assert not wrong.passed
        assert "digest mismatch" in wrong.failure_summary()

    @pytest.mark.parametrize("compiled_b_scale", [3.0, None])
    def test_every_output_stage_is_compared(self, engines, monkeypatch, compiled_b_scale):
        """A compiled DAG that miscomputes (``b = blur*3``) or drops its second
        output stage fails, though the first output stage matches."""
        engine, verify = engines
        submit = engine.submit

        def submit_with_compiled_dag(target):
            result = submit(target)
            accelerator = result.unwrap()
            schedule = replace(accelerator.schedule, dag=_two_outputs(compiled_b_scale))
            return replace(result, accelerator=replace(accelerator, schedule=schedule))

        monkeypatch.setattr(engine, "submit", submit_with_compiled_dag)
        target = CompileTarget(_two_outputs(2.0), image_width=W, image_height=H)
        result = verify.submit(VerifyRequest(target=target, check="golden"))
        assert result.ok
        assert result.passed is False
        assert result.golden["digest"] != result.golden["compiled_digest"]
        if compiled_b_scale is None:
            assert result.golden["max_abs_error"] is None
        else:
            assert result.golden["max_abs_error"] > 0
        json.dumps(verify_result_to_wire(result), allow_nan=False)


class TestGoldenReplayCount:
    """The golden check replays the compiled DAG apart from the reference
    only when the generator rewrote it."""

    @pytest.mark.parametrize("generator,replays", [("imagen", 1), ("darkroom", 2)])
    def test_wire_decoded_target_replays_once_unless_rewritten(
        self, monkeypatch, generator, replays
    ):
        import repro.service.verify as verify_module

        calls = []
        replay = verify_module.replay_frames

        def counting(dag, *args, **kwargs):
            calls.append(dag.name)
            return replay(dag, *args, **kwargs)

        monkeypatch.setattr(verify_module, "replay_frames", counting)
        target = _target(generator=generator)
        decoded = target_from_wire(json.loads(json.dumps(target_to_wire(target))))
        assert decoded.dag is not target.dag
        with CompileEngine(workers=1) as engine:
            local = VerifyEngine(engine).submit(VerifyRequest(target=target, check="golden"))
            calls.clear()
            # A fresh verdict memory; the compile is the engine's cached one,
            # whose DAG is the first target's object, as over HTTP.
            wire = VerifyEngine(engine).submit(VerifyRequest(target=decoded, check="golden"))
        assert wire.source == "verified"
        assert len(calls) == replays
        assert wire.passed and wire.golden == local.golden


def _two_outputs(b_scale: float | None):
    """Outputs ``a = blur*1`` and ``b = blur*b_scale`` (no ``b`` when ``None``)."""
    builder = PipelineBuilder("two-outputs")
    blur = builder.stage("blur", window_sum(builder.input("K0"), 3, 3))
    builder.output("a", blur(0, 0) * 1)
    if b_scale is not None:
        builder.output("b", blur(0, 0) * b_scale)
    return builder.build()


class TestNarrowFrames:
    """A buffer holding a whole line at a 7-pixel-wide frame: the allocator
    must size it as SRAM lines, not as a DFF chain the RTL cannot express."""

    @pytest.mark.parametrize("generator", ["imagen", "darkroom"])
    def test_line_deep_buffer_passes_every_check(self, generator):
        builder = PipelineBuilder("narrow")
        k0 = builder.input("K0")
        builder.output("S0", k0(0, -1) + k0(0, 0))
        target = CompileTarget(
            builder.build(), image_width=7, image_height=5, generator=generator
        )
        with CompileEngine(workers=1) as engine:
            buffer = engine.submit(target).unwrap().schedule.line_buffers["K0"]
            assert (buffer.style, buffer.lines) == ("sram", 2)
            verify = VerifyEngine(engine)
            for check in ("golden", "cycle", "rtl", "perf"):
                result = verify.submit(VerifyRequest(target=target, check=check))
                assert result.passed, (check, result.failure_summary())


class TestNonAsciiStageNames:
    """The DSL takes Unicode identifiers; the emitted Verilog keeps to
    Verilog-2001's ASCII ones, and names differing only in non-ASCII
    characters stay distinct modules."""

    PROGRAM = """
input K0;
K\u00f6 = im(x,y) (K0(x,y-1) + K0(x,y) + K0(x,y+1)) / 3 end
output K\u00e4 = im(x,y) K\u00f6(x-1,y) + K\u00f6(x+1,y) end
"""

    def test_program_lints_clean_and_passes_every_check(self):
        target = CompileTarget(
            parse_pipeline(self.PROGRAM, name="umlaut"), image_width=W, image_height=H
        )
        with CompileEngine(workers=1) as engine:
            source = generate_verilog(engine.submit(target).unwrap().schedule)
            assert source.isascii()
            report = lint_verilog(source)
            assert report.ok, report.errors
            assert {"stage_K_u00f6", "stage_K_u00e4"} <= set(report.modules)
            verify = VerifyEngine(engine)
            for check in ("golden", "cycle", "rtl", "perf"):
                result = verify.submit(VerifyRequest(target=target, check=check))
                assert result.passed, (check, result.failure_summary())


class TestVerifyCaching:
    def test_warm_verify_is_a_memory_hit(self, engines):
        _, verify = engines
        request = VerifyRequest(target=_target())
        cold = verify.submit(request)
        warm = verify.submit(request)
        assert cold.source == "verified"
        assert warm.source == "memory"
        assert warm.fingerprint == cold.fingerprint
        assert warm.passed == cold.passed

    def test_fresh_engine_hits_the_disk_tier(self, tmp_path):
        engine = CompileEngine(workers=2, cache_dir=tmp_path / "c")
        try:
            VerifyEngine(engine).submit(VerifyRequest(target=_target()))
        finally:
            engine.shutdown()
        engine2 = CompileEngine(workers=2, cache_dir=tmp_path / "c")
        try:
            warm = VerifyEngine(engine2).submit(VerifyRequest(target=_target()))
            assert warm.source == "disk"
        finally:
            engine2.shutdown()

    def test_fingerprint_depends_on_input_spec(self):
        base = VerifyRequest(target=_target())
        assert verify_fingerprint(base) == base.fingerprint
        assert base.fingerprint != VerifyRequest(target=_target(), frames=3).fingerprint
        assert base.fingerprint != VerifyRequest(target=_target(), seed=1).fingerprint
        assert base.fingerprint != VerifyRequest(target=_target(), check="cycle").fingerprint
        # strict changes delivery (raise vs report), not the computation:
        # strict and lax share one cached verdict.
        assert base.fingerprint == VerifyRequest(target=_target(), strict=True).fingerprint

    def test_concurrent_identical_requests_deduplicate(self, engines):
        _, verify = engines
        request = VerifyRequest(target=_target("canny-s"))
        results = [None] * 4
        def run(index):
            results[index] = verify.submit(request)
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sources = sorted(result.source for result in results)
        assert sources.count("verified") == 1
        assert all(result.passed for result in results)
        assert verify.stats()["deduplicated"] + verify.stats()["served_from_memory"] == 3

    def test_request_that_missed_as_its_twin_settled_reads_the_verdict(self):
        """A request whose cache lookup missed, and that reaches the
        in-flight table only after an identical request was remembered and
        forgotten, is served that verdict instead of verifying again."""
        with CompileEngine(workers=1) as engine:
            verify = VerifyEngine(engine)
            request = VerifyRequest(target=_target(), check="cycle")
            missed, release = threading.Event(), threading.Event()
            lookup = verify._lookup

            def held_lookup(fingerprint):
                found = lookup(fingerprint)
                if not missed.is_set():  # only the first caller waits
                    missed.set()
                    release.wait(10)
                return found

            verify._lookup = held_lookup
            second = {}
            thread = threading.Thread(
                target=lambda: second.update(result=verify.submit(request))
            )
            thread.start()
            assert missed.wait(10)
            first = verify.submit(request)  # its verdict is remembered on return
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert first.source == "verified"
        assert second["result"].source == "memory"
        assert second["result"].passed
        assert verify.stats()["verified"] == 1

    def test_request_that_missed_memory_as_its_twin_was_saved_reads_memory(
        self, engines
    ):
        """A request whose memory lookup missed, and whose disk lookup runs
        after an identical request in this process stored and saved its
        verdict, reports the memory tier, not the disk."""
        engine, verify = engines
        request = VerifyRequest(target=_target(), check="cycle")
        store = engine.cache.store
        load, missed, release = store.load, threading.Event(), threading.Event()

        def held_load(fingerprint):
            if not missed.is_set():  # only the first caller waits
                missed.set()
                release.wait(10)
            return load(fingerprint)

        store.load = held_load
        second = {}
        thread = threading.Thread(
            target=lambda: second.update(result=verify.submit(request))
        )
        thread.start()
        assert missed.wait(10)
        first = verify.submit(request)  # stored in memory, then saved to disk
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        assert first.source == "verified"
        assert second["result"].source == "memory"
        assert verify.stats()["verified"] == 1


class TestVerifyExecutor:
    def test_verify_bodies_run_on_the_engines_pool(self, engines):
        engine, verify = engines
        assert verify._queue is engine._queue
        seen = []
        original = verify._execute

        def tracking(request, fingerprint):
            seen.append(threading.current_thread().name)
            return original(request, fingerprint)

        verify._execute = tracking
        result = verify.submit(VerifyRequest(target=_target(), check="cycle"))
        assert result.ok and result.passed
        assert len(seen) == 1 and seen[0].startswith("repro-compile")

    def test_pooled_verdict_matches_a_direct_replay(self, engines):
        _, verify = engines
        request = VerifyRequest(target=_target(), check="golden", frames=1)
        pooled = verify.submit(request)
        direct = replay_frames(
            request.target.dag, W, H, frames=request.frames, seed=request.seed
        )
        assert pooled.source == "verified" and pooled.passed
        assert pooled.golden["digest"] == direct.digest


class TestVerifyAdmission:
    def test_bounded_queue_sheds_with_retry_after(self, tmp_path):
        engine = CompileEngine(workers=1, max_pending=1)
        verify = VerifyEngine(engine)
        release = threading.Event()
        started = threading.Event()

        # Hold the one worker with a stalled verify body.
        original = verify._execute
        def stalled(request, fingerprint):
            started.set()
            release.wait(30)
            return original(request, fingerprint)
        verify._execute = stalled
        try:
            hog = threading.Thread(
                target=verify.submit, args=(VerifyRequest(target=_target()),)
            )
            hog.start()
            assert started.wait(10)
            # Worker busy; one more fills the queue, a third is shed.
            t2 = threading.Thread(
                target=lambda: _swallow(
                    verify, VerifyRequest(target=_target("canny-s"))
                )
            )
            t2.start()
            deadline = 50
            while engine.admission_stats()["queue_depth"] < 1 and deadline:
                deadline -= 1
                threading.Event().wait(0.1)
            with pytest.raises(QueueFullError) as info:
                verify.submit(VerifyRequest(target=_target("harris-s")), client="x")
            assert info.value.retry_after >= 0
            assert verify.stats()["rejected"] == 1
        finally:
            release.set()
            hog.join()
            t2.join()
            engine.shutdown()

    def test_compiles_and_verifies_share_one_bound(self):
        """A batch compile waiting on the engine's queue fills the one slot
        of the bound, so a verify submit is shed: both engines queue on one
        ``JobQueue``."""
        engine = CompileEngine(workers=1, max_pending=1)
        verify = VerifyEngine(engine)
        release, held = threading.Event(), threading.Event()
        hold = Future()
        hold.set_running_or_notify_cancel()
        engine._queue.submit(hold, lambda: held.set() or release.wait(30))
        batches = []
        batch = threading.Thread(
            target=lambda: batches.append(engine.submit_batch([_target()]))
        )
        try:
            assert held.wait(10)
            batch.start()
            deadline = time.monotonic() + 10
            while engine.admission_stats()["queue_depth"] < 1:
                assert time.monotonic() < deadline, "the batch never queued"
                time.sleep(0.01)
            with pytest.raises(QueueFullError):
                verify.submit(VerifyRequest(target=_target("canny-s")))
            assert verify.stats()["rejected"] == 1
        finally:
            release.set()
            if batch.is_alive():
                batch.join(30)
            engine.shutdown()
        assert batches[0].results[0].ok

    def test_strict_failure_raises_simulation_error(self, engines):
        _, verify = engines
        with pytest.raises(SimulationError):
            verify.submit(
                VerifyRequest(
                    target=_target(),
                    check="golden",
                    expected_digest="0" * 64,
                    strict=True,
                )
            )


    def test_cold_verify_on_a_one_worker_bounded_engine_completes(self):
        """The verify body holds the one worker, so its compile runs on that
        worker: queued behind it, the compile would never start."""
        engine = CompileEngine(workers=1, max_pending=2)
        request = VerifyRequest(target=_target(), check="cycle")
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(result=VerifyEngine(engine).submit(request)),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=10)
        engine.shutdown(wait=False, cancel_pending=True)  # frees a wedged worker
        assert not thread.is_alive(), "cold verify hung"
        assert outcome["result"].passed


def _swallow(verify, request):
    try:
        verify.submit(request)
    except Exception:
        pass


class TestVerifySpans:
    def test_spans_feed_the_engine_stage_histograms(self, engines):
        engine, verify = engines
        verify.submit(VerifyRequest(target=_target()))
        histograms = engine.metrics.stage_histograms()
        assert histograms["verify"]["count"] >= 1
        assert histograms["verify_golden"]["count"] >= 1
        assert histograms["verify_cycle"]["count"] >= 1

    def test_result_carries_span_tree(self, engines):
        _, verify = engines
        result = verify.submit(VerifyRequest(target=_target()))
        names = [span.name for span in result.spans]
        assert names == ["verify"]
        children = [span.name for span in result.spans[0].children]
        assert "verify_golden" in children
        assert "verify_cycle" in children

    def test_golden_check_traces_its_replays(self, engines):
        engine, verify = engines
        target = _target()
        result = verify.submit(VerifyRequest(target=target, check="golden", frames=2))
        (golden,) = [s for s in result.spans[0].children if s.name == "verify_golden"]
        replays = [s for s in golden.children if s.name == "replay"]
        assert replays
        assert all(s.attrs["frames"] == 2 for s in replays)
        assert replays[0].attrs["stages"] == len(target.dag.stage_names())
        assert engine.metrics.stage_histograms()["replay"]["count"] >= 1

    def test_rtl_check_replays_once_and_simulates_its_frames(self, engines):
        _, verify = engines
        result = verify.submit(VerifyRequest(target=_target(), check="rtl"))
        assert result.passed
        (rtl,) = [s for s in result.spans[0].children if s.name == "verify_rtl"]
        names = [span.name for span in rtl.walk()]
        assert names.count("replay") == 1
        assert names.count("rtl_sim") == 1

    def test_rtl_check_lints_once(self, engines):
        engine, verify = engines
        result = verify.submit(VerifyRequest(target=_target(), check="rtl"))
        (rtl,) = [s for s in result.spans[0].children if s.name == "verify_rtl"]
        (lint,) = [span for span in rtl.walk() if span.name == "lint"]
        assert lint.attrs["errors"] == 0
        assert lint.attrs["modules"] > lint.attrs["instances"] > 0
        assert engine.metrics.stage_histograms()["lint"]["count"] == 1


class TestVerifyWire:
    def test_request_round_trips(self):
        request = VerifyRequest(
            target=_target(), check="golden", frames=3, seed=9, tolerance=0.5,
            expected_digest="a" * 64, strict=True,
        )
        decoded = verify_request_from_wire(verify_request_to_wire(request))
        # Target equality is fingerprint equality (DAG objects differ after a
        # wire round trip); everything else must survive verbatim.
        assert decoded.fingerprint == request.fingerprint
        assert decoded.target.fingerprint == request.target.fingerprint
        assert (decoded.check, decoded.frames, decoded.seed) == ("golden", 3, 9)
        assert (decoded.tolerance, decoded.expected_digest, decoded.strict) == (
            0.5, "a" * 64, True,
        )

    def test_defaults_are_omitted_on_the_wire(self):
        payload = verify_request_to_wire(VerifyRequest(target=_target()))
        assert set(payload) == {"version", "target", "check"}

    def test_unknown_field_rejected(self):
        payload = verify_request_to_wire(VerifyRequest(target=_target()))
        payload["surprise"] = 1
        with pytest.raises(WireFormatError, match="surprise"):
            verify_request_from_wire(payload)

    def test_version_mismatch_rejected(self):
        payload = verify_request_to_wire(VerifyRequest(target=_target()))
        payload["version"] = 999
        with pytest.raises(WireFormatError, match="version"):
            verify_request_from_wire(payload)

    def test_bad_check_kind_rejected(self):
        payload = verify_request_to_wire(VerifyRequest(target=_target()))
        payload["check"] = "vibes"
        with pytest.raises(WireFormatError):
            verify_request_from_wire(payload)

    def test_result_to_wire_shape(self, engines):
        _, verify = engines
        result = verify.submit(VerifyRequest(target=_target()))
        body = verify_result_to_wire(result)
        assert body["ok"] is True
        assert body["passed"] is True
        assert body["check"] == "both"
        assert body["fingerprint"] == result.fingerprint
        assert body["compile_fingerprint"] == result.compile_fingerprint
        assert "spans" not in body
        assert "error" not in body
        traced = verify_result_to_wire(result, include_spans=True)
        assert traced["spans"]


class TestRtlPerfChecks:
    """The v2 check kinds: RTL simulation and performance verdicts."""

    def test_rtl_check_payload(self, engines):
        _, verify = engines
        result = verify.submit(VerifyRequest(target=_target(), check="rtl", frames=2))
        assert result.ok and result.passed is True
        assert result.golden is None and result.cycle is None and result.perf is None
        rtl = result.rtl
        assert rtl["passed"] is True
        assert rtl["rtl_digest"] == rtl["digest"]
        assert rtl["frames"] == 2
        assert rtl["cycles_per_frame"] > 0

    def test_perf_check_payload(self, engines):
        _, verify = engines
        result = verify.submit(VerifyRequest(target=_target(), check="perf"))
        assert result.ok and result.passed is True
        perf = result.perf
        assert perf["passed"] is True
        assert perf["cycles_per_frame"] <= perf["bound_cycles_per_frame"]
        assert perf["initiation_interval"] == W * H
        assert perf["generator"] == "imagen"

    def test_rtl_expected_digest_pins_the_verdict(self, engines):
        _, verify = engines
        result = verify.submit(
            VerifyRequest(target=_target(), check="rtl", expected_digest="0" * 64)
        )
        assert result.ok and result.passed is False
        assert result.rtl["expected_match"] is False
        assert "expected" in result.failure_summary()

    def test_rtl_verdicts_cache_without_resimulating(self, engines):
        _, verify = engines
        request = VerifyRequest(target=_target("canny-s"), check="rtl")
        cold = verify.submit(request)
        simulations = verify.stats()["rtl_simulations"]
        warm = verify.submit(request)
        assert cold.source == "verified"
        assert warm.source == "memory"
        assert warm.rtl == cold.rtl
        assert verify.stats()["rtl_simulations"] == simulations

    def test_concurrent_rtl_requests_deduplicate(self, engines):
        _, verify = engines
        request = VerifyRequest(target=_target("harris-s"), check="rtl")
        results = [None] * 3
        def run(index):
            results[index] = verify.submit(request)
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(r.source for r in results).count("verified") == 1
        assert all(r.passed for r in results)
        assert verify.stats()["rtl_simulations"] == 1

    def test_rtl_and_perf_spans_feed_histograms(self, engines):
        engine, verify = engines
        rtl = verify.submit(VerifyRequest(target=_target(), check="rtl"))
        perf = verify.submit(VerifyRequest(target=_target(), check="perf"))
        assert [s.name for child in rtl.spans for s in child.children].count("verify_rtl") == 1
        assert "verify_perf" in [s.name for child in perf.spans for s in child.children]
        histograms = engine.metrics.stage_histograms()
        assert histograms["verify_rtl"]["count"] >= 1
        assert histograms["verify_perf"]["count"] >= 1

    def test_counters_track_fresh_runs(self, engines):
        _, verify = engines
        verify.submit(VerifyRequest(target=_target(), check="rtl"))
        verify.submit(VerifyRequest(target=_target(), check="perf"))
        stats = verify.stats()
        assert stats["rtl_simulations"] == 1
        assert stats["perf_measurements"] == 1


class TestVerifyWireVersions:
    """Compat rules for the v2 verify-payload bump."""

    def test_v1_kinds_still_stamp_version_1(self):
        for check in ("golden", "cycle", "both"):
            payload = verify_request_to_wire(VerifyRequest(target=_target(), check=check))
            assert payload["version"] == 1
            assert verify_request_from_wire(payload).check == check

    def test_new_kinds_stamp_version_2(self):
        for check in ("rtl", "perf"):
            payload = verify_request_to_wire(VerifyRequest(target=_target(), check=check))
            assert payload["version"] == 2
            assert verify_request_from_wire(payload).check == check

    def test_future_version_rejected(self):
        payload = verify_request_to_wire(VerifyRequest(target=_target(), check="rtl"))
        payload["version"] = 3
        with pytest.raises(WireFormatError, match="version"):
            verify_request_from_wire(payload)

    def test_new_kind_below_its_version_floor_rejected(self):
        for check in ("rtl", "perf"):
            payload = verify_request_to_wire(VerifyRequest(target=_target(), check=check))
            payload["version"] = 1
            with pytest.raises(WireFormatError, match="needs verify payload version"):
                verify_request_from_wire(payload)

    def test_unknown_check_kind_rejected_at_both_versions(self):
        for version in (1, 2):
            payload = verify_request_to_wire(VerifyRequest(target=_target()))
            payload["version"] = version
            payload["check"] = "vibes"
            with pytest.raises(WireFormatError):
                verify_request_from_wire(payload)

    def test_strict_and_lax_share_fingerprints_for_new_kinds(self):
        for check in ("rtl", "perf"):
            lax = VerifyRequest(target=_target(), check=check)
            strict = VerifyRequest(target=_target(), check=check, strict=True)
            assert lax.fingerprint == strict.fingerprint
        assert (
            VerifyRequest(target=_target(), check="rtl").fingerprint
            != VerifyRequest(target=_target(), check="perf").fingerprint
        )

    def test_result_wire_carries_rtl_and_perf_sections(self, engines):
        _, verify = engines
        body = verify_result_to_wire(
            verify.submit(VerifyRequest(target=_target(), check="rtl"))
        )
        assert body["rtl"]["passed"] is True
        assert "golden" not in body and "perf" not in body
        body = verify_result_to_wire(
            verify.submit(VerifyRequest(target=_target(), check="perf"))
        )
        assert body["perf"]["passed"] is True
        assert "rtl" not in body


class TestVerifyHTTP:
    @pytest.fixture
    def service(self, tmp_path):
        engine = CompileEngine(workers=2, cache_dir=tmp_path / "cache")
        server = start_server(engine)
        with ServiceClient(port=server.port) as client:
            yield client, engine, server
        server.stop()
        engine.shutdown()

    def test_verify_round_trip(self, service):
        client, engine, server = service
        target = _target()
        remote = client.verify(target)
        assert remote["ok"] is True
        assert remote["passed"] is True
        in_process = server.verify_engine.submit(VerifyRequest(target=target))
        assert remote["fingerprint"] == in_process.fingerprint
        assert remote["compile_fingerprint"] == target.fingerprint

    def test_warm_verify_reports_cache_source(self, service):
        client, _, _ = service
        target = _target("canny-s")
        first = client.verify(target)
        second = client.verify(target)
        assert first["source"] == "verified"
        assert second["source"] in ("memory", "disk")

    def test_trace_flag_returns_spans(self, service):
        client, _, _ = service
        body = client.verify(_target("harris-s"), check="cycle", trace=True)
        assert body["spans"][0]["name"] == "verify"

    def test_strict_failure_is_typed_422(self, service):
        """Acceptance: a SimulationError surfaces as 422 verify-failed, not 500."""
        client, _, _ = service
        with pytest.raises(ServiceError) as info:
            client.verify(_target(), expected_digest="0" * 64, strict=True)
        assert info.value.status == 422
        assert info.value.body["reason"] == "verify-failed"
        assert "mismatch" in info.value.body["error"]

    def test_lax_failure_is_200_with_passed_false(self, service):
        client, _, _ = service
        body = client.verify(_target(), check="golden", expected_digest="0" * 64)
        assert body["ok"] is True
        assert body["passed"] is False

    def test_malformed_request_is_400(self, service):
        client, _, server = service
        import http.client, json

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/verify",
                body=json.dumps({"version": 1, "check": "golden"}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()

    def test_metrics_carry_verify_counters(self, service):
        client, _, _ = service
        client.verify(_target())
        metrics = client.metrics()
        assert metrics["verify_requests"] >= 1
        assert metrics["verify_passed"] >= 1
        exposition = client.metrics_prometheus()
        assert "repro_verify_requests_total" in exposition
        assert 'repro_stage_seconds_bucket{stage="verify"' in exposition

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_rtl_and_perf_verdicts_over_http_for_whole_catalog(self, service, name):
        """Acceptance: cached, deduped, traced rtl/perf verdicts per algorithm."""
        client, _, server = service
        target = _target(name)
        rtl = client.verify(target, check="rtl", trace=True)
        assert rtl["ok"] is True and rtl["passed"] is True
        assert rtl["rtl"]["passed"] is True
        spans = [child["name"] for child in rtl["spans"][0]["children"]]
        assert "verify_rtl" in spans
        warm = client.verify(target, check="rtl")
        assert warm["source"] in ("memory", "disk")
        assert warm["rtl"] == rtl["rtl"]
        perf = client.verify(target, check="perf", trace=True)
        assert perf["ok"] is True and perf["passed"] is True
        assert perf["perf"]["cycles_per_frame"] <= perf["perf"]["bound_cycles_per_frame"]
        assert "verify_perf" in [child["name"] for child in perf["spans"][0]["children"]]

    def test_http_rtl_metrics_and_dedup_counters(self, service):
        client, _, server = service
        target = _target("canny-s")
        client.verify(target, check="rtl")
        client.verify(target, check="rtl")
        metrics = client.metrics()
        assert metrics["verify_rtl_simulations"] == 1
        assert metrics["verify_served_from_memory"] >= 1
        exposition = client.metrics_prometheus()
        assert "repro_verify_rtl_simulations_total" in exposition
        assert "repro_verify_perf_measurements_total" in exposition
