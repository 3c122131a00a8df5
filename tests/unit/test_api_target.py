"""Unit tests for the unified CompileTarget request object."""

import pytest

from repro.api import CompileTarget, compile_fingerprint
from repro.core.scheduler import SchedulerOptions
from repro.memory.spec import asic_dual_port, asic_single_port

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


def _target(**kwargs) -> CompileTarget:
    kwargs.setdefault("dag", build_paper_example())
    kwargs.setdefault("image_width", W)
    kwargs.setdefault("image_height", H)
    return CompileTarget(**kwargs)


class TestConstruction:
    def test_defaults_resolved(self):
        target = _target()
        assert target.memory_spec.name == asic_dual_port().name
        assert isinstance(target.options, SchedulerOptions)
        assert target.generator == "imagen"
        assert target.is_imagen
        assert target.resolution == (W, H)

    def test_options_are_copied_from_caller(self):
        options = SchedulerOptions(per_stage_coalescing={"K0": True})
        target = _target(options=options)
        assert target.options is not options
        options.per_stage_coalescing["K1"] = True
        assert "K1" not in target.options.per_stage_coalescing

    def test_immutable(self):
        target = _target()
        with pytest.raises(AttributeError):
            target.image_width = 2 * W

    def test_generator_must_be_named(self):
        with pytest.raises(TypeError):
            _target(generator="")

    def test_describe_and_labels(self):
        target = _target(label="svc:req-1")
        assert target.display_label == "svc:req-1"
        assert "svc:req-1" in target.describe()
        assert _target().display_label == "paper-example"

    def test_hashable_by_identity_fingerprint_by_content(self):
        a, b = _target(), _target()
        assert len({a, b}) == 2  # identity hash/eq: usable in sets and dicts
        assert {a: 1}[a] == 1
        assert a != b
        assert a.fingerprint == b.fingerprint  # content identity

    def test_fingerprint_memoized_per_instance(self):
        target = _target()
        assert target.fingerprint is target.fingerprint  # same str object back


class TestDerivations:
    def test_with_options_returns_new_target(self):
        base = _target()
        derived = base.with_options(coalescing=True, coalescing_policy="all")
        assert base.options.coalescing is False
        assert derived.options.coalescing is True
        assert derived.options.coalescing_policy == "all"
        assert derived.dag is base.dag

    def test_with_options_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            _target().with_options(not_a_knob=True)

    def test_with_resolution_and_spec_and_generator(self):
        base = _target()
        assert base.with_resolution(1920, 1080).resolution == (1920, 1080)
        assert base.with_memory_spec(asic_single_port()).memory_spec.ports == 1
        assert base.with_generator("soda").generator == "soda"
        # The base target is untouched by any derivation.
        assert base.resolution == (W, H)
        assert base.memory_spec.ports == 2
        assert base.is_imagen

    def test_with_label_does_not_change_fingerprint(self):
        base = _target()
        assert base.with_label("other").fingerprint == base.fingerprint


class TestFingerprint:
    def test_matches_module_function(self):
        target = _target()
        assert target.fingerprint == compile_fingerprint(target)
        with pytest.raises(TypeError, match="Expected a CompileTarget"):
            compile_fingerprint(target.dag)

    def test_generator_aware(self):
        base = _target()
        assert base.with_generator("darkroom").fingerprint != base.fingerprint
        assert (
            base.with_generator("darkroom").fingerprint
            != base.with_generator("soda").fingerprint
        )

    def test_baseline_fingerprint_ignores_scheduler_options(self):
        base = _target(generator="fixynn")
        assert base.with_options(pruning=False).fingerprint == base.fingerprint
        # ...while the optimizer's fingerprint does depend on them.
        ours = _target()
        assert ours.with_options(pruning=False).fingerprint != ours.fingerprint

    def test_derivations_change_fingerprint(self):
        base = _target(dag=build_chain(3))
        assert base.with_resolution(2 * W, H).fingerprint != base.fingerprint
        assert base.with_memory_spec(asic_single_port()).fingerprint != base.fingerprint
        assert base.with_options(coalescing=True).fingerprint != base.fingerprint
