"""Unit tests for the Table-3 algorithm suite and the synthetic pipelines."""

import numpy as np
import pytest

from repro.algorithms import (
    ALGORITHM_NAMES,
    algorithm_names,
    build_algorithm,
    build_synthetic_pipeline,
    register_algorithm,
    table3,
    unregister_algorithm,
)
from repro.algorithms.catalog import algorithm_info
from repro.errors import DSLSemanticError, ReproError
from repro.sim.functional import run_functional

from tests.conftest import TEST_HEIGHT, TEST_WIDTH


class TestCatalog:
    def test_table3_matches_paper(self):
        expected = {
            "canny-s": (9, 0),
            "canny-m": (10, 1),
            "harris-s": (7, 0),
            "harris-m": (7, 1),
            "unsharp-m": (5, 1),
            "xcorr-m": (3, 1),
            "denoise-m": (5, 2),
        }
        rows = {row["algorithm"]: (row["stages"], row["multi_consumer_stages"]) for row in table3()}
        assert rows == expected

    def test_catalog_matches_expected_counts(self):
        for name in ALGORITHM_NAMES:
            info = algorithm_info(name)
            dag = info.build()
            assert len(dag) == info.expected_stages
            assert len(dag.multi_consumer_stages()) == info.expected_multi_consumer_stages

    def test_unknown_algorithm(self):
        with pytest.raises(ReproError):
            build_algorithm("sift")

    def test_single_consumer_variants_are_single_consumer(self):
        assert build_algorithm("canny-s").is_single_consumer()
        assert build_algorithm("harris-s").is_single_consumer()
        assert not build_algorithm("unsharp-m").is_single_consumer()

    def test_all_dags_validate_and_have_io(self):
        for name in ALGORITHM_NAMES:
            dag = build_algorithm(name)
            assert dag.input_stages()
            assert dag.output_stages()

    def test_xcorr_has_tall_stencil(self):
        dag = build_algorithm("xcorr-m")
        heights = [edge.window.height for edge in dag.edges()]
        assert max(heights) == 18


class TestRegistration:
    def test_register_and_build_custom_pipeline(self):
        from tests.conftest import build_two_consumer

        register_algorithm("custom-two-consumer", "registration test", build_two_consumer)
        try:
            info = algorithm_info("custom-two-consumer")
            assert info.expected_stages == 4
            assert info.expected_multi_consumer_stages == 1
            dag = build_algorithm("custom-two-consumer")
            assert len(dag) == info.expected_stages
            assert "custom-two-consumer" in algorithm_names()
        finally:
            unregister_algorithm("custom-two-consumer")
        assert "custom-two-consumer" not in algorithm_names()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ReproError):
            register_algorithm("unsharp-m", "collides with a built-in", lambda: None)

    def test_duplicate_custom_name_rejected_without_replace(self):
        from tests.conftest import build_chain, build_two_consumer

        register_algorithm("custom-dup", "first", build_chain)
        try:
            with pytest.raises(ReproError, match="replace=True"):
                register_algorithm("custom-dup", "second", build_two_consumer)
            assert algorithm_info("custom-dup").description == "first"
        finally:
            unregister_algorithm("custom-dup")

    def test_replace_allows_replacement(self):
        from tests.conftest import build_chain, build_two_consumer

        register_algorithm("custom-ovw", "first", build_chain)
        try:
            register_algorithm("custom-ovw", "second", build_two_consumer, replace=True)
            assert algorithm_info("custom-ovw").description == "second"
        finally:
            unregister_algorithm("custom-ovw")

    def test_registration_does_not_change_table3(self):
        from tests.conftest import build_chain

        before = table3()
        register_algorithm("custom-t3", "must not appear in Table 3", build_chain)
        try:
            assert table3() == before
        finally:
            unregister_algorithm("custom-t3")

    def test_unregister_unknown_name(self):
        with pytest.raises(ReproError):
            unregister_algorithm("never-registered")

    def test_builtin_suite_cannot_be_unregistered(self):
        with pytest.raises(ReproError, match="built-in"):
            unregister_algorithm("unsharp-m")
        assert "unsharp-m" in algorithm_names()


class TestTemporalSuite:
    def test_temporal_algorithms_resolvable_but_not_in_table3(self):
        from repro.algorithms import TEMPORAL_ALGORITHM_NAMES

        table3_names = {row["algorithm"] for row in table3()}
        for name in TEMPORAL_ALGORITHM_NAMES:
            assert name in algorithm_names()
            assert name not in ALGORITHM_NAMES
            assert name not in table3_names
            dag = build_algorithm(name)
            assert dag.is_temporal()
            info = algorithm_info(name)
            assert len(dag) == info.expected_stages
            assert len(dag.multi_consumer_stages()) == info.expected_multi_consumer_stages


class TestFunctionalBehaviour:
    @pytest.fixture
    def image(self):
        rng = np.random.default_rng(11)
        return rng.integers(0, 256, size=(TEST_HEIGHT, TEST_WIDTH)).astype(np.float64)

    def test_all_algorithms_execute(self, image):
        for name in ALGORITHM_NAMES:
            result = run_functional(build_algorithm(name), image)
            output = result.output()
            assert output.shape == image.shape
            assert np.all(np.isfinite(output))

    def test_unsharp_increases_contrast(self, image):
        result = run_functional(build_algorithm("unsharp-m"), image)
        output = result.output()
        assert output.std() >= image.std() * 0.9

    def test_canny_output_is_binary(self, image):
        result = run_functional(build_algorithm("canny-m"), image)
        assert set(np.unique(result.output())) <= {0.0, 255.0}

    def test_denoise_on_flat_image_is_flat(self):
        flat = np.full((TEST_HEIGHT, TEST_WIDTH), 100.0)
        result = run_functional(build_algorithm("denoise-m"), flat)
        np.testing.assert_allclose(result.output(), 100.0)


class TestSyntheticPipelines:
    def test_exact_stage_count(self):
        for count in (9, 12, 20, 33, 60):
            dag = build_synthetic_pipeline(count)
            assert len(dag) == count

    def test_multi_consumer_fraction_reasonable(self):
        dag = build_synthetic_pipeline(30)
        fraction = len(dag.multi_consumer_stages()) / len(dag)
        assert 0.1 <= fraction <= 0.5

    def test_chain_mode(self):
        dag = build_synthetic_pipeline(10, multi_consumer_interval=0)
        assert dag.is_single_consumer()

    def test_too_small_rejected(self):
        with pytest.raises(DSLSemanticError):
            build_synthetic_pipeline(2)

    def test_synthetic_is_functional(self):
        dag = build_synthetic_pipeline(9)
        image = np.ones((16, 16))
        result = run_functional(dag, image)
        assert np.all(np.isfinite(result.output()))
