"""Integration tests for the experiment drivers (smoke scale).

These exercise the full pipeline behind every paper figure and table at a
very small scale, checking structure and basic sanity rather than the final
accuracy numbers (which the benchmark harness reports at a larger scale).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    SCALE_SMOKE,
    dataset_for,
    model_for,
    run_column_order_ablation,
    run_fp32_training,
    run_periphery_ablation,
    run_precision_sweep,
    run_system_comparison,
    run_variation_study,
)
from repro.experiments.config import SCALE_FAST, SCALE_FULL, ExperimentScale


TINY = replace(SCALE_SMOKE, samples_per_class=12, epochs=2, fp32_epochs=2, variation_samples=2)


class TestConfig:
    def test_scales_are_ordered_by_cost(self):
        assert SCALE_SMOKE.samples_per_class < SCALE_FAST.samples_per_class
        assert SCALE_FAST.samples_per_class <= SCALE_FULL.samples_per_class
        assert SCALE_SMOKE.epochs <= SCALE_FAST.epochs <= SCALE_FULL.epochs

    def test_dataset_pairing_follows_paper(self):
        train, _ = dataset_for("lenet", TINY)
        assert train.sample_shape[0] == 1  # MNIST-like: single channel
        train, _ = dataset_for("vgg9", TINY)
        assert train.sample_shape[0] == 3  # CIFAR-like: three channels
        train, _ = dataset_for("resnet20", TINY)
        assert train.sample_shape[0] == 3

    def test_dataset_rejects_unknown_network(self):
        with pytest.raises(ValueError):
            dataset_for("alexnet", TINY)

    def test_model_factory_dispatch(self):
        for network in ("lenet", "vgg9", "resnet20", "mlp"):
            model = model_for(network, "acm", 4, TINY)
            assert model is not None
        with pytest.raises(ValueError):
            model_for("alexnet", "acm", 4, TINY)

    def test_experiment_scale_is_immutable(self):
        with pytest.raises(Exception):
            SCALE_SMOKE.epochs = 99  # frozen dataclass


class TestFig5Drivers:
    def test_fp32_training_structure(self):
        result = run_fp32_training("lenet", mappings=("baseline", "acm"), scale=TINY)
        assert set(result.histories) == {"baseline", "acm"}
        assert len(result.histories["acm"].test_error) == TINY.fp32_epochs
        errors = result.final_test_errors()
        assert all(0.0 <= value <= 100.0 for value in errors.values())
        assert len(result.as_rows()) == 2

    def test_precision_sweep_structure_linear(self):
        result = run_precision_sweep(
            "lenet", bits=(2, 4), mappings=("acm", "bc"), scale=TINY
        )
        assert result.bits == [2, 4]
        assert set(result.test_error) == {"acm", "bc"}
        assert len(result.test_error["acm"]) == 2
        assert not result.nonlinear_update
        assert len(result.as_rows()) == 2

    def test_precision_sweep_nonlinear_flag(self):
        result = run_precision_sweep(
            "lenet", bits=(4,), mappings=("acm",), nonlinear_update=True, scale=TINY
        )
        assert result.nonlinear_update
        assert "nonlinear" in result.as_rows()[0]

    def test_error_at_and_advantage_helpers(self):
        result = run_precision_sweep(
            "lenet", bits=(3,), mappings=("acm", "de", "bc"), scale=TINY
        )
        error = result.error_at("acm", 3)
        assert 0.0 <= error <= 100.0
        advantage = result.advantage_over_bc("acm")
        assert len(advantage) == 1
        assert advantage[0] == pytest.approx(result.test_error["bc"][0] - error)


class TestFig6Driver:
    def test_variation_study_structure(self):
        result = run_variation_study(
            "lenet",
            bits=(3,),
            sigmas=(0.0, 0.2),
            mappings=("acm", "bc"),
            scale=TINY,
        )
        assert result.bits == [3]
        assert result.sigmas == [0.0, 0.2]
        assert set(result.accuracy[3]) == {"acm", "bc"}
        for mapping in ("acm", "bc"):
            values = result.accuracy[3][mapping]
            assert len(values) == 2
            assert all(0.0 <= value <= 1.0 for value in values)
        assert result.best_mapping_at(3, 0.2) in ("acm", "bc")
        assert result.accuracy_at(3, "acm", 0.0) == result.accuracy[3]["acm"][0]
        assert len(result.as_rows()) == 2

    def test_process_pool_study_matches_sequential(self):
        kwargs = dict(network="mlp", bits=(4,), mappings=("acm", "de"),
                      sigmas=(0.0, 0.2), scale=SCALE_SMOKE, seed=3,
                      use_runtime=True)
        sequential = run_variation_study(**kwargs)
        parallel = run_variation_study(**kwargs, max_workers=2)
        assert parallel.accuracy == sequential.accuracy
        assert parallel.sigmas == sequential.sigmas
        for precision in sequential.bits:
            for mapping in ("acm", "de"):
                assert (parallel.sweeps[precision][mapping].samples
                        == sequential.sweeps[precision][mapping].samples)


class TestTable1Driver:
    def test_system_comparison_matches_report(self):
        report = run_system_comparison(training_samples=200)
        assert set(report.estimates) == {"bc", "de", "acm"}
        assert report.ratio("XBar Area (um^2)", "bc", "acm") == pytest.approx(1.0)
        assert report.ratio("XBar Area (um^2)", "de", "acm") > 1.5


class TestAblations:
    def test_periphery_ablation_structure(self):
        result = run_periphery_ablation(num_random=2, num_outputs=6, num_inputs=8, scale=TINY)
        assert "acm" in result.decomposition_error
        assert len(result.decomposition_error) == 3
        assert all(error < 1e-6 for error in result.decomposition_error.values())
        assert set(result.test_error) == {"acm", "de", "bc"}

    def test_column_order_ablation_structure(self):
        result = run_column_order_ablation(seeds=(1, 2), quantizer_bits=4, scale=TINY)
        assert len(result.test_error_per_seed) == 2
        assert result.spread >= 0.0
        assert 0.0 <= result.mean_error <= 100.0
