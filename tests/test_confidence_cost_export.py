"""Bootstrap confidence intervals."""

import numpy as np
import pytest

from repro.benchdata.records import ConvNetFeatures
from repro.core.confidence import (
    bootstrap_coefficients,
    bootstrap_prediction,
)
from repro.core.forward import ForwardModel
from tests.test_core_models import synthetic_dataset


class TestBootstrapCoefficients:
    def test_intervals_cover_planted_coefficients(self):
        # Planted law: c1=2e-12, c2=3e-11, c3=1e-11, c4=1e-3 (noiseless,
        # so intervals are tight around the truth).
        data = synthetic_dataset(n_models=8)
        intervals = {
            ci.name: ci for ci in bootstrap_coefficients(data, n_boot=50)
        }
        assert intervals["b*flops"].contains(2e-12)
        assert intervals["b*inputs"].contains(3e-11)
        assert intervals["b*outputs"].contains(1e-11)
        assert intervals["intercept"].contains(1e-3)

    def test_noiseless_intervals_are_tight(self):
        data = synthetic_dataset(n_models=8)
        for ci in bootstrap_coefficients(data, n_boot=50):
            assert ci.width < 0.2 * abs(ci.point) + 1e-12

    def test_noisy_campaign_intervals_widen(self, small_inference_data):
        intervals = bootstrap_coefficients(
            small_inference_data, n_boot=60, seed=1
        )
        flops_ci = next(c for c in intervals if c.name == "b*flops")
        assert flops_ci.lo < flops_ci.point < flops_ci.hi
        assert flops_ci.width > 0

    def test_too_few_records_rejected(self):
        from repro.benchdata.records import Dataset

        with pytest.raises(ValueError, match="at least 8"):
            bootstrap_coefficients(Dataset(list(synthetic_dataset())[:4]))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            bootstrap_coefficients(synthetic_dataset(), alpha=1.5)

    def test_deterministic_given_seed(self):
        data = synthetic_dataset(n_models=6)
        a = bootstrap_coefficients(data, n_boot=30, seed=9)
        b = bootstrap_coefficients(data, n_boot=30, seed=9)
        assert [(c.lo, c.hi) for c in a] == [(c.lo, c.hi) for c in b]


class TestBootstrapPrediction:
    def test_interval_brackets_point(self, small_inference_data):
        from repro.hardware.roofline import zoo_profile

        features = ConvNetFeatures.from_profile(zoo_profile("resnet50", 128))
        interval = bootstrap_prediction(
            small_inference_data, features, 64, n_boot=60, seed=2
        )
        assert interval.lo <= interval.point <= interval.hi
        assert interval.relative_width < 0.5

    def test_interpolation_tighter_than_extrapolation(
        self, small_inference_data
    ):
        from repro.hardware.roofline import zoo_profile

        features = ConvNetFeatures.from_profile(zoo_profile("resnet50", 128))
        inside = bootstrap_prediction(
            small_inference_data, features, 64, n_boot=60, seed=2
        )
        outside = bootstrap_prediction(
            small_inference_data, features, 8192, n_boot=60, seed=2
        )
        # Far extrapolation cannot be more certain than interpolation.
        assert outside.relative_width >= 0.5 * inside.relative_width
