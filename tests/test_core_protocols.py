"""Evaluation protocols (leave-one-out, shared fit) and scalability tools."""

import numpy as np
import pytest

from repro.benchdata.records import ConvNetFeatures, Dataset, TimingRecord
from repro.core.blockwise import blockwise_evaluation
from repro.core.forward import ForwardModel
from repro.core.loo import leave_one_out, shared_fit_evaluation
from repro.core.regression import ExtrapolationWarning
from repro.core.scalability import (
    batch_scaling_curve,
    efficiency,
    node_scaling_curve,
    strong_scaling_curve,
    turning_point,
    ScalingPoint,
)
from repro.core.training import TrainingStepModel
from tests.test_core_models import synthetic_dataset


class TestLeaveOneOut:
    def test_per_model_keys(self):
        data = synthetic_dataset(n_models=4)
        result = leave_one_out(
            data, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        assert set(result.per_model) == {f"model{i}" for i in range(4)}

    def test_excludes_target_model_from_fit(self):
        """Poison one model's labels: its own errors stay small only if its
        records were truly excluded from its fit; the *other* models' fits
        must absorb the poison."""
        data = synthetic_dataset(n_models=4)
        poisoned = Dataset(
            [
                (
                    TimingRecord(
                        **{**r.to_dict(), "features": r.features,
                           "t_fwd": r.t_fwd * 100.0}
                    )
                    if r.model == "model0"
                    else r
                )
                for r in data
            ]
        )
        result = leave_one_out(
            poisoned, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        # model0's predictor never saw the poisoned rows: it predicts the
        # clean law, missing the 100x-inflated measurements by ~99% MAPE.
        assert result.per_model["model0"].mape > 0.9
        # The other models' predictors ingested the poison, so their errors
        # also inflate — but their measurements are clean.
        assert result.per_model["model1"].mape > 0.05

    def test_pooled_covers_all_records(self):
        data = synthetic_dataset(n_models=3)
        result = leave_one_out(
            data, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        assert result.pooled.n == len(data)
        assert len(result.predictions) == len(data)

    def test_needs_two_models(self):
        data = synthetic_dataset(n_models=1)
        with pytest.raises(ValueError, match="two distinct"):
            leave_one_out(data, lambda: ForwardModel(), lambda r: r.t_fwd)

    def test_best_and_worst(self):
        data = synthetic_dataset(n_models=4)
        result = leave_one_out(
            data, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        models = set(result.per_model)
        assert result.best_model() in models
        assert result.worst_model() in models
        assert (
            result.per_model[result.best_model()].mape
            <= result.per_model[result.worst_model()].mape
        )

    def test_mean_mape(self):
        data = synthetic_dataset(n_models=3)
        result = leave_one_out(
            data, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        expected = np.mean([m.mape for m in result.per_model.values()])
        assert result.mean_mape() == pytest.approx(float(expected))


class TestSharedFit:
    def test_same_shape_as_loo(self):
        data = synthetic_dataset(n_models=3)
        result = shared_fit_evaluation(
            data, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        assert set(result.per_model) == {f"model{i}" for i in range(3)}
        assert result.pooled.n == len(data)

    def test_shared_fit_sees_all_models(self):
        # Unlike LOO, a poisoned model is partially fitted by the shared
        # model — its error stays far below the LOO case.
        data = synthetic_dataset(n_models=4)
        poisoned = Dataset(
            [
                (
                    TimingRecord(
                        **{**r.to_dict(), "features": r.features,
                           "t_fwd": r.t_fwd * 100.0}
                    )
                    if r.model == "model0"
                    else r
                )
                for r in data
            ]
        )
        loo = leave_one_out(
            poisoned, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        shared = shared_fit_evaluation(
            poisoned, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        assert shared.per_model["model0"].mape < loo.per_model["model0"].mape


class TestBlockwise:
    def test_shared_protocol_on_campaign(self, small_block_data):
        result = blockwise_evaluation(small_block_data)
        assert result.pooled.r2 > 0.9
        assert result.pooled.mape < 0.35

    def test_loo_protocol_runs(self, small_block_data):
        result = blockwise_evaluation(small_block_data, protocol="loo")
        assert result.pooled.n == len(small_block_data)

    def test_unknown_protocol(self, small_block_data):
        with pytest.raises(ValueError):
            blockwise_evaluation(small_block_data, protocol="kfold")


def _fitted_step_model():
    data = synthetic_dataset(nodes_list=(1, 2, 4), n_models=5)
    return TrainingStepModel().fit(data), data[0].features


class TestScalability:
    def test_node_curve_monotone_devices(self):
        model, features = _fitted_step_model()
        curve = node_scaling_curve(model, features, 64, (1, 2, 4, 8))
        assert [p.devices for p in curve] == [4, 8, 16, 32]
        assert all(p.throughput > 0 for p in curve)

    def test_weak_scaling_grows_throughput(self):
        model, features = _fitted_step_model()
        curve = node_scaling_curve(model, features, 64, (1, 2, 4, 8))
        throughputs = [p.throughput for p in curve]
        assert throughputs == sorted(throughputs)

    def test_strong_scaling_divisibility(self):
        model, features = _fitted_step_model()
        with pytest.raises(ValueError, match="divisible"):
            strong_scaling_curve(model, features, 100, (3,))

    def test_strong_scaling_per_device_batch_shrinks(self):
        model, features = _fitted_step_model()
        curve = strong_scaling_curve(model, features, 512, (1, 2, 4))
        assert [p.per_device_batch for p in curve] == [128, 64, 32]

    def test_batch_curve_saturates(self):
        model, features = _fitted_step_model()
        # Batch 4096 is past 10x the fitted sweep; the curve still answers
        # but flags the extrapolation (FIT004).
        with pytest.warns(ExtrapolationWarning):
            curve = batch_scaling_curve(model, features, (1, 16, 256, 4096))
        t = [p.throughput for p in curve]
        assert t == sorted(t)
        # Relative gain per step shrinks (diminishing returns).
        gain_small = t[1] / t[0]
        gain_large = t[3] / t[2]
        assert gain_large < gain_small

    def test_extrapolation_warning_points_at_the_caller(self):
        model, features = _fitted_step_model()
        for call in (
            lambda: node_scaling_curve(model, features, 2**20, (1, 2)),
            lambda: strong_scaling_curve(model, features, 2**22, (1, 2)),
            lambda: batch_scaling_curve(model, features, (2**20,)),
        ):
            with pytest.warns(ExtrapolationWarning, match="FIT004") as caught:
                call()
            assert [w.filename for w in caught] == [__file__]

    def test_batch_curve_beyond_memory_allowed(self):
        model, features = _fitted_step_model()
        with pytest.warns(ExtrapolationWarning, match="FIT004"):
            curve = batch_scaling_curve(model, features, (2**20,))
        assert curve[0].throughput > 0

    def test_turning_point_detects_flattening(self):
        points = [
            ScalingPoint(x=1, devices=4, per_device_batch=64, step_time=1.0,
                         throughput=100.0),
            ScalingPoint(x=2, devices=8, per_device_batch=64, step_time=1.0,
                         throughput=190.0),
            ScalingPoint(x=4, devices=16, per_device_batch=64, step_time=1.0,
                         throughput=200.0),
            ScalingPoint(x=8, devices=32, per_device_batch=64, step_time=1.0,
                         throughput=205.0),
        ]
        assert turning_point(points, min_gain=1.25).x == 2

    def test_turning_point_keeps_scaling(self):
        points = [
            ScalingPoint(x=n, devices=4 * n, per_device_batch=64,
                         step_time=1.0, throughput=100.0 * n)
            for n in (1, 2, 4)
        ]
        assert turning_point(points).x == 4

    def test_turning_point_empty(self):
        with pytest.raises(ValueError):
            turning_point([])

    def test_efficiency_relative_to_first(self):
        points = [
            ScalingPoint(x=1, devices=4, per_device_batch=64, step_time=1.0,
                         throughput=400.0),
            ScalingPoint(x=2, devices=8, per_device_batch=64, step_time=1.0,
                         throughput=600.0),
        ]
        eff = efficiency(points)
        assert eff[0] == pytest.approx(1.0)
        assert eff[1] == pytest.approx(0.75)

    def test_efficiency_empty(self):
        with pytest.raises(ValueError):
            efficiency([])
