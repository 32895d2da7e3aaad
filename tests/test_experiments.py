"""Experiment harness: every table/figure runs and reproduces the paper's
qualitative shapes (the DESIGN.md §4 criteria)."""

import numpy as np
import pytest

from repro.experiments.fig2 import run_fig2
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig8 import (
    alexnet_flattens_first,
    diminishing_return_nodes,
    run_fig8,
)
from repro.experiments.fig9 import run_fig9
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3_distributed, run_table3_single
from repro.experiments.table4 import run_table4


@pytest.fixture(scope="module")
def fig2():
    return run_fig2()


@pytest.fixture(scope="module")
def table1():
    return run_table1()


@pytest.fixture(scope="module")
def table2():
    return run_table2()


@pytest.fixture(scope="module")
def fig6():
    return run_fig6()


@pytest.fixture(scope="module")
def table3_single():
    return run_table3_single()


@pytest.fixture(scope="module")
def table3_distributed():
    return run_table3_distributed()


@pytest.fixture(scope="module")
def fig8():
    return run_fig8()


@pytest.fixture(scope="module")
def fig9():
    return run_fig9()


class TestFig2:
    def test_combined_most_accurate(self, fig2):
        assert fig2.combined_wins

    def test_flops_alone_inadequate(self, fig2):
        # "FLOPs alone are an inadequate predictor" — visibly worse MAPE.
        assert fig2.variants["flops"].mape > 1.3 * fig2.variants[
            "combined"
        ].mape

    def test_renders(self, fig2):
        text = fig2.render()
        assert "combined" in text and "flops" in text


class TestTable1:
    def test_gpu_band(self, table1):
        # Paper: R² 0.96, MAPE 0.17 on the A100.
        assert table1.gpu.pooled.r2 > 0.9
        assert table1.gpu.pooled.mape < 0.35

    def test_cpu_band(self, table1):
        # Paper: R² 0.98, RMSE 0.59 s, MAPE 0.25 on the Xeon.
        assert table1.cpu.pooled.r2 > 0.9
        assert table1.cpu.pooled.mape < 0.35

    def test_every_model_has_rows(self, table1):
        assert len(table1.gpu.per_model) == 14

    def test_mobile_family_is_hardest_on_gpu(self, table1):
        mobile = {"mobilenet_v2", "mobilenet_v3_large", "efficientnet_b0",
                  "squeezenet1_0", "regnet_x_400mf"}
        worst = sorted(
            table1.gpu.per_model, key=lambda m: -table1.gpu.per_model[m].r2
        )[-3:]
        assert any(m in mobile or m == "densenet121" for m in worst)

    def test_renders(self, table1):
        assert "Table 1" in table1.render()


class TestTable2:
    def test_pooled_band(self, table2):
        # Paper: R² 0.997, MAPE 0.16 pooled over blocks.
        assert table2.loo.pooled.r2 > 0.95
        assert table2.loo.pooled.mape < 0.25

    def test_per_block_mape_band(self, table2):
        # Paper: 0.09 – 0.37 per block.
        for metrics in table2.loo.per_model.values():
            assert metrics.mape < 0.45

    def test_all_nine_blocks(self, table2):
        assert len(table2.loo.per_model) == 9

    def test_renders(self, table2):
        assert "Bottleneck4" in table2.render()


class TestFig6:
    def test_convmeter_wins_everywhere(self, fig6):
        assert fig6.convmeter_wins_everywhere

    def test_squeezenet_unparseable(self, fig6):
        assert fig6.unparseable_models == ["squeezenet1_0"]

    def test_all_models_compared(self, fig6):
        assert len(fig6.rows_data) == 14

    def test_renders(self, fig6):
        assert "DIPPM" in fig6.render()


class TestTable3Single:
    def test_step_band(self, table3_single):
        # Paper: R² 0.88, MAPE 0.18 for the single-GPU training step.
        assert table3_single.step.pooled.r2 > 0.85
        assert table3_single.step.pooled.mape < 0.3

    def test_per_model_mape_band(self, table3_single):
        # Paper: "minimal variation ... MAPE of less than 0.28".
        for metrics in table3_single.step.per_model.values():
            assert metrics.mape < 0.3

    def test_phases_present(self, table3_single):
        assert set(table3_single.phases) == {
            "forward", "backward", "grad_update", "entire_step",
        }

    def test_grad_update_is_noisiest_phase(self, table3_single):
        phases = table3_single.phases
        assert phases["grad_update"].mape >= max(
            phases["forward"].mape, phases["backward"].mape
        )


class TestTable3Distributed:
    def test_step_band(self, table3_distributed):
        # Paper: R² 0.78, MAPE 0.15 for the distributed training step.
        assert table3_distributed.step.pooled.r2 > 0.75
        assert table3_distributed.step.pooled.mape < 0.3

    def test_grad_update_noisiest(self, table3_distributed):
        phases = table3_distributed.phases
        assert phases["grad_update"].mape >= phases["forward"].mape
        assert phases["grad_update"].mape >= phases["backward"].mape

    def test_renders(self, table3_distributed):
        assert "Figure 7" in table3_distributed.render()


class TestFig8:
    def test_predictions_track_measurements(self, fig8):
        for model in fig8.curves:
            assert fig8.trend_agreement(model) > 0.95

    def test_alexnet_flattens_first(self, fig8):
        assert alexnet_flattens_first(fig8)

    def test_compute_bound_models_scale_well(self, fig8):
        for model in ("resnet50", "vgg16", "wide_resnet50_2"):
            assert fig8.curves[model].speedup() > 6.0

    def test_alexnet_turning_point_early(self, fig8):
        assert diminishing_return_nodes(fig8, "alexnet") <= 2
        assert diminishing_return_nodes(fig8, "resnet50") >= 4

    def test_measured_std_present(self, fig8):
        for curve in fig8.curves.values():
            assert all(s is not None and s >= 0 for s in curve.measured_std)

    def test_renders(self, fig8):
        assert "Figure 8" in fig8.render()


class TestFig9:
    def test_prediction_extends_beyond_memory(self, fig9):
        # Every point is predicted; activation-heavy models run out of
        # device memory at the largest batches yet still get predictions.
        oom_models = []
        for model, curve in fig9.curves.items():
            assert all(p.throughput > 0 for p in curve.points)
            if curve.measured[-1] is None:
                oom_models.append(model)
        assert "vgg16" in oom_models
        assert "resnet50" in oom_models
        assert len(oom_models) >= 4

    def test_throughput_saturates(self, fig9):
        for curve in fig9.curves.values():
            t = curve.predicted
            early_gain = t[2] / t[0]
            late_gain = t[-1] / t[-3]
            assert late_gain < early_gain

    def test_resnet18_and_squeezenet_flatten_early(self, fig9):
        # Paper: both show a more pronounced diminishing return at large
        # batch sizes than the mobile networks.
        def late_gain(model):
            t = fig9.curves[model].predicted
            batches = list(fig9.batches)
            i64, i2048 = batches.index(64), batches.index(2048)
            return t[i2048] / t[i64]

        for early in ("resnet18", "squeezenet1_0"):
            for late in ("mobilenet_v2", "efficientnet_b0"):
                assert late_gain(early) < late_gain(late)

    def test_prediction_matches_measured_where_available(self, fig9):
        for curve in fig9.curves.values():
            for point in curve.points:
                if point.measured is not None and point.x >= 16:
                    rel = abs(point.throughput - point.measured)
                    assert rel / point.measured < 0.5

    def test_renders(self, fig9):
        assert "Figure 9" in fig9.render()

    def test_far_extrapolation_is_annotated(self):
        # Figure 9 extrapolates on purpose; a batch far past the campaign
        # sweep must surface FIT004 notes in the rendered artefact instead
        # of a loose warning.
        result = run_fig9(models=("alexnet",), batches=(1, 64, 10**6))
        assert result.domain_notes.get("alexnet")
        assert "FIT004" in result.render()


class TestTable4:
    def test_runs_and_renders(self):
        result = run_table4()
        text = result.render()
        assert "ConvMeter (ours)" in text
        assert "PALEO" in text

    def test_claims_verified(self):
        assert run_table4().verify_convmeter_claims() == []
