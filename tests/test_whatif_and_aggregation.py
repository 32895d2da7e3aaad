"""Hypothetical-device derivation, layer breakdown, and cross-scenario
consistency."""

import pytest

from repro.benchdata import inference_campaign, training_campaign
from repro.core.forward import ForwardModel
from repro.hardware.device import A100_80GB
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.roofline import zoo_profile


class TestScaledDevice:
    def test_scaling_applies(self):
        fat = A100_80GB.scaled("a100-fat", bandwidth=2.0, memory=2.0)
        assert fat.name == "a100-fat"
        assert fat.mem_bandwidth == 2 * A100_80GB.mem_bandwidth
        assert fat.memory_bytes == 2 * A100_80GB.memory_bytes
        assert fat.peak_flops == A100_80GB.peak_flops

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            A100_80GB.scaled("x", flops=0.0)

    def test_bandwidth_helps_memory_bound_model(self):
        """Doubling bandwidth speeds MobileNet (bandwidth-bound) much more
        than VGG (compute-bound) — the what-if signal a planner needs."""
        fat = A100_80GB.scaled("a100-2xbw", bandwidth=2.0)
        base_ex = SimulatedExecutor(A100_80GB, seed=1)
        fat_ex = SimulatedExecutor(fat, seed=1)

        def speedup(model):
            p = zoo_profile(model, 224)
            return base_ex.backend.forward_time_clean(p, 64) / (
                fat_ex.backend.forward_time_clean(p, 64)
            )

        assert speedup("mobilenet_v2") > speedup("vgg16")
        assert speedup("vgg16") < 1.2

    def test_flops_helps_compute_bound_model(self):
        fast = A100_80GB.scaled("a100-2xflops", flops=2.0)
        base_ex = SimulatedExecutor(A100_80GB, seed=1)
        fast_ex = SimulatedExecutor(fast, seed=1)
        p = zoo_profile("vgg16", 224)
        speedup = base_ex.backend.forward_time_clean(p, 64) / (
            fast_ex.backend.forward_time_clean(p, 64)
        )
        assert speedup > 1.6

    def test_memory_scaling_lifts_oom_boundary(self):
        from repro.hardware.memory import fits

        p = zoo_profile("vgg16", 224)
        big = A100_80GB.scaled("a100-4xmem", memory=4.0)
        batch = 2**11
        assert not fits(p, batch, A100_80GB, training=True)
        assert fits(p, batch, big, training=True)

    def test_whole_pipeline_runs_on_derived_device(self):
        derived = A100_80GB.scaled("a100-slow", flops=0.5, bandwidth=0.5)
        data = inference_campaign(
            models=("alexnet", "resnet18", "resnet50"),
            device=derived,
            batch_sizes=(1, 16, 128),
            image_sizes=(64, 128),
            seed=61,
        )
        model = ForwardModel().fit(data)
        assert model.evaluate(data).r2 > 0.9


class TestLayerBreakdown:
    def test_sums_to_clean_forward_time(self):
        ex = SimulatedExecutor(A100_80GB, seed=0)
        p = zoo_profile("resnet18", 64)
        breakdown = ex.backend.layer_times(p, 16)
        total = ex.backend.forward_time_clean(p, 16)
        assert float(breakdown.sum()) + A100_80GB.base_overhead == (
            pytest.approx(total)
        )

    def test_conv_layers_dominate_vgg(self):
        ex = SimulatedExecutor(A100_80GB, seed=0)
        p = zoo_profile("vgg16", 224)
        breakdown = ex.backend.layer_times(p, 64)
        conv_time = float(breakdown[p.is_conv].sum())
        assert conv_time > 0.7 * float(breakdown.sum())


class TestCrossScenarioConsistency:
    def test_training_forward_consistent_with_inference(self):
        """The training campaign's forward phase and the inference campaign
        measure the same computation (modulo noise draws)."""
        kw = dict(models=("resnet50",), batch_sizes=(32,),
                  image_sizes=(128,))
        inf = inference_campaign(seed=71, **kw)[0].t_fwd
        tr = training_campaign(seed=72, **kw)[0].t_fwd
        assert abs(inf - tr) / inf < 0.4

    def test_distributed_single_node_close_to_local_training(self):
        from repro.benchdata import distributed_campaign

        local = training_campaign(
            models=("resnet50",), batch_sizes=(64,), image_sizes=(128,),
            seed=73,
        )[0]
        dist = distributed_campaign(
            models=("resnet50",), node_counts=(1,), gpus_per_node=1,
            batch_sizes=(64,), image_sizes=(128,), seed=73,
        )[0]
        assert abs(local.t_total - dist.t_total) / local.t_total < 0.5
