"""Campaign records, datasets, serialization, and sweep generation."""

import pytest

from repro.benchdata import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_IMAGE_SIZES,
    DEFAULT_MODELS,
    ConvNetFeatures,
    Dataset,
    TimingRecord,
    block_campaign,
    inference_campaign,
)
from repro.hardware.device import A100_80GB, XEON_GOLD_5318Y_CORE
from repro.hardware.roofline import zoo_profile


def _record(model="m", batch=4, devices=1, **kw) -> TimingRecord:
    defaults = dict(
        model=model,
        device="a100-80gb",
        image_size=64,
        batch=batch,
        nodes=1,
        devices=devices,
        scenario="inference",
        features=ConvNetFeatures(1e9, 1e6, 2e6, 5e6, 50),
        t_fwd=0.01,
    )
    defaults.update(kw)
    return TimingRecord(**defaults)


class TestConvNetFeatures:
    def test_from_profile_matches_graph_metrics(self):
        from repro.graph.metrics import summarize_costs
        from repro.zoo import build_model

        profile = zoo_profile("resnet18", 64)
        features = ConvNetFeatures.from_profile(profile)
        summary = summarize_costs(build_model("resnet18", 64))
        assert features.flops == summary.flops
        assert features.inputs == summary.conv_input_elems
        assert features.outputs == summary.conv_output_elems
        assert features.weights == summary.weights
        assert features.layers == summary.layers


class TestTimingRecord:
    def test_totals(self):
        r = _record(t_fwd=0.01, t_bwd=0.02, t_grad=0.005)
        assert r.t_total == pytest.approx(0.035)

    def test_global_batch_and_throughput(self):
        r = _record(batch=8, devices=4, t_fwd=0.1)
        assert r.global_batch == 32
        assert r.throughput == pytest.approx(320.0)

    def test_dict_roundtrip(self):
        r = _record(t_bwd=0.2)
        assert TimingRecord.from_dict(r.to_dict()) == r


class TestDataset:
    def _dataset(self) -> Dataset:
        return Dataset(
            [
                _record(model="a", batch=1),
                _record(model="a", batch=2),
                _record(model="b", batch=1, device="xeon-gold-5318y-core"),
            ]
        )

    def test_len_iter_index(self):
        d = self._dataset()
        assert len(d) == 3
        assert d[0].model == "a"
        assert sum(1 for _ in d) == 3

    def test_for_model_and_excluding(self):
        d = self._dataset()
        assert len(d.for_model("a")) == 2
        assert len(d.excluding_model("a")) == 1
        assert d.excluding_model("a")[0].model == "b"

    def test_for_device(self):
        assert len(self._dataset().for_device("xeon-gold-5318y-core")) == 1

    def test_models_order_preserved(self):
        assert self._dataset().models() == ["a", "b"]

    def test_json_roundtrip(self, tmp_path):
        d = self._dataset()
        path = tmp_path / "data.json"
        d.to_json(path)
        loaded = Dataset.from_json(path)
        assert len(loaded) == len(d)
        assert loaded.records == d.records

    def test_append_extend(self):
        d = Dataset()
        d.append(_record())
        d.extend([_record(batch=8)])
        assert len(d) == 2

    def test_summary_string(self):
        text = self._dataset().summary()
        assert "3 records" in text and "2 models" in text


class TestInferenceCampaign:
    @pytest.fixture(scope="class")
    def data(self):
        return inference_campaign(
            models=("alexnet", "resnet18"),
            batch_sizes=(1, 16),
            image_sizes=(64, 128),
            seed=3,
        )

    def test_grid_coverage(self, data):
        combos = {(r.model, r.image_size, r.batch) for r in data}
        assert ("resnet18", 64, 1) in combos
        assert ("resnet18", 128, 16) in combos
        assert len(combos) == 8

    def test_records_are_inference(self, data):
        assert all(r.scenario == "inference" for r in data)
        assert all(r.t_bwd == 0.0 and r.t_grad == 0.0 for r in data)

    def test_times_positive(self, data):
        assert all(r.t_fwd > 0 for r in data)

    def test_features_constant_per_model_image(self, data):
        by_key = {}
        for r in data:
            by_key.setdefault((r.model, r.image_size), set()).add(r.features)
        assert all(len(v) == 1 for v in by_key.values())

    def test_deterministic(self):
        kw = dict(models=("alexnet",), batch_sizes=(4,), image_sizes=(64,),
                  seed=5)
        a = inference_campaign(**kw)
        b = inference_campaign(**kw)
        assert a.records == b.records

    def test_min_image_respected(self):
        data = inference_campaign(
            models=("alexnet",), batch_sizes=(1,), image_sizes=(32, 64),
            seed=1,
        )
        # AlexNet cannot run 32px images: only the 64px config remains.
        assert {r.image_size for r in data} == {64}

    def test_memory_gating_removes_large_configs(self):
        data = inference_campaign(
            models=("vgg16",), batch_sizes=(1, 2**17),
            image_sizes=(224,), seed=1,
        )
        assert {r.batch for r in data} == {1}

    def test_max_seconds_cap(self):
        slow = inference_campaign(
            models=("vgg16",), device=XEON_GOLD_5318Y_CORE,
            batch_sizes=(1, 2048), image_sizes=(224,), seed=1,
        )
        capped = inference_campaign(
            models=("vgg16",), device=XEON_GOLD_5318Y_CORE,
            batch_sizes=(1, 2048), image_sizes=(224,), seed=1,
            max_seconds=20.0,
        )
        assert len(capped) < len(slow)

    def test_reps_multiply_records(self):
        kw = dict(models=("alexnet",), batch_sizes=(4,), image_sizes=(64,),
                  seed=5)
        single = inference_campaign(**kw, reps=1)
        triple = inference_campaign(**kw, reps=3)
        assert len(triple) == 3 * len(single)
        times = [r.t_fwd for r in triple]
        assert len(set(times)) == 3  # reps carry independent noise


class TestOtherCampaigns:
    def test_training_records_have_phases(self, small_training_data):
        assert all(r.scenario == "training" for r in small_training_data)
        assert all(
            r.t_bwd > 0 and r.t_grad > 0 for r in small_training_data
        )

    def test_distributed_node_counts(self, small_distributed_data):
        assert small_distributed_data.node_counts() == [1, 2, 4]
        for r in small_distributed_data:
            assert r.devices == r.nodes * 4

    def test_block_campaign_models_are_blocks(self, small_block_data):
        names = set(small_block_data.models())
        assert "Bottleneck4" in names
        assert "MBConv" in names

    def test_block_campaign_respects_parent_min_image(self):
        data = block_campaign(
            batch_sizes=(1,), image_sizes=(64,), seed=1
        )
        # InceptionV3's stem block needs >= 75 px — absent at 64 px.
        assert "Conv2d 3x3" not in set(data.models())

    def test_default_sweeps_shape(self):
        assert DEFAULT_BATCH_SIZES[0] == 1 and DEFAULT_BATCH_SIZES[-1] == 2048
        assert DEFAULT_IMAGE_SIZES[0] == 32 and DEFAULT_IMAGE_SIZES[-1] == 224
        assert len(DEFAULT_MODELS) == 14
