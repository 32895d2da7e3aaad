"""Execution-backend suite: registry, bit-identity, edge OOM cliffs,
mixed precision, heterogeneous clusters, and the backend-threaded
campaign/serve/CLI surfaces."""

from __future__ import annotations

import json

import pytest

from repro.benchdata.campaign import DEFAULT_BATCH_SIZES
from repro.benchdata.engine import CampaignSpec, run_campaign
from repro.benchdata.records import TimingRecord
from repro.benchdata.store import CampaignStore
from repro.cli import main
from repro.distributed.allreduce import hierarchical_all_reduce_time
from repro.distributed.cluster import ClusterSpec, single_gpu_cluster
from repro.distributed.trainer import DistributedTrainer
from repro.hardware.backend import (
    BACKEND_REGISTRY,
    EDGE_DEVICE_NAMES,
    ExecutionBackend,
    edge_backends,
    get_backend,
)
from repro.distributed.interconnect import Interconnect
from repro.hardware.device import (
    A100_80GB,
    DEVICE_PRESETS,
    JETSON_ORIN,
    XEON_GOLD_5318Y_CORE,
)
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.memory import OutOfDeviceMemory
from repro.hardware.roofline import zoo_profile
from repro.trace.tracer import Tracer


@pytest.fixture(scope="module")
def profile():
    return zoo_profile("resnet18", 128)


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_registered_backends(self):
        assert set(BACKEND_REGISTRY) == {"roofline", "edge", "fp16", "bf16"}
        for name, info in BACKEND_REGISTRY.items():
            assert info.name == name
            backend = get_backend(name)
            assert isinstance(backend, ExecutionBackend)
            assert backend.spec is info
            assert backend.device == info.default_device

    def test_empty_name_is_default_roofline(self):
        backend = get_backend("")
        assert backend.spec is BACKEND_REGISTRY["roofline"]
        assert backend.device == A100_80GB

    def test_unknown_backend_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="roofline"):
            get_backend("tpu")

    def test_explicit_device_overrides_default(self):
        backend = get_backend("edge", DEVICE_PRESETS["jetson-orin-nano"])
        assert backend.device.name == "jetson-orin-nano"

    def test_capabilities_schema(self):
        for name in BACKEND_REGISTRY:
            caps = get_backend(name).capabilities()
            for key in ("backend", "device", "precision", "peak_flops",
                        "mem_bandwidth", "memory_bytes",
                        "memory_available_bytes", "precision_modes"):
                assert key in caps, (name, key)

    def test_edge_backends_cover_every_jetson_preset(self):
        names = [b.device.name for b in edge_backends()]
        assert names == list(EDGE_DEVICE_NAMES)


# -- default-backend bit-identity --------------------------------------------


class TestRooflineBitIdentity:
    def test_executor_with_explicit_backend_is_identical(self, profile):
        plain = SimulatedExecutor(A100_80GB, seed=5)
        via_backend = SimulatedExecutor(
            seed=5, backend=get_backend("roofline", A100_80GB)
        )
        for batch in (1, 8, 256):
            assert plain.measure_inference(profile, batch) == \
                via_backend.measure_inference(profile, batch)
            a = plain.measure_training_step(profile, batch)
            b = via_backend.measure_training_step(profile, batch)
            assert (a.forward, a.backward, a.grad_update) == \
                (b.forward, b.backward, b.grad_update)

    def test_roofline_noise_tag_is_the_device_name(self):
        backend = get_backend("roofline", A100_80GB)
        assert backend.noise_tag == A100_80GB.name

    def test_executor_rejects_conflicting_device_and_backend(self):
        with pytest.raises(ValueError, match="device"):
            SimulatedExecutor(
                XEON_GOLD_5318Y_CORE, backend=get_backend("", A100_80GB)
            )
        with pytest.raises(ValueError):
            SimulatedExecutor()

    def test_campaign_without_backend_matches_pre_backend_manifest(self):
        spec = CampaignSpec(
            scenario="inference", models=("alexnet",), device=A100_80GB,
            batch_sizes=(1, 2), image_sizes=(64,),
        )
        assert "backend" not in spec.manifest()
        tagged = CampaignSpec(
            scenario="inference", models=("alexnet",), device=A100_80GB,
            batch_sizes=(1, 2), image_sizes=(64,), backend="edge",
            # edge requires a GPU device; the A100 qualifies.
        )
        assert tagged.manifest()["backend"] == "edge"
        assert tagged.fingerprint() != spec.fingerprint()

    def test_record_dict_omits_empty_backend(self, profile):
        from repro.benchdata.records import ConvNetFeatures

        feats = ConvNetFeatures.from_profile(profile)
        plain = TimingRecord(
            model="resnet18", device="a100-80gb", image_size=128, batch=1,
            nodes=1, devices=1, scenario="inference", features=feats,
            t_fwd=1.0,
        )
        assert "backend" not in plain.to_dict()
        assert TimingRecord.from_dict(plain.to_dict()) == plain
        tagged = TimingRecord(
            model="resnet18", device="jetson-agx-orin", image_size=128,
            batch=1, nodes=1, devices=1, scenario="inference",
            features=feats, t_fwd=1.0, backend="edge",
        )
        assert tagged.to_dict()["backend"] == "edge"
        assert TimingRecord.from_dict(tagged.to_dict()) == tagged


# -- mixed precision ----------------------------------------------------------


class TestMixedPrecision:
    def test_fp16_forward_is_faster(self, profile):
        fp32 = get_backend("roofline", A100_80GB)
        fp16 = get_backend("fp16", A100_80GB)
        for batch in (1, 64):
            assert fp16.forward_time_clean(profile, batch) < \
                fp32.forward_time_clean(profile, batch)

    def test_fp16_noise_stream_differs_from_fp32(self, profile):
        a = SimulatedExecutor(seed=5, backend=get_backend("", A100_80GB))
        b = SimulatedExecutor(seed=5, backend=get_backend("fp16", A100_80GB))
        assert a.measure_inference(profile, 8) != b.measure_inference(
            profile, 8
        )

    def test_fp16_inference_memory_halves_activations(self, profile):
        fp32 = get_backend("roofline", A100_80GB)
        fp16 = get_backend("fp16", A100_80GB)
        assert fp16.inference_memory_bytes(profile, 64) < \
            fp32.inference_memory_bytes(profile, 64)

    def test_fp16_training_memory_keeps_fp32_master_state(self, profile):
        # fp16 weights+grads plus fp32 master+moments total 16 B/param —
        # the same as fp32 Adam — so only the activation term shrinks.
        fp32 = get_backend("roofline", A100_80GB)
        fp16 = get_backend("fp16", A100_80GB)
        assert fp16.training_memory_bytes(profile, 64) < \
            fp32.training_memory_bytes(profile, 64)

        # Training memory is affine in batch (state + activations·b); the
        # batch-independent state term must be equal across precisions.
        def state_bytes(backend):
            m32 = backend.training_memory_bytes(profile, 32)
            m64 = backend.training_memory_bytes(profile, 64)
            return m32 - (m64 - m32)  # intercept of the affine fit

        assert state_bytes(fp16) == pytest.approx(state_bytes(fp32))

    def test_unsupported_precision_is_rejected(self):
        with pytest.raises(ValueError, match="does not support"):
            get_backend("fp16", XEON_GOLD_5318Y_CORE)
        with pytest.raises(ValueError, match="does not support bf16"):
            get_backend("bf16", DEVICE_PRESETS["jetson-xavier-nx"])

    def test_campaign_spec_validates_backend_device_pairing(self):
        with pytest.raises(ValueError):
            CampaignSpec(
                scenario="inference", models=("alexnet",),
                device=XEON_GOLD_5318Y_CORE, batch_sizes=(1,),
                image_sizes=(64,), backend="fp16",
            )


# -- edge backend and the OOM cliff -------------------------------------------


class TestEdgeOOMBoundary:
    @pytest.mark.parametrize("preset", EDGE_DEVICE_NAMES)
    @pytest.mark.parametrize("training", (False, True),
                             ids=("inference", "training"))
    def test_first_failing_batch_is_exact(self, preset, training, profile):
        backend = get_backend("edge", DEVICE_PRESETS[preset])
        available = backend.memory_available()
        need = (
            backend.training_memory_bytes
            if training
            else backend.inference_memory_bytes
        )
        expected_cliff = next(
            (b for b in DEFAULT_BATCH_SIZES if need(profile, b) > available),
            None,
        )
        observed_cliff = None
        for batch in DEFAULT_BATCH_SIZES:
            fits = backend.fits(profile, batch, training=training)
            if not fits and observed_cliff is None:
                observed_cliff = batch
            # The frontier is monotone: nothing fits past the cliff.
            if observed_cliff is not None:
                assert not fits
        assert observed_cliff == expected_cliff
        if observed_cliff is not None:
            executor = SimulatedExecutor(seed=0, backend=backend)
            with pytest.raises(OutOfDeviceMemory):
                if training:
                    executor.measure_training_step(profile, observed_cliff)
                else:
                    executor.measure_inference(profile, observed_cliff)

    def test_training_cliff_lands_inside_the_default_sweep(self, profile):
        # The smallest preset must OOM within the paper's batch range,
        # otherwise the campaign OOM machinery is never exercised.
        smallest = get_backend(
            "edge", DEVICE_PRESETS[EDGE_DEVICE_NAMES[-1]]
        )
        assert not smallest.fits(
            profile, DEFAULT_BATCH_SIZES[-1], training=True
        )

    def test_edge_requires_a_gpu_device(self):
        with pytest.raises(ValueError, match="edge backend models GPUs"):
            get_backend("edge", XEON_GOLD_5318Y_CORE)

    def test_edge_is_slower_and_noisier_than_plain_roofline(self, profile):
        plain = get_backend("roofline", JETSON_ORIN)
        edge = get_backend("edge", JETSON_ORIN)
        assert edge.forward_time_clean(profile, 8) > \
            plain.forward_time_clean(profile, 8)
        assert edge.noise_sigma > plain.noise_sigma
        assert edge.memory_available() < plain.memory_available()


def _edge_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        scenario="training",
        models=("vgg16",),
        device=JETSON_ORIN,
        batch_sizes=DEFAULT_BATCH_SIZES,
        image_sizes=(96, 224),
        seed=3,
        backend="edge",
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestCampaignOOMMarkers:
    def test_oom_points_are_recorded_deterministically(self, tmp_path):
        spec = _edge_spec()
        store = CampaignStore.open(tmp_path / "store", spec)
        result = run_campaign(spec, store=store)
        store.close()
        assert result.stats.n_oom > 0
        assert result.stats.n_oom == result.stats.to_dict()["n_oom"]
        statuses = {}
        with (tmp_path / "store" / "records.jsonl").open() as fh:
            for line in fh:
                entry = json.loads(line)
                statuses[entry["key"]] = entry.get("status", "")
        oom_keys = [k for k, s in statuses.items() if s == "oom"]
        assert len(oom_keys) == result.stats.n_oom
        # Every OOM line carries no records; every measured line does.
        for r in result.dataset:
            assert r.backend == "edge"

    def test_parallel_and_serial_edge_campaigns_are_byte_identical(self):
        spec = _edge_spec()
        serial = run_campaign(spec)
        parallel = run_campaign(spec, workers=2)
        assert [r.to_dict() for r in serial.dataset] == \
            [r.to_dict() for r in parallel.dataset]
        assert serial.stats.n_oom == parallel.stats.n_oom

    def test_resume_restores_oom_decisions(self, tmp_path):
        spec = _edge_spec()
        store = CampaignStore.open(tmp_path / "s", spec)
        first = run_campaign(spec, store=store)
        store.close()
        store = CampaignStore.open(tmp_path / "s", spec, resume=True)
        second = run_campaign(spec, store=store)
        store.close()
        assert second.stats.n_restored == second.stats.n_points
        assert second.stats.n_oom == 0  # gated decisions were restored
        assert [r.to_dict() for r in first.dataset] == \
            [r.to_dict() for r in second.dataset]


# -- cluster validation and heterogeneity --------------------------------------


class TestClusterSpec:
    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            ClusterSpec(nodes=1.5, gpus_per_node=4, device=A100_80GB)
        with pytest.raises(ValueError, match="integer"):
            ClusterSpec(nodes=True, gpus_per_node=4, device=A100_80GB)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one"):
            ClusterSpec(nodes=0, gpus_per_node=4, device=A100_80GB)

    def test_device_type_checked(self):
        with pytest.raises(ValueError, match="DeviceSpec"):
            ClusterSpec(nodes=1, gpus_per_node=4, device="a100-80gb")

    def test_node_devices_length_must_match_nodes(self):
        with pytest.raises(ValueError, match="node_devices"):
            ClusterSpec(
                nodes=3, gpus_per_node=4, device=A100_80GB,
                node_devices=(A100_80GB, JETSON_ORIN),
            )

    def test_single_gpu_cluster_adopts_backend_device(self):
        cluster = single_gpu_cluster(backend=get_backend("edge"))
        assert cluster.device == JETSON_ORIN
        assert cluster.total_devices == 1
        with pytest.raises(ValueError):
            single_gpu_cluster(
                device=XEON_GOLD_5318Y_CORE, backend=get_backend("edge")
            )


class TestHeterogeneousCluster:
    def test_homogeneous_node_devices_are_bit_identical(self, profile):
        for nodes in (1, 2, 4):
            plain = DistributedTrainer(
                ClusterSpec(nodes=nodes, gpus_per_node=4, device=A100_80GB),
                seed=3,
            ).run_step(profile, 32)
            listed = DistributedTrainer(
                ClusterSpec(
                    nodes=nodes, gpus_per_node=4, device=A100_80GB,
                    node_devices=(A100_80GB,) * nodes,
                ),
                seed=3,
            ).run_step(profile, 32)
            assert (plain.phases.forward, plain.phases.backward,
                    plain.phases.grad_update) == \
                (listed.phases.forward, listed.phases.backward,
                 listed.phases.grad_update)

    def test_slow_node_is_the_straggler(self, profile):
        homo = DistributedTrainer(
            ClusterSpec(nodes=2, gpus_per_node=4, device=A100_80GB), seed=3
        ).run_step(profile, 32)
        hetero = DistributedTrainer(
            ClusterSpec(
                nodes=2, gpus_per_node=4, device=A100_80GB,
                node_devices=(A100_80GB, JETSON_ORIN),
            ),
            seed=3,
        ).run_step(profile, 32)
        assert hetero.phases.forward > homo.phases.forward
        assert hetero.phases.backward > homo.phases.backward

    def test_hetero_scalability_curve_is_valid(self, profile):
        times = {}
        for nodes in (1, 2, 4, 8):
            devs = tuple(
                A100_80GB if i % 2 == 0 else JETSON_ORIN
                for i in range(nodes)
            )
            trace = DistributedTrainer(
                ClusterSpec(
                    nodes=nodes, gpus_per_node=4, device=A100_80GB,
                    node_devices=devs,
                ),
                seed=3,
            ).run_step(profile, 32)
            times[nodes] = trace.phases.total
            assert trace.phases.total > 0
        # Weak scaling: once Jetson nodes join (2+), the straggler sets the
        # pace and per-step time stays in the same regime, far above the
        # pure-A100 single node.
        assert times[2] > times[1]

    @pytest.mark.parametrize("names", [
        ("epyc-7402-core", "xeon-gold-5318y-core"),
        ("jetson-orin-nano", "jetson-xavier-nx"),
    ])
    def test_traced_step_equals_untraced(self, names):
        # The straggler is the second node type: its forward layer spans
        # must tile its own phase total, not the primary device's.
        devices = tuple(DEVICE_PRESETS[n] for n in names)
        trainer = DistributedTrainer(
            ClusterSpec(nodes=2, gpus_per_node=1, device=devices[0],
                        node_devices=devices),
            seed=0,
        )
        alexnet = zoo_profile("alexnet", 64)
        untraced = trainer.measure_step(alexnet, 64, enforce_memory=False)
        tracer = Tracer()
        traced = trainer.measure_step(
            alexnet, 64, enforce_memory=False, tracer=tracer
        )
        assert traced == untraced
        spans = {s.name: s.duration for s in tracer.roots}
        assert spans["forward"] == untraced.forward
        assert spans["backward"] == untraced.backward
        assert spans["grad_update"] == untraced.grad_update

    def test_mixed_interconnect_all_reduce(self):
        fast = Interconnect(
            name="nvlink", bandwidth=600e9, latency=2e-6, noise_sigma=0.05
        )
        slow = Interconnect(
            name="ib", bandwidth=25e9, latency=20e-6, noise_sigma=0.05
        )
        base = hierarchical_all_reduce_time(
            1 << 24, nodes=2, gpus_per_node=4, intra=fast, inter=slow
        )
        mixed = hierarchical_all_reduce_time(
            1 << 24, nodes=2, gpus_per_node=4, intra=fast, inter=slow,
            node_intra=(fast, slow),
        )
        assert mixed > base  # the slow node's intra phase dominates
        same = hierarchical_all_reduce_time(
            1 << 24, nodes=2, gpus_per_node=4, intra=fast, inter=slow,
            node_intra=(fast, fast),
        )
        assert same == base
        with pytest.raises(ValueError, match="node_intra"):
            hierarchical_all_reduce_time(
                1 << 24, nodes=2, gpus_per_node=4, intra=fast, inter=slow,
                node_intra=(fast,),
            )

    def test_trainer_backend_must_match_cluster_device(self):
        cluster = ClusterSpec(nodes=1, gpus_per_node=1, device=A100_80GB)
        with pytest.raises(ValueError):
            DistributedTrainer(cluster, backend=get_backend("edge"))


# -- IR009 edge-memory advisory ------------------------------------------------


class TestIR009:
    def test_fires_when_no_edge_preset_fits(self):
        from repro.analysis.verify import verify_graph
        from repro.zoo import build_model

        graph = build_model("vgg16", 224)
        diags = verify_graph(graph, edge_batch=2048)
        ir009 = [d for d in diags if d.rule == "IR009"]
        assert len(ir009) == 1
        assert "edge" in ir009[0].hint

    def test_silent_when_a_preset_fits(self):
        from repro.analysis.verify import verify_graph
        from repro.zoo import build_model

        graph = build_model("alexnet", 64)
        diags = verify_graph(graph, edge_batch=1)
        assert not [d for d in diags if d.rule == "IR009"]

    def test_campaign_verification_uses_smallest_batch(self, capsys):
        from repro.benchdata.engine import campaign_verdicts, enumerate_points

        spec = CampaignSpec(
            scenario="training", models=("vgg16",), device=JETSON_ORIN,
            batch_sizes=(2048,), image_sizes=(224,), backend="edge",
        )
        verdicts = campaign_verdicts(spec, enumerate_points(spec))
        assert any(
            d.rule == "IR009" for diags in verdicts.values() for d in diags
        )


# -- serve protocol ------------------------------------------------------------


class TestServeBackend:
    def test_backend_query_field_parses(self):
        from repro.serve.protocol import PredictQuery

        q = PredictQuery.parse(
            {"network": "alexnet", "batch": 4, "backend": "edge"}
        )
        assert q.backend == "edge"

    def test_unknown_backend_is_404(self):
        from repro.serve.protocol import PredictQuery, ProtocolError

        with pytest.raises(ProtocolError) as err:
            PredictQuery.parse({"network": "alexnet", "backend": "tpu"})
        assert err.value.status == 404

    def test_invalid_backend_device_pairing_is_rejected(self):
        from repro.serve.protocol import PredictQuery, ProtocolError

        with pytest.raises(ProtocolError):
            PredictQuery.parse(
                {"network": "alexnet", "backend": "edge",
                 "device": "xeon-gold-5318y-core"}
            )

    def test_memory_note_uses_backend_accounting(self):
        from repro.serve.protocol import PredictQuery, _memory_note

        profile = zoo_profile("vgg16", 224)
        q = PredictQuery.parse(
            {"network": "vgg16", "batch": 512, "backend": "edge"}
        )
        notes = _memory_note(q, profile, training=True)
        assert len(notes) == 1
        assert "edge backend on jetson-agx-orin" in notes[0]
        # The A100 under the default accounting absorbs the same query.
        plain = PredictQuery.parse(
            {"network": "vgg16", "batch": 512, "device": "a100-80gb"}
        )
        assert _memory_note(plain, profile, training=True) == []


# -- CLI ----------------------------------------------------------------------


class TestBackendCLI:
    def test_devices_lists_backends_and_precision(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in BACKEND_REGISTRY:
            assert name in out
        assert "fp32,fp16,bf16" in out

    def test_devices_json(self, capsys):
        assert main(["devices", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {d["name"] for d in payload["devices"]} == set(DEVICE_PRESETS)
        backends = {b["name"]: b for b in payload["backends"]}
        assert set(backends) == set(BACKEND_REGISTRY)
        assert backends["fp16"]["precision"] == "fp16"
        assert backends["edge"]["device"] == "jetson-agx-orin"

    def test_campaign_backend_flag(self, tmp_path, capsys):
        out = tmp_path / "edge.json"
        rc = main([
            "campaign", "--backend", "edge", "--scenario", "training",
            "--models", "alexnet", "-o", str(out),
        ])
        assert rc == 0
        records = json.loads(out.read_text())["records"]
        assert records and all(r["backend"] == "edge" for r in records)
        assert all(r["device"] == "jetson-agx-orin" for r in records)

    def test_fit_backend_filter_rejects_missing_backend(
        self, tmp_path, capsys
    ):
        out = tmp_path / "data.json"
        assert main([
            "campaign", "--scenario", "inference", "--models", "alexnet",
            "-o", str(out),
        ]) == 0
        rc = main([
            "fit", "--data", str(out), "--backend", "edge",
            "-o", str(tmp_path / "m.json"),
        ])
        assert rc == 2

    def test_trace_backend_flag(self, capsys):
        assert main(
            ["trace", "alexnet", "--backend", "fp16", "--batch", "4"]
        ) == 0
        assert "forward" in capsys.readouterr().out
