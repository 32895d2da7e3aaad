"""Distributed substrate: interconnects, ring all-reduce, fusion, trainer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    ClusterSpec,
    DistributedTrainer,
    FusionBucket,
    IB_HDR200_X4,
    INTERCONNECT_PRESETS,
    NVLINK3,
    PCIE4_X16,
    fuse_tensors,
    ring_all_reduce,
    ring_all_reduce_time,
    ring_segment_schedule,
)
from repro.distributed.cluster import single_gpu_cluster
from repro.hardware.device import A100_80GB
from repro.hardware.roofline import zoo_profile
from repro.trace import Tracer


class TestInterconnects:
    def test_presets(self):
        assert set(INTERCONNECT_PRESETS) == {
            "nvlink3", "ib-hdr200-x4", "pcie4-x16",
        }

    def test_nvlink_faster_than_ib(self):
        assert NVLINK3.bandwidth > IB_HDR200_X4.bandwidth

    def test_ib_noisier_than_nvlink(self):
        # Network ops carry more run-to-run variance (paper Fig. 7).
        assert IB_HDR200_X4.noise_sigma > NVLINK3.noise_sigma

    def test_transfer_time_affine(self):
        t0 = PCIE4_X16.transfer_time(0)
        t1 = PCIE4_X16.transfer_time(1e9)
        assert t0 == PCIE4_X16.latency
        assert t1 == pytest.approx(t0 + 1e9 / PCIE4_X16.bandwidth)


class TestRingSchedule:
    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_step_count(self, p):
        assert len(ring_segment_schedule(p)) == 2 * (p - 1)

    def test_each_step_has_p_transfers(self):
        for step in ring_segment_schedule(5):
            assert len(step) == 5
            senders = [src for src, _seg, _ph in step]
            assert sorted(senders) == list(range(5))

    def test_phases_ordered(self):
        steps = ring_segment_schedule(4)
        phases = [step[0][2] for step in steps]
        assert phases == ["reduce"] * 3 + ["gather"] * 3

    def test_invalid_rank_count(self):
        with pytest.raises(ValueError):
            ring_segment_schedule(0)


class TestRingAllReduce:
    def test_single_rank_copy(self):
        buf = np.arange(5.0)
        (out,) = ring_all_reduce([buf])
        np.testing.assert_array_equal(out, buf)
        assert out is not buf

    def test_matches_sum(self):
        rng = np.random.default_rng(0)
        bufs = [rng.normal(size=33) for _ in range(4)]
        expected = sum(bufs)
        for out in ring_all_reduce(bufs):
            np.testing.assert_allclose(out, expected)

    def test_preserves_shape(self):
        bufs = [np.ones((3, 4)) for _ in range(3)]
        out = ring_all_reduce(bufs)
        assert all(o.shape == (3, 4) for o in out)

    def test_inputs_unmodified(self):
        bufs = [np.ones(8), np.full(8, 2.0)]
        snapshots = [b.copy() for b in bufs]
        ring_all_reduce(bufs)
        for b, s in zip(bufs, snapshots):
            np.testing.assert_array_equal(b, s)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ring_all_reduce([np.ones(3), np.ones(4)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ring_all_reduce([])

    def test_buffer_smaller_than_ranks(self):
        # More ranks than elements: some segments are empty; still correct.
        bufs = [np.array([float(i)]) for i in range(5)]
        for out in ring_all_reduce(bufs):
            np.testing.assert_allclose(out, [10.0])

    @given(
        p=st.integers(2, 6),
        n=st.integers(1, 40),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_allreduce_equals_sum_property(self, p, n, seed):
        rng = np.random.default_rng(seed)
        bufs = [rng.normal(size=n) for _ in range(p)]
        expected = sum(bufs)
        for out in ring_all_reduce(bufs):
            np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)


class TestAllReduceCost:
    def test_single_rank_free(self):
        assert ring_all_reduce_time(1e9, 1, NVLINK3) == 0.0

    def test_monotone_in_bytes(self):
        t_small = ring_all_reduce_time(1e6, 4, IB_HDR200_X4)
        t_big = ring_all_reduce_time(1e9, 4, IB_HDR200_X4)
        assert t_big > t_small

    def test_latency_grows_with_ranks(self):
        # Tiny payload: time is dominated by the 2(P-1) latency steps.
        t4 = ring_all_reduce_time(8, 4, IB_HDR200_X4)
        t32 = ring_all_reduce_time(8, 32, IB_HDR200_X4)
        assert t32 > t4

    def test_bandwidth_term_saturates(self):
        # Volume factor 2(P-1)/P approaches 2: doubling ranks at large P
        # barely moves the bandwidth term.
        big = 1e9
        t8 = ring_all_reduce_time(big, 8, NVLINK3) - 14 * NVLINK3.latency
        t16 = ring_all_reduce_time(big, 16, NVLINK3) - 30 * NVLINK3.latency
        assert t16 / t8 < 1.1

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            ring_all_reduce_time(1e6, 0, NVLINK3)


class TestFusion:
    def test_partition_complete_and_ordered(self):
        sizes = [10.0, 20.0, 30.0, 40.0]
        ready = [0.1, 0.2, 0.3, 0.4]
        buckets = fuse_tensors(sizes, ready, threshold=45.0)
        flat = [i for b in buckets for i in b.tensor_indices]
        assert flat == [0, 1, 2, 3]

    def test_threshold_flush(self):
        buckets = fuse_tensors([30.0, 30.0, 30.0], [0.0, 1.0, 2.0],
                               threshold=50.0)
        assert [b.tensor_indices for b in buckets] == [(0, 1), (2,)]

    def test_oversized_tensor_own_bucket(self):
        buckets = fuse_tensors([100.0, 1.0], [0.0, 1.0], threshold=50.0)
        assert buckets[0].tensor_indices == (0,)

    def test_ready_time_is_max_of_members(self):
        buckets = fuse_tensors([10.0, 10.0, 50.0], [5.0, 1.0, 2.0],
                               threshold=100.0)
        assert len(buckets) == 1
        assert buckets[0].ready_time == 5.0

    def test_zero_threshold_disables_fusion(self):
        buckets = fuse_tensors([1.0, 2.0], [0.0, 1.0], threshold=0)
        assert len(buckets) == 2
        assert all(len(b.tensor_indices) == 1 for b in buckets)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fuse_tensors([1.0], [0.0, 1.0])

    def test_empty_input(self):
        assert fuse_tensors([], []) == []

    @given(
        sizes=st.lists(st.floats(1.0, 1e8), min_size=1, max_size=60),
        threshold=st.floats(1.0, 1e8),
    )
    @settings(max_examples=50, deadline=None)
    def test_fusion_invariants(self, sizes, threshold):
        ready = [float(i) for i in range(len(sizes))]
        buckets = fuse_tensors(sizes, ready, threshold)
        # Every tensor appears exactly once, in order.
        flat = [i for b in buckets for i in b.tensor_indices]
        assert flat == list(range(len(sizes)))
        # Bucket bytes equal member sums.
        for b in buckets:
            assert b.nbytes == pytest.approx(
                sum(sizes[i] for i in b.tensor_indices)
            )
        # No bucket except possibly due to a single oversized tensor starts
        # above threshold before its last member.
        for b in buckets:
            below = sum(sizes[i] for i in b.tensor_indices[:-1])
            assert below < threshold


class TestClusterSpec:
    def test_total_devices(self):
        assert ClusterSpec(nodes=3, gpus_per_node=4).total_devices == 12

    def test_ring_link_selection(self):
        assert ClusterSpec(nodes=1).ring_link is NVLINK3
        assert ClusterSpec(nodes=2).ring_link is IB_HDR200_X4

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=0)

    def test_single_gpu_helper(self):
        c = single_gpu_cluster()
        assert c.total_devices == 1

    def test_describe(self):
        text = ClusterSpec(nodes=2).describe()
        assert "2 node(s)" in text and "a100-80gb" in text


class TestDistributedTrainer:
    @pytest.fixture(scope="class")
    def profile(self):
        return zoo_profile("resnet50", 128)

    def test_single_device_no_buckets(self, profile):
        trainer = DistributedTrainer(single_gpu_cluster(), seed=1)
        trace = trainer.run_step(profile, 16)
        assert trace.buckets == ()
        assert trace.comm_end == trace.backward_end

    def test_multi_node_has_buckets(self, profile):
        trainer = DistributedTrainer(ClusterSpec(nodes=2), seed=1)
        trace = trainer.run_step(profile, 16)
        assert len(trace.buckets) >= 1
        assert trace.comm_end >= trace.backward_end

    def test_bucket_bytes_cover_all_gradients(self, profile):
        trainer = DistributedTrainer(ClusterSpec(nodes=2), seed=1)
        trace = trainer.run_step(profile, 16)
        total = sum(b.bucket.nbytes for b in trace.buckets)
        assert total == pytest.approx(4.0 * profile.total_params)

    def test_comm_serialised(self, profile):
        trainer = DistributedTrainer(ClusterSpec(nodes=2), seed=1)
        trace = trainer.run_step(profile, 16)
        for prev, nxt in zip(trace.buckets, trace.buckets[1:]):
            assert nxt.start >= prev.end - 1e-12

    def test_tracing_never_perturbs_the_step(self, profile):
        plain = DistributedTrainer(ClusterSpec(nodes=2), seed=1).run_step(
            profile, 16
        )
        tracer = Tracer()
        tracer.begin(profile.graph_name, category="model")
        traced = DistributedTrainer(ClusterSpec(nodes=2), seed=1).run_step(
            profile, 16, tracer=tracer
        )
        tracer.end()
        assert plain == traced
        assert any(s.track == "comm" for s in tracer.roots[0].children)

    def test_bucket_waits_for_gradients(self, profile):
        trainer = DistributedTrainer(ClusterSpec(nodes=2), seed=1)
        trace = trainer.run_step(profile, 16)
        for b in trace.buckets:
            assert b.start >= b.bucket.ready_time - 1e-12

    def test_deterministic(self, profile):
        a = DistributedTrainer(ClusterSpec(nodes=2), seed=1).measure_step(
            profile, 16
        )
        b = DistributedTrainer(ClusterSpec(nodes=2), seed=1).measure_step(
            profile, 16
        )
        assert a == b

    def test_hidden_comm_nonnegative(self, profile):
        trainer = DistributedTrainer(ClusterSpec(nodes=4), seed=1)
        trace = trainer.run_step(profile, 64)
        assert trace.hidden_comm >= 0

    def test_alexnet_comm_bound_multi_node(self):
        # AlexNet's 61M weights over InfiniBand cannot hide behind its tiny
        # backward pass: the gradient phase must dominate the step.
        profile = zoo_profile("alexnet", 128)
        trainer = DistributedTrainer(ClusterSpec(nodes=4), seed=1)
        phases = trainer.measure_step(profile, 64)
        assert phases.grad_update > phases.backward

    def test_resnet_comm_mostly_hidden(self):
        profile = zoo_profile("resnet50", 128)
        trainer = DistributedTrainer(ClusterSpec(nodes=4), seed=1)
        phases = trainer.measure_step(profile, 64)
        assert phases.grad_update < 0.3 * phases.backward

    def test_single_node_multi_gpu_cheap_comm(self):
        profile = zoo_profile("alexnet", 128)
        one_node = DistributedTrainer(ClusterSpec(nodes=1), seed=1)
        two_node = DistributedTrainer(ClusterSpec(nodes=2), seed=1)
        g1 = one_node.measure_step(profile, 64).grad_update
        g2 = two_node.measure_step(profile, 64).grad_update
        assert g2 > 3 * g1  # the NVLink -> InfiniBand cliff

    def test_fusion_threshold_changes_bucket_count(self, profile):
        small = DistributedTrainer(
            ClusterSpec(nodes=2), seed=1, fusion_threshold=1 * 1024 * 1024
        ).run_step(profile, 16)
        large = DistributedTrainer(
            ClusterSpec(nodes=2), seed=1, fusion_threshold=256 * 1024 * 1024
        ).run_step(profile, 16)
        assert len(small.buckets) > len(large.buckets)

    def test_memory_enforced(self):
        profile = zoo_profile("vgg16", 224)
        trainer = DistributedTrainer(ClusterSpec(nodes=2), seed=1)
        from repro.hardware import OutOfDeviceMemory

        with pytest.raises(OutOfDeviceMemory):
            trainer.measure_step(profile, 2**14)

    def test_fusion_bucket_dataclass(self):
        b = FusionBucket((0, 1), 100.0, 0.5)
        assert b.tensor_indices == (0, 1)
