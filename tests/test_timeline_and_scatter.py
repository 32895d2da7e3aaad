"""Timeline export and the NeuralPower baseline."""

import json

import pytest

from repro.baselines.neuralpower import NeuralPowerModel, polynomial_row
from repro.benchdata.records import ConvNetFeatures
from repro.distributed import ClusterSpec, DistributedTrainer
from repro.distributed.cluster import single_gpu_cluster
from repro.distributed.timeline import trace_to_text
from repro.hardware.roofline import zoo_profile
from repro.trace import Tracer, to_chrome, write_chrome


def _traced_step(cluster):
    tracer = Tracer()
    trace = DistributedTrainer(cluster, seed=2).run_step(
        zoo_profile("alexnet", 128), 64, tracer=tracer
    )
    return trace, tracer


@pytest.fixture(scope="module")
def multi_node_step():
    return _traced_step(ClusterSpec(nodes=4))


@pytest.fixture(scope="module")
def multi_node_trace(multi_node_step):
    return multi_node_step[0]


@pytest.fixture(scope="module")
def single_device_step():
    return _traced_step(single_gpu_cluster())


@pytest.fixture(scope="module")
def single_device_trace(single_device_step):
    return single_device_step[0]


class TestChromeTrace:
    """The traced step exported through the tracer's Chrome exporter."""

    def test_event_structure(self, multi_node_step):
        events = to_chrome(multi_node_step[1])
        assert all(e["ph"] == "X" for e in events)
        names = [e["name"] for e in events]
        assert any("forward" in n for n in names)
        assert any("allreduce" in n for n in names)
        assert any("optimizer" in n for n in names)

    def test_one_comm_event_per_bucket(self, multi_node_step):
        trace, tracer = multi_node_step
        comm = [e for e in to_chrome(tracer) if e["tid"] == 1]
        assert len(comm) == len(trace.buckets)

    def test_events_nonnegative_durations(self, multi_node_step):
        for e in to_chrome(multi_node_step[1]):
            assert e["dur"] >= 0
            assert e["ts"] >= 0

    def test_compute_events_ordered(self, multi_node_step):
        events = to_chrome(multi_node_step[1])
        compute = [e for e in events if e["tid"] == 0]
        starts = [e["ts"] for e in compute]
        assert starts == sorted(starts)

    def test_write_loadable_json(self, multi_node_step, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome(multi_node_step[1], path)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) >= 3

    def test_single_device_has_no_comm_events(self, single_device_step):
        events = to_chrome(single_device_step[1])
        assert not [e for e in events if e["tid"] == 1]


class TestTextTimeline:
    def test_contains_all_phases(self, multi_node_trace):
        text = trace_to_text(multi_node_trace)
        assert "forward" in text
        assert "backward" in text
        assert "allreduce0" in text
        assert "optimizer" in text
        assert "hidden communication" in text

    def test_bars_within_width(self, multi_node_trace):
        width = 50
        text = trace_to_text(multi_node_trace, width=width)
        for line in text.splitlines():
            if "|" in line:
                bar = line.split("|")[1]
                assert len(bar) == width

    def test_single_device_timeline(self, single_device_trace):
        text = trace_to_text(single_device_trace)
        assert "allreduce" not in text

    @pytest.mark.parametrize("which", ["multi", "single"])
    def test_timeline_is_the_measured_step(self, which, multi_node_trace,
                                           single_device_trace):
        # The drawn optimizer row is the measured (noisy) update, so the
        # rows add up to the step the phases report.
        trace = multi_node_trace if which == "multi" else single_device_trace
        exposed = max(0.0, trace.comm_end - trace.backward_end)
        assert trace.optimizer_time == pytest.approx(
            trace.phases.grad_update - exposed, rel=1e-12
        )
        drawn = trace.phases.forward + max(
            trace.comm_end, trace.backward_end
        ) + trace.optimizer_time
        assert drawn == pytest.approx(trace.phases.total, rel=1e-12)
        total_line = trace_to_text(trace).splitlines()[-1]
        assert f"total {trace.phases.total * 1e3:.2f} ms" in total_line
        assert f"{trace.optimizer_time * 1e3:8.2f} ms" in trace_to_text(
            trace
        ).splitlines()[-2]


class TestNeuralPower:
    def test_polynomial_row_sizes(self):
        f = ConvNetFeatures(2.0, 3.0, 4.0, 5.0, 6)
        assert polynomial_row(f, 1, degree=1).size == 4   # 3 linear + 1
        assert polynomial_row(f, 1, degree=2).size == 10  # + 6 quadratic

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            NeuralPowerModel(degree=0)

    def test_fits_inference_data(self, small_inference_data):
        model = NeuralPowerModel(degree=2).fit(small_inference_data)
        metrics = model.evaluate(small_inference_data)
        assert metrics.r2 > 0.9

    def test_predict_one_matches_batch(self, small_inference_data):
        model = NeuralPowerModel(degree=2).fit(small_inference_data)
        r = small_inference_data[3]
        assert model.predict_one(r.features, r.batch) == pytest.approx(
            float(model.predict([r])[0])
        )

    def test_more_coefficients_than_convmeter(self):
        assert NeuralPowerModel(degree=2).n_coefficients > 4

    def test_generalises_worse_than_convmeter(self, small_inference_data):
        """The polynomial's extra capacity fits the pool better but
        generalises worse to held-out architectures — the overfitting risk
        that motivates ConvMeter's simplicity."""
        from repro.core.forward import ForwardModel
        from repro.core.loo import leave_one_out

        poly = leave_one_out(
            small_inference_data,
            lambda: NeuralPowerModel(degree=2),
            lambda r: r.t_fwd,
        )
        linear = leave_one_out(
            small_inference_data,
            lambda: ForwardModel(),
            lambda r: r.t_fwd,
        )
        assert linear.pooled.mape <= poly.pooled.mape * 1.5
