"""Trace-invariant harness for the deterministic span/counter layer.

The tracing layer's contract is stronger than "roughly adds up": span
starts are parent-relative and the parent clock advances child-by-child,
so per-layer span durations sum to the executor's measured phase total
with *exact* float equality, and consecutive children tile their parent
gaplessly.  These tests assert that contract on seeded random ConvNets
(the generator from ``test_metric_invariants``) across CPU and GPU device
presets, check counter totals against the graph metric layer, exercise
every exporter, and pin a golden Chrome trace of AlexNet.

To regenerate the golden snapshot after an *intentional* change to the
simulator or the span layout::

    PYTHONPATH=src python tests/test_trace.py > tests/data/trace_golden.json
"""

import json
from pathlib import Path

import pytest

from repro.graph.metrics import graph_costs, summarize_costs
from repro.hardware.device import A100_80GB, XEON_GOLD_5318Y_CORE
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.memory import OutOfDeviceMemory
from repro.hardware.roofline import profile_graph
from repro.trace import (
    Span,
    TraceError,
    Tracer,
    chrome_json,
    chrome_payload,
    merge_counters,
    render_tree,
    to_chrome,
    to_json,
    write_chrome,
)
from repro.trace.run import trace_model

try:
    from tests.test_metric_invariants import random_graph
except ImportError:  # direct execution (snapshot regeneration)
    from test_metric_invariants import random_graph

DEVICES = {"cpu": XEON_GOLD_5318Y_CORE, "gpu": A100_80GB}
SEEDS = range(6)

GOLDEN_PATH = Path(__file__).parent / "data" / "trace_golden.json"


def _sequential_sum(spans) -> float:
    """Left-to-right float sum — the order the exactness contract fixes."""
    total = 0.0
    for span in spans:
        total += span.duration
    return total


@pytest.fixture(params=sorted(DEVICES), ids=sorted(DEVICES))
def device(request):
    return DEVICES[request.param]


@pytest.fixture(params=SEEDS)
def graph(request):
    return random_graph(request.param)


# -- span-tree invariants on random graphs -----------------------------------


class TestSpanTreeInvariants:
    @pytest.fixture
    def traced(self, graph, device):
        """(graph, tracer, measured total) of one traced inference."""
        executor = SimulatedExecutor(device, seed=0)
        tracer = Tracer()
        tracer.begin(graph.name, category="model")
        total = executor.measure_inference(
            profile_graph(graph), batch=8, tracer=tracer
        )
        tracer.end()
        tracer.require_closed()
        return graph, tracer, total

    def test_tracing_never_perturbs_the_measurement(self, graph, device):
        profile = profile_graph(graph)
        plain = SimulatedExecutor(device, seed=0).measure_inference(
            profile, batch=8
        )
        tracer = Tracer()
        tracer.begin(graph.name, category="model")
        traced = SimulatedExecutor(device, seed=0).measure_inference(
            profile, batch=8, tracer=tracer
        )
        tracer.end()
        assert plain == traced

    def test_durations_and_starts_are_non_negative(self, traced):
        _, tracer, _ = traced
        for root in tracer.roots:
            for span in root.walk():
                assert span.duration >= 0.0, span.name
                assert span.start >= 0.0, span.name

    def test_children_tile_their_parent_exactly(self, traced):
        """Strict nesting: consecutive children abut with exact float
        equality, and the last child ends exactly at the parent's end."""
        _, tracer, _ = traced
        (phase,) = tracer.roots[0].children
        children = phase.children
        for left, right in zip(children, children[1:]):
            assert right.start == left.start + left.duration
        last = children[-1]
        assert last.start + last.duration == phase.duration

    def test_layer_durations_sum_exactly_to_measured_total(self, traced):
        """The acceptance contract: exact equality, not approximate."""
        _, tracer, total = traced
        (phase,) = tracer.roots[0].children
        assert phase.duration == total
        assert _sequential_sum(phase.children) == total

    def test_counters_match_graph_metric_layer(self, traced):
        graph, tracer, _ = traced
        batch = 8
        summary = summarize_costs(graph)
        costs = graph_costs(graph)
        expected_bytes = batch * float(
            sum(c.input_bytes + c.output_bytes for c in costs)
        ) + float(sum(c.weight_bytes for c in costs))
        assert tracer.counters["flops"] == batch * summary.flops
        assert tracer.counters["bytes"] == expected_bytes

    def test_layer_spans_carry_per_layer_work(self, traced):
        _, tracer, _ = traced
        layers = tracer.roots[0].find("layer")
        assert layers
        for span in layers:
            assert span.attrs["flops"] >= 0.0
            assert span.attrs["bytes"] > 0.0
        assert sum(s.attrs["flops"] for s in layers) == (
            tracer.counters["flops"]
        )


class TestTrainingStepInvariants:
    def test_every_phase_sums_exactly(self, graph, device):
        executor = SimulatedExecutor(device, seed=0)
        tracer = Tracer()
        tracer.begin(graph.name, category="model")
        phases = executor.measure_training_step(
            profile_graph(graph), batch=4, tracer=tracer
        )
        tracer.end()
        spans = tracer.roots[0].children
        assert [s.name for s in spans] == [
            "forward", "backward", "grad_update",
        ]
        for span, total in zip(
            spans, (phases.forward, phases.backward, phases.grad_update)
        ):
            assert span.duration == total
            assert _sequential_sum(span.children) == total

    def test_backward_layers_run_in_reverse_order(self, graph, device):
        executor = SimulatedExecutor(device, seed=0)
        tracer = Tracer()
        tracer.begin(graph.name, category="model")
        executor.measure_training_step(
            profile_graph(graph), batch=4, tracer=tracer
        )
        tracer.end()
        fwd, bwd, _ = tracer.roots[0].children
        fwd_names = [s.name for s in fwd.children if s.category == "layer"]
        bwd_names = [s.name for s in bwd.children if s.category == "layer"]
        assert bwd_names == fwd_names[::-1]

    def test_tracing_never_perturbs_the_measurement(self, graph, device):
        profile = profile_graph(graph)
        plain = SimulatedExecutor(device, seed=0).measure_training_step(
            profile, batch=4
        )
        tracer = Tracer()
        tracer.begin(graph.name, category="model")
        traced = SimulatedExecutor(device, seed=0).measure_training_step(
            profile, batch=4, tracer=tracer
        )
        tracer.end()
        assert plain == traced


# -- tracer unit behaviour ---------------------------------------------------


class TestTracerCore:
    def test_nested_spans_and_depth(self):
        tracer = Tracer()
        assert tracer.depth == 0
        tracer.begin("outer", category="phase")
        tracer.begin("inner", category="layer")
        assert tracer.depth == 2
        tracer.advance(1.0)
        tracer.end()
        tracer.end()
        assert tracer.depth == 0
        (outer,) = tracer.roots
        assert outer.duration == 1.0
        assert outer.children[0].duration == 1.0

    def test_end_without_begin_raises(self):
        with pytest.raises(TraceError, match="without a matching"):
            Tracer().end()

    def test_negative_advance_raises(self):
        tracer = Tracer()
        tracer.begin("s", category="phase")
        with pytest.raises(TraceError, match="advance"):
            tracer.advance(-1e-9)

    def test_explicit_duration_shorter_than_children_raises(self):
        tracer = Tracer()
        tracer.begin("phase", category="phase")
        tracer.add("layer", 2.0, category="layer")
        with pytest.raises(TraceError, match="shorter"):
            tracer.end(1.0)

    def test_add_at_rejects_negative_geometry(self):
        tracer = Tracer()
        tracer.begin("s", category="phase")
        with pytest.raises(TraceError, match="negative start"):
            tracer.add_at("c", -0.1, 1.0, category="comm")
        with pytest.raises(TraceError, match="negative duration"):
            tracer.add_at("c", 0.1, -1.0, category="comm")

    def test_add_at_does_not_move_the_clock(self):
        tracer = Tracer()
        tracer.begin("s", category="phase")
        tracer.add("a", 1.0, category="layer")
        tracer.add_at("overlap", 0.25, 5.0, category="comm", track="comm")
        assert tracer.elapsed() == 1.0
        tracer.end()

    def test_require_closed_names_open_spans(self):
        tracer = Tracer()
        tracer.begin("open-one", category="phase")
        with pytest.raises(TraceError, match="open-one"):
            tracer.require_closed()

    def test_counters_accumulate_and_merge(self):
        tracer = Tracer()
        tracer.count("flops", 2.0)
        tracer.count("flops", 3.0)
        tracer.count("bytes", 1.0)
        assert tracer.counters == {"flops": 5.0, "bytes": 1.0}
        totals = {"flops": 1.0}
        merge_counters(totals, tracer.counters)
        assert totals == {"flops": 6.0, "bytes": 1.0}

    def test_span_find_and_walk(self):
        tracer = Tracer()
        tracer.begin("phase", category="phase")
        tracer.add("a", 1.0, category="layer")
        tracer.add("b", 1.0, category="layer")
        tracer.end()
        (root,) = tracer.roots
        assert len(list(root.walk())) == 3
        assert [s.name for s in root.find("layer")] == ["a", "b"]


# -- exporters ---------------------------------------------------------------


@pytest.fixture(scope="module")
def alexnet_trace():
    return trace_model(
        "alexnet", XEON_GOLD_5318Y_CORE, image_size=224, batch=1, seed=0
    )


class TestExporters:
    def test_render_tree_lists_spans_and_counters(self, alexnet_trace):
        text = render_tree(alexnet_trace)
        assert "alexnet@224 b=1" in text
        assert "forward" in text
        assert "conv2d_0" in text
        assert "overhead" in text
        assert text.splitlines()[-1].startswith("counters:")

    def test_json_export_round_trips_the_tree(self, alexnet_trace):
        payload = json.loads(to_json(alexnet_trace))
        assert payload["version"] == 1
        assert set(payload["counters"]) == {"flops", "bytes"}

        def count(span):
            return 1 + sum(count(c) for c in span["children"])

        n_spans = sum(count(s) for s in payload["spans"])
        assert n_spans == sum(
            1 for root in alexnet_trace.roots for _ in root.walk()
        )

    def test_chrome_events_are_complete_events_in_microseconds(
        self, alexnet_trace
    ):
        events = to_chrome(alexnet_trace)
        assert events, "empty trace"
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 0
            assert event["tid"] in (0, 1)
        (root,) = alexnet_trace.roots
        assert events[0]["dur"] == root.duration * 1e6

    def test_chrome_children_are_absolutely_positioned(self, alexnet_trace):
        events = to_chrome(alexnet_trace)
        model = events[0]
        for event in events[1:]:
            assert event["ts"] >= model["ts"]
            assert (
                event["ts"] + event["dur"]
                <= model["ts"] + model["dur"] * (1 + 1e-12)
            )

    def test_chrome_json_is_loadable_payload(self, alexnet_trace):
        payload = json.loads(chrome_json(alexnet_trace))
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert chrome_payload([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }

    def test_write_chrome_reports_event_count(self, alexnet_trace, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome(alexnet_trace, path)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == n

    def test_exporting_an_unclosed_tracer_raises(self):
        tracer = Tracer()
        tracer.begin("open", category="phase")
        with pytest.raises(TraceError, match="unclosed"):
            to_chrome(tracer)

    def test_exporters_accept_bare_span_lists(self):
        span = Span("s", category="phase", duration=1.0)
        assert "s" in render_tree([span])
        assert json.loads(to_json([span]))["counters"] == {}
        assert to_chrome([span])[0]["name"] == "s"

    def test_comm_spans_land_on_their_own_chrome_row(self):
        trace = trace_model(
            "resnet18", A100_80GB, image_size=64, batch=32,
            phase="distributed", nodes=2, seed=0,
        )
        events = to_chrome(trace)
        allreduce = [e for e in events if e["name"].startswith("allreduce")]
        assert allreduce
        assert {e["tid"] for e in allreduce} == {1}
        assert {e["tid"] for e in events if e["cat"] == "phase"} == {0}


# -- the repro-trace driver --------------------------------------------------


class TestTraceModelDriver:
    def test_inference_trace_has_one_forward_phase(self, alexnet_trace):
        (root,) = alexnet_trace.roots
        assert root.category == "model"
        assert [c.name for c in root.children] == ["forward"]

    def test_step_trace_has_three_phases(self):
        trace = trace_model(
            "alexnet", XEON_GOLD_5318Y_CORE, image_size=64, batch=2,
            phase="step", seed=0,
        )
        (root,) = trace.roots
        assert [c.name for c in root.children] == [
            "forward", "backward", "grad_update",
        ]

    def test_distributed_trace_overlaps_comm_with_backward(self):
        trace = trace_model(
            "resnet18", A100_80GB, image_size=64, batch=32,
            phase="distributed", nodes=2, seed=0,
        )
        (root,) = trace.roots
        comm = [c for c in root.children if c.track == "comm"]
        assert comm, "expected all-reduce spans"
        assert trace.counters["allreduce_bytes"] > 0.0
        backward = next(c for c in root.children if c.name == "backward")
        # The first bucket starts while backward is still running.
        assert comm[0].start < backward.start + backward.duration

    def test_single_node_distributed_has_no_comm(self):
        trace = trace_model(
            "alexnet", A100_80GB, image_size=64, batch=8,
            phase="distributed", nodes=1, gpus_per_node=1, seed=0,
        )
        (root,) = trace.roots
        assert all(c.track == "compute" for c in root.children)
        assert "allreduce_bytes" not in trace.counters

    def test_image_size_clamps_to_model_minimum(self):
        trace = trace_model(
            "inception_v3", XEON_GOLD_5318Y_CORE, image_size=32, batch=1,
            seed=0,
        )
        (root,) = trace.roots
        assert root.attrs["image_size"] == 75

    def test_unknown_phase_raises(self):
        with pytest.raises(ValueError, match="unknown phase"):
            trace_model("alexnet", A100_80GB, phase="sideways")

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            trace_model("not-a-net", A100_80GB)

    def test_oversized_batch_raises_out_of_memory(self):
        with pytest.raises(OutOfDeviceMemory):
            trace_model("vgg16", A100_80GB, batch=2 ** 17)

    def test_identical_requests_trace_byte_identically(self, alexnet_trace):
        again = trace_model(
            "alexnet", XEON_GOLD_5318Y_CORE, image_size=224, batch=1, seed=0
        )
        assert chrome_json(again) == chrome_json(alexnet_trace)


# -- golden snapshot ---------------------------------------------------------


def _golden_payload() -> dict:
    """The pinned configuration: AlexNet forward pass on the Xeon preset,
    batch 1, seed 0 — the acceptance command of the tracing layer."""
    trace = trace_model(
        "alexnet", XEON_GOLD_5318Y_CORE, image_size=224, batch=1,
        phase="inference", seed=0,
    )
    return chrome_payload(to_chrome(trace))


class TestGoldenTrace:
    def test_chrome_trace_matches_golden_snapshot(self):
        assert _golden_payload() == json.loads(GOLDEN_PATH.read_text()), (
            "the AlexNet Chrome trace moved — a simulator or span-layout "
            "change shifts every exported trace; regenerate "
            "tests/data/trace_golden.json only for an intentional change"
        )


if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    print(json.dumps(_golden_payload(), indent=2, sort_keys=True))
