"""Campaign engine determinism: serial ≡ parallel ≡ resumed.

The engine's contract is that a campaign's record stream is a pure function
of its :class:`CampaignSpec` — execution order, worker count, and
interrupt/resume splits must never change a byte.  These tests pin that
contract across worker counts (1, 2, 4) and across resume-from-partial vs
fresh runs, plus the store's refusal modes.
"""

import json
from pathlib import Path

import pytest

from repro.benchdata import (
    CampaignSpec,
    CampaignStore,
    StoreMismatch,
    enumerate_points,
    inference_campaign,
    run_campaign,
    trace_campaign,
    training_campaign,
)
from repro.hardware.device import A100_80GB
from repro.trace import Tracer, chrome_json

#: Reference sweep: 3 models across a batch/image grid (the acceptance
#: campaign), small enough to run repeatedly in the unit suite.
REFERENCE_SPEC = CampaignSpec(
    scenario="inference",
    models=("alexnet", "resnet18", "mobilenet_v2"),
    device=A100_80GB,
    batch_sizes=(1, 8, 64),
    image_sizes=(64, 128),
    seed=17,
)


def _dataset_bytes(dataset) -> bytes:
    """Canonical byte serialisation for exact-equality comparison."""
    return json.dumps(
        [r.to_dict() for r in dataset], sort_keys=True
    ).encode()


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(REFERENCE_SPEC, workers=1)


class TestParallelDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial_byte_identically(
        self, serial_result, workers
    ):
        parallel = run_campaign(REFERENCE_SPEC, workers=workers)
        assert parallel.dataset.records == serial_result.dataset.records
        assert _dataset_bytes(parallel.dataset) == _dataset_bytes(
            serial_result.dataset
        )

    def test_wrapper_parallel_matches_wrapper_serial(self):
        kw = dict(
            models=("alexnet", "resnet18"),
            batch_sizes=(1, 16),
            image_sizes=(64, 128),
            seed=3,
        )
        assert (
            inference_campaign(**kw, workers=2).records
            == inference_campaign(**kw).records
        )

    def test_training_scenario_parallel_matches_serial(self):
        kw = dict(
            models=("alexnet", "resnet18"),
            batch_sizes=(1, 16),
            image_sizes=(64,),
            seed=4,
        )
        assert (
            training_campaign(**kw, workers=2).records
            == training_campaign(**kw).records
        )

    def test_record_order_follows_enumeration(self, serial_result):
        points = enumerate_points(REFERENCE_SPEC)
        order = {
            (p.model, p.image_size, p.batch): i for i, p in enumerate(points)
        }
        indices = [
            order[(r.model, r.image_size, r.batch)]
            for r in serial_result.dataset
        ]
        assert indices == sorted(indices)


class TestByteCompatibility:
    """Pin the simulator's noise streams: a cache or engine refactor must
    not silently move any measured value (values captured pre-engine)."""

    def test_inference_values_are_stable(self):
        data = inference_campaign(
            models=("alexnet",), batch_sizes=(4,), image_sizes=(64,), seed=5
        )
        assert [r.t_fwd.hex() for r in data] == ["0x1.638f6b1cb1ffdp-12"]

    def test_training_values_are_stable(self):
        data = training_campaign(
            models=("alexnet",), batch_sizes=(4,), image_sizes=(64,), seed=5
        )
        assert [(r.t_fwd.hex(), r.t_bwd.hex(), r.t_grad.hex())
                for r in data] == [
            (
                "0x1.48107bcef0e81p-12",
                "0x1.60148eefd0103p-12",
                "0x1.777d5e3140af0p-11",
            )
        ]


class TestResume:
    def test_fresh_store_roundtrip(self, tmp_path, serial_result):
        store = CampaignStore.open(tmp_path / "run", REFERENCE_SPEC)
        with store:
            result = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        assert result.dataset.records == serial_result.dataset.records
        manifest = json.loads(
            (tmp_path / "run" / "manifest.json").read_text()
        )
        assert manifest["complete"] is True
        assert manifest["stats"]["n_executed"] == result.stats.n_executed

    def test_resume_from_partial_matches_fresh(
        self, tmp_path, serial_result
    ):
        directory = tmp_path / "run"
        store = CampaignStore.open(directory, REFERENCE_SPEC)
        with store:
            run_campaign(REFERENCE_SPEC, workers=1, store=store)
        # Simulate an interrupt: keep only the first half of the log, with
        # a truncated (corrupt) trailing line as a killed writer leaves.
        log = directory / "records.jsonl"
        lines = log.read_text().splitlines()
        keep = len(lines) // 2
        log.write_text("\n".join(lines[:keep]) + '\n{"key": "trunc')
        # Un-finalize the manifest, as an interrupted run never finalizes.
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["complete"] = False
        manifest_path.write_text(json.dumps(manifest))

        store = CampaignStore.open(directory, REFERENCE_SPEC, resume=True)
        with store:
            resumed = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        assert resumed.stats.n_restored == keep
        assert resumed.stats.n_executed == resumed.stats.n_points - keep
        assert (
            resumed.dataset.records == serial_result.dataset.records
        ), "resumed campaign must be byte-identical to an uninterrupted one"

    def test_resume_of_complete_store_measures_nothing(self, tmp_path):
        directory = tmp_path / "run"
        with CampaignStore.open(directory, REFERENCE_SPEC) as store:
            first = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        with CampaignStore.open(
            directory, REFERENCE_SPEC, resume=True
        ) as store:
            second = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        assert second.stats.n_executed == 0
        assert second.stats.n_restored == second.stats.n_points
        assert second.dataset.records == first.dataset.records

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        spec = CampaignSpec(
            scenario="inference",
            models=("alexnet",),
            device=A100_80GB,
            batch_sizes=(1, 2, 4, 8),
            image_sizes=(64,),
            seed=17,
        )
        directory = tmp_path / "run"
        with CampaignStore.open(directory, spec) as store:
            fresh = run_campaign(spec, workers=1, store=store)
        log = directory / "records.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        assert len(lines) == 4
        log.write_text("".join(lines[:-1]) + lines[-1][:20])

        with CampaignStore.open(directory, spec, resume=True) as store:
            first = run_campaign(spec, workers=1, store=store)
        assert first.stats.n_executed == 1
        # The re-measured point starts a line of its own, so the log is
        # exactly the uninterrupted one and a further resume finds it all.
        assert log.read_text() == "".join(lines)
        with CampaignStore.open(directory, spec, resume=True) as store:
            second = run_campaign(spec, workers=1, store=store)
        assert second.stats.n_executed == 0
        assert first.dataset.records == fresh.dataset.records
        assert second.dataset.records == fresh.dataset.records

    def test_line_missing_its_newline_is_remeasured(self, tmp_path):
        directory = tmp_path / "run"
        with CampaignStore.open(directory, REFERENCE_SPEC) as store:
            fresh = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        log = directory / "records.jsonl"
        complete = log.read_text()
        log.write_text(complete.rstrip("\n"))  # parseable, unfinished
        with CampaignStore.open(
            directory, REFERENCE_SPEC, resume=True
        ) as store:
            resumed = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        assert resumed.stats.n_executed == 1
        assert resumed.dataset.records == fresh.dataset.records
        assert log.read_text() == complete

    def test_failed_manifest_write_keeps_previous_manifest(
        self, tmp_path, monkeypatch, serial_result
    ):
        directory = tmp_path / "run"
        real_write_text = Path.write_text

        def crash_mid_write(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        store = CampaignStore.open(directory, REFERENCE_SPEC)
        monkeypatch.setattr(Path, "write_text", crash_mid_write)
        with pytest.raises(OSError, match="disk full"), store:
            run_campaign(REFERENCE_SPEC, workers=1, store=store)
        monkeypatch.undo()

        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["complete"] is False
        with CampaignStore.open(
            directory, REFERENCE_SPEC, resume=True
        ) as store:
            resumed = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        assert resumed.stats.n_executed == 0
        assert resumed.dataset.records == serial_result.dataset.records
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["complete"] is True

    def test_parallel_resume_matches_serial_fresh(
        self, tmp_path, serial_result
    ):
        directory = tmp_path / "run"
        with CampaignStore.open(directory, REFERENCE_SPEC) as store:
            run_campaign(REFERENCE_SPEC, workers=1, store=store)
        log = directory / "records.jsonl"
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[: len(lines) // 3]) + "\n")
        with CampaignStore.open(
            directory, REFERENCE_SPEC, resume=True
        ) as store:
            resumed = run_campaign(REFERENCE_SPEC, workers=2, store=store)
        assert resumed.dataset.records == serial_result.dataset.records

    def test_existing_store_without_resume_refused(self, tmp_path):
        directory = tmp_path / "run"
        CampaignStore.open(directory, REFERENCE_SPEC).close()
        with pytest.raises(FileExistsError, match="--resume"):
            CampaignStore.open(directory, REFERENCE_SPEC)

    def test_spec_mismatch_refused(self, tmp_path):
        directory = tmp_path / "run"
        CampaignStore.open(directory, REFERENCE_SPEC).close()
        other = CampaignSpec(
            scenario="inference",
            models=REFERENCE_SPEC.models,
            device=A100_80GB,
            batch_sizes=REFERENCE_SPEC.batch_sizes,
            image_sizes=REFERENCE_SPEC.image_sizes,
            seed=REFERENCE_SPEC.seed + 1,
        )
        with pytest.raises(StoreMismatch):
            CampaignStore.open(directory, other, resume=True)

    def test_gated_points_are_logged_and_restored(self, tmp_path):
        spec = CampaignSpec(
            scenario="inference",
            models=("vgg16",),
            device=A100_80GB,
            batch_sizes=(1, 2 ** 17),  # the huge batch is memory-gated
            image_sizes=(224,),
            seed=1,
        )
        directory = tmp_path / "run"
        with CampaignStore.open(directory, spec) as store:
            first = run_campaign(spec, workers=1, store=store)
        assert {r.batch for r in first.dataset} == {1}
        with CampaignStore.open(directory, spec, resume=True) as store:
            second = run_campaign(spec, workers=1, store=store)
        # The gate decision itself was restored — nothing re-measured.
        assert second.stats.n_executed == 0
        assert second.dataset.records == first.dataset.records


class TestTraceDeterminism:
    """The campaign trace is a pure function of the spec: byte-identical
    Chrome output for any worker count and any resume split, and requesting
    it never changes the record stream."""

    @staticmethod
    def _traced_run(workers, store=None):
        tracer = Tracer()
        result = run_campaign(
            REFERENCE_SPEC, workers=workers, store=store, tracer=tracer
        )
        return result, chrome_json(tracer)

    def test_trace_bytes_identical_across_worker_counts(self):
        _, serial = self._traced_run(1)
        _, parallel = self._traced_run(4)
        assert serial == parallel

    def test_trace_bytes_identical_across_resume(self, tmp_path):
        _, fresh = self._traced_run(1)
        directory = tmp_path / "run"
        with CampaignStore.open(directory, REFERENCE_SPEC) as store:
            run_campaign(REFERENCE_SPEC, workers=1, store=store)
        log = directory / "records.jsonl"
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[: len(lines) // 3]) + "\n")
        with CampaignStore.open(
            directory, REFERENCE_SPEC, resume=True
        ) as store:
            resumed, resumed_trace = self._traced_run(2, store=store)
        assert resumed.stats.n_restored > 0
        assert resumed_trace == fresh

    def test_records_byte_identical_with_and_without_trace(
        self, serial_result
    ):
        traced, _ = self._traced_run(1)
        assert _dataset_bytes(traced.dataset) == _dataset_bytes(
            serial_result.dataset
        )

    def test_standalone_trace_campaign_matches_run_campaign_trace(self):
        _, from_run = self._traced_run(1)
        tracer = Tracer()
        trace_campaign(REFERENCE_SPEC, tracer)
        assert chrome_json(tracer) == from_run

    def test_work_counters_identical_serial_vs_parallel(self):
        serial = run_campaign(REFERENCE_SPEC, workers=1)
        parallel = run_campaign(REFERENCE_SPEC, workers=4)

        def work(stats):
            # Cache warmth legitimately differs across process layouts;
            # the measured work must not.
            return {
                k: v for k, v in stats.counters.items()
                if not k.startswith("cache_")
            }

        assert work(serial.stats) == work(parallel.stats)
        assert serial.stats.counters["flops"] > 0.0
        assert serial.stats.counters["cache_hits"] >= 0.0

    def test_counters_survive_the_manifest_round_trip(self, tmp_path):
        directory = tmp_path / "run"
        with CampaignStore.open(directory, REFERENCE_SPEC) as store:
            result = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["stats"]["counters"] == dict(
            sorted(result.stats.counters.items())
        )

    def test_trace_module_passes_the_determinism_linter(self):
        from repro.lint import lint_paths

        trace_dir = (
            Path(__file__).parent.parent / "src" / "repro" / "trace"
        )
        diags, n_files = lint_paths([str(trace_dir)])
        assert n_files >= 3
        assert diags == [], [d.render() for d in diags]


class TestStatsCounters:
    def test_throughput_and_cache_counters(self, serial_result):
        stats = serial_result.stats
        assert stats.n_points == len(enumerate_points(REFERENCE_SPEC))
        assert stats.n_executed == stats.n_points
        assert stats.n_records == len(serial_result.dataset)
        assert stats.elapsed_seconds > 0
        assert stats.points_per_second > 0
        assert 0.0 <= stats.cache.hit_rate <= 1.0
        # Each (model, image) pair misses once at most; everything else hits.
        assert stats.cache.lookups == stats.n_points
        assert stats.cache.misses <= 3 * 2  # |models| × |image sizes|

    def test_parallel_cache_counters_aggregate_across_workers(self):
        result = run_campaign(REFERENCE_SPEC, workers=2)
        assert result.stats.cache.lookups == result.stats.n_points
        assert result.stats.cache.hits > 0

    def test_summary_mentions_throughput_and_hit_rate(self, serial_result):
        text = serial_result.stats.summary()
        assert "points/s" in text
        assert "hits" in text
