"""Campaign engine determinism: serial ≡ parallel ≡ resumed.

The engine's contract is that a campaign's record stream is a pure function
of its :class:`CampaignSpec` — execution order, worker count, and
interrupt/resume splits must never change a byte.  These tests pin that
contract across worker counts (1, 2, 4) and across resume-from-partial vs
fresh runs, plus the store's refusal modes.
"""

import dataclasses
import json
import shutil
import warnings
from pathlib import Path

import pytest

from repro.benchdata import (
    CampaignSpec,
    CampaignStore,
    StoreCorrupt,
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

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_interrupt_inside_a_task_keeps_exactly_the_finished_grids(
        self, tmp_path, serial_result, workers, k
    ):
        # A task is one model's grids; the store still checkpoints each
        # grid, so a run killed after grid k re-measures none of them.
        spec = REFERENCE_SPEC
        points = enumerate_points(spec)
        grids: dict[tuple, int] = {}
        for p in points:
            key = (p.nodes, p.model, p.image_size)
            grids[key] = grids.get(key, 0) + 1
        sizes = list(grids.values())
        keys = list(grids)
        # Grid k is not the last grid of its model's task.
        assert keys[k - 1][:2] == keys[k][:2]
        head = sum(sizes[:k])

        with CampaignStore.open(tmp_path / "fresh", spec) as store:
            run_campaign(spec, workers=1, store=store)
        complete = (tmp_path / "fresh" / "records.jsonl").read_text()

        class Interrupt(Exception):
            pass

        seen = []

        def progress(done, total):
            seen.append(done)
            if len(seen) == k:
                raise Interrupt

        directory = tmp_path / "run"
        with pytest.raises(Interrupt), CampaignStore.open(
            directory, spec
        ) as store:
            run_campaign(spec, workers=workers, store=store,
                         progress=progress)
        assert seen == [sum(sizes[:i + 1]) for i in range(k)]
        log = directory / "records.jsonl"
        lines = complete.splitlines(keepends=True)
        assert log.read_text() == "".join(lines[:head])

        with CampaignStore.open(directory, spec, resume=True) as store:
            resumed = run_campaign(spec, workers=workers, store=store)
        assert resumed.stats.n_restored == head
        assert resumed.stats.n_executed == len(points) - head
        assert log.read_text() == complete
        assert _dataset_bytes(resumed.dataset) == _dataset_bytes(
            serial_result.dataset
        )

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

    @pytest.mark.parametrize(
        "bad", ['{"records": []}', "[1, 2]", '"x"'],
        ids=["no-key", "list", "string"],
    )
    def test_wrong_shape_line_is_remeasured(
        self, tmp_path, serial_result, bad
    ):
        directory = tmp_path / "run"
        with CampaignStore.open(directory, REFERENCE_SPEC) as store:
            run_campaign(REFERENCE_SPEC, workers=1, store=store)
        log = directory / "records.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        lines[1] = bad + "\n"
        log.write_text("".join(lines))
        with CampaignStore.open(
            directory, REFERENCE_SPEC, resume=True
        ) as store:
            resumed = run_campaign(REFERENCE_SPEC, workers=1, store=store)
        assert resumed.stats.n_executed == 1
        assert _dataset_bytes(resumed.dataset) == _dataset_bytes(
            serial_result.dataset
        )

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


def _n_grids(spec: CampaignSpec) -> int:
    """Number of (nodes, model, image) grids a campaign measures."""
    return len({
        (p.nodes, p.model, p.image_size) for p in enumerate_points(spec)
    })


class TestStatsCounters:
    def test_throughput_and_cache_counters(self, serial_result):
        stats = serial_result.stats
        assert stats.n_points == len(enumerate_points(REFERENCE_SPEC))
        assert stats.n_executed == stats.n_points
        assert stats.n_records == len(serial_result.dataset)
        assert stats.elapsed_seconds > 0
        assert stats.points_per_second > 0
        assert 0.0 <= stats.cache.hit_rate <= 1.0
        # One lookup per measured (model, image) grid; each pair misses
        # once at most, everything else hits.
        assert stats.cache.lookups == _n_grids(REFERENCE_SPEC)
        assert stats.cache.misses <= 3 * 2  # |models| × |image sizes|

    def test_parallel_cache_counters_aggregate_across_workers(self):
        result = run_campaign(REFERENCE_SPEC, workers=2)
        assert result.stats.cache.lookups == _n_grids(REFERENCE_SPEC)
        assert result.stats.cache.hits > 0

    def test_summary_mentions_throughput_and_hit_rate(self, serial_result):
        text = serial_result.stats.summary()
        assert "points/s" in text
        assert "hits" in text


def _fresh_profile_caches(monkeypatch):
    """Swap in empty graph-record and verdict caches: a cold process."""
    from repro.benchdata import engine
    from repro.caching import LRUCache
    from repro.hardware import roofline

    monkeypatch.setattr(
        roofline, "GRAPH_RECORD_CACHE", LRUCache(maxsize=512)
    )
    monkeypatch.setattr(engine, "VERIFY_CACHE", LRUCache(maxsize=512))


def _double_summary_flops(monkeypatch):
    """Corrupt every graph record built from now on: its summary claims
    twice the FLOPs, which IR004 reports as an ERROR per graph."""
    from repro.hardware import roofline

    of = roofline.GraphRecord.of

    def doubled(graph):
        record = of(graph)
        summary = dataclasses.replace(
            record.summary, flops=2 * record.summary.flops
        )
        return dataclasses.replace(record, summary=summary)

    monkeypatch.setattr(roofline.GraphRecord, "of", staticmethod(doubled))


SMALL = dict(
    device=A100_80GB, batch_sizes=(1, 32), image_sizes=(64, 128), seed=5
)
VERIFY_EQUIVALENCE_SPECS = {
    "training": CampaignSpec(
        scenario="training", models=("alexnet", "resnet18"), **SMALL
    ),
    "inference": CampaignSpec(
        scenario="inference", models=("mobilenet_v2", "resnet18"), **SMALL
    ),
    "blocks": CampaignSpec(
        scenario="blocks", models=("BasicBlock7", "MBConv"), **SMALL
    ),
    "fused": CampaignSpec(
        scenario="inference", models=("resnet18", "mobilenet_v2"),
        transform="inference", **SMALL
    ),
}


class TestVerifiedGraphsAreMeasured:
    """Verification builds and costs each zoo model once, over all its
    image sizes; the sweep measures those very profiles."""

    def test_one_build_per_graph_and_no_profiling_in_the_sweep(
        self, monkeypatch
    ):
        import repro.zoo
        from repro.benchdata import engine
        from repro.hardware import roofline

        _fresh_profile_caches(monkeypatch)
        builds: list[tuple[str, int]] = []
        measuring_profiles = []
        measuring = []
        build_model = repro.zoo.build_model
        profile_graph = roofline.profile_graph
        run_verification = engine._run_verification

        def counting_build(name, image_size=224, *args, **kwargs):
            builds.append((name, image_size))
            return build_model(name, image_size, *args, **kwargs)

        def counting_profile(*args, **kwargs):
            if measuring:
                measuring_profiles.append(args[0].name)
            return profile_graph(*args, **kwargs)

        def verification_then_measure(*args, **kwargs):
            errors = run_verification(*args, **kwargs)
            measuring.append(True)
            return errors

        monkeypatch.setattr(repro.zoo, "build_model", counting_build)
        monkeypatch.setattr(roofline, "profile_graph", counting_profile)
        monkeypatch.setattr(
            engine, "_run_verification", verification_then_measure
        )
        spec = VERIFY_EQUIVALENCE_SPECS["training"]
        result = run_campaign(spec, workers=1, verify="warn")
        # One build per model, not per (model, image): each model's image
        # sizes are costed from one topology.
        assert sorted(name for name, _ in builds) == sorted(spec.models)
        assert measuring_profiles == []
        assert result.stats.cache.hit_rate == 1.0

    @pytest.mark.parametrize("name", ["training", "blocks", "fused"])
    def test_one_cost_walk_per_graph(self, monkeypatch, name):
        """Verification and the sweep share one ``graph_costs`` walk per
        model or block topology over all its images (one per half for
        fused sweeps): IR004 checks the records' summaries instead of
        summarising the graphs a second time."""
        from repro.graph import metrics
        from repro.hardware import roofline

        _fresh_profile_caches(monkeypatch)
        walked: list[str] = []
        graph_costs = metrics.graph_costs

        def counting(graph):
            walked.append(graph.name)
            return graph_costs(graph)

        monkeypatch.setattr(metrics, "graph_costs", counting)
        monkeypatch.setattr(roofline, "graph_costs", counting)
        spec = VERIFY_EQUIVALENCE_SPECS[name]
        result = run_campaign(spec, workers=1, verify="warn")
        per_topology = 2 if spec.transform else 1  # raw, plus fused
        assert len(walked) == per_topology * len(spec.models)
        assert result.stats.cache.hit_rate == 1.0

    def test_strict_campaign_refuses_a_corrupt_record_summary(
        self, monkeypatch
    ):
        from repro.analysis.verify import GraphVerificationError

        _fresh_profile_caches(monkeypatch)
        _double_summary_flops(monkeypatch)
        spec = VERIFY_EQUIVALENCE_SPECS["training"]
        with pytest.raises(GraphVerificationError) as err:
            run_campaign(spec, workers=1, verify="strict")
        ir004 = [d for d in err.value.diagnostics if d.rule == "IR004"]
        unique = {(p.model, p.image_size) for p in enumerate_points(spec)}
        assert len(ir004) == len(unique)
        assert all(
            "FLOPs (F) from supplied summary" in d.message for d in ir004
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(VERIFY_EQUIVALENCE_SPECS))
    def test_records_identical_with_and_without_verification(
        self, monkeypatch, name, workers
    ):
        spec = VERIFY_EQUIVALENCE_SPECS[name]
        _fresh_profile_caches(monkeypatch)
        verified = run_campaign(spec, workers=workers, verify="warn")
        _fresh_profile_caches(monkeypatch)
        unverified = run_campaign(spec, workers=workers, verify="off")
        assert verified.dataset.records
        assert _dataset_bytes(verified.dataset) == _dataset_bytes(
            unverified.dataset
        )


#: Two points: enough to open, measure and finalize a store.
TINY_SPEC = CampaignSpec(
    scenario="inference", models=("alexnet",), device=A100_80GB,
    batch_sizes=(1, 2), image_sizes=(64,), seed=17,
)


def _manifest_path(directory: Path) -> Path:
    return directory / "manifest.json"


def _read_manifest(directory: Path) -> dict:
    return json.loads(_manifest_path(directory).read_text())


def _write_manifest(directory: Path, manifest: dict) -> None:
    _manifest_path(directory).write_text(json.dumps(manifest))


#: name -> (manifest text from the valid text, key the error must name).
CORRUPT_MANIFESTS = {
    "empty": (lambda text: "", "unparsable"),
    "cut-mid-key": (
        lambda text: text[: text.index('"fingerprint"') + 5], "unparsable"
    ),
    "trailing-garbage": (lambda text: text + "}\n", "unparsable"),
    "not-an-object": (lambda text: "[1, 2]", "not a JSON object"),
    "no-fingerprint": (
        lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "fingerprint"}
        ),
        "'fingerprint'",
    ),
    "verdicts-not-a-block": (
        lambda text: json.dumps({**json.loads(text), "verdicts": []}),
        "'verdicts'",
    ),
    "verdict-not-a-list": (
        lambda text: json.dumps({
            **json.loads(text),
            "verdicts": {"rules": [], "graphs": {"alexnet@64": {}}},
        }),
        "'verdicts.graphs.alexnet@64'",
    ),
    "verdict-bad-diagnostic": (
        lambda text: json.dumps({
            **json.loads(text),
            "verdicts": {
                "rules": [],
                "graphs": {"alexnet@64": [{"rule": "IR004"}]},
            },
        }),
        "'verdicts.graphs.alexnet@64'",
    ),
}


class TestStoreCorrupt:
    """A manifest that cannot be read back is a typed error naming the
    file and the key, from resume and from finalize alike."""

    @staticmethod
    def _corrupt(directory: Path, case: str) -> str:
        mutate, expected = CORRUPT_MANIFESTS[case]
        path = _manifest_path(directory)
        path.write_text(mutate(path.read_text()))
        return expected

    @pytest.mark.parametrize("case", sorted(CORRUPT_MANIFESTS))
    def test_resume_refuses_a_corrupt_manifest(self, tmp_path, case):
        directory = tmp_path / "run"
        CampaignStore.open(directory, TINY_SPEC).close()
        expected = self._corrupt(directory, case)
        with pytest.raises(StoreCorrupt) as err:
            CampaignStore.open(directory, TINY_SPEC, resume=True)
        assert str(_manifest_path(directory)) in str(err.value)
        assert expected in str(err.value)

    @pytest.mark.parametrize(
        "case", ["empty", "cut-mid-key", "no-fingerprint",
                 "verdict-bad-diagnostic"]
    )
    def test_finalize_refuses_a_corrupt_manifest(self, tmp_path, case):
        directory = tmp_path / "run"
        with CampaignStore.open(directory, TINY_SPEC) as store:
            expected = self._corrupt(directory, case)
            with pytest.raises(StoreCorrupt) as err:
                run_campaign(TINY_SPEC, workers=1, store=store)
        assert str(_manifest_path(directory)) in str(err.value)
        assert expected in str(err.value)


#: Four graphs (two models x two images), eight points.
VERDICT_SPEC = VERIFY_EQUIVALENCE_SPECS["training"]


def _graph_keys(spec: CampaignSpec) -> list[str]:
    return list(dict.fromkeys(
        f"{p.model}@{p.image_size}" for p in enumerate_points(spec)
    ))


def _warn_run(spec, workers, store):
    """``verify="warn"`` run; returns the result and its warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_campaign(
            spec, workers=workers, store=store, verify="warn"
        )
    return result, [str(w.message) for w in caught]


def _split_store(source: Path, target: Path, fraction: float) -> None:
    """Copy a finalized store as a run that stopped after ``fraction`` of
    its points: the first records, and the verdicts of just their graphs."""
    shutil.copytree(source, target)
    log = target / "records.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    kept = lines[: int(len(lines) * fraction)]
    log.write_text("".join(kept))
    measured = set()
    for line in kept:
        _, model, image, *_ = json.loads(line)["key"].split(":")
        measured.add(f"{model}@{image}")
    manifest = _read_manifest(target)
    graphs = manifest["verdicts"]["graphs"]
    manifest["verdicts"]["graphs"] = {
        k: v for k, v in graphs.items() if k in measured
    }
    manifest["complete"] = False
    _write_manifest(target, manifest)


def _split_invariant(stats):
    """The stats a resume split must not change: everything but wall time,
    cache warmth and the tallies of what this very run restored or
    measured (``counters`` and ``n_oom`` count this run's points)."""
    from repro.caching import CacheStats

    return dataclasses.replace(
        stats, elapsed_seconds=0.0, cache=CacheStats(), n_restored=0,
        n_executed=0, counters={}, n_oom=0,
    )


@pytest.fixture
def verify_graph_calls(monkeypatch):
    """Names of the graphs ``verify_graph`` is called on, from cold caches."""
    import repro.analysis.verify as verify_pkg

    calls: list[str] = []
    verify_graph = verify_pkg.verify_graph

    def counting(graph, *args, **kwargs):
        calls.append(graph.name)
        return verify_graph(graph, *args, **kwargs)

    monkeypatch.setattr(verify_pkg, "verify_graph", counting)
    _fresh_profile_caches(monkeypatch)
    return calls


class TestPersistedVerdicts:
    """A store keeps each graph's verdict; a resume verifies only graphs
    without one and counts errors over the union."""

    @pytest.mark.parametrize("corrupt", [False, True],
                             ids=["clean", "corrupt"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stats_identical_across_resume_splits(
        self, tmp_path, monkeypatch, workers, corrupt
    ):
        spec = VERDICT_SPEC
        if corrupt:
            _double_summary_flops(monkeypatch)
        _fresh_profile_caches(monkeypatch)
        with CampaignStore.open(tmp_path / "cold", spec) as store:
            cold, cold_warnings = _warn_run(spec, workers, store)
        cold_verdicts = _read_manifest(tmp_path / "cold")["verdicts"]
        assert list(cold_verdicts["graphs"]) == _graph_keys(spec)
        assert (cold.stats.n_verify_errors > 0) == corrupt
        assert bool(cold_warnings) == corrupt

        for fraction in (1 / 3, 1 / 2, 1):
            directory = tmp_path / f"split-{fraction:.2f}"
            _split_store(tmp_path / "cold", directory, fraction)
            _fresh_profile_caches(monkeypatch)
            with CampaignStore.open(directory, spec, resume=True) as store:
                resumed, resumed_warnings = _warn_run(spec, workers, store)
            assert resumed.stats.n_restored == int(
                cold.stats.n_points * fraction
            )
            assert _split_invariant(resumed.stats) == _split_invariant(
                cold.stats
            )
            assert resumed_warnings == cold_warnings
            assert _dataset_bytes(resumed.dataset) == _dataset_bytes(
                cold.dataset
            )
            assert _read_manifest(directory)["verdicts"] == cold_verdicts

    def test_complete_store_resume_verifies_nothing(
        self, tmp_path, monkeypatch, verify_graph_calls
    ):
        spec = VERDICT_SPEC
        directory = tmp_path / "run"
        with CampaignStore.open(directory, spec) as store:
            run_campaign(spec, workers=1, store=store)
        # One verify_graph call per model topology, covering its images.
        assert len(verify_graph_calls) == len(spec.models)
        verify_graph_calls.clear()
        _fresh_profile_caches(monkeypatch)
        with CampaignStore.open(directory, spec, resume=True) as store:
            resumed = run_campaign(spec, workers=1, store=store)
        assert verify_graph_calls == []
        assert resumed.stats.n_executed == 0

    def test_strict_resume_refuses_persisted_errors(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.verify import GraphVerificationError
        from repro.benchdata.engine import verify_campaign_graphs
        from repro.diagnostics import Diagnostic, has_errors, sort_diagnostics

        spec = VERDICT_SPEC
        directory = tmp_path / "run"
        with monkeypatch.context() as corrupted:
            _double_summary_flops(corrupted)
            _fresh_profile_caches(corrupted)
            with CampaignStore.open(directory, spec) as store:
                with pytest.warns(RuntimeWarning, match="IR004"):
                    run_campaign(spec, workers=1, store=store)
        persisted = sort_diagnostics(
            Diagnostic.from_dict(d)
            for diags in _read_manifest(directory)["verdicts"][
                "graphs"
            ].values()
            for d in diags
        )
        assert has_errors(persisted)
        # The graphs themselves are clean now: only the store holds errors.
        _fresh_profile_caches(monkeypatch)
        assert not has_errors(verify_campaign_graphs(spec))
        _fresh_profile_caches(monkeypatch)
        with CampaignStore.open(directory, spec, resume=True) as store:
            with pytest.raises(GraphVerificationError) as err:
                run_campaign(spec, workers=1, store=store, verify="strict")
        assert err.value.diagnostics == persisted

    @pytest.mark.parametrize(
        "fallback", ["no-verify", "verdicts-removed", "foreign-rules"]
    )
    def test_fallback_verifies_in_full(
        self, tmp_path, monkeypatch, verify_graph_calls, fallback
    ):
        spec = VERDICT_SPEC
        directory = tmp_path / "run"
        verify = "off" if fallback == "no-verify" else "warn"
        with CampaignStore.open(directory, spec) as store:
            run_campaign(spec, workers=1, store=store, verify=verify)
        manifest = _read_manifest(directory)
        stamp = manifest.get("verdicts", {}).get("rules")
        if fallback == "no-verify":
            assert "verdicts" not in manifest
        elif fallback == "verdicts-removed":
            del manifest["verdicts"]
        else:
            manifest["verdicts"]["rules"] = ["IR001"]
        _write_manifest(directory, manifest)
        verify_graph_calls.clear()
        _fresh_profile_caches(monkeypatch)
        with CampaignStore.open(directory, spec, resume=True) as store:
            run_campaign(spec, workers=1, store=store)
        # In full: every model topology, at every image, again.
        assert len(verify_graph_calls) == len(spec.models)
        verdicts = _read_manifest(directory)["verdicts"]
        assert list(verdicts["graphs"]) == _graph_keys(spec)
        assert stamp is None or verdicts["rules"] == stamp

    def test_unverified_resume_keeps_persisted_verdicts(self, tmp_path):
        directory = tmp_path / "run"
        with CampaignStore.open(directory, VERDICT_SPEC) as store:
            run_campaign(VERDICT_SPEC, workers=1, store=store)
        before = _read_manifest(directory)["verdicts"]
        with CampaignStore.open(
            directory, VERDICT_SPEC, resume=True
        ) as store:
            run_campaign(VERDICT_SPEC, workers=1, store=store, verify="off")
        assert _read_manifest(directory)["verdicts"] == before

    def test_diagnostic_round_trips_through_its_dict(self):
        from repro.diagnostics import Diagnostic, Severity

        diag = Diagnostic("IR004", Severity.ERROR, "g:conv", "bad", "fix")
        assert Diagnostic.from_dict(diag.to_dict()) == diag
        assert Diagnostic.from_dict(
            {"rule": "IR009", "severity": "INFO", "location": "g",
             "message": "m"}
        ).hint == ""


class TestSpecNames:
    @pytest.mark.parametrize("scenario, name, kind", [
        ("inference", "nosuch", "model"),
        ("training", "nosuch", "model"),
        ("distributed", "nosuch", "model"),
        ("blocks", "typo", "block"),
        ("blocks", "resnet18", "block"),  # a model is not a block
    ])
    def test_unknown_names_are_refused_at_construction(
        self, scenario, name, kind
    ):
        with pytest.raises(KeyError, match=f"unknown {kind} '{name}'"):
            dataclasses.replace(
                REFERENCE_SPEC, scenario=scenario, models=("alexnet", name)
                if kind == "model" else (name,),
            )

    def test_blocks_sweep_only_the_named_blocks(self):
        spec = dataclasses.replace(
            REFERENCE_SPEC, scenario="blocks", models=("BasicBlock7",)
        )
        points = enumerate_points(spec)
        assert points and {p.model for p in points} == {"BasicBlock7"}
