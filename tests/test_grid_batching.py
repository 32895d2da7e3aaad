"""Per-grid batching of the campaign measuring loop.

The engine computes a ``(model, image)`` sweep's clean times, noise draws
and work counters once per grid instead of once per point.  Each batched
value must equal its per-point definition bit for bit:

* ``lognormal_factor(sigma, seeds_array)`` equals
  ``np.random.default_rng(seed).lognormal(...)`` for every seed;
* campaign records equal the executor's own per-point draws;
* ``CampaignStats.counters`` (and the manifest's copy) equal the sum of
  :func:`point_counters` over the measured points;
* ``TimingRecord.to_dict`` keeps the ``asdict`` keys, order and bytes.

The measuring loop itself takes one ``(nodes, model)`` task per call
(``engine._measure_task``) and measures it grid by grid: each grid's
records, counters and gate statuses must equal what each point gives
measured alone, the store must take one write per grid, and a store cut
inside a grid must resume exactly.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.benchdata import (
    CampaignSpec,
    SweepPoint,
    CampaignStore,
    ConvNetFeatures,
    Dataset,
    TimingRecord,
    enumerate_points,
    point_counters,
    run_campaign,
    trace_campaign,
)
from repro.distributed.cluster import ClusterSpec
from repro.distributed.trainer import DistributedTrainer
from repro.graph.passes import resolve_transform
from repro.hardware.backend import get_backend
from repro.hardware.device import A100_80GB, JETSON_ORIN
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.noise import lognormal_factor, point_seed, stable_seed
from repro.hardware.roofline import graph_record
from repro.trace import Tracer, chrome_json
from repro.trace.tracer import merge_counters

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


@pytest.fixture(scope="module")
def many_seeds() -> np.ndarray:
    """100k seeds: the edge cases, random 64-bit and random 32-bit."""
    rng = np.random.default_rng(20)
    return np.concatenate([
        np.array(EDGE_SEEDS, dtype=np.uint64),
        rng.integers(0, 2**64 - 1, size=90_000, dtype=np.uint64,
                     endpoint=True),
        rng.integers(0, 2**32, size=10_000, dtype=np.uint64),
    ])


def _reference(sigma: float, seeds) -> np.ndarray:
    return np.array([
        np.random.default_rng(s).lognormal(mean=-0.5 * sigma * sigma,
                                           sigma=sigma)
        for s in seeds
    ])


def _bits(values: np.ndarray) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestBatchedNoise:
    @pytest.mark.parametrize("sigma", [0.03, 0.35])
    def test_equals_default_rng_bit_for_bit(self, many_seeds, sigma):
        assert len(many_seeds) >= 100_000
        got = lognormal_factor(sigma, many_seeds)
        assert got.dtype == np.float64 and got.shape == many_seeds.shape
        assert _bits(got) == _bits(_reference(sigma, many_seeds.tolist()))

    def test_edge_seeds_match_the_scalar_path(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        got = lognormal_factor(0.1, seeds).tolist()
        assert got == [lognormal_factor(0.1, s) for s in EDGE_SEEDS]

    def test_empty_and_single_seed_arrays(self):
        empty = lognormal_factor(0.1, np.array([], dtype=np.uint64))
        assert empty.shape == (0,) and empty.dtype == np.float64
        one = lognormal_factor(0.1, np.array([2**63], dtype=np.uint64))
        assert one.tolist() == [lognormal_factor(0.1, 2**63)]

    def test_signed_seed_arrays_are_accepted(self):
        seeds = np.array([0, 5, 2**40], dtype=np.int64)
        assert _bits(lognormal_factor(0.2, seeds)) == _bits(
            _reference(0.2, seeds.tolist())
        )

    @pytest.mark.parametrize("sigma", [0.0, -0.1])
    def test_non_positive_sigma_gives_ones(self, sigma):
        seeds = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        assert lognormal_factor(sigma, seeds).tolist() == [1.0, 1.0, 1.0]

    def test_malformed_seed_arrays_are_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            lognormal_factor(0.1, np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(TypeError, match="integer"):
            lognormal_factor(0.1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="non-negative"):
            lognormal_factor(0.1, np.array([3, -1]))

    @pytest.mark.parametrize("backend", ["", "edge", "fp16"])
    def test_backend_noise_factors_equal_noise_factor(self, backend):
        device = JETSON_ORIN if backend == "edge" else A100_80GB
        b = get_backend(backend, device)
        identities = [
            ("resnet18_64", batch, phase, rep)
            for batch in (1, 64)
            for phase in ("fwd", "bwd", "grad", "inference")
            for rep in range(2)
        ]
        (got,) = b.noise_factors(7, identities, [()]).tolist()
        assert got == [b.noise_factor(7, *ident) for ident in identities]


class TestStableSeedParts:
    @pytest.mark.parametrize(
        "part", [8, "resnet50_224", 0.5, True, None], ids=repr
    )
    def test_builtin_parts_are_accepted(self, part):
        assert stable_seed("x", part) == stable_seed("x", part)

    @pytest.mark.parametrize(
        "part",
        [np.int64(8), np.float64(0.5), np.bool_(True), np.uint32(3),
         (1, 2), [1], b"raw", object()],
        ids=lambda p: type(p).__name__,
    )
    def test_other_parts_raise(self, part):
        with pytest.raises(TypeError, match="builtin"):
            stable_seed("x", part)
        with pytest.raises(TypeError):
            point_seed(0, "a100-80gb", part)


# -- the measuring loop -------------------------------------------------------

SPECS = {
    "training": CampaignSpec(
        scenario="training",
        models=("alexnet", "resnet18"),
        device=A100_80GB,
        batch_sizes=(1, 8, 64),
        image_sizes=(64, 128),
        seed=3,
        reps=2,
    ),
    "inference": CampaignSpec(
        scenario="inference",
        models=("alexnet", "mobilenet_v2"),
        device=A100_80GB,
        batch_sizes=(1, 8, 64),
        image_sizes=(64, 128),
        seed=3,
        reps=2,
    ),
    "distributed": CampaignSpec(
        scenario="distributed",
        models=("alexnet",),
        device=A100_80GB,
        batch_sizes=(8, 64),
        image_sizes=(64,),
        seed=3,
        node_counts=(1, 2),
    ),
    "edge": CampaignSpec(
        scenario="training",
        models=("vgg16",),
        device=JETSON_ORIN,
        batch_sizes=(8, 64, 256, 1024),
        image_sizes=(224,),
        seed=3,
        backend="edge",
    ),
}


def _identity(point_or_record) -> tuple:
    r = point_or_record
    return (r.model, r.image_size, r.batch, r.nodes, r.rep)


def _work(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if not k.startswith("cache_")}


def _expected_work(spec: CampaignSpec, result, skip=frozenset()) -> dict:
    """Sum of per-point counters over the points ``result`` measured, in
    enumeration order (the order the engine merges them in)."""
    measured = {_identity(r) for r in result.dataset}
    backend = get_backend(spec.backend, spec.device)
    kind = "block" if spec.scenario == "blocks" else "model"
    total: dict = {}
    for point in enumerate_points(spec):
        if point.key in skip or _identity(point) not in measured:
            continue
        profile = graph_record(kind, point.model, point.image_size).profile
        merge_counters(total, point_counters(spec, point, profile, backend))
    return total


class TestCounterIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_stats_and_manifest_equal_the_point_counter_sum(
        self, tmp_path, name, workers
    ):
        spec = SPECS[name]
        with CampaignStore.open(tmp_path / "run", spec) as store:
            result = run_campaign(spec, workers=workers, store=store)
        expected = _expected_work(spec, result)
        assert expected["flops"] > 0.0
        assert ("allreduce_bytes" in expected) == (name == "distributed")
        assert _work(result.stats.counters) == expected
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert _work(manifest["stats"]["counters"]) == expected

    @pytest.mark.parametrize("name", list(SPECS))
    def test_resumed_run_counts_exactly_the_points_it_measured(
        self, tmp_path, name
    ):
        spec = SPECS[name]
        directory = tmp_path / "run"
        with CampaignStore.open(directory, spec) as store:
            cold = run_campaign(spec, workers=1, store=store)
        log = directory / "records.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        kept = lines[: len(lines) // 2]
        log.write_text("".join(kept))
        restored = {json.loads(line)["key"] for line in kept}
        with CampaignStore.open(directory, spec, resume=True) as store:
            resumed = run_campaign(spec, workers=1, store=store)
        assert resumed.dataset.records == cold.dataset.records
        expected = _expected_work(spec, resumed, skip=restored)
        assert _work(resumed.stats.counters) == expected
        manifest = json.loads((directory / "manifest.json").read_text())
        assert _work(manifest["stats"]["counters"]) == expected


class TestGridMatchesPerPointPath:
    @pytest.mark.parametrize("name", ["training", "inference", "edge"])
    def test_records_equal_the_executors_own_draws(self, name):
        spec = SPECS[name]
        result = run_campaign(spec, workers=1)
        executor = SimulatedExecutor(
            seed=spec.seed, backend=get_backend(spec.backend, spec.device)
        )
        assert len(result.dataset) > 0
        for r in result.dataset:
            profile = graph_record("model", r.model, r.image_size).profile
            if spec.scenario == "training":
                phases = executor.measure_training_step(
                    profile, r.batch, rep=r.rep, enforce_memory=False
                )
                want = (phases.forward, phases.backward, phases.grad_update)
            else:
                want = (executor.measure_inference(
                    profile, r.batch, rep=r.rep, enforce_memory=False
                ), 0.0, 0.0)
            assert (r.t_fwd, r.t_bwd, r.t_grad) == want

    def test_same_named_device_with_other_noise_is_not_aliased(self):
        spec = SPECS["inference"]
        run_campaign(spec, workers=1)  # fills the grid cache
        quiet = dataclasses.replace(
            spec, device=dataclasses.replace(A100_80GB, noise_sigma=0.0)
        )
        backend = get_backend("", quiet.device)
        for r in run_campaign(quiet, workers=1).dataset:
            profile = graph_record("model", r.model, r.image_size).profile
            assert r.t_fwd == backend.forward_time_clean(profile, r.batch)


# -- one grid per call ---------------------------------------------------------

#: One spec per measuring branch of the grid function; the edge spec has
#: OOM points and runtime-budget points.
GRID_SPECS = {
    "inference": SPECS["inference"],
    "training": SPECS["training"],
    "blocks": CampaignSpec(
        scenario="blocks",
        models=("BasicBlock7", "InvertedResidual3"),
        device=A100_80GB,
        batch_sizes=(1, 16),
        image_sizes=(64, 224),
        seed=3,
        reps=2,
    ),
    "fused": CampaignSpec(
        scenario="inference",
        models=("resnet18", "mobilenet_v2"),
        device=A100_80GB,
        batch_sizes=(1, 8, 64),
        image_sizes=(64, 128),
        seed=3,
        reps=2,
        transform="inference",
    ),
    "distributed": CampaignSpec(
        scenario="distributed",
        models=("alexnet", "resnet18"),
        device=A100_80GB,
        batch_sizes=(8, 64),
        image_sizes=(64, 128),
        seed=3,
        reps=2,
        node_counts=(1, 2),
    ),
    "edge": CampaignSpec(
        scenario="training",
        models=("vgg16", "resnet18"),
        device=JETSON_ORIN,
        batch_sizes=(8, 64, 256, 1024),
        image_sizes=(64, 224),
        seed=3,
        reps=2,
        max_seconds=2.0,
        backend="edge",
    ),
}


def _point_reference(
    spec: CampaignSpec, point: SweepPoint, tracer: Tracer | None = None
) -> tuple:
    """``(records, counters, gate)`` of ``point`` measured alone, from
    the per-point definitions: the executor's (or trainer's) own clean
    times and noise draws, :func:`point_counters` and ``_gated``.

    With a ``tracer``, an ungated point's measurement runs under it,
    inside the ``model`` span a campaign trace gives the point."""
    from repro.benchdata.engine import _gated

    record = graph_record(
        spec.kind, point.model, point.image_size,
        resolve_transform(spec.transform),
    )
    profile = record.profile
    backend = get_backend(spec.backend, spec.device)
    executor = SimulatedExecutor(seed=spec.seed, backend=backend)
    clean = None
    if spec.scenario == "training":
        clean = (
            backend.forward_time_clean(profile, point.batch),
            backend.backward_time_clean(profile, point.batch),
            backend.grad_update_time_clean(profile),
        )
    elif spec.scenario != "distributed":
        clean = (backend.forward_time_clean(profile, point.batch),)
    gate = _gated(spec, point.batch, profile, backend, clean)
    if gate:
        return [], {}, gate
    if tracer is not None:
        tracer.begin(point.key, category="model", attrs={
            "model": point.model, "image_size": point.image_size,
            "batch": point.batch, "nodes": point.nodes, "rep": point.rep,
        })
    devices = 1
    if spec.scenario == "distributed":
        cluster = ClusterSpec(
            nodes=point.nodes, gpus_per_node=spec.gpus_per_node,
            device=spec.device,
        )
        devices = cluster.total_devices
        phases = DistributedTrainer(
            cluster, seed=spec.seed, backend=backend
        ).measure_step(profile, point.batch, rep=point.rep, tracer=tracer)
        times = (phases.forward, phases.backward, phases.grad_update)
    elif spec.scenario == "training":
        phases = executor.measure_training_step(
            profile, point.batch, rep=point.rep, enforce_memory=False,
            tracer=tracer,
        )
        times = (phases.forward, phases.backward, phases.grad_update)
    else:
        times = (executor.measure_inference(
            profile, point.batch, rep=point.rep, enforce_memory=False,
            tracer=tracer,
        ), 0.0, 0.0)
    if tracer is not None:
        tracer.end()
    measured = TimingRecord(
        model=point.model, device=spec.device.name,
        image_size=point.image_size, batch=point.batch, nodes=point.nodes,
        devices=devices,
        scenario="inference" if spec.scenario == "blocks" else spec.scenario,
        features=record.features,
        t_fwd=times[0], t_bwd=times[1], t_grad=times[2], rep=point.rep,
        backend=spec.backend,
    )
    return [measured], point_counters(spec, point, profile, backend), ""


def _traced_reference(spec: CampaignSpec) -> str:
    """The Chrome trace of ``spec``'s sweep measured point by point
    (:func:`_point_reference` under one tracer), in enumeration order."""
    points = enumerate_points(spec)
    tracer = Tracer()
    tracer.begin(
        f"campaign:{spec.scenario}",
        category="campaign",
        attrs={"device": spec.device.name, "n_points": len(points)},
    )
    for point in points:
        _point_reference(spec, point, tracer)
    tracer.end()
    return chrome_json(tracer)


def _grid_runs(spec: CampaignSpec) -> list[list[SweepPoint]]:
    """The spec's points, split into (nodes, model, image) runs."""
    runs: dict[tuple, list[SweepPoint]] = {}
    for p in enumerate_points(spec):
        runs.setdefault((p.nodes, p.model, p.image_size), []).append(p)
    return list(runs.values())


def _task_runs(spec: CampaignSpec) -> list[list[list[SweepPoint]]]:
    """The spec's grid runs, grouped into (nodes, model) tasks."""
    from repro.benchdata import engine

    return engine._tasks(engine._grids(list(enumerate(
        enumerate_points(spec)
    ))))


@pytest.fixture
def append_calls(monkeypatch):
    """The keys of each ``CampaignStore.append`` call, in call order."""
    calls: list[list[str]] = []
    append = CampaignStore.append

    def counting(self, entries):
        entries = list(entries)
        calls.append([key for key, _, _ in entries])
        return append(self, entries)

    monkeypatch.setattr(CampaignStore, "append", counting)
    return calls


class TestGridFunction:
    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_each_grid_equals_the_per_point_reference(self, name):
        from repro.benchdata import engine

        spec = GRID_SPECS[name]
        gates = set()
        for task in _task_runs(spec):
            want = [[_point_reference(spec, p) for p in points]
                    for points in task]
            got = [outcomes for outcomes, _ in engine._measure_task(spec, task)]
            assert got == want
            for points, grid in zip(task, want):
                # A grid alone, or any tail of it (a resume inside it),
                # measures the same.
                assert [o for o, _ in engine._measure_task(
                    spec, [points]
                )] == [grid]
                assert [o for o, _ in engine._measure_task(
                    spec, [points[1:]]
                )] == [grid[1:]]
                gates.update(gate for _, _, gate in grid)
        assert gates == ({"", "oom", "budget"} if name == "edge" else {""})

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_campaign_and_store_equal_the_per_point_reference(
        self, tmp_path, append_calls, name, workers
    ):
        spec = GRID_SPECS[name]
        want = [_point_reference(spec, p) for p in enumerate_points(spec)]
        with CampaignStore.open(tmp_path / "run", spec) as store:
            result = run_campaign(spec, workers=workers, store=store)
        assert result.dataset.records == [
            r for records, _, _ in want for r in records
        ]
        work: dict = {}
        for _, counters, _ in want:
            merge_counters(work, counters)
        assert _work(result.stats.counters) == work
        assert result.stats.n_oom == sum(g == "oom" for _, _, g in want)
        lines = [
            json.loads(line)
            for line in (tmp_path / "run" / "records.jsonl").open()
        ]
        assert [(e["key"], e.get("status", "")) for e in lines] == [
            (p.key, gate)
            for p, (_, _, gate) in zip(enumerate_points(spec), want)
        ]
        # One store write per grid, holding exactly that grid's points.
        assert append_calls == [
            [p.key for p in points] for points in _grid_runs(spec)
        ]
        assert result.stats.cache.lookups == len(_grid_runs(spec))


class TestCampaignTrace:
    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_campaign_traces_equal_the_per_point_reference(self, name):
        spec = GRID_SPECS[name]
        want = _traced_reference(spec)
        traced = Tracer()
        trace_campaign(spec, traced)
        assert chrome_json(traced) == want
        traced = Tracer()
        run_campaign(spec, workers=4, tracer=traced)
        assert chrome_json(traced) == want


class TestStoreCutInsideAGrid:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", ["training", "edge"])
    def test_resume_measures_exactly_the_missing_points(
        self, tmp_path, append_calls, name, workers
    ):
        spec = GRID_SPECS[name]
        with CampaignStore.open(tmp_path / "cold", spec) as store:
            cold = run_campaign(spec, workers=1, store=store)
        log = tmp_path / "cold" / "records.jsonl"
        complete = log.read_text()
        lines = complete.splitlines(keepends=True)
        runs = _grid_runs(spec)
        # Keep the first grid, k lines of the second, and a torn line.
        k = 3
        keep = len(runs[0]) + k
        assert k < len(runs[1])
        directory = tmp_path / "cut"
        directory.mkdir()
        manifest = json.loads(
            (tmp_path / "cold" / "manifest.json").read_text()
        )
        manifest["complete"] = False
        (directory / "manifest.json").write_text(json.dumps(manifest))
        (directory / "records.jsonl").write_text(
            "".join(lines[:keep]) + lines[keep][:25]
        )
        append_calls.clear()
        with CampaignStore.open(directory, spec, resume=True) as store:
            resumed = run_campaign(spec, workers=workers, store=store)
        assert resumed.stats.n_restored == keep
        assert resumed.stats.n_executed == len(lines) - keep
        assert resumed.dataset.records == cold.dataset.records
        assert (directory / "records.jsonl").read_text() == complete
        # The cut grid's missing points go out in one write, then one
        # write per remaining grid.
        missing = [[p.key for p in runs[1][k:]]] + [
            [p.key for p in points] for points in runs[2:]
        ]
        assert append_calls == missing


# -- one block per topology ------------------------------------------------

BACKENDS = ("", "edge", "fp16", "bf16")


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty graph record and verdict caches: a cold process."""
    from repro.benchdata import engine
    from repro.caching import LRUCache
    from repro.hardware import roofline

    monkeypatch.setattr(roofline, "GRAPH_RECORD_CACHE", LRUCache(maxsize=512))
    monkeypatch.setattr(engine, "VERIFY_CACHE", LRUCache(maxsize=512))
    return engine


@pytest.fixture
def block_calls(monkeypatch):
    """The profiles of each ``engine._point_grids`` call, in call order."""
    from repro.benchdata import engine

    calls: list[list] = []
    point_grids = engine._point_grids

    def recording(spec, profiles, executor):
        calls.append(list(profiles))
        return point_grids(spec, profiles, executor)

    monkeypatch.setattr(engine, "_point_grids", recording)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """The seed counts of each noise kernel call, in call order."""
    from repro.hardware import backend as backend_mod

    calls: list[int] = []
    kernel = backend_mod.lognormal_factor

    def counting(sigma, seed):
        if isinstance(seed, np.ndarray):
            calls.append(len(seed))
        return kernel(sigma, seed)

    monkeypatch.setattr(backend_mod, "lognormal_factor", counting)
    return calls


def _assert_same_grid(got, want) -> None:
    for field in ("clean", "noise", "work"):
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, field
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field
    assert got.grad_bytes == want.grad_bytes


def _model_images(spec: CampaignSpec) -> dict[str, list[int]]:
    images: dict[str, list[int]] = {}
    for p in enumerate_points(spec):
        if p.image_size not in images.setdefault(p.model, []):
            images[p.model].append(p.image_size)
    return images


def _ids(profiles) -> list[int]:
    return sorted(id(p) for p in profiles)


class TestBlocks:
    @pytest.mark.parametrize(
        "backend", BACKENDS, ids=lambda b: b or "roofline"
    )
    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_each_block_grid_equals_the_grid_of_its_image_alone(
        self, fresh_caches, block_calls, name, backend
    ):
        engine = fresh_caches
        spec = dataclasses.replace(GRID_SPECS[name], backend=backend)
        pipeline = resolve_transform(spec.transform)
        executor = SimulatedExecutor(
            seed=spec.seed, backend=get_backend(spec.backend, spec.device)
        )
        for task in _task_runs(spec):
            model = task[0][0].model
            images = [points[0].image_size for points in task]
            records = [
                graph_record(
                    spec.kind, model, image, pipeline,
                    images=engine._valid_images(spec, model),
                )
                for image in images
            ]
            assert len(images) > 1 and records[0].axis == tuple(images)
            profiles = [r.profile for r in records]
            # The task computes its one block in one call.
            block_calls.clear()
            for _ in engine._measure_task(spec, task):
                pass
            assert [_ids(c) for c in block_calls] == [_ids(profiles)]
            block = engine._point_grids(spec, profiles, executor)
            for profile, got in zip(profiles, block):
                alone, = engine._point_grids(spec, [profile], executor)
                _assert_same_grid(got, alone)

    def test_a_block_takes_no_record_of_another_walk(
        self, fresh_caches, block_calls
    ):
        engine = fresh_caches
        spec = dataclasses.replace(
            GRID_SPECS["training"], models=("resnet18",),
            image_sizes=(64, 128, 224),
        )
        # 128 and 224 are costed in one walk, then 64 and 128 in another,
        # which keeps the cached 128 record of the first.
        graph_record("model", "resnet18", 224, images=(128, 224))
        first = graph_record("model", "resnet18", 64, images=(64, 128))
        assert first.axis == (64, 128)
        assert graph_record("model", "resnet18", 128).axis == (128, 224)
        result = run_campaign(spec, workers=1, verify="off")
        profiles = {
            image: graph_record("model", "resnet18", image).profile
            for image in (64, 128, 224)
        }
        assert [_ids(c) for c in block_calls] == [
            _ids([profiles[64]]), _ids([profiles[128], profiles[224]]),
        ]
        assert result.dataset.records == [
            r for p in enumerate_points(spec)
            for r in _point_reference(spec, p)[0]
        ]

    @pytest.mark.parametrize("name", ["training", "inference", "edge"])
    def test_one_noise_kernel_call_per_topology(
        self, fresh_caches, kernel_calls, name
    ):
        spec = GRID_SPECS[name]
        result = run_campaign(spec, workers=1)
        images = _model_images(spec)
        reps = spec.reps * (3 if spec.scenario == "training" else 1)
        want = [
            len(image_list) * len(spec.batch_sizes) * reps
            for image_list in images.values()
        ]
        assert kernel_calls == want
        assert result.stats.cache.lookups == len(_grid_runs(spec))
        # The traced post-pass measures through the same blocks.
        kernel_calls.clear()
        trace_campaign(spec, Tracer())
        assert kernel_calls == want

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", ["training", "blocks", "fused", "edge"])
    def test_per_image_fallback_measures_the_same_records(
        self, fresh_caches, kernel_calls, monkeypatch, tmp_path, name,
        workers,
    ):
        from repro.caching import LRUCache
        from repro.hardware import roofline

        spec = GRID_SPECS[name]
        want = [_point_reference(spec, p) for p in enumerate_points(spec)]
        kernel_calls.clear()
        monkeypatch.setattr(roofline, "GRAPH_RECORD_CACHE", LRUCache(512))
        monkeypatch.setattr(fresh_caches, "VERIFY_CACHE", LRUCache(512))
        monkeypatch.setattr(roofline, "build_topology", lambda *a: None)
        with CampaignStore.open(tmp_path / "run", spec) as store:
            result = run_campaign(spec, workers=workers, store=store)
        assert result.dataset.records == [
            r for records, _, _ in want for r in records
        ]
        assert result.stats.cache.lookups == len(_grid_runs(spec))
        # Every image was built on its own, so each is a one-image block.
        pipeline = resolve_transform(spec.transform)
        for model, images in _model_images(spec).items():
            assert len(images) > 1
            for image in images:
                record = graph_record(spec.kind, model, image, pipeline)
                assert record.axis == (image,)
        if workers == 1:
            assert len(kernel_calls) == len(_grid_runs(spec))

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", ["training", "edge", "distributed"])
    def test_resume_with_some_images_restored_measures_the_rest(
        self, fresh_caches, append_calls, block_calls, tmp_path, name,
        workers,
    ):
        spec = GRID_SPECS[name]
        with CampaignStore.open(tmp_path / "run", spec) as store:
            cold = run_campaign(spec, workers=1, store=store)
        runs = _grid_runs(spec)
        # Drop the second image of the first model, and all but the first
        # image of the last model: their models' other images stay
        # restored.
        first, last = runs[0][0], runs[-1][0]
        dropped = {
            p.key for points in runs for p in points
            if (p.nodes, p.model) == (first.nodes, first.model)
            and p.image_size == _model_images(spec)[first.model][1]
            or (p.nodes, p.model) == (last.nodes, last.model)
            and p.image_size != _model_images(spec)[last.model][0]
        }
        log = tmp_path / "run" / "records.jsonl"
        log.write_text("".join(
            line for line in log.read_text().splitlines(keepends=True)
            if json.loads(line)["key"] not in dropped
        ))
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["complete"] = False
        manifest_path.write_text(json.dumps(manifest))
        append_calls.clear()
        block_calls.clear()
        with CampaignStore.open(tmp_path / "run", spec, resume=True) as store:
            resumed = run_campaign(spec, workers=workers, store=store)
        assert resumed.stats.n_executed == len(dropped)
        assert resumed.dataset.records == cold.dataset.records
        missing = [points for points in runs if points[0].key in dropped]
        assert append_calls == [[p.key for p in points] for points in missing]
        assert resumed.stats.cache.lookups == len(missing)
        if workers == 1:
            # Only the missing images' grids were computed.
            pipeline = resolve_transform(spec.transform)
            assert _ids(p for call in block_calls for p in call) == _ids(
                graph_record(
                    spec.kind, points[0].model, points[0].image_size,
                    pipeline,
                ).profile
                for points in missing
            )


class TestPrefixHashedSeeds:
    IDENTITIES = [
        (1, "fwd", 0), (2048, "grad", 2), ("x",), (), (0.5, None, True),
    ]

    @pytest.mark.parametrize(
        "shared", [(), ("a100-80gb",), ("edge:jetson-agx-orin", "vgg16_224")]
    )
    @pytest.mark.parametrize("seed", [0, 17, 2**40])
    def test_equal_point_seed_bit_for_bit(self, seed, shared):
        from repro.hardware.noise import point_seeds

        (got,) = point_seeds(seed, [shared], self.IDENTITIES)
        assert got.dtype == np.uint64
        assert got.tolist() == [
            point_seed(seed, *shared, *ident) for ident in self.IDENTITIES
        ]
        assert point_seeds(seed, [shared], []).tolist() == [[]]

    @pytest.mark.parametrize(
        "part", [np.int64(8), np.float64(0.5), np.bool_(True), (1, 2)],
        ids=lambda p: type(p).__name__,
    )
    def test_numpy_scalar_parts_raise(self, part):
        from repro.hardware.noise import point_seeds

        with pytest.raises(TypeError, match="builtin"):
            point_seeds(0, [("a100-80gb", part)], [(1, "fwd", 0)])
        with pytest.raises(TypeError, match="builtin"):
            point_seeds(
                0, [("a100-80gb",)], [(1, "fwd", 0), (part, "fwd", 0)]
            )
        with pytest.raises(TypeError, match="builtin"):
            point_seeds(part, [()], [(1,)])

    PREFIXES = [
        ("a100-80gb", "resnet18_64"),
        ("a100-80gb", "resnet18_128"),
        (),
        ("edge:jetson-agx-orin", 0.5, None, True),
    ]

    @pytest.mark.parametrize("seed", [0, 17, 2**40])
    def test_several_prefixes_equal_point_seed_bit_for_bit(self, seed):
        from repro.hardware.noise import point_seeds

        got = point_seeds(seed, self.PREFIXES, self.IDENTITIES)
        assert got.dtype == np.uint64
        assert got.shape == (len(self.PREFIXES), len(self.IDENTITIES))
        assert got.tolist() == [
            [point_seed(seed, *shared, *ident) for ident in self.IDENTITIES]
            for shared in self.PREFIXES
        ]

    @pytest.mark.parametrize("shared", PREFIXES)
    def test_one_prefix_gives_one_row(self, shared):
        from repro.hardware.noise import point_seeds

        one = point_seeds(17, [shared], self.IDENTITIES)
        assert one.shape == (1, len(self.IDENTITIES))
        assert one[0].tolist() == [
            point_seed(17, *shared, *ident) for ident in self.IDENTITIES
        ]

    def test_empty_lists(self):
        from repro.hardware.noise import point_seeds

        no_identities = point_seeds(3, self.PREFIXES, [])
        assert no_identities.shape == (len(self.PREFIXES), 0)
        assert no_identities.dtype == np.uint64
        assert point_seeds(3, [], self.IDENTITIES).shape == (
            0, len(self.IDENTITIES)
        )

    @pytest.mark.parametrize(
        "part", [np.int64(8), np.float64(0.5), np.bool_(True), (1, 2)],
        ids=lambda p: type(p).__name__,
    )
    def test_numpy_scalar_parts_raise_with_several_prefixes(self, part):
        from repro.hardware.noise import point_seeds

        good = ("a100-80gb", "resnet18_64")
        with pytest.raises(TypeError, match="builtin"):
            point_seeds(0, [good, ("a100-80gb", part)], [(1, "fwd", 0)])
        with pytest.raises(TypeError, match="builtin"):
            point_seeds(0, [good, good], [(1, "fwd", 0), (1, "fwd", part)])
        with pytest.raises(TypeError, match="builtin"):
            point_seeds(0, [good], [(part,)] + [(1, "fwd", 0)])
        with pytest.raises(TypeError, match="builtin"):
            point_seeds(part, [good], [(1,)])
        with pytest.raises(TypeError, match="builtin"):
            point_seeds(part, [], [])

    @pytest.mark.parametrize("backend", ["", "edge", "fp16"])
    def test_backend_noise_factors_with_several_prefixes(self, backend):
        device = JETSON_ORIN if backend == "edge" else A100_80GB
        b = get_backend(backend, device)
        identities = [
            (batch, "fwd", rep) for batch in (1, 64) for rep in (0, 1)
        ]
        names = ["resnet18_64", "resnet18_128", "resnet18_224"]
        got = b.noise_factors(7, identities, shared=[(n,) for n in names])
        assert got.shape == (len(names), len(identities))
        assert got.tolist() == [
            [b.noise_factor(7, n, *ident) for ident in identities]
            for n in names
        ]

    @pytest.mark.parametrize("backend", ["", "edge", "fp16"])
    def test_backend_noise_factors_with_a_shared_prefix(self, backend):
        device = JETSON_ORIN if backend == "edge" else A100_80GB
        b = get_backend(backend, device)
        identities = [
            (batch, phase, rep)
            for batch in (1, 64)
            for phase in ("fwd", "bwd", "grad", "inference")
            for rep in range(2)
        ]
        (got,) = b.noise_factors(7, identities, shared=[("resnet18_64",)])
        assert got.tolist() == [
            b.noise_factor(7, "resnet18_64", *ident) for ident in identities
        ]


# -- record encoding -------------------------------------------------------------

FEATURES = ConvNetFeatures(
    flops=7.1e8, inputs=1.5e6, outputs=2.25e6, weights=6.1e7, layers=8
)
RECORDS = [
    TimingRecord(
        model="alexnet", device="a100-80gb", image_size=64, batch=4,
        nodes=1, devices=1, scenario="training", features=FEATURES,
        t_fwd=0.1 + 0.2, t_bwd=1 / 3, t_grad=2.5e-05, rep=1,
    ),
    TimingRecord(
        model="alexnet", device="jetson-agx-orin", image_size=64, batch=4,
        nodes=1, devices=1, scenario="inference", features=FEATURES,
        t_fwd=0.001953125, backend="edge",
    ),
]
_FEATURES_JSON = (
    '"features": {"flops": 710000000.0, "inputs": 1500000.0, '
    '"outputs": 2250000.0, "weights": 61000000.0, "layers": 8}'
)
#: ``json.dumps`` of RECORDS as the ``asdict``-based encoder wrote them.
RECORDS_JSON = (
    '[{"model": "alexnet", "device": "a100-80gb", "image_size": 64, '
    '"batch": 4, "nodes": 1, "devices": 1, "scenario": "training", '
    + _FEATURES_JSON
    + ', "t_fwd": 0.30000000000000004, "t_bwd": 0.3333333333333333, '
    '"t_grad": 2.5e-05, "rep": 1}, '
    '{"model": "alexnet", "device": "jetson-agx-orin", "image_size": 64, '
    '"batch": 4, "nodes": 1, "devices": 1, "scenario": "inference", '
    + _FEATURES_JSON
    + ', "t_fwd": 0.001953125, "t_bwd": 0.0, "t_grad": 0.0, "rep": 0, '
    '"backend": "edge"}]'
)


def _asdict_encoding(record: TimingRecord) -> dict:
    d = dataclasses.asdict(record)
    if not d["backend"]:
        del d["backend"]
    return d


class TestRecordEncoding:
    @pytest.mark.parametrize("record", RECORDS, ids=["default", "edge"])
    def test_to_dict_equals_asdict_in_values_and_key_order(self, record):
        got, want = record.to_dict(), _asdict_encoding(record)
        assert got == want
        assert list(got) == list(want)
        assert list(got["features"]) == list(want["features"])
        assert TimingRecord.from_dict(got) == record

    def test_to_dict_is_a_copy(self):
        d = RECORDS[0].to_dict()
        d["features"]["flops"] = 0.0
        d["t_fwd"] = 0.0
        assert RECORDS[0].features.flops == 7.1e8
        assert RECORDS[0].t_fwd == 0.1 + 0.2

    def test_store_line_bytes_are_unchanged(self, tmp_path):
        spec = SPECS["training"]
        with CampaignStore.open(tmp_path / "store", spec) as store:
            store.append([("training:alexnet:64:4:1:1", RECORDS, "")])
        line = (tmp_path / "store" / "records.jsonl").read_text()
        assert line == (
            '{"key": "training:alexnet:64:4:1:1", "records": '
            + RECORDS_JSON + "}\n"
        )

    def test_dataset_json_bytes_are_unchanged(self, tmp_path):
        Dataset(RECORDS).to_json(tmp_path / "data.json")
        assert (tmp_path / "data.json").read_text() == (
            '{"records": ' + RECORDS_JSON + "}"
        )
