"""``campaign`` workload: cold training campaign -> fit -> save, then resume.

One sample is a pair of fresh interpreters.  The first runs the paper's
training sweep over the frozen model list into a new ``CampaignStore``,
writes the dataset, fits a ``TrainingStepModel`` and saves it; its timed
window covers all four calls, verification included.  The second resumes
the complete store, timing the store's read path.
"""

from __future__ import annotations

import hashlib
import shutil
import time
import warnings
from pathlib import Path

from harness import (
    ChildFailed,
    median,
    peak_rss_mb,
    run_child,
    samples_note,
)
from spans import install_layers, layer_totals

#: ``repro.zoo.available_models()`` when the benchmark was defined, frozen
#: by name so that a model added later does not change the workload.
MODELS = (
    "alexnet", "densenet121", "densenet169", "densenet201",
    "efficientnet_b0", "efficientnet_b1", "efficientnet_b2",
    "efficientnet_b3", "inception_v3", "mobilenet_v2", "mobilenet_v3_large",
    "mobilenet_v3_small", "regnet_x_400mf", "regnet_x_8gf", "regnet_y_400mf",
    "regnet_y_8gf", "resnet101", "resnet152", "resnet18", "resnet34",
    "resnet50", "resnext101_32x8d", "resnext50_32x4d", "squeezenet1_0",
    "squeezenet1_1", "vgg11", "vgg13", "vgg16", "vgg19", "vit_base_16",
    "vit_small_16", "vit_tiny_16", "wide_resnet50_2",
)
#: The paper's grid: batch sizes 1...2048, image sizes 32...224.
BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
IMAGES = (32, 64, 96, 128, 160, 192, 224)
REPS = 3
DEVICE = "a100-80gb"
#: Sweep points and memory-gated points the spec above enumerates.
N_POINTS = 8136
N_OOM = 552

#: Fewest cold+resume pairs per untraced run, however short ``--seconds``.
#: Cold windows in one run can differ by a third, so three pairs give
#: each metric a true median; host speed drifts over minutes, so runs
#: stay short.
MIN_PAIRS = 3
#: Resume processes per pair: resumes in one run agree within a few
#: percent, so one each is enough.
RESUMES_PER_PAIR = 1

#: Layers whose entry points must record calls in the traced cold run.
COLD_LAYERS = (
    "zoo.build", "analysis.verify", "hardware.roofline.profile",
    "hardware.executor.measure", "hardware.noise.draw",
    "benchdata.store.append", "benchdata.records.to_json", "core.fit",
    "core.persistence.save",
)


def _spec(seed: int):
    from repro.benchdata import CampaignSpec
    from repro.hardware.device import get_device

    return CampaignSpec(
        scenario="training",
        models=MODELS,
        device=get_device(DEVICE),
        batch_sizes=BATCHES,
        image_sizes=IMAGES,
        seed=seed,
        reps=REPS,
    )


def _layers(recorder, start: float, end: float) -> dict:
    if recorder is None:
        return {}
    return {
        "layers": recorder.totals(),
        "cover_s": recorder.root_time(start, end),
    }


# -- children (run in fresh interpreters) -----------------------------------


def child_cold(args: dict) -> dict:
    import repro.cli  # noqa: F401 - `repro campaign` pays this import
    from repro.benchdata import engine, store as store_mod
    from repro.core import loo, persistence, training

    recorder = install_layers() if args["trace"] else None
    work = Path(args["dir"])
    spec = _spec(args["seed"])
    store = store_mod.CampaignStore.open(work / "store", spec)
    setup_s = time.monotonic() - args["t0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        result = engine.run_campaign(spec, workers=1, store=store,
                                     verify="warn")
        result.dataset.to_json(work / "records.json")
        model = training.TrainingStepModel().fit(result.dataset)
        persistence.save_model(model, work / "step.json")
        end = time.perf_counter()
    rss_mb = peak_rss_mb()
    audit = persistence.load_audit_block(work / "step.json") or {}
    stats = result.stats
    out = {
        "setup_s": setup_s,
        "window_s": end - start,
        "rss_mb": rss_mb,
        "n_points": stats.n_points,
        "n_executed": stats.n_executed,
        "n_oom": stats.n_oom,
        "n_records": stats.n_records,
        "cache_hit_rate": stats.cache.hit_rate,
        "verify_errors": stats.n_verify_errors,
        "audit_errors": audit.get("errors", -1),
        "warnings": [str(w.message) for w in caught],
        "store_bytes": (work / "store" / "records.jsonl").stat().st_size,
        **_layers(recorder, start, end),
    }
    if args.get("loo"):
        # The paper's leave-one-model-out error, outside the timed window.
        table = loo.leave_one_out(
            result.dataset, training.TrainingStepModel, lambda r: r.t_total
        )
        out["loo_mape_pct"] = 100.0 * table.mean_mape()
    return out


def child_resume(args: dict) -> dict:
    import repro.cli  # noqa: F401 - `repro campaign --resume` pays this
    from repro.benchdata import engine, store as store_mod

    recorder = install_layers() if args["trace"] else None
    work = Path(args["dir"])
    spec = _spec(args["seed"])
    store = store_mod.CampaignStore.open(work / "store", spec, resume=True)
    setup_s = time.monotonic() - args["t0"]
    start = time.perf_counter()
    result = engine.run_campaign(spec, workers=1, store=store, verify="warn")
    end = time.perf_counter()
    rss_mb = peak_rss_mb()
    result.dataset.to_json(work / "resumed.json")
    return {
        "setup_s": setup_s,
        "resume_s": end - start,
        "rss_mb": rss_mb,
        "n_restored": result.stats.n_restored,
        "n_executed": result.stats.n_executed,
        **_layers(recorder, start, end),
    }


# -- parent ------------------------------------------------------------------


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _completed_points(work: Path) -> int:
    records = work / "store" / "records.jsonl"
    if not records.exists():
        return 0
    with records.open() as fh:
        return sum(1 for line in fh if line.endswith("\n"))


class _Run:
    """Failure bookkeeping of one benchmark run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.records_digest: str | None = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def pair(self, work: Path, trace: bool, loo: bool,
             resumes: int = RESUMES_PER_PAIR) -> tuple[dict, list[dict]]:
        """One cold child, then ``resumes`` resume children on its store."""
        work.mkdir(parents=True)
        args = {"seed": self.seed, "dir": str(work), "trace": trace}
        self.attempted += N_POINTS
        try:
            cold = run_child("campaign-cold", dict(args, loo=loo), work)
        except ChildFailed:
            # Every point the store did not log raised or never ran.
            self.failed += N_POINTS - _completed_points(work)
            raise
        self._check_cold(cold, work)
        done = []
        for _ in range(resumes):
            # A resume restores every point: each is an attempt, and all
            # of them are lost when the resume process dies.
            self.attempted += N_POINTS
            try:
                resume = run_child("campaign-resume", args, work)
            except ChildFailed:
                self.failed += N_POINTS
                raise
            self.check(
                resume["n_restored"] == N_POINTS
                and resume["n_executed"] == 0,
                f"resume restored {resume['n_restored']} and re-measured "
                f"{resume['n_executed']} of {N_POINTS} points",
            )
            self.check(
                _digest(work / "resumed.json") == self.records_digest,
                "the resumed store returned different records",
            )
            done.append(resume)
        return cold, done

    def _check_cold(self, cold: dict, work: Path) -> None:
        self.check(
            (cold["n_points"], cold["n_executed"], cold["n_oom"])
            == (N_POINTS, N_POINTS, N_OOM),
            f"campaign swept {cold['n_points']} points "
            f"({cold['n_executed']} measured, {cold['n_oom']} OOM); "
            f"expected {N_POINTS} ({N_OOM} OOM)",
        )
        self.check(cold["verify_errors"] == 0,
                   f"{cold['verify_errors']} verification errors")
        self.check(cold["audit_errors"] == 0,
                   f"saved artifact audit has {cold['audit_errors']} ERRORs")
        self.check(not cold["warnings"],
                   f"unexpected warnings: {cold['warnings'][:3]}")
        digest = _digest(work / "records.json")
        if self.records_digest is None:
            self.records_digest = digest
        self.check(digest == self.records_digest,
                   "two cold campaigns of one seed wrote different records")


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    state = _Run(seed)
    notes: list[str] = []
    try:
        metrics = (_traced if trace else _timed)(state, seconds, work, notes)
    except ChildFailed as exc:
        state.problems.append(str(exc))
        metrics = {}
    notes.append(f"records sha256 {state.records_digest}")
    return {
        "correct": not state.problems,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": metrics,
        "notes": notes + state.problems,
    }


def _timed(state: _Run, seconds: float, work: Path, notes: list) -> dict:
    setups, rss, pps, resumes = [], [], [], []
    begin = time.monotonic()
    i = 0
    while i < MIN_PAIRS or time.monotonic() - begin < seconds:
        pair_dir = work / f"pair{i}"
        cold, done = state.pair(pair_dir, trace=False, loo=False)
        shutil.rmtree(pair_dir)
        setups += [cold["setup_s"]] + [r["setup_s"] for r in done]
        rss.append(max([cold["rss_mb"]] + [r["rss_mb"] for r in done]))
        pps.append(N_POINTS / cold["window_s"])
        resumes += [r["resume_s"] for r in done]
        i += 1
    resumes_ms = [1e3 * s for s in resumes]
    notes += [
        samples_note("ops_per_s (cold points/s)", pps),
        samples_note("p50_ms (cold resume)", resumes_ms),
        samples_note("setup_s", setups),
    ]
    return {
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
        "ops_per_s": median(pps),
        "p50_ms": median(resumes_ms),
    }


def _traced(state: _Run, seconds: float, work: Path, notes: list) -> dict:
    # Untraced cold runs bracket the traced one, so drift cancels out of
    # the overhead estimate.
    before, _ = state.pair(work / "before", trace=False, loo=True,
                           resumes=0)
    cold, (resume,) = state.pair(work / "traced", trace=True, loo=False,
                                 resumes=1)
    after, _ = state.pair(work / "after", trace=False, loo=False, resumes=0)
    plain_s = median([before["window_s"], after["window_s"]])
    layers = cold["layers"]
    for name in COLD_LAYERS:
        state.check(name in layers,
                    f"traced cold campaign recorded no {name} calls")
    state.check("benchdata.store.restore" in resume["layers"],
                "traced resume recorded no benchdata.store.restore calls")

    build_s, builds = layer_totals(layers, "zoo.build")
    profile_s, profiles = layer_totals(layers, "hardware.roofline.profile")
    draw_s, draws = layer_totals(layers, "hardware.noise.draw")

    def self_s(name: str) -> float:
        return layer_totals(layers, name)[0]

    return {
        "zoo.build_s": build_s,
        "zoo.builds": builds,
        "analysis.verify.s": self_s("analysis.verify"),
        "hardware.roofline.profile_s": profile_s,
        "hardware.roofline.profiles": profiles,
        "hardware.executor.measure_s": self_s("hardware.executor.measure"),
        "hardware.noise.draw_s": draw_s,
        "hardware.noise.draws": draws,
        "benchdata.engine.points": cold["n_executed"],
        "benchdata.engine.oom_points": cold["n_oom"],
        "benchdata.engine.cache_hit_rate": cold["cache_hit_rate"],
        "benchdata.store.append_s": self_s("benchdata.store.append"),
        "benchdata.store.bytes": cold["store_bytes"],
        "benchdata.store.restore_s": layer_totals(
            resume["layers"], "benchdata.store.restore"
        )[0],
        "benchdata.records.to_json_s": self_s("benchdata.records.to_json"),
        "core.fit_s": self_s("core.fit"),
        "core.persistence.save_s": self_s("core.persistence.save"),
        "core.loo_mape_pct": before["loo_mape_pct"],
        "bench.span_cover": cold["cover_s"] / cold["window_s"],
        "bench.trace_overhead_s": cold["window_s"] - plain_s,
    }
