"""Leave-one-out leaderboard over the predictor suite.

One harness races every baseline — the paper's ConvMeter model, the
analytical/polynomial comparators, and the three learned stand-ins —
through the same protocol the paper uses for its own tables: fit with the
evaluated ConvNet's records held out, predict the held-out network,
report MAPE (:func:`repro.core.loo.leave_one_out`).  Scenarios cover
inference, single-device training steps, and multi-node scaling.

The leaderboard payload (``BENCH_leaderboard.json``) is schema-stamped
``repro/leaderboard-bench/v1`` and validated by
:func:`validate_leaderboard_payload` before it is written.  Every input
is seeded and every fit is deterministic, so two runs with the same
configuration produce **byte-identical** files — gated by
``tests/test_leaderboard.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import baselines
from repro.fileio import write_text_atomic

if TYPE_CHECKING:
    from repro.baselines.protocol import Predictor
    from repro.benchdata.records import Dataset, TimingRecord
    from repro.core.loo import LeaveOneOutResult

#: Schema identifier stamped into every leaderboard payload.
LEADERBOARD_SCHEMA = "repro/leaderboard-bench/v1"

#: Networks the default leaderboard races over.  A subset of the paper's
#: Table 1 pool that every suite member can handle — ``squeezenet1_0`` is
#: excluded because DIPPM's parser rejects fire modules (Section 4.1.3),
#: and the leaderboard's job is comparing predictors on common ground.
DEFAULT_LEADERBOARD_MODELS: tuple[str, ...] = (
    "alexnet", "mobilenet_v2", "resnet18", "resnet50", "vgg11",
)

_MEASURED: dict[str, Callable[[TimingRecord], float]] = {
    "fwd": lambda r: r.t_fwd,
    "total": lambda r: r.t_total,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One leaderboard scenario: a campaign and a measured phase."""

    name: str
    target: str
    seed_offset: int
    build: Callable[[Sequence[str], int, bool], Dataset]


def _inference_data(
    models: Sequence[str], seed: int, fast: bool
) -> Dataset:
    from repro.benchdata.campaign import inference_campaign

    return inference_campaign(
        models=models,
        batch_sizes=(1, 8, 64) if fast else (1, 8, 64, 256),
        image_sizes=(64, 128) if fast else (64, 128, 224),
        seed=seed,
    )


def _training_data(
    models: Sequence[str], seed: int, fast: bool
) -> Dataset:
    from repro.benchdata.campaign import training_campaign

    return training_campaign(
        models=models,
        batch_sizes=(1, 8, 64) if fast else (1, 8, 64, 256),
        image_sizes=(64, 128) if fast else (64, 128, 224),
        seed=seed,
    )


def _scaling_data(
    models: Sequence[str], seed: int, fast: bool
) -> Dataset:
    from repro.benchdata.campaign import distributed_campaign

    return distributed_campaign(
        models=models,
        node_counts=(1, 2) if fast else (1, 2, 4),
        batch_sizes=(16, 64),
        image_sizes=(64, 128),
        seed=seed,
    )


SCENARIOS: tuple[ScenarioSpec, ...] = (
    ScenarioSpec("inference", "fwd", 0, _inference_data),
    ScenarioSpec("training-step", "total", 1, _training_data),
    ScenarioSpec("node-scaling", "total", 2, _scaling_data),
)

SCENARIO_NAMES: tuple[str, ...] = tuple(s.name for s in SCENARIOS)


#: Constructor options of the reduced ``--fast`` learned MLPs.
_FAST_MLP = {"hidden": 8, "blocks": 1, "epochs": 120, "patience": 30}


@dataclass(frozen=True)
class PredictorSpec:
    """A leaderboard entrant: how to build it, and where it competes."""

    name: str
    display: str
    scenarios: tuple[str, ...]
    #: Class name in :mod:`repro.baselines`, imported on first use.
    predictor: str
    #: Whether ``--fast`` builds it with the reduced :data:`_FAST_MLP`.
    fast_mlp: bool = False

    def make(self, target: str, seed: int, fast: bool) -> Predictor:
        """A fresh entrant predicting ``target`` under ``seed``."""
        cls = getattr(baselines, self.predictor)
        if fast and self.fast_mlp:
            return cls(target, seed, **_FAST_MLP)
        return cls(target, seed)


#: The full suite.  The analytical/polynomial/GNN-surrogate baselines are
#: forward-pass models (that is all their papers define), so they race the
#: inference scenario only; the rest compete everywhere.
PREDICTORS: tuple[PredictorSpec, ...] = (
    PredictorSpec("convmeter", "ConvMeter (paper)", SCENARIO_NAMES,
                  "ConvMeterPredictor"),
    PredictorSpec("paleo", "PALEO (analytical)", ("inference",),
                  "PaleoPredictor"),
    PredictorSpec("neuralpower", "NeuralPower (polynomial)", ("inference",),
                  "NeuralPowerPredictor"),
    PredictorSpec("dippm", "DIPPM (GNN surrogate)", ("inference",),
                  "DippmPredictor"),
    PredictorSpec("resperfnet", "ResPerfNet (residual MLP)", SCENARIO_NAMES,
                  "ResPerfNet", fast_mlp=True),
    PredictorSpec("perfseer", "PerfSeer (graph-structured)", SCENARIO_NAMES,
                  "PerfSeer"),
    PredictorSpec("prenet", "PreNeT (workload-aware MLP)", SCENARIO_NAMES,
                  "PreNeT", fast_mlp=True),
)

PREDICTOR_NAMES: tuple[str, ...] = tuple(p.name for p in PREDICTORS)


def predictor_spec(name: str) -> PredictorSpec:
    for spec in PREDICTORS:
        if spec.name == name:
            return spec
    raise KeyError(
        f"unknown predictor {name!r}; options: {', '.join(PREDICTOR_NAMES)}"
    )


def scenario_spec(name: str) -> ScenarioSpec:
    for spec in SCENARIOS:
        if spec.name == name:
            return spec
    raise KeyError(
        f"unknown scenario {name!r}; options: {', '.join(SCENARIO_NAMES)}"
    )


def evaluate_predictor(
    data: Dataset,
    spec: PredictorSpec,
    target: str,
    seed: int,
    fast: bool = False,
) -> LeaveOneOutResult:
    """Leave-one-out evaluation of one suite member on one dataset."""
    from repro.core.loo import leave_one_out

    return leave_one_out(
        data,
        lambda: spec.make(target, seed, fast),
        _MEASURED[target],
    )


def _entry(
    spec: PredictorSpec, result: LeaveOneOutResult
) -> dict[str, Any]:
    return {
        "name": spec.name,
        "display": spec.display,
        "pooled": {
            "mape": float(result.pooled.mape),
            "r2": float(result.pooled.r2),
            "rmse": float(result.pooled.rmse),
            "nrmse": float(result.pooled.nrmse),
            "n": int(result.pooled.n),
        },
        "mean_mape": float(result.mean_mape()),
        "best_model": result.best_model(),
        "worst_model": result.worst_model(),
        "per_model_mape": {
            model: float(metrics.mape)
            for model, metrics in sorted(result.per_model.items())
        },
    }


def run_leaderboard(
    models: Sequence[str] = DEFAULT_LEADERBOARD_MODELS,
    scenarios: Sequence[str] = SCENARIO_NAMES,
    seed: int = 0,
    fast: bool = False,
    predictors: Sequence[str] = PREDICTOR_NAMES,
) -> dict[str, Any]:
    """Race the suite; return the ``BENCH_leaderboard.json`` payload.

    Each scenario's entries are ranked by pooled leave-one-out MAPE
    (ties broken by name, so ranking is total and deterministic).
    """
    models = tuple(sorted(models))
    if len(models) < 2:
        raise ValueError("the leaderboard needs at least two networks")
    specs = [predictor_spec(name) for name in dict.fromkeys(predictors)]
    payload_scenarios: dict[str, Any] = {}
    for scenario_name in dict.fromkeys(scenarios):
        scenario = scenario_spec(scenario_name)
        campaign_seed = seed + scenario.seed_offset
        data = scenario.build(models, campaign_seed, fast)
        entries = []
        for spec in specs:
            if scenario.name not in spec.scenarios:
                continue
            result = evaluate_predictor(
                data, spec, scenario.target, campaign_seed, fast
            )
            entries.append(_entry(spec, result))
        entries.sort(key=lambda e: (e["pooled"]["mape"], e["name"]))
        for rank, entry in enumerate(entries, start=1):
            entry["rank"] = rank
        payload_scenarios[scenario.name] = {
            "target": scenario.target,
            "campaign_seed": campaign_seed,
            "n_records": len(data),
            "n_models": len(models),
            "entries": entries,
        }
    return {
        "schema": LEADERBOARD_SCHEMA,
        "config": {
            "models": list(models),
            "scenarios": list(dict.fromkeys(scenarios)),
            "predictors": [spec.name for spec in specs],
            "seed": int(seed),
            "fast": bool(fast),
        },
        "scenarios": payload_scenarios,
    }


def validate_leaderboard_payload(payload: Any) -> list[str]:
    """Schema check of a leaderboard document (empty list = valid)."""
    problems: list[str] = []

    def need(obj: Any, key: str, kind: type | tuple, where: str) -> Any:
        if not isinstance(obj, dict) or key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            return None
        value = obj[key]
        if not isinstance(value, kind) or (
            isinstance(value, bool) and kind is not bool
        ):
            problems.append(
                f"{where}.{key}: expected {kind}, got {type(value).__name__}"
            )
            return None
        return value

    if need(payload, "schema", str, "$") != LEADERBOARD_SCHEMA:
        problems.append(f"$.schema is not {LEADERBOARD_SCHEMA!r}")
    config = need(payload, "config", dict, "$")
    if config is not None:
        for key in ("models", "scenarios", "predictors"):
            values = need(config, key, list, "$.config")
            if values is not None and not all(
                isinstance(v, str) for v in values
            ):
                problems.append(f"$.config.{key}: expected list of str")
        need(config, "seed", int, "$.config")
        need(config, "fast", bool, "$.config")
    scenarios = need(payload, "scenarios", dict, "$")
    if scenarios is not None:
        if not scenarios:
            problems.append("$.scenarios: must not be empty")
        for name, block in scenarios.items():
            where = f"$.scenarios.{name}"
            target = need(block, "target", str, where)
            if target is not None and target not in _MEASURED:
                problems.append(f"{where}.target: unknown phase {target!r}")
            need(block, "campaign_seed", int, where)
            need(block, "n_records", int, where)
            need(block, "n_models", int, where)
            entries = need(block, "entries", list, where)
            if entries is None:
                continue
            if not entries:
                problems.append(f"{where}.entries: must not be empty")
            last_mape = float("-inf")
            for i, entry in enumerate(entries):
                at = f"{where}.entries[{i}]"
                need(entry, "name", str, at)
                need(entry, "display", str, at)
                rank = need(entry, "rank", int, at)
                if rank is not None and rank != i + 1:
                    problems.append(
                        f"{at}.rank: expected {i + 1}, got {rank}"
                    )
                pooled = need(entry, "pooled", dict, at)
                if pooled is not None:
                    for key in ("mape", "r2", "rmse", "nrmse"):
                        need(pooled, key, (int, float), f"{at}.pooled")
                    need(pooled, "n", int, f"{at}.pooled")
                    mape = pooled.get("mape")
                    if isinstance(mape, (int, float)):
                        if mape != mape:  # NaN
                            problems.append(f"{at}.pooled.mape: is NaN")
                        elif mape < last_mape:
                            problems.append(
                                f"{at}: entries not sorted by pooled MAPE"
                            )
                        else:
                            last_mape = float(mape)
                need(entry, "mean_mape", (int, float), at)
                need(entry, "per_model_mape", dict, at)
    return problems


def write_leaderboard(payload: dict[str, Any], path: str | Path) -> None:
    """Persist a leaderboard payload (schema-validated first).

    Serialisation is canonical (sorted keys, fixed indentation, trailing
    newline), so identical payloads write byte-identical files.
    """
    problems = validate_leaderboard_payload(payload)
    if problems:
        raise ValueError(
            "refusing to write an invalid leaderboard payload: "
            + "; ".join(problems)
        )
    write_text_atomic(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def render_leaderboard(payload: dict[str, Any]) -> str:
    """Human-readable leaderboard tables, one block per scenario."""
    lines: list[str] = []
    config = payload["config"]
    lines.append(
        "Leave-one-out leaderboard — models: "
        + ", ".join(config["models"])
        + f" (seed {config['seed']}"
        + (", fast grid)" if config["fast"] else ")")
    )
    for name, block in payload["scenarios"].items():
        lines.append("")
        lines.append(
            f"{name} (target {block['target']}, "
            f"{block['n_records']} records)"
        )
        header = (
            f"  {'rank':>4}  {'predictor':<28}  {'MAPE%':>8}  "
            f"{'mean MAPE%':>10}  {'R2':>7}  {'worst ConvNet':<16}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for entry in block["entries"]:
            pooled = entry["pooled"]
            lines.append(
                f"  {entry['rank']:>4}  {entry['display']:<28}  "
                f"{100 * pooled['mape']:>8.2f}  "
                f"{100 * entry['mean_mape']:>10.2f}  "
                f"{pooled['r2']:>7.4f}  {entry['worst_model']:<16}"
            )
    return "\n".join(lines) + "\n"
