"""Leave-one-out leaderboard: determinism, schema, golden snapshot.

The golden file pins the *fast* leaderboard (reduced grid, small learned
models, seed 0) byte for byte.  Regenerate it after an intentional
change to a predictor, a campaign grid, or the payload schema::

    PYTHONPATH=src python -m tests.test_leaderboard

and review the ranking diff like any other golden update.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.baselines.eval import (
    DEFAULT_LEADERBOARD_MODELS,
    LEADERBOARD_SCHEMA,
    PREDICTOR_NAMES,
    SCENARIO_NAMES,
    render_leaderboard,
    run_leaderboard,
    validate_leaderboard_payload,
    write_leaderboard,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "leaderboard_golden.json"


def golden_payload() -> dict:
    """The configuration the golden file pins."""
    return run_leaderboard(fast=True, seed=0)


@pytest.fixture(scope="module")
def payload():
    return golden_payload()


class TestLeaderboardPayload:
    def test_schema_validates(self, payload):
        assert validate_leaderboard_payload(payload) == []

    def test_covers_all_scenarios_and_predictors(self, payload):
        assert set(payload["scenarios"]) == set(SCENARIO_NAMES)
        assert len(SCENARIO_NAMES) >= 3
        raced = {
            entry["name"]
            for block in payload["scenarios"].values()
            for entry in block["entries"]
        }
        assert raced == set(PREDICTOR_NAMES)

    def test_entries_are_finite_and_ranked(self, payload):
        for name, block in payload["scenarios"].items():
            entries = block["entries"]
            assert [e["rank"] for e in entries] == list(
                range(1, len(entries) + 1)
            )
            mapes = [e["pooled"]["mape"] for e in entries]
            assert mapes == sorted(mapes), f"{name}: not sorted by MAPE"
            for entry in entries:
                for key, value in entry["pooled"].items():
                    assert math.isfinite(value), (name, entry["name"], key)
                assert all(
                    math.isfinite(v)
                    for v in entry["per_model_mape"].values()
                )

    def test_every_model_scored_per_entry(self, payload):
        for block in payload["scenarios"].values():
            for entry in block["entries"]:
                assert sorted(entry["per_model_mape"]) == sorted(
                    DEFAULT_LEADERBOARD_MODELS
                )

    def test_render_mentions_every_entrant(self, payload):
        text = render_leaderboard(payload)
        for block in payload["scenarios"].values():
            for entry in block["entries"]:
                assert entry["display"] in text

    def test_needs_two_networks(self):
        with pytest.raises(ValueError, match="at least two"):
            run_leaderboard(models=("alexnet",), fast=True)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_leaderboard(scenarios=("nope",), fast=True)

    def test_unknown_predictor_rejected(self):
        with pytest.raises(KeyError, match="unknown predictor"):
            run_leaderboard(predictors=("nope",), fast=True)


class TestLeaderboardValidation:
    """The validator actually rejects broken payloads."""

    def test_missing_schema(self, payload):
        broken = copy.deepcopy(payload)
        del broken["schema"]
        assert validate_leaderboard_payload(broken)

    def test_wrong_schema_string(self, payload):
        broken = copy.deepcopy(payload)
        broken["schema"] = "repro/other/v1"
        assert validate_leaderboard_payload(broken)

    def test_rank_gap_detected(self, payload):
        broken = copy.deepcopy(payload)
        block = broken["scenarios"]["inference"]
        block["entries"][0]["rank"] = 5
        assert validate_leaderboard_payload(broken)

    def test_unsorted_mape_detected(self, payload):
        broken = copy.deepcopy(payload)
        block = broken["scenarios"]["inference"]
        block["entries"][0]["pooled"]["mape"] = 1e9
        assert validate_leaderboard_payload(broken)

    def test_nan_mape_detected(self, payload):
        broken = copy.deepcopy(payload)
        block = broken["scenarios"]["inference"]
        block["entries"][-1]["pooled"]["mape"] = float("nan")
        assert validate_leaderboard_payload(broken)

    def test_write_refuses_invalid(self, tmp_path, payload):
        broken = copy.deepcopy(payload)
        del broken["scenarios"]
        with pytest.raises(ValueError, match="invalid leaderboard"):
            write_leaderboard(broken, tmp_path / "bad.json")


class TestLeaderboardDeterminism:
    def test_two_runs_byte_identical(self, tmp_path, payload):
        again = run_leaderboard(fast=True, seed=0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_leaderboard(payload, a)
        write_leaderboard(again, b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_campaign(self, payload):
        other = run_leaderboard(
            fast=True, seed=1, scenarios=("inference",)
        )
        assert (
            other["scenarios"]["inference"]["entries"]
            != payload["scenarios"]["inference"]["entries"]
        )


class TestLeaderboardGolden:
    def test_matches_golden_snapshot(self, tmp_path, payload):
        assert GOLDEN_PATH.exists(), (
            "golden missing; regenerate with "
            "`PYTHONPATH=src python -m tests.test_leaderboard`"
        )
        fresh = tmp_path / "fresh.json"
        write_leaderboard(payload, fresh)
        assert fresh.read_text() == GOLDEN_PATH.read_text(), (
            "leaderboard drifted from the golden snapshot; if the change "
            "is intentional, regenerate with `PYTHONPATH=src python -m "
            "tests.test_leaderboard` and review the ranking diff"
        )

    def test_golden_validates_standalone(self):
        doc = json.loads(GOLDEN_PATH.read_text())
        assert validate_leaderboard_payload(doc) == []

    def test_golden_convmeter_ranking_is_stable(self):
        """ConvMeter must stay a podium finisher on its own benchmark:
        the paper's model ranks top-2 in every scenario it defines."""
        doc = json.loads(GOLDEN_PATH.read_text())
        for name, block in doc["scenarios"].items():
            ranks = {
                e["name"]: e["rank"] for e in block["entries"]
            }
            assert ranks["convmeter"] <= 2, (name, ranks)


def regenerate() -> None:  # pragma: no cover - manual golden refresh
    write_leaderboard(golden_payload(), GOLDEN_PATH)
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
