"""Model persistence: JSON round-trips for every model kind."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.forward import ForwardModel
from repro.core.persistence import (
    load_audit_block,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.core.training import (
    BackwardModel,
    CombinedBwdGradModel,
    GradientUpdateModel,
    TrainingStepModel,
)
from tests.test_core_models import synthetic_dataset

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def data():
    return synthetic_dataset(nodes_list=(1, 2, 4), n_models=5)


class TestRoundTrips:
    def test_forward_model(self, data, tmp_path):
        model = ForwardModel().fit(data)
        path = tmp_path / "fwd.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, ForwardModel)
        np.testing.assert_allclose(loaded.predict(data), model.predict(data))

    def test_forward_model_metric_subset(self, data, tmp_path):
        model = ForwardModel(metric_names=("flops",)).fit(data)
        path = tmp_path / "fwd1.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.metric_names == ("flops",)
        np.testing.assert_allclose(loaded.predict(data), model.predict(data))

    def test_backward_model(self, data, tmp_path):
        model = BackwardModel().fit(data)
        path = tmp_path / "bwd.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, BackwardModel)
        assert loaded.phase == "bwd"
        np.testing.assert_allclose(loaded.predict(data), model.predict(data))

    def test_grad_update_model(self, data, tmp_path):
        multi = data.filter(lambda r: r.nodes > 1)
        model = GradientUpdateModel(multi_node=True).fit(multi)
        path = tmp_path / "grad.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.multi_node
        np.testing.assert_allclose(
            loaded.predict(multi), model.predict(multi)
        )

    def test_combined_model(self, data, tmp_path):
        model = CombinedBwdGradModel().fit(data)
        path = tmp_path / "comb.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.predict(data), model.predict(data))

    def test_training_step_model(self, data, tmp_path):
        model = TrainingStepModel().fit(data)
        path = tmp_path / "step.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.predict(data), model.predict(data))
        r = data[0]
        assert loaded.predict_one(
            r.features, r.batch, r.devices, r.nodes
        ).total == pytest.approx(
            model.predict_one(r.features, r.batch, r.devices, r.nodes).total
        )

    def test_unfitted_model_roundtrip(self, tmp_path):
        path = tmp_path / "unfitted.json"
        # Persisting an unfitted model is suspicious; the audit gate says
        # so (FIT001) but warn-mode still writes the file.
        with pytest.warns(RuntimeWarning, match="FIT001"):
            save_model(ForwardModel(), path)
        loaded = load_model(path)
        assert not loaded.model.is_fitted


def _assert_same_structure(expected, actual, path="$"):
    """Exact keys and shapes; floats to 1e-9 relative (BLAS-stable)."""
    assert type(expected) is type(actual), path
    if isinstance(expected, dict):
        assert sorted(expected) == sorted(actual), path
        for key in expected:
            _assert_same_structure(
                expected[key], actual[key], f"{path}.{key}"
            )
    elif isinstance(expected, list):
        assert len(expected) == len(actual), path
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_same_structure(e, a, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-300), path
    else:
        assert expected == actual, path


class TestFormatV2Golden:
    """The persisted format is an interface; pin it."""

    def test_v2_document_matches_golden(self):
        model = ForwardModel().fit(synthetic_dataset())
        doc = json.loads(json.dumps(model_to_dict(model)))
        golden = json.loads(
            (DATA_DIR / "model_v2_golden.json").read_text()
        )
        _assert_same_structure(golden, doc)

    def test_v2_carries_ranges_and_audit(self):
        model = ForwardModel().fit(synthetic_dataset())
        doc = model_to_dict(model)
        assert doc["format"] == 2
        assert len(doc["linear"]["feature_ranges"]) == len(
            doc["linear"]["coef"]
        )
        assert set(doc["audit"]) == {
            "errors", "warnings", "infos", "diagnostics"
        }

    def test_audit_off_omits_block(self):
        model = ForwardModel().fit(synthetic_dataset())
        assert "audit" not in model_to_dict(model, audit=False)

    def test_v1_document_loads_without_warnings(self, tmp_path):
        # Pre-bump artifacts stay loadable, silently: no deprecation
        # chatter, no audit replay, no feature ranges.
        v1 = json.loads((DATA_DIR / "model_v1.json").read_text())
        assert v1["format"] == 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_model(path)
        assert loaded.model.is_fitted
        assert loaded.model.feature_ranges is None
        assert load_audit_block(path) is None

    def test_v1_and_v2_predict_identically(self, tmp_path):
        data = synthetic_dataset()
        model = ForwardModel().fit(data)
        v2_path = tmp_path / "v2.json"
        save_model(model, v2_path)
        v1 = json.loads((DATA_DIR / "model_v1.json").read_text())
        v1_path = tmp_path / "v1.json"
        v1_path.write_text(json.dumps(v1))
        np.testing.assert_allclose(
            load_model(v1_path).predict(data),
            load_model(v2_path).predict(data),
        )

    def test_loaded_model_restores_feature_ranges(self, data, tmp_path):
        model = ForwardModel().fit(data)
        path = tmp_path / "fwd.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.model.feature_ranges == model.model.feature_ranges
        assert loaded.model.feature_ranges is not None


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_from_dict({"format": 1, "kind": "mystery"})

    def test_bad_format_version(self):
        with pytest.raises(ValueError, match="format"):
            model_from_dict({"format": 99, "kind": "forward"})

    def test_unserialisable_type(self):
        with pytest.raises(TypeError):
            model_to_dict(object())


@pytest.fixture
def torn_writes(monkeypatch):
    """Make every ``Path.write_text`` write half its text, then fail."""

    def torn(self, data, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn)


class TestAtomicWrites:
    """A write that dies midway leaves the previous document intact."""

    @staticmethod
    def _only(directory: Path, name: str) -> None:
        assert sorted(p.name for p in directory.iterdir()) == [name]

    def test_save_model_keeps_previous_artifact(self, data, tmp_path,
                                                request):
        path = tmp_path / "model.json"
        save_model(ForwardModel().fit(data), path)
        before = path.read_bytes()
        request.getfixturevalue("torn_writes")
        with pytest.raises(OSError, match="disk full"):
            save_model(ForwardModel(metric_names=("flops",)).fit(data), path)
        assert path.read_bytes() == before
        self._only(tmp_path, "model.json")

    def test_registry_manifest_survives(self, tmp_path, request):
        from repro.serve.registry import MANIFEST_NAME, write_manifest

        path = write_manifest(tmp_path, {"default": {"file": "a.json"}})
        before = path.read_bytes()
        request.getfixturevalue("torn_writes")
        with pytest.raises(OSError, match="disk full"):
            write_manifest(tmp_path, {"other": {"file": "b.json"}})
        assert path.read_bytes() == before
        self._only(tmp_path, MANIFEST_NAME)

    def test_store_manifest_survives_finalize(self, tmp_path, request):
        from repro.benchdata.engine import CampaignSpec, run_campaign
        from repro.benchdata.store import CampaignStore
        from repro.hardware.device import A100_80GB

        spec = CampaignSpec(
            scenario="inference", models=("alexnet",), device=A100_80GB,
            batch_sizes=(1, 2), image_sizes=(64,),
        )
        store = CampaignStore.open(tmp_path / "store", spec)
        manifest = tmp_path / "store" / "manifest.json"
        before = manifest.read_bytes()
        request.getfixturevalue("torn_writes")
        with pytest.raises(OSError, match="disk full"):
            run_campaign(spec, store=store)
        assert manifest.read_bytes() == before
        assert not json.loads(before)["complete"]
        assert not (tmp_path / "store" / ".manifest.json.tmp").exists()

    def test_dataset_json_survives(self, data, tmp_path, request):
        path = tmp_path / "campaign.json"
        data.to_json(path)
        before = path.read_bytes()
        request.getfixturevalue("torn_writes")
        with pytest.raises(OSError, match="disk full"):
            data.filter(lambda r: r.batch > 1).to_json(path)
        assert path.read_bytes() == before
        self._only(tmp_path, "campaign.json")

    def test_leaderboard_survives(self, tmp_path, request):
        from repro.baselines.eval import write_leaderboard

        payload = json.loads((DATA_DIR / "leaderboard_golden.json").read_text())
        path = tmp_path / "leaderboard.json"
        write_leaderboard(payload, path)
        before = path.read_bytes()
        request.getfixturevalue("torn_writes")
        with pytest.raises(OSError, match="disk full"):
            write_leaderboard(payload, path)
        assert path.read_bytes() == before
        self._only(tmp_path, "leaderboard.json")

    def test_trace_out_survives(self, tmp_path, request, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        assert main(["trace", "alexnet", "--format", "json",
                     "--out", str(path)]) == 0
        before = path.read_bytes()
        request.getfixturevalue("torn_writes")
        with pytest.raises(OSError, match="disk full"):
            main(["trace", "alexnet", "--format", "tree",
                  "--out", str(path)])
        assert path.read_bytes() == before
        self._only(tmp_path, "trace.json")

    def test_chrome_trace_survives(self, tmp_path, request):
        from repro.hardware.device import A100_80GB
        from repro.trace import write_chrome
        from repro.trace.run import trace_model

        path = tmp_path / "trace.chrome.json"
        write_chrome(trace_model("alexnet", A100_80GB), path)
        before = path.read_bytes()
        request.getfixturevalue("torn_writes")
        with pytest.raises(OSError, match="disk full"):
            write_chrome(trace_model("resnet18", A100_80GB), path)
        assert path.read_bytes() == before
        self._only(tmp_path, "trace.chrome.json")

    def test_report_survives(self, tmp_path, request):
        from repro.experiments import EXPERIMENTS
        from repro.experiments.report import write_report

        path = tmp_path / "report.md"
        subset = tuple(e for e in EXPERIMENTS if e.id == "table4")
        write_report(path, experiments=subset, include_timings=False)
        before = path.read_bytes()
        request.getfixturevalue("torn_writes")
        with pytest.raises(OSError, match="disk full"):
            write_report(path, experiments=subset)
        assert path.read_bytes() == before
        self._only(tmp_path, "report.md")
