"""Failure injection: corrupted inputs and misuse must fail loudly and
legibly, never silently produce garbage."""

import json

import numpy as np
import pytest

from repro.benchdata import Dataset, inference_campaign
from repro.benchdata.records import ConvNetFeatures, TimingRecord
from repro.core.forward import ForwardModel
from repro.core.loo import leave_one_out
from repro.core.metrics import evaluate_predictions
from repro.core.persistence import load_audit_block, load_model
from repro.core.regression import LinearModel
from repro.core.training import TrainingStepModel
from repro.fileio import DocumentError
from repro.graph.builder import GraphBuilder


def _record(model="m", t_fwd=0.01, **kw) -> TimingRecord:
    defaults = dict(
        model=model,
        device="d",
        image_size=64,
        batch=4,
        nodes=1,
        devices=1,
        scenario="inference",
        features=ConvNetFeatures(1e9, 1e6, 2e6, 5e6, 50),
        t_fwd=t_fwd,
    )
    defaults.update(kw)
    return TimingRecord(**defaults)


class TestCorruptedData:
    def test_truncated_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"records": [{"model": "x"')
        with pytest.raises(DocumentError, match="bad.json is not JSON"):
            Dataset.from_json(path)

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"records": [{"model": "x"}]}))
        with pytest.raises(ValueError, match="malformed timing record"):
            Dataset.from_json(path)

    def test_corrupted_model_file_raises(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": 1, "kind": "nonsense"}))
        with pytest.raises(ValueError, match="unknown model kind"):
            load_model(path)

    def test_zero_time_record_breaks_relative_fit_loudly(self):
        data = Dataset([_record(t_fwd=0.0), _record(t_fwd=0.01),
                        _record(t_fwd=0.02), _record(t_fwd=0.03),
                        _record(t_fwd=0.05)])
        with pytest.raises(ValueError, match="positive"):
            ForwardModel().fit(data)

    def test_nan_measurement_rejected_by_metrics(self):
        measured = np.array([1.0, np.nan])
        metrics = evaluate_predictions(measured, np.array([1.0, 1.0]))
        # NaNs must be visible in the result, not silently averaged away.
        assert np.isnan(metrics.rmse) or np.isnan(metrics.mape)


#: Documents that are not what any loader expects: empty, an object with
#: none of the required keys, not an object, torn mid-key, and a valid
#: object followed by garbage.
BAD_DOCUMENTS = {
    "empty": "",
    "no-keys": "{}",
    "array": "[1]",
    "truncated": '{"reco',
    "trailing-garbage": '{"records": []} x',
}

#: Loader -> the key it names when an object lacks it.
LOADERS = {
    "dataset": (Dataset.from_json, "records"),
    "model": (load_model, "format"),
    "audit-block": (load_audit_block, "format"),
}


class TestTypedLoadErrors:
    """Every JSON loader fails with one ValueError subclass naming the
    file, and every command reading one exits 2 with ``<cmd>: <message>``
    on stderr instead of a traceback."""

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
    def test_loader_names_the_file(self, tmp_path, loader, case):
        load, key = LOADERS[loader]
        path = tmp_path / f"{case}.json"
        path.write_text(BAD_DOCUMENTS[case])
        with pytest.raises(DocumentError, match=f"{case}.json") as info:
            load(path)
        if case == "no-keys":
            assert f"missing key {key!r}" in str(info.value)

    @pytest.mark.parametrize("doc, named", [
        ({"format": 2}, "missing key 'kind'"),
        ({"format": 2, "kind": "forward"}, "'metric_names'"),
    ], ids=["no-kind", "no-state"])
    def test_model_document_names_file_and_key(self, tmp_path, doc, named):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DocumentError, match="model.json") as info:
            load_model(path)
        assert named in str(info.value)

    def test_non_object_record_is_a_document_error(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"records": [1]}))
        with pytest.raises(DocumentError, match="data.json"):
            Dataset.from_json(path)

    def test_missing_file_is_a_document_error(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_model(tmp_path / "absent.json")

    @pytest.mark.parametrize("command", ["fit", "predict", "audit", "report"])
    @pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
    def test_command_exits_2_with_message(self, tmp_path, capsys, command,
                                          case):
        from repro.cli import main

        path = tmp_path / f"{case}.json"
        path.write_text(BAD_DOCUMENTS[case])
        argv = {
            "fit": ["fit", "--data", str(path), "-o",
                    str(tmp_path / "out.json")],
            "predict": ["predict", "--model", str(path),
                        "--network", "alexnet"],
            "audit": ["audit", str(path)],
            "report": ["report", "--model", str(path),
                       "--network", "alexnet"],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: {path}")
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


class TestDegenerateFits:
    def test_single_record_fit_rejected(self):
        data = Dataset([_record()])
        with pytest.raises(ValueError, match="underdetermined"):
            ForwardModel().fit(data)

    def test_constant_feature_column_survives(self):
        # All records share one batch/image: columns are collinear; the
        # solver must still return finite coefficients.
        records = [
            _record(model=f"m{i}",
                    features=ConvNetFeatures(1e9 * (i + 1), 1e6 * (i + 1),
                                             2e6 * (i + 1), 1e6, 10),
                    t_fwd=0.01 * (i + 1))
            for i in range(6)
        ]
        model = ForwardModel().fit(Dataset(records))
        assert np.all(np.isfinite(model.model.coef))

    def test_loo_with_one_model_rejected(self):
        data = Dataset([_record(), _record(t_fwd=0.02)])
        with pytest.raises(ValueError, match="two distinct"):
            leave_one_out(data, lambda: ForwardModel(), lambda r: r.t_fwd)

    def test_step_model_single_node_only_cannot_extrapolate_nodes(self):
        records = [
            _record(model=f"m{i}", scenario="training", t_bwd=0.02,
                    t_grad=0.001,
                    features=ConvNetFeatures(1e9 * (i + 1), 1e6, 2e6,
                                             1e6, 10),
                    t_fwd=0.01 * (i + 1))
            for i in range(8)
        ]
        model = TrainingStepModel().fit(Dataset(records))
        f = records[0].features
        with pytest.raises(RuntimeError, match="multi-node"):
            model.predict_one(f, 4, devices=8, nodes=2)


class TestGraphMisuse:
    def test_cycle_impossible_by_construction(self):
        # The builder only references existing nodes, so cycles cannot be
        # expressed; referencing a future node fails immediately.
        b = GraphBuilder("g")
        b.input(3, 8, 8)
        with pytest.raises(KeyError):
            b.relu("not_yet_created")

    def test_shape_mismatch_fails_at_build_not_run(self):
        b = GraphBuilder("g")
        x = b.input(3, 8, 8)
        y = b.conv(x, 4, kernel_size=3, padding=1)
        z = b.conv(x, 4, kernel_size=3, stride=2, padding=1)
        with pytest.raises(ValueError, match="differ in shape"):
            b.add(y, z)

    def test_oversized_stride_fails_cleanly(self):
        b = GraphBuilder("g")
        x = b.input(3, 4, 4)
        with pytest.raises(ValueError, match="does not fit"):
            b.conv(x, 8, kernel_size=7)


class TestCampaignEdgeCases:
    def test_empty_model_list_gives_empty_dataset(self):
        data = inference_campaign(models=(), seed=1)
        assert len(data) == 0

    def test_fit_on_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ForwardModel().fit(inference_campaign(models=(), seed=1))

    def test_impossible_image_sizes_give_empty(self):
        data = inference_campaign(
            models=("inception_v3",), image_sizes=(32, 64), seed=1
        )
        assert len(data) == 0

    def test_sample_weight_negative_rejected(self):
        X = np.ones((3, 1))
        y = np.ones(3)
        with pytest.raises(ValueError, match="non-negative"):
            LinearModel(weighting="none").fit(
                X, y, sample_weight=np.array([1.0, -1.0, 1.0])
            )
