"""Fitted-model auditor: every FIT rule fires on its seeded defect.

Mutation-style coverage per the PR acceptance criteria: each defect class
is *seeded* into a design/coefficient vector and the audit must name the
exact rule id — a sign flip is FIT001, a duplicated feature column is
FIT002/FIT003, a query at 10x the fitted FLOPs range is FIT004.  The flip
side is just as load-bearing: the default zoo campaigns must audit with
zero ERRORs, or the CI gate would block every honest fit.
"""

import json

import numpy as np
import pytest

from repro.analysis.audit import (
    FIT_RULES,
    audit_linear,
    audit_model,
    audit_prediction_query,
    audit_queries,
    audit_residual_bias,
)
from repro.benchdata.records import ConvNetFeatures, Dataset, TimingRecord
from repro.cli import main
from repro.core.forward import ForwardModel
from repro.core.loo import leave_one_out
from repro.core.persistence import load_audit_block, save_model
from repro.core.regression import ExtrapolationWarning, LinearModel
from repro.core.scalability import batch_scaling_curve
from repro.core.training import TrainingStepModel
from repro.diagnostics import Severity
from repro.experiments.common import gpu_inference_data, training_data
from tests.test_core_models import synthetic_dataset


def rules_of(diags):
    return sorted({d.rule for d in diags})


def errors_of(diags):
    return [d for d in diags if d.severity is Severity.ERROR]


def fit_xy(coef, x=None, weighting="none", method="ols"):
    """Fit a two-column (x, intercept) model on noiseless y = X @ coef."""
    x = np.linspace(1.0, 10.0, 10) if x is None else np.asarray(x)
    X = np.column_stack([x, np.ones_like(x)])
    y = X @ np.asarray(coef, dtype=np.float64)
    model = LinearModel(
        method=method, weighting=weighting,
        feature_names=("x", "intercept"),
    ).fit(X, y)
    return model, X, y


def collinear_dataset(n_models=4, seed=7) -> Dataset:
    """Records whose inputs == outputs exactly: the forward design carries
    a duplicated column, the canonical FIT002/FIT003 defect."""
    rng = np.random.default_rng(seed)
    data = Dataset()
    for mi in range(n_models):
        elems = float(rng.uniform(1e5, 5e6))
        features = ConvNetFeatures(
            flops=float(rng.uniform(1e8, 5e9)),
            inputs=elems,
            outputs=elems,
            weights=float(rng.uniform(1e6, 5e7)),
            layers=int(rng.integers(10, 200)),
        )
        for batch in (1, 4, 16, 64):
            t_fwd = batch * (
                2e-12 * features.flops + 4e-11 * elems
            ) + 1e-3
            data.append(
                TimingRecord(
                    model=f"net{mi}",
                    device="sim",
                    image_size=128,
                    batch=batch,
                    nodes=1,
                    devices=1,
                    scenario="inference",
                    features=features,
                    t_fwd=t_fwd,
                    t_bwd=2.0 * t_fwd,
                    t_grad=1e-5 * features.layers + 1e-4,
                )
            )
    return data


class TestFIT001NegativeCoefficients:
    def test_material_sign_flip_is_error(self):
        # Predictions go non-positive inside the fitted domain: x=10 gives
        # -10 + 9 < 0.  More work cannot take less time — ERROR.
        model, _, _ = fit_xy([-1.0, 9.0])
        diags = audit_linear(model)
        fit001 = [d for d in diags if d.rule == "FIT001"]
        assert fit001 and fit001[0].severity is Severity.ERROR
        assert "x" in fit001[0].location

    def test_immaterial_sign_flip_is_warn(self):
        # Worst-case contribution share 10/30 = 33% and every fitted-domain
        # prediction stays positive — reported, but not a gate-stopper.
        model, _, _ = fit_xy([-1.0, 20.0])
        fit001 = [d for d in audit_linear(model) if d.rule == "FIT001"]
        assert fit001 and fit001[0].severity is Severity.WARN

    def test_nnls_cannot_fire(self):
        model, _, _ = fit_xy([-1.0, 9.0], method="nnls")
        assert all(c >= 0.0 for c in model.coef)
        assert "FIT001" not in rules_of(audit_linear(model))

    def test_unfitted_model_is_error(self):
        diags = audit_linear(LinearModel())
        assert rules_of(diags) == ["FIT001"]
        assert errors_of(diags)

    def test_ignore_filters_rule(self):
        model, _, _ = fit_xy([-1.0, 9.0])
        assert "FIT001" not in rules_of(
            audit_linear(model, ignore=("FIT001",))
        )


class TestFIT002FIT003Collinearity:
    def test_duplicated_column_fires_both(self):
        x = np.linspace(1.0, 10.0, 12)
        X = np.column_stack([x, x, np.ones_like(x)])
        y = 3.0 * x + 1.0
        model = LinearModel(weighting="none").fit(X, y)
        diags = audit_linear(model)
        by_rule = {d.rule: d for d in diags}
        assert by_rule["FIT003"].severity is Severity.ERROR  # rank deficient
        assert by_rule["FIT002"].severity is Severity.ERROR  # VIF = inf
        assert "inf" in by_rule["FIT002"].message or "condition" in (
            by_rule["FIT002"].message
        )

    def test_leverage_stands_down_when_rank_deficient(self):
        # One defect, one diagnostic: the hat matrix of a deficient QR is
        # numerical noise, so FIT005 must not pile on.
        x = np.linspace(1.0, 10.0, 12)
        X = np.column_stack([x, x, np.ones_like(x)])
        model = LinearModel(weighting="none").fit(X, 3.0 * x + 1.0)
        assert "FIT005" not in rules_of(audit_linear(model))

    def test_constant_column_is_warn(self):
        x = np.linspace(1.0, 10.0, 12)
        X = np.column_stack([x, np.full_like(x, 5.0), np.ones_like(x)])
        model = LinearModel(weighting="none").fit(X, 2.0 * x + 1.0)
        constant = [
            d
            for d in audit_linear(model)
            if d.rule == "FIT003" and "constant" in d.message
        ]
        # The constant column itself is a WARN; the rank deficiency it
        # causes (it aliases the all-ones intercept) is a separate ERROR.
        assert constant
        assert all(d.severity is Severity.WARN for d in constant)

    def test_clean_design_is_silent(self):
        model, _, _ = fit_xy([2.0, 1.0])
        assert not errors_of(audit_linear(model))


class TestFIT004Extrapolation:
    def test_query_at_ten_times_flops_fires(self):
        model, _, _ = fit_xy([2.0, 1.0])  # x fitted on [1, 10]
        diags = audit_queries(model, np.array([[200.0, 1.0]]))
        assert rules_of(diags) == ["FIT004"]
        assert "x=200" in diags[0].message

    def test_query_inside_factor_is_silent(self):
        model, _, _ = fit_xy([2.0, 1.0])
        assert audit_queries(model, np.array([[50.0, 1.0]])) == []

    def test_lower_bound_fires_for_positive_ranges(self):
        model, _, _ = fit_xy([2.0, 1.0])
        diags = audit_queries(model, np.array([[0.01, 1.0]]))
        assert rules_of(diags) == ["FIT004"]

    def test_batch_scaling_curve_warns_past_domain(self):
        data = synthetic_dataset()
        step = TrainingStepModel().fit(data)
        features = data[0].features
        with pytest.warns(ExtrapolationWarning, match="FIT004"):
            batch_scaling_curve(step, features, (10**6,))

    def test_batch_scaling_curve_silent_when_disabled(self):
        data = synthetic_dataset()
        step = TrainingStepModel().fit(data)
        features = data[0].features
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            batch_scaling_curve(
                step, features, (10**6,), domain_factor=None
            )

    def test_prediction_query_walks_training_step(self):
        data = synthetic_dataset()
        step = TrainingStepModel().fit(data)
        features = data[0].features
        diags = audit_prediction_query(step, features, batch=10**6)
        assert "FIT004" in rules_of(diags)
        assert audit_prediction_query(step, features, batch=4) == []


class TestFIT005Leverage:
    def test_extreme_point_is_error(self):
        x = np.concatenate([np.linspace(1.0, 2.0, 20), [1000.0]])
        model, _, _ = fit_xy([2.0, 1.0], x=x)
        fit005 = [d for d in audit_linear(model) if d.rule == "FIT005"]
        assert fit005 and fit005[0].severity is Severity.ERROR
        assert "row[20]" in fit005[0].location

    def test_balanced_sweep_is_silent(self):
        model, _, _ = fit_xy([2.0, 1.0])
        assert "FIT005" not in rules_of(audit_linear(model))


class TestFIT006ResidualBias:
    def test_one_way_group_fires(self):
        measured = np.full(8, 1.0)
        groups = {
            "biased": (measured, np.full(8, 1.3)),
            "ok": (measured, np.array([0.9, 1.1] * 4)),
        }
        diags = audit_residual_bias(groups)
        assert rules_of(diags) == ["FIT006"]
        assert diags[0].location.endswith("biased")
        assert "over-prediction" in diags[0].message

    def test_small_groups_are_skipped(self):
        groups = {"tiny": (np.full(3, 1.0), np.full(3, 2.0))}
        assert audit_residual_bias(groups) == []


class TestFIT007InterceptDominance:
    def test_fixed_cost_model_warns(self):
        model, _, _ = fit_xy([1e-6, 100.0])
        fit007 = [d for d in audit_linear(model) if d.rule == "FIT007"]
        assert fit007 and fit007[0].severity is Severity.WARN

    def test_balanced_intercept_is_silent(self):
        model, _, _ = fit_xy([2.0, 1.0])
        assert "FIT007" not in rules_of(audit_linear(model))


class TestOlsVersusNnlsOnCollinearDesign:
    """Satellite: the paper's NNLS remedy, audited end to end."""

    @pytest.fixture(scope="class")
    def data(self):
        return collinear_dataset()

    def test_ols_fit_flags_collinearity(self, data):
        model = ForwardModel(method="ols").fit(data)
        diags = audit_model(model, data)
        assert "FIT002" in rules_of(diags)
        assert "FIT003" in rules_of(diags)

    def test_nnls_refit_clears_fit001(self, data):
        diags = audit_model(ForwardModel(method="nnls").fit(data), data)
        assert "FIT001" not in rules_of(diags)

    def test_loo_error_stays_finite(self, data):
        result = leave_one_out(
            data, lambda: ForwardModel(method="nnls"), lambda r: r.t_fwd
        )
        assert np.isfinite(result.pooled.mape)
        assert all(
            np.isfinite(m.mape) for m in result.per_model.values()
        )


class TestDefaultFitsAuditClean:
    """Acceptance: the shipped campaigns must pass the CI audit gate."""

    def test_table1_gpu_forward_model(self):
        data = gpu_inference_data()
        diags = audit_model(ForwardModel().fit(data), data)
        assert errors_of(diags) == [], [d.render() for d in diags]

    def test_training_step_model(self):
        data = training_data()
        diags = audit_model(TrainingStepModel().fit(data), data)
        assert errors_of(diags) == [], [d.render() for d in diags]


class TestModelLevelDispatch:
    def test_composite_locations_are_prefixed(self):
        data = collinear_dataset()
        diags = audit_model(TrainingStepModel().fit(data), data)
        prefixes = {d.location.split(".")[0].split(":")[0] for d in diags}
        assert "forward" in prefixes

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError, match="cannot audit"):
            audit_model(object())

    def test_registry_covers_all_ten_rules(self):
        assert [r.rule for r in FIT_RULES] == [
            f"FIT00{i}" for i in range(1, 10)
        ] + ["FIT010"]


class TestAuditCli:
    @pytest.fixture()
    def saved(self, tmp_path):
        data = synthetic_dataset()
        data_path = tmp_path / "data.json"
        data.to_json(data_path)
        model_path = tmp_path / "model.json"
        save_model(ForwardModel().fit(data), model_path)
        return data_path, model_path

    def test_clean_model_exits_zero(self, saved, capsys):
        _, model_path = saved
        assert main(["audit", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_data_path_reaudits(self, saved, capsys):
        data_path, model_path = saved
        code = main(["audit", str(model_path), "--data", str(data_path)])
        assert code == 0

    def test_json_format_is_machine_readable(self, saved, capsys):
        _, model_path = saved
        main(["audit", str(model_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["unit"] == "model"

    def test_defective_model_exits_one(self, tmp_path, capsys):
        data = collinear_dataset()
        model_path = tmp_path / "bad.json"
        save_model(ForwardModel().fit(data), model_path, audit="off")
        data_path = tmp_path / "bad_data.json"
        data.to_json(data_path)
        code = main(
            ["audit", str(model_path), "--data", str(data_path)]
        )
        assert code == 1
        assert "FIT003" in capsys.readouterr().out

    def test_embedded_block_replay_without_data(self, tmp_path, capsys):
        data = collinear_dataset()
        model_path = tmp_path / "bad.json"
        with pytest.warns(RuntimeWarning, match="audit ERROR"):
            save_model(ForwardModel().fit(data), model_path, audit="warn")
        assert load_audit_block(model_path)["errors"] > 0
        assert main(["audit", str(model_path)]) == 1

    def test_ignore_downgrades_exit(self, tmp_path):
        data = collinear_dataset()
        model_path = tmp_path / "bad.json"
        with pytest.warns(RuntimeWarning):
            save_model(ForwardModel().fit(data), model_path)
        code = main(
            ["audit", str(model_path), "--ignore", "FIT002", "FIT003"]
        )
        assert code == 0


class TestFitCliAuditGate:
    def test_strict_refuses_defective_fit(self, tmp_path, capsys):
        data = collinear_dataset()
        data_path = tmp_path / "data.json"
        data.to_json(data_path)
        out_path = tmp_path / "model.json"
        code = main([
            "fit", "--data", str(data_path), "--out", str(out_path),
            "--audit", "strict",
        ])
        assert code == 1
        assert "refusing to save" in capsys.readouterr().out
        assert not out_path.exists()

    def test_warn_saves_and_reports(self, tmp_path, capsys):
        data = synthetic_dataset()
        data_path = tmp_path / "data.json"
        data.to_json(data_path)
        out_path = tmp_path / "model.json"
        code = main([
            "fit", "--data", str(data_path), "--out", str(out_path),
        ])
        assert code == 0
        assert "audit:" in capsys.readouterr().out
        assert load_audit_block(out_path) is not None


class TestLearnedArtifactAudit:
    """FIT008–FIT010 on the learned predictor suite, plus the dispatch
    through audit_model and the CLI exit contract for every new kind."""

    @staticmethod
    def _copy(model):
        """A private mutable copy (fixtures are session-scoped)."""
        from repro.baselines import predictor_from_state

        return predictor_from_state(model.kind, model.to_state())

    def test_clean_artifacts_have_zero_errors(
        self, fitted_resperfnet, fitted_perfseer, fitted_prenet,
        suite_inference_data,
    ):
        for model in (fitted_resperfnet, fitted_perfseer, fitted_prenet):
            diags = audit_model(model, suite_inference_data)
            errors = [d for d in diags if d.severity is Severity.ERROR]
            assert errors == [], (model.kind, errors)

    def test_unfitted_artifact_is_fit008_error(self):
        from repro.baselines import ResPerfNet

        diags = audit_model(ResPerfNet("fwd", 0))
        fit008 = [d for d in diags if d.rule == "FIT008"]
        assert fit008 and fit008[0].severity is Severity.ERROR
        assert "not fitted" in fit008[0].message

    def test_nan_parameter_is_fit008_error(self, fitted_resperfnet):
        poisoned = self._copy(fitted_resperfnet)
        poisoned.net.params[0][0] = np.nan
        diags = audit_model(poisoned)
        assert any(
            d.rule == "FIT008" and d.severity is Severity.ERROR
            for d in diags
        ), diags

    def test_missing_ranges_is_fit009_warn(self, fitted_resperfnet):
        stripped = self._copy(fitted_resperfnet)
        stripped.feature_ranges = None
        diags = [d for d in audit_model(stripped) if d.rule == "FIT009"]
        assert diags and diags[0].severity is Severity.WARN

    def test_inverted_range_is_fit009_error(self, fitted_resperfnet):
        corrupt = self._copy(fitted_resperfnet)
        lo, hi = corrupt.feature_ranges[0]
        corrupt.feature_ranges = ((hi, lo),) + corrupt.feature_ranges[1:]
        diags = [d for d in audit_model(corrupt) if d.rule == "FIT009"]
        assert any(d.severity is Severity.ERROR for d in diags), diags

    def test_tampered_fingerprint_is_fit010_error(self, fitted_perfseer):
        tampered = self._copy(fitted_perfseer)
        tampered.init_fingerprint = "0" * 32
        diags = [d for d in audit_model(tampered) if d.rule == "FIT010"]
        assert diags and diags[0].severity is Severity.ERROR
        assert "seed replay mismatch" in diags[0].message

    def test_missing_fingerprint_is_fit010_warn(self, fitted_prenet):
        blank = self._copy(fitted_prenet)
        blank.init_fingerprint = ""
        diags = [d for d in audit_model(blank) if d.rule == "FIT010"]
        assert diags and diags[0].severity is Severity.WARN

    def test_data_enables_residual_bias_rule(
        self, fitted_perfseer, suite_inference_data
    ):
        """With the campaign supplied, the FIT006 residual machinery runs
        over the learned artifact's own predictions."""
        diags = audit_model(fitted_perfseer, suite_inference_data)
        locations = {d.location for d in diags}
        # FIT006 may or may not fire — but the audit must complete and
        # any finding must carry the artifact-side location prefix.
        assert all(
            loc.startswith(("model", "query")) for loc in locations
        ), locations

    @pytest.mark.parametrize("fixture", [
        "fitted_resperfnet", "fitted_perfseer", "fitted_prenet",
    ])
    def test_cli_exit_contract_per_kind(
        self, fixture, request, tmp_path, suite_inference_data, capsys
    ):
        model = request.getfixturevalue(fixture)
        data_path = tmp_path / "data.json"
        suite_inference_data.to_json(data_path)
        clean_path = tmp_path / "clean.json"
        save_model(model, clean_path)

        assert main(["audit", str(clean_path)]) == 0
        assert main([
            "audit", str(clean_path), "--data", str(data_path)
        ]) == 0

        doc = json.loads(clean_path.read_text())
        doc["predictor"]["init_fingerprint"] = "0" * 32
        bad_path = tmp_path / "tampered.json"
        bad_path.write_text(json.dumps(doc))
        assert main([
            "audit", str(bad_path), "--data", str(data_path)
        ]) == 1
        out = capsys.readouterr().out
        assert "FIT010" in out
