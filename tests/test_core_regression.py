"""Core regression engine, error metrics, and design matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchdata.records import ConvNetFeatures, TimingRecord
from repro.core.features import (
    FORWARD_FEATURES,
    combined_bwd_grad_design,
    combined_bwd_grad_row,
    forward_design,
    forward_row,
    grad_update_design,
    grad_update_row,
    target,
)
from repro.core.metrics import (
    EvalMetrics,
    evaluate_predictions,
    mape,
    nrmse,
    r_squared,
    rmse,
)
from repro.core import regression
from repro.core.regression import LinearModel


class TestErrorMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        m = evaluate_predictions(y, y)
        assert m.r2 == 1.0
        assert m.rmse == 0.0
        assert m.nrmse == 0.0
        assert m.mape == 0.0
        assert m.n == 3

    def test_rmse_known_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == (
            pytest.approx(np.sqrt(12.5))
        )

    def test_nrmse_normalised_by_range(self):
        measured = np.array([0.0, 10.0])
        predicted = np.array([1.0, 9.0])
        assert nrmse(measured, predicted) == pytest.approx(
            rmse(measured, predicted) / 10.0
        )

    def test_mape_known_value(self):
        assert mape(np.array([2.0, 4.0]), np.array([1.0, 5.0])) == (
            pytest.approx(0.375)
        )

    def test_mape_rejects_zero_measured(self):
        with pytest.raises(ValueError):
            mape(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_r2_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r2_constant_measured(self):
        y = np.ones(4)
        assert r_squared(y, y) == 1.0
        assert r_squared(y, y + 1) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_predictions(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predictions(np.array([]), np.array([]))

    def test_str_rendering(self):
        text = str(EvalMetrics(0.9, 0.1, 0.2, 0.3, 5))
        assert "R²=0.900" in text and "n=5" in text


class TestLinearModel:
    def test_recovers_exact_relation_ols(self):
        rng = np.random.default_rng(0)
        X = np.hstack([rng.uniform(1, 10, (50, 2)), np.ones((50, 1))])
        true = np.array([2.0, -1.0, 5.0])
        y = X @ true
        model = LinearModel(method="ols", weighting="none").fit(X, y)
        np.testing.assert_allclose(model.coef, true, rtol=1e-8)

    def test_recovers_nonnegative_relation_nnls(self):
        rng = np.random.default_rng(1)
        X = np.hstack([rng.uniform(1, 10, (50, 2)), np.ones((50, 1))])
        true = np.array([2.0, 3.0, 0.5])
        y = X @ true
        model = LinearModel(method="nnls", weighting="none").fit(X, y)
        np.testing.assert_allclose(model.coef, true, rtol=1e-6)

    def test_nnls_clamps_negative_contribution(self):
        rng = np.random.default_rng(2)
        X = np.hstack([rng.uniform(1, 10, (60, 1)), np.ones((60, 1))])
        y = X @ np.array([-1.0, 20.0])  # decreasing relation
        model = LinearModel(method="nnls", weighting="none").fit(X, y)
        assert model.coef[0] == 0.0

    def test_nnls_matches_scipy_on_the_scaled_design(self):
        # The solver is imported at its call site; the fit must equal a
        # direct scipy call on the same column-scaled, weighted system.
        from scipy.optimize import nnls

        rng = np.random.default_rng(3)
        X = np.hstack([rng.uniform(1, 1e9, (40, 2)), np.ones((40, 1))])
        y = X @ np.array([2e-9, 5e-10, 0.3]) + rng.uniform(0, 0.1, 40)
        model = LinearModel(method="nnls").fit(X, y)
        w = 1.0 / y
        Xw, yw = X * w[:, None], y * w
        scale = np.abs(Xw).max(axis=0)
        coef_s, _ = nnls(Xw / scale, yw)
        np.testing.assert_array_equal(model.coef, coef_s / scale)

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli; "
            "print('scipy.optimize' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_relative_weighting_balances_scales(self):
        # Two regimes: tiny and huge targets from the same relation plus a
        # constant bias on the huge ones.  Plain OLS chases the huge rows;
        # relative weighting keeps the small regime accurate.
        X = np.array([[1.0, 1.0], [2.0, 1.0], [1e6, 1.0], [2e6, 1.0]])
        y = np.array([1.0, 2.0, 1.1e6, 2.1e6])
        plain = LinearModel(weighting="none").fit(X, y)
        rel = LinearModel(weighting="relative").fit(X, y)
        small_err_plain = abs(plain.predict(X[:1])[0] - 1.0)
        small_err_rel = abs(rel.predict(X[:1])[0] - 1.0)
        assert small_err_rel < small_err_plain

    def test_relative_weighting_needs_positive_targets(self):
        X = np.ones((3, 1))
        with pytest.raises(ValueError):
            LinearModel(weighting="relative").fit(X, np.array([1.0, 0.0, 2.0]))

    def test_explicit_sample_weight(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])
        model = LinearModel(weighting="none").fit(
            X, y, sample_weight=np.array([1.0, 0.0])
        )
        assert model.predict(X)[0] == pytest.approx(1.0)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="underdetermined"):
            LinearModel().fit(np.ones((2, 3)), np.ones(2))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearModel().fit(np.ones((3, 1)), np.ones(4))

    def test_one_dim_design_rejected(self):
        with pytest.raises(ValueError):
            LinearModel().fit(np.ones(3), np.ones(3))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            LinearModel(method="ridge").fit(np.ones((3, 1)), np.ones(3))

    def test_unknown_weighting(self):
        with pytest.raises(ValueError):
            LinearModel(weighting="log").fit(np.ones((3, 1)), np.ones(3))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LinearModel().predict(np.ones((1, 2)))

    def test_predict_single_row(self):
        model = LinearModel(weighting="none").fit(
            np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]),
            np.array([3.0, 5.0, 7.0]),
        )
        assert model.predict(np.array([4.0, 1.0]))[0] == pytest.approx(9.0)

    def test_predict_column_mismatch(self):
        model = LinearModel(weighting="none").fit(
            np.ones((3, 2)), np.ones(3)
        )
        with pytest.raises(ValueError):
            model.predict(np.ones((1, 3)))

    def test_named_coefficients(self):
        model = LinearModel(
            weighting="none", feature_names=("a", "intercept")
        ).fit(np.array([[1.0, 1.0], [2.0, 1.0]]), np.array([3.0, 5.0]))
        coeffs = model.coefficients()
        assert coeffs["a"] == pytest.approx(2.0)
        assert coeffs["intercept"] == pytest.approx(1.0)

    def test_zero_column_rejected(self):
        # The scaled solve used to divide by an arbitrary fallback for an
        # identically-zero column; fit now refuses outright (FIT003's
        # runtime twin).
        X = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 1.0], [3.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="FIT003"):
            LinearModel(weighting="none").fit(X, np.array([1.0, 2.0, 3.0]))

    def test_zero_column_error_names_the_feature(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="dead"):
            LinearModel(
                weighting="none", feature_names=("x", "dead")
            ).fit(X, np.array([1.0, 2.0, 3.0]))

    def test_fit_records_feature_ranges(self):
        X = np.array([[1.0, 1.0], [4.0, 1.0], [2.5, 1.0]])
        model = LinearModel(weighting="none").fit(
            X, np.array([3.0, 9.0, 6.0])
        )
        assert model.feature_ranges == ((1.0, 4.0), (1.0, 1.0))

    def test_domain_violations_flag_far_queries(self):
        X = np.array([[1.0, 1.0], [10.0, 1.0], [5.0, 1.0]])
        model = LinearModel(
            weighting="none", feature_names=("x", "intercept")
        ).fit(X, X @ np.array([2.0, 1.0]))
        inside = model.domain_violations(np.array([[90.0, 1.0]]))
        assert inside == []
        out = model.domain_violations(np.array([[250.0, 1.0]]))
        assert len(out) == 1
        assert out[0].feature == "x"
        assert "outside" in out[0].describe()
        # A tighter factor flags the same query.
        assert model.domain_violations(
            np.array([[90.0, 1.0]]), factor=2.0
        )

    def test_band_is_kept_per_ranges_and_factor(self, monkeypatch):
        derived = []
        real = regression.domain_band
        monkeypatch.setattr(
            regression, "domain_band",
            lambda ranges, factor: derived.append(factor)
            or real(ranges, factor),
        )
        model = LinearModel(feature_ranges=((1.0, 10.0), (0.0, 5.0)))
        X = np.array([[1.0, 60.0], [2.0, 3.0]])
        for _ in range(2):
            assert model.out_of_domain(X, 8.0).tolist() == [True, False]
            assert len(model.domain_violations(X, 8.0)) == 1
        assert derived == [8.0]
        assert model.out_of_domain(X, 2.0).tolist() == [True, False]
        # New ranges (a refit or a reload) derive a new band.
        model.feature_ranges = ((1.0, 10.0), (0.0, 50.0))
        assert model.out_of_domain(X, 2.0).tolist() == [False, False]
        assert derived == [8.0, 2.0, 2.0]

    @given(
        c1=st.floats(1e-12, 1e-6),
        c2=st.floats(1e-10, 1e-4),
        c4=st.floats(1e-5, 1e-2),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_planted_coefficients_property(self, c1, c2, c4, seed):
        """With noiseless data at realistic scales, both solvers recover the
        planted ConvMeter-style coefficients."""
        rng = np.random.default_rng(seed)
        flops = rng.uniform(1e8, 1e11, 40)
        elems = rng.uniform(1e5, 1e8, 40)
        X = np.column_stack([flops, elems, np.ones(40)])
        y = X @ np.array([c1, c2, c4])
        for method in ("ols", "nnls"):
            model = LinearModel(method=method).fit(X, y)
            np.testing.assert_allclose(
                model.predict(X), y, rtol=1e-6
            )


def _rec(batch=2, devices=1, nodes=1, **times) -> TimingRecord:
    return TimingRecord(
        model="m",
        device="d",
        image_size=32,
        batch=batch,
        nodes=nodes,
        devices=devices,
        scenario="training",
        features=ConvNetFeatures(
            flops=100.0, inputs=10.0, outputs=20.0, weights=7.0, layers=3
        ),
        t_fwd=times.get("t_fwd", 1.0),
        t_bwd=times.get("t_bwd", 2.0),
        t_grad=times.get("t_grad", 0.5),
    )


#: Doubles that stress the row path: signed zeros, subnormals, values
#: near the top of the range and ordinary magnitudes.
_EDGE_DOUBLES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.225073858507201e-308, 1e300, -1e300, 1.7976931348623157e308,
        -1.7976931348623157e308, 1.0, -1.0,
    ]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=1e290, max_value=1e308),
)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestScalarRowPath:
    """``predict_row``/``row_out_of_domain`` are the one-row twins of
    ``predict``/``out_of_domain``: bit for bit, on any doubles."""

    @given(
        data=st.data(),
        k=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=400, deadline=None)
    def test_predict_row_equals_predict(self, data, k):
        coef = data.draw(st.lists(_EDGE_DOUBLES, min_size=k, max_size=k))
        row = data.draw(st.lists(_EDGE_DOUBLES, min_size=k, max_size=k))
        model = LinearModel(coef=np.array(coef))
        with np.errstate(all="ignore"):
            expected = model.predict(np.array([row]))[0]
        got = model.predict_row(tuple(row))
        assert type(got) is float
        assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("row, coef", [
        ((-0.0,), (1.0,)),
        ((-0.0, 0.0), (1.0, -1.0)),
        ((5e-324, -5e-324), (1.0, 1.0)),
        ((5e-324,), (0.5,)),
        ((1e300, 1e300, -1e300), (1e10, -1e10, 1.0)),
        ((1e300, 1.0), (1e10, -1.0)),
    ])
    def test_signed_zeros_subnormals_and_overflow(self, row, coef):
        model = LinearModel(coef=np.array(coef))
        with np.errstate(all="ignore"):
            expected = model.predict(np.array([row]))[0]
        assert _bits(model.predict_row(row)) == _bits(expected)

    @given(
        data=st.data(),
        k=st.integers(min_value=1, max_value=7),
        factor=st.one_of(
            st.sampled_from([10.0, 1.5, 1.0, 8.0]),
            st.floats(min_value=1e-6, max_value=1e6),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_row_out_of_domain_equals_out_of_domain(self, data, k, factor):
        ranges = tuple(
            tuple(sorted(data.draw(st.tuples(_EDGE_DOUBLES, _EDGE_DOUBLES))))
            for _ in range(k)
        )
        # Rows near the bounds as well as anywhere.
        near = st.sampled_from(
            [v for lo, hi in ranges for v in (lo, hi, lo / factor,
                                              hi * factor)]
        )
        row = tuple(data.draw(
            st.lists(st.one_of(_EDGE_DOUBLES, near), min_size=k,
                     max_size=k)
        ))
        model = LinearModel(feature_ranges=ranges)
        with np.errstate(all="ignore"):
            expected = bool(model.out_of_domain(np.array([row]), factor)[0])
            got = model.row_out_of_domain(row, factor)
            reported = bool(model.domain_violations(np.array([row]), factor))
        assert got is expected is reported

    def test_no_lower_bound_when_min_is_not_positive(self):
        model = LinearModel(feature_ranges=((0.0, 4.0), (-3.0, 2.0),
                                            (2.0, 5.0)))
        for row in ((-1e300, -1e300, 2.0), (0.0, -0.0, 0.2)):
            assert model.row_out_of_domain(row, 10.0) is False
            assert not model.out_of_domain(np.array([row]), 10.0)[0]
        for row in ((41.0, 0.0, 2.0), (0.0, 0.0, 0.19)):
            assert model.row_out_of_domain(row, 10.0) is True
            assert model.out_of_domain(np.array([row]), 10.0)[0]

    def test_the_row_path_shares_the_kept_band(self, monkeypatch):
        derived = []
        real = regression.domain_band
        monkeypatch.setattr(
            regression, "domain_band",
            lambda ranges, factor: derived.append(factor)
            or real(ranges, factor),
        )
        model = LinearModel(feature_ranges=((1.0, 10.0), (0.0, 5.0)))
        for _ in range(2):
            assert model.row_out_of_domain((1.0, 60.0), 8.0) is True
            assert model.out_of_domain(np.array([[2.0, 3.0]]), 8.0)[0] == 0
        assert derived == [8.0]

    def test_a_replaced_coef_is_scored(self):
        model = LinearModel(coef=np.array([1.0, 2.0]))
        assert model.predict_row((1.0, 1.0)) == 3.0
        model.coef = np.array([1.0, 4.0])
        assert model.predict_row((1.0, 1.0)) == 5.0
        model.coef = None
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict_row((1.0, 1.0))

    def test_errors_match_the_matrix_path(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            LinearModel().predict_row((1.0, 2.0))
        model = LinearModel(coef=np.array([1.0, 2.0]),
                            feature_ranges=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="3 columns"):
            model.predict_row((1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="3 columns"):
            model.row_out_of_domain((1.0, 2.0, 3.0), 10.0)
        with pytest.raises(ValueError, match="positive"):
            model.row_out_of_domain((1.0, 2.0), 0.0)
        unranged = LinearModel(coef=np.array([1.0]))
        assert unranged.row_out_of_domain((1e300,), 10.0) is False
        with pytest.raises(ValueError, match="positive"):
            unranged.row_out_of_domain((1.0,), -1.0)


class TestDesignMatrices:
    def test_forward_row_values(self):
        row = forward_row(_rec().features, batch=2)
        np.testing.assert_allclose(row, [200.0, 20.0, 40.0, 1.0])

    def test_forward_row_metric_subset(self):
        row = forward_row(_rec().features, 2, metric_names=("flops",))
        np.testing.assert_allclose(row, [200.0, 1.0])

    def test_forward_design_shape(self):
        X = forward_design([_rec(), _rec(batch=4)])
        assert X.shape == (2, len(FORWARD_FEATURES) + 1)
        assert X[1, 0] == 400.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            forward_row(_rec().features, 1, metric_names=("latency",))

    def test_grad_row_single(self):
        np.testing.assert_allclose(
            grad_update_row(_rec().features, 1, multi_node=False), [3.0, 1.0]
        )

    def test_grad_row_multi(self):
        np.testing.assert_allclose(
            grad_update_row(_rec().features, 8, multi_node=True),
            [3.0, 7.0, 8.0, 1.0],
        )

    def test_grad_design(self):
        X = grad_update_design([_rec(devices=4)], multi_node=True)
        assert X.shape == (1, 4)

    def test_combined_row(self):
        row = combined_bwd_grad_row(_rec().features, 2, 8)
        np.testing.assert_allclose(
            row, [200.0, 20.0, 40.0, 3.0, 7.0, 8.0, 1.0]
        )

    def test_combined_design_shape(self):
        X = combined_bwd_grad_design([_rec(), _rec()])
        assert X.shape == (2, 7)

    def test_targets(self):
        recs = [_rec(t_fwd=1.0, t_bwd=2.0, t_grad=0.5)]
        assert target(recs, "fwd")[0] == 1.0
        assert target(recs, "bwd")[0] == 2.0
        assert target(recs, "grad")[0] == 0.5
        assert target(recs, "bwd+grad")[0] == 2.5
        assert target(recs, "total")[0] == 3.5

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            target([_rec()], "weights")
