"""Linear-regression engine.

ConvMeter deliberately uses plain linear regression (Section 3.1: "We opted
for the linear regression method for simplicity and also due to its
reasonably high performance within our context").  Two solvers are offered:

* ``"ols"`` — ordinary least squares via ``numpy.linalg.lstsq``;
* ``"nnls"`` — non-negative least squares via ``scipy.optimize.nnls``,
  useful when a model will be extrapolated far outside the fitted range
  (scalability curves) and negative runtime contributions would be
  unphysical.

Feature columns span ~10 orders of magnitude (FLOPs ~1e9 vs the intercept),
so columns are scaled to unit maximum before solving and the coefficients
are rescaled back — numerically equivalent, far better conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class ExtrapolationWarning(RuntimeWarning):
    """A prediction was requested far outside the fitted feature range.

    Linear extrapolation is a deliberate ConvMeter capability (Section 4.3
    simulates batch sizes beyond device memory), but the further a query
    strays from the fitted domain the less the coefficients are backed by
    data — so domain-checked paths warn instead of failing."""


@dataclass(frozen=True)
class DomainViolation:
    """One feature queried beyond the fitted range (audit rule FIT004)."""

    feature: str
    #: Worst offending query value for this feature.
    value: float
    #: Fitted [min, max] of the feature column.
    fitted_min: float
    fitted_max: float
    #: How far outside the allowed band the worst value lies, as a multiple
    #: of the fitted range boundary (2.0 = twice the allowed extreme).
    excess: float
    #: Number of query rows violating the band for this feature.
    n_rows: int

    def describe(self) -> str:
        return (
            f"{self.feature}={self.value:.6g} is outside "
            f"{self.excess:.1f}x the fitted range "
            f"[{self.fitted_min:.6g}, {self.fitted_max:.6g}] "
            f"({self.n_rows} query row{'s' if self.n_rows != 1 else ''})"
        )


def domain_band(
    ranges: Sequence[tuple[float, float]], factor: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` per-feature bounds of the allowed band.

    The one place the FIT004 bound arithmetic lives: a value ``v`` of
    feature ``j`` is outside when ``v > factor * max_j`` or
    ``v < min_j / factor`` for a strictly positive ``min_j`` (a column
    whose fitted minimum is ``<= 0`` has no lower bound).
    """
    if factor <= 0:
        raise ValueError("extrapolation factor must be positive")
    lo, hi = np.asarray(ranges, dtype=np.float64).reshape(-1, 2).T
    return np.where(lo > 0, lo / factor, -np.inf), factor * hi


def range_violations(
    X: np.ndarray,
    ranges: Sequence[tuple[float, float]],
    labels: Sequence[str],
    factor: float = 10.0,
    band: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[DomainViolation]:
    """Query rows outside ``factor``× the fitted per-feature ranges.

    The shared implementation behind :meth:`LinearModel.domain_violations`
    and the nonlinear predictor artifacts (``repro.baselines``): a value
    ``v`` of feature ``j`` violates the domain when ``v > factor * max_j``
    or (for strictly positive fitted columns) ``v < min_j / factor``.
    ``band`` is :func:`domain_band` of ``ranges`` and ``factor`` when the
    caller keeps it.  Returns one aggregated :class:`DomainViolation` per
    offending feature.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != len(ranges):
        raise ValueError(
            f"query has {X.shape[1]} columns, fitted ranges cover "
            f"{len(ranges)}"
        )
    lower, upper = domain_band(ranges, factor) if band is None else band
    over, under = X > upper, X < lower
    bad = over | under
    violations: list[DomainViolation] = []
    for j in np.flatnonzero(bad.any(axis=0)).tolist():
        lo, hi = ranges[j]
        col = X[:, j]
        # Worst offender: largest multiple beyond its violated bound.
        excess_over = np.where(over[:, j], col / (factor * hi), 0.0)
        with np.errstate(divide="ignore"):
            excess_under = np.where(
                under[:, j], (lo / factor) / np.maximum(col, 1e-300), 0.0
            )
        excess = np.maximum(excess_over, excess_under)
        worst = int(np.argmax(excess))
        violations.append(
            DomainViolation(
                feature=labels[j],
                value=float(col[worst]),
                fitted_min=lo,
                fitted_max=hi,
                excess=float(excess[worst] * factor),
                n_rows=int(bad[:, j].sum()),
            )
        )
    return violations


@dataclass
class LinearModel:
    """A fitted linear map ``y = X @ coef``.

    The design matrix convention throughout ConvMeter is that the intercept,
    when present, is an explicit all-ones column of ``X``.
    """

    method: str = "ols"
    #: "relative" re-weights each row by 1/y so the solver minimises
    #: *relative* residuals — measurements span five orders of magnitude
    #: (microseconds to minutes), and unweighted least squares would trade
    #: the entire small-configuration regime away for the largest records.
    #: "none" is plain least squares.
    weighting: str = "relative"
    coef: np.ndarray | None = field(default=None, repr=False)
    #: Column names, for reporting fitted coefficients.
    feature_names: tuple[str, ...] = ()
    #: Per-feature fitted ``(min, max)`` of the raw design columns, recorded
    #: at fit time and persisted with the model so extrapolation-domain
    #: checks (audit rule FIT004) survive a save/load round trip.
    feature_ranges: tuple[tuple[float, float], ...] | None = field(
        default=None, repr=False
    )
    #: Raw fit inputs, kept (in-process only, never persisted) so the
    #: fitted-model auditor can analyse the design without re-plumbing data.
    fit_design: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    fit_target: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    fit_weight: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    #: ``(feature_ranges, factor, domain_band(...), lower, upper)`` of the
    #: last FIT004 check, so a served model derives its band once, not
    #: per request (see :meth:`_kept`).
    _kept_band: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(coef, coef.tolist())`` beside it for :meth:`predict_row`,
    #: renewed whenever ``coef`` is replaced (fit and load assign a new
    #: array; nothing writes one in place).
    _kept_coef: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "LinearModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("design matrix must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"rows of X ({X.shape[0]}) do not match y ({y.shape[0]})"
            )
        if X.shape[0] < X.shape[1]:
            raise ValueError(
                f"underdetermined fit: {X.shape[0]} rows for "
                f"{X.shape[1]} coefficients"
            )
        if sample_weight is None:
            if self.weighting == "relative":
                if np.any(y <= 0):
                    raise ValueError(
                        "relative weighting requires positive measurements"
                    )
                sample_weight = 1.0 / y
            elif self.weighting == "none":
                sample_weight = np.ones_like(y)
            else:
                raise ValueError(f"unknown weighting {self.weighting!r}")
        w = np.asarray(sample_weight, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("sample weights must be non-negative")
        dead = np.flatnonzero(np.abs(X).max(axis=0) == 0.0)
        if dead.size:
            # An all-zero column would silently divide the column scale away
            # and leave the coefficient meaningless; this is the runtime twin
            # of audit rule FIT003.
            labels = ", ".join(self.feature_labels(X.shape[1])[j] for j in dead)
            raise ValueError(
                f"design matrix column{'s' if dead.size != 1 else ''} "
                f"{labels} {'are' if dead.size != 1 else 'is'} identically "
                "zero; drop the feature or fix the metric extraction "
                "(audit rule FIT003)"
            )
        Xw = X * w[:, None]
        yw = y * w
        scale = np.abs(Xw).max(axis=0)
        scale[scale == 0.0] = 1.0
        Xs = Xw / scale
        if self.method == "ols":
            coef_s, *_ = np.linalg.lstsq(Xs, yw, rcond=None)
        elif self.method == "nnls":
            # Imported here: scipy.optimize is most of `import repro.cli`,
            # and the default solver never needs it.
            from scipy.optimize import nnls

            coef_s, _ = nnls(Xs, yw)
        else:
            raise ValueError(f"unknown method {self.method!r}")
        self.coef = coef_s / scale
        self.feature_ranges = tuple(
            (float(lo), float(hi))
            for lo, hi in zip(X.min(axis=0), X.max(axis=0))
        )
        self.fit_design = X
        self.fit_target = y
        self.fit_weight = w
        return self

    @property
    def is_fitted(self) -> bool:
        return self.coef is not None

    def feature_labels(self, n: int | None = None) -> tuple[str, ...]:
        """Column labels: declared names, else positional ``c1..cn``."""
        if n is None:
            n = 0 if self.coef is None else self.coef.shape[0]
        if len(self.feature_names) == n:
            return self.feature_names
        return tuple(f"c{i + 1}" for i in range(n))

    def domain_violations(
        self, X: np.ndarray, factor: float = 10.0
    ) -> list[DomainViolation]:
        """Query rows outside ``factor``× the fitted feature ranges.

        A value ``v`` of feature ``j`` violates the domain when
        ``v > factor * max_j`` or (for strictly positive fitted columns)
        ``v < min_j / factor`` — the linear model still answers, but the
        answer is an extrapolation the fit never saw (audit rule FIT004).
        Returns one aggregated :class:`DomainViolation` per offending
        feature; empty when the model has no recorded ranges.
        """
        if self.feature_ranges is None:
            if factor <= 0:
                raise ValueError("extrapolation factor must be positive")
            return []
        X = np.asarray(X, dtype=np.float64)
        n_cols = X.shape[1] if X.ndim == 2 else X.shape[0]
        return range_violations(
            X, self.feature_ranges, self.feature_labels(n_cols), factor,
            band=self.band(factor),
        )

    def band(self, factor: float) -> tuple[np.ndarray, np.ndarray]:
        """:func:`domain_band` of the recorded ranges, derived once per
        ``(feature_ranges, factor)`` pair and kept for the next call."""
        return self._kept(factor)[2]

    def _kept(self, factor: float) -> tuple:
        """The kept ``(feature_ranges, factor, band, lower, upper)``,
        where ``lower`` and ``upper`` are the band as tuples of Python
        floats for :meth:`row_out_of_domain`."""
        kept = self._kept_band
        if kept is None or kept[0] is not self.feature_ranges or (
            kept[1] != factor
        ):
            band = domain_band(self.feature_ranges, factor)
            for bound in band:  # shared by every later caller and thread
                bound.flags.writeable = False
            kept = (
                self.feature_ranges, factor, band,
                tuple(band[0].tolist()), tuple(band[1].tolist()),
            )
            self._kept_band = kept
        return kept

    def out_of_domain(
        self, X: np.ndarray, factor: float = 10.0
    ) -> np.ndarray:
        """Boolean mask of the rows of a 2-D ``X`` that
        :meth:`domain_violations` reports on, alone or in any batch.

        The same band, tested for every row and column in one vectorised
        pass, so a batch can be screened before any per-row rendering;
        all ``False`` when the model has no recorded ranges.
        """
        if self.feature_ranges is None:
            if factor <= 0:
                raise ValueError("extrapolation factor must be positive")
            return np.zeros(len(X), dtype=bool)
        lower, upper = self.band(factor)
        X = np.asarray(X, dtype=np.float64)
        return ((X > upper) | (X < lower)).any(axis=1)

    def row_out_of_domain(
        self, row: Sequence[float], factor: float = 10.0
    ) -> bool:
        """:meth:`out_of_domain` of one design row, in Python floats.

        The same kept band and the same two comparisons per column, so
        it equals ``out_of_domain([row], factor)[0]`` without building
        an array per query.
        """
        if self.feature_ranges is None:
            if factor <= 0:
                raise ValueError("extrapolation factor must be positive")
            return False
        _, _, _, lower, upper = self._kept(factor)
        n = len(upper)
        if len(row) != n:
            raise ValueError(
                f"query has {len(row)} columns, fitted ranges cover {n}"
            )
        for j in range(n):
            value = row[j]
            if value > upper[j] or value < lower[j]:
                return True
        return False

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.coef.shape[0]:
            raise ValueError(
                f"design matrix has {X.shape[1]} columns, model expects "
                f"{self.coef.shape[0]}"
            )
        # Columnwise left-to-right accumulation instead of ``X @ coef``:
        # BLAS picks a different reduction order for an (N, k) matmul than
        # for a single row, so the same query would predict differently
        # alone vs inside a batch.  This order is shape-invariant and is
        # the order of predict_row, which is what keeps every
        # predict_configs element equal to its predict_one.
        # The column loop below is a *deliberate* scalarization over the
        # feature axis (k <= 7 columns), not over the data axis — the
        # shape-invariant reduction order is the point.  PERF001 would
        # suggest X @ coef, which is exactly what must not happen here.
        total = X[:, 0] * self.coef[0]
        for column in range(1, X.shape[1]):  # repro-lint: disable=PERF001
            total = total + X[:, column] * self.coef[column]
        return total

    def predict_row(self, row: Sequence[float]) -> float:
        """:meth:`predict` of one design row, in Python floats.

        ``row[0] * coef[0] + row[1] * coef[1] + …`` left to right: the
        same IEEE operations in the same order as :meth:`predict`'s
        column loop, so it equals ``predict([row])[0]`` bit for bit
        without building an array per query.
        """
        kept = self._kept_coef
        if kept is None or kept[0] is not self.coef:
            if self.coef is None:
                raise RuntimeError("model is not fitted")
            kept = self._kept_coef = (self.coef, self.coef.tolist())
        coef = kept[1]
        n = len(coef)
        if len(row) != n:
            raise ValueError(
                f"design matrix has {len(row)} columns, model expects {n}"
            )
        total = row[0] * coef[0]
        for j in range(1, n):
            total = total + row[j] * coef[j]
        return float(total)

    def coefficients(self) -> dict[str, float]:
        """Named coefficients for reporting."""
        if self.coef is None:
            raise RuntimeError("model is not fitted")
        return dict(zip(self.feature_labels(), self.coef.tolist()))
