"""Panel regression estimators: pooled OLS, FGLS with AR(1) errors,
fixed time effects, and the dynamic-panel IV estimator, each with the
Wald test of all its slopes.

Observations are stacked unit-major (all periods of unit 0, then unit 1,
and so on), which keeps each unit's AR(1) covariance block contiguous.

The feasible GLS step models innovations as AR(1) within units, optionally
with a separate innovation variance per unit. The error covariance is
block diagonal per unit; it is never inverted explicitly. Instead each
unit's rows are rotated by the stationarity-preserving transform

    u*_1 = sqrt(1 - rho^2) u_1,    u*_t = u_t - rho u_{t-1}

and scaled by the unit innovation standard deviation, after which pooled
least squares on the rotated data is exact GLS.

Every fit runs on one least-squares core: ``_fit`` (rank check and
solve from one QR factorization of the column-scaled design beside the
dependent vector; ``W'W`` is never formed), ``_finalize`` (residual
variance on n - p degrees of freedom times ``(W'W)^-1``, and the Wald
statistic of the slopes, both from the inverse R factor that ``_fit``
returns) and ``_r_squared``. OLS applies it to the design, FGLS to the
rotated design, the IV estimator's first stage to the instrument matrix
and its second stage to the design with fitted endogenous columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import two_sided_normal_p
from .errors import (
    InsufficientPeriods,
    NonStationaryRho,
    RankDeficient,
    SchemaError,
    UnknownVariable,
    WeakInstrument,
)
from .mrio import repeated
from .panel import PanelDataset

COVARIANCE_SCHEMES = ("iid", "panel-heteroscedastic", "ar1",
                      "ar1+panel-heteroscedastic")

CONDITION_LIMIT = 1e10
INTERCEPT_NAME = "const"
TIME_DUMMY_PREFIX = "t_"


@dataclass(frozen=True)
class RegressionSpec:
    """What to regress on what, and under which error model."""

    dependent: str
    regressors: tuple
    covariance: str = "iid"

    def __post_init__(self):
        regressors = tuple(self.regressors)
        if not regressors:
            raise SchemaError("spec needs at least one regressor")
        if twice := repeated(regressors):
            raise SchemaError(f"repeated regressors: {', '.join(twice)}")
        if self.dependent in regressors:
            raise SchemaError("dependent variable cannot be a regressor")
        if self.covariance not in COVARIANCE_SCHEMES:
            raise SchemaError(f"unknown covariance scheme {self.covariance!r}")
        object.__setattr__(self, "regressors", regressors)


@dataclass(frozen=True, eq=False)
class RegressionResult:
    """Coefficients, covariance, residual panel, and fit metadata.

    ``wald_stat`` is the joint chi-square statistic that every slope (each
    coefficient but ``const``) is zero. The fit guarantees the rest: n > p
    (``_fit``), |rho| < 1 (``_pooled_rho``), and ``cov_beta = s2 M M'``,
    a Gram matrix and so symmetric and PSD."""

    names: tuple
    beta: np.ndarray
    cov_beta: np.ndarray
    residuals: np.ndarray  # (N, T) grid, NaN at dropped periods
    p_values: np.ndarray
    n: int
    p: int
    rho_hat: float = None
    sigma_hat: np.ndarray = None  # per-unit innovation variances
    wald_stat: float = None
    r_squared: float = None
    first_stage_f: dict = field(default_factory=dict)

    def coefficient(self, name) -> float:
        return float(self.beta[self.names.index(name)])

    def p_value(self, name) -> float:
        return float(self.p_values[self.names.index(name)])


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------

def _time_dummy_column(name, periods, n_units):
    period = int(name[len(TIME_DUMMY_PREFIX):])
    if period not in periods:
        raise UnknownVariable(f"time dummy {name!r} is not a panel period")
    col = np.zeros((n_units, len(periods)))
    col[:, periods.index(period)] = 1.0
    return col


def build_design(panel: PanelDataset, spec: RegressionSpec):
    """Stack the dependent vector and named design matrix unit-major.

    Returns (y, X, names), ``const`` first. Time-dummy regressors named
    ``t_<period>`` are materialized on the fly; the panel itself is not
    modified.
    """
    periods = panel.periods
    y = panel.grid(spec.dependent).reshape(-1)
    names, cols = [INTERCEPT_NAME], [np.ones_like(y)]
    for name in spec.regressors:
        if name.startswith(TIME_DUMMY_PREFIX) and name not in panel.variables:
            grid = _time_dummy_column(name, periods, panel.n_units)
        else:
            grid = panel.grid(name)
        names.append(name)
        cols.append(grid.reshape(-1))
    return y, np.column_stack(cols), tuple(names)


def _fit(W, v, names):
    """Rank-checked least squares of ``v`` on ``W`` from one QR
    factorization of ``[W / norms, v]``: (beta, v - W beta, M) with
    ``M M' = (W'W)^-1``."""
    rows, cols = W.shape
    if rows <= cols:
        raise RankDeficient(names, f"n={rows} observations do not exceed "
                                   f"p={cols} columns: no residual degrees "
                                   f"of freedom")
    norms = np.linalg.norm(W, axis=0)
    if np.any(norms == 0):
        dead = [names[j] for j in np.flatnonzero(norms == 0)]
        raise RankDeficient(dead, f"all-zero column(s): {', '.join(dead)}")
    r = np.linalg.qr(np.column_stack([W / norms, v]), mode="r")
    r_w, qtv = r[:cols, :cols], r[:cols, cols]
    ratio = np.abs(np.diag(r_w))
    flagged = [names[j] for j in np.flatnonzero(ratio < 1e-12)]
    if flagged:
        raise RankDeficient(flagged)
    if np.linalg.cond(r_w) >= CONDITION_LIMIT:
        worst = names[int(np.argmin(ratio))]
        raise RankDeficient([worst],
                            f"condition number exceeds {CONDITION_LIMIT:.0e}; "
                            f"most collinear column: {worst}")
    M = np.linalg.inv(r_w) / norms[:, np.newaxis]
    beta = M @ qtv
    return beta, v - W @ beta, M


def _r_squared(y, resid):
    """1 - RSS / TSS about the mean of y, as every design has an
    intercept; None when y has no variation to explain."""
    tss = float(((y - y.mean()) ** 2).sum())
    return 1.0 - float(resid @ resid) / tss if tss > 0 else None


def _finalize(panel, names, beta, M, cov_resid, resid_flat, start, rho=None,
              sigma=None, r2=None, first_stage=None):
    """The result of a fit from the ``M`` that ``_fit`` returns: the
    covariance ``s2 M M'`` with ``s2 = cov_resid'cov_resid / (n - p)``,
    the Wald statistic of every slope, and the residual grid of
    ``resid_flat``, which starts at period index ``start``."""
    s2 = float(cov_resid @ cov_resid) / (cov_resid.size - beta.size)
    cov = s2 * (M @ M.T)
    # M is upper triangular and the intercept is column 0, so the slopes'
    # covariance is s2 M22 M22' and b2' V22^-1 b2 = |M22^-1 b2|^2 / s2.
    # Factoring V22 instead would square the design's condition number.
    slopes = np.linalg.solve(M[1:, 1:], beta[1:])
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / np.where(se > 0, se, 1.0),
                     np.where(beta == 0, 0.0, np.inf))
    p_values = np.array([two_sided_normal_p(v) for v in z])
    residuals = np.full((panel.n_units, panel.n_periods), np.nan)
    residuals[:, start:] = resid_flat.reshape(panel.n_units, -1)
    return RegressionResult(
        names=tuple(names), beta=beta, cov_beta=cov, residuals=residuals,
        p_values=p_values, n=resid_flat.size, p=beta.size, rho_hat=rho,
        sigma_hat=sigma, wald_stat=float(slopes @ slopes) / s2, r_squared=r2,
        first_stage_f=dict(first_stage or {}),
    )


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def ols(panel: PanelDataset, spec: RegressionSpec) -> RegressionResult:
    """Pooled least squares with the classical coefficient covariance."""
    y, X, names = build_design(panel, spec)
    beta, resid, M = _fit(X, y, names)
    return _finalize(panel, names, beta, M, resid, resid, 0,
                     r2=_r_squared(y, resid))


# ---------------------------------------------------------------------------
# Feasible GLS with AR(1) innovations
# ---------------------------------------------------------------------------

def _pooled_rho(resid_grid):
    """One AR(1) coefficient from the lag-one products of every unit."""
    lagged, current = resid_grid[:, :-1], resid_grid[:, 1:]
    denom = float((lagged * lagged).sum())
    if denom <= 0:
        return 0.0
    rho = float((current * lagged).sum()) / denom
    if abs(rho) >= 1.0:
        raise NonStationaryRho(f"estimated rho {rho:.4f} is not stationary")
    return rho


def _ar1_rotate(grid, rho):
    """Each unit's series (axis 1) becomes AR(1) innovations: the first
    period scaled, the rest quasi-differenced."""
    out = np.empty_like(grid)
    out[:, :1] = np.sqrt(1.0 - rho * rho) * grid[:, :1]
    out[:, 1:] = grid[:, 1:] - rho * grid[:, :-1]
    return out


def fgls_ar1(panel: PanelDataset, spec: RegressionSpec) -> RegressionResult:
    """Two-step feasible GLS.

    Step one runs pooled least squares on the design. Step two
    estimates a single AR(1) coefficient from the pooled residuals (when
    the scheme includes ``ar1``) and per-unit innovation variances from
    rotated residuals (when it includes ``panel-heteroscedastic``),
    assembles the implied block-diagonal error covariance, and reruns
    weighted least squares on the same design.
    The reported coefficient covariance follows the estimated-sigma
    convention: GLS-weighted residual variance on n - p degrees of
    freedom times ``M M' = (W'W)^-1`` for the rotated design ``W``,
    with ``M`` from its R factor. R² is that of step one.
    """
    y, X, names = build_design(panel, spec)
    _, first_resid, _ = _fit(X, y, names)
    n_units, n_periods = panel.n_units, panel.n_periods
    ar1 = "ar1" in spec.covariance
    if ar1 and n_periods < 3:
        raise InsufficientPeriods("AR(1) step needs at least 3 periods")

    resid = first_resid.reshape(n_units, n_periods)
    rho = _pooled_rho(resid) if ar1 else 0.0
    innov = _ar1_rotate(resid, rho)
    if "panel-heteroscedastic" in spec.covariance:
        sigma2 = (innov ** 2).mean(axis=1)
    else:
        sigma2 = np.full(n_units, (innov ** 2).mean())
    # Perfect-fit guard: zero variances would give infinite weights.
    top = sigma2.max()
    if top <= 0.0:
        sigma2 = np.ones(n_units)
    else:
        sigma2 = np.maximum(sigma2, 1e-12 * top)

    scale = np.sqrt(sigma2)[:, np.newaxis]
    y_rot = (_ar1_rotate(y.reshape(n_units, n_periods), rho) / scale).reshape(-1)
    x_rot = (_ar1_rotate(X.reshape(n_units, n_periods, -1), rho)
             / scale[..., np.newaxis]).reshape(X.shape)
    beta, gls_resid, M = _fit(x_rot, y_rot, names)

    return _finalize(panel, names, beta, M, gls_resid, y - X @ beta, 0,
                     rho=rho if ar1 else None,
                     sigma=sigma2 if spec.covariance != "iid" else None,
                     r2=_r_squared(y, first_resid))


# ---------------------------------------------------------------------------
# Time effects
# ---------------------------------------------------------------------------

def time_dummy_name(period) -> str:
    return f"{TIME_DUMMY_PREFIX}{int(period)}"


def with_time_effects(spec: RegressionSpec, periods) -> RegressionSpec:
    """Append one period indicator per period except the first (the base)."""
    periods = tuple(periods)
    if len(periods) < 2:
        raise InsufficientPeriods("time effects need at least two periods")
    dummies = tuple(time_dummy_name(p) for p in periods[1:])
    return replace(spec, regressors=spec.regressors + dummies)


# ---------------------------------------------------------------------------
# Dynamic panel IV (first differences, deeper-lag instruments)
# ---------------------------------------------------------------------------

LAGGED_DIFFERENCE = "lagged-difference"
LAGGED_LEVEL = "lagged-level"
INSTRUMENT_VARIANTS = (LAGGED_DIFFERENCE, LAGGED_LEVEL)


def anderson_hsiao(panel: PanelDataset, dependent: str, regressors,
                   instrumented: str = None,
                   instrument: str = LAGGED_DIFFERENCE) -> RegressionResult:
    """First-differenced dynamic panel estimated by two-stage least squares.

    The equation is d(y)_t = alpha d(y)_{t-1} + d(x)_t' gamma + d(eps)_t.
    The lagged differenced dependent variable is endogenous by
    construction and is instrumented with its own deeper lag: the second
    difference lag d(y)_{t-2} by default, or the level y_{t-2} under the
    ``lagged-level`` variant. When ``instrumented`` names a regressor,
    its difference is treated as endogenous too and instrumented with the
    matching deeper lag of itself.

    Emits a :class:`WeakInstrument` warning whenever a first-stage F
    statistic falls below 10.
    """
    if instrument not in INSTRUMENT_VARIANTS:
        raise SchemaError(f"unknown instrument variant {instrument!r}")
    regressors = tuple(regressors)
    if instrumented is not None and instrumented not in regressors:
        raise UnknownVariable(
            f"instrumented variable {instrumented!r} is not a regressor"
        )

    # Period index of the first equation: d(y)_{t-1} needs t >= 2, and the
    # instrument d(y)_{t-2} needs t >= 3 where y_{t-2} needs only t >= 2.
    start = 3 if instrument == LAGGED_DIFFERENCE else 2
    n_periods = panel.n_periods
    if n_periods <= start:
        raise InsufficientPeriods(
            f"need more than {start} periods after differencing and lagging"
        )

    def level(grid, lag):
        """The series ``lag`` periods back at each equation period, stacked
        unit-major."""
        return grid[:, start - lag:n_periods - lag].reshape(-1)

    def diff(grid, lag):
        return level(grid, lag) - level(grid, lag + 1)

    y = panel.grid(dependent)
    y_vec = diff(y, 0)
    deep_lag, lagged = ((diff, "d({})") if instrument == LAGGED_DIFFERENCE
                        else (level, "{}"))
    names = [INTERCEPT_NAME, f"lag d({dependent})"]
    columns = [np.ones_like(y_vec), diff(y, 1)]
    endo_idx = [1]
    instruments = {f"lag2 {lagged.format(dependent)}": deep_lag(y, 2)}
    for name in regressors:
        grid = panel.grid(name)
        names.append(f"d({name})")
        columns.append(diff(grid, 0))
        if name == instrumented:
            endo_idx.append(len(columns) - 1)
            instruments[f"lag {lagged.format(name)}"] = deep_lag(grid, 1)

    X = np.column_stack(columns)
    exogenous = [j for j in range(len(columns)) if j not in endo_idx]
    Z = np.column_stack([columns[j] for j in exogenous]
                        + list(instruments.values()))
    if X.shape[0] <= X.shape[1]:
        raise InsufficientPeriods(
            f"{X.shape[0]} observations cannot identify {X.shape[1]} coefficients"
        )

    # Stage 1: project each endogenous column on the full instrument set,
    # and test the excluded instruments against the exogenous columns alone.
    exog_names = tuple(names[j] for j in exogenous)
    z_names = exog_names + tuple(instruments)
    q, dof = len(instruments), y_vec.size - Z.shape[1]
    x_hat = X.copy()
    first_stage = {}
    for j in endo_idx:
        target = X[:, j]
        coef, resid, _ = _fit(Z, target, z_names)
        x_hat[:, j] = Z @ coef
        rss_u = float((resid ** 2).sum())
        _, resid, _ = _fit(Z[:, :len(exogenous)], target, exog_names)
        rss_r = float((resid ** 2).sum())
        f_stat = np.inf if rss_u <= 0 else ((rss_r - rss_u) / q) / (rss_u / dof)
        first_stage[names[j]] = float(f_stat)
        if f_stat < 10:
            warnings.warn(f"weak instrument for {names[j]}: first-stage F = "
                          f"{f_stat:.2f}", WeakInstrument, stacklevel=2)

    # Stage 2: the residuals use the actual regressors, not the fitted ones.
    beta, _, M = _fit(x_hat, y_vec, tuple(names))
    resid = y_vec - X @ beta
    return _finalize(panel, names, beta, M, resid, resid, start,
                     r2=_r_squared(y_vec, resid),
                     first_stage=first_stage)


# ---------------------------------------------------------------------------
# Table rows
# ---------------------------------------------------------------------------

def significance_stars(p_value: float) -> str:
    """Two stars at the 5 percent level, one at 10 percent."""
    if p_value <= 0.05:
        return "**"
    if p_value <= 0.10:
        return "*"
    return ""
