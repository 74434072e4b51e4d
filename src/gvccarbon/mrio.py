"""Inter-country input-output core: Leontief model and embodied accounts.

The model follows the standard demand-driven accounting identity

    x = Z 1 + F 1          (gross output = intermediate + final sales)
    A = Z diag(x)^(-1)     (technical coefficients)
    B = (I - A)^(-1)       (Leontief inverse, total requirements)

Embodied carbon attributes CO2 released anywhere upstream to a downstream
trade flow through diag(e) B T, where e holds direct emission intensities
(tonnes per thousand USD of gross output) and T is a matrix of trade flows.
Value-added participation measures use v = va / x, for which v' B = 1'
whenever value added closes the column accounts exactly.

Every indicator is a country-block sum of diag(w) B diag(ex), so none
needs B itself. :func:`build_model` factors (I - A) once by LU and
certifies that the economy is productive; :func:`compute_accounts` then
solves against those factors for 4N right-hand sides (the adjoint solves
w' B for three source weightings per country, and B times each
country's partners' exports). B is formed only by
:func:`leontief_inverse`, the library and reference path.

All monetary magnitudes are thousand USD; emissions are tonnes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BalanceError,
    DimensionMismatch,
    NonProductive,
    SingularOutput,
    UnknownCountry,
)

# Row-balance tolerance: absolute floor 1e-6, relative 1e-8 of gross output.
BALANCE_ABS_TOL = 1e-6
BALANCE_REL_TOL = 1e-8

# Tiny negative intermediate flows (balancing artifacts) are clamped to zero
# when |value| <= NEGATIVE_Z_REL_TOL * x_j; anything larger is rejected.
NEGATIVE_Z_REL_TOL = 1e-6

# Largest residual of a Leontief solve, relative to the largest entry of
# its right-hand side column.
LEONTIEF_RESIDUAL_TOL = 1e-8
# Round-off below zero in an indicator grid, relative to the grid's
# largest magnitude, is clamped to zero; anything larger is rejected.
ACCOUNTS_NEGATIVE_REL_TOL = 1e-9


def _balance_tol(x):
    return np.maximum(BALANCE_ABS_TOL, BALANCE_REL_TOL * np.abs(x))


def _block_index(countries, industries):
    k = len(industries)
    return {c: slice(i * k, (i + 1) * k) for i, c in enumerate(countries)}


@dataclass(frozen=True)
class IcioTable:
    """Validated inter-country input-output table.

    Parameters
    ----------
    countries : ordered country codes (length N).
    industries : ordered industry codes (length K), shared by every country.
    Z : (N*K, N*K) intermediate-use matrix.
    F : (N*K, N) final demand aggregated to one column per destination country.
    x : (N*K,) gross output vector.
    va : (N*K,) value added; defaults to x - column sums of Z.
    year : optional reference year carried through to reports.
    """

    countries: tuple
    industries: tuple
    Z: np.ndarray
    F: np.ndarray
    x: np.ndarray
    va: np.ndarray = None
    year: int = None
    block_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        countries = tuple(self.countries)
        industries = tuple(self.industries)
        n, k = len(countries), len(industries)
        if n < 1 or k < 1:
            raise BalanceError("table needs at least one country and one industry")
        nk = n * k

        Z = np.array(self.Z, dtype=float)
        F = np.array(self.F, dtype=float)
        x = np.array(self.x, dtype=float)
        if Z.shape != (nk, nk):
            raise DimensionMismatch(f"Z must be {(nk, nk)}, got {Z.shape}")
        if F.shape != (nk, n):
            raise DimensionMismatch(f"F must be {(nk, n)}, got {F.shape}")
        if x.shape != (nk,):
            raise DimensionMismatch(f"x must be {(nk,)}, got {x.shape}")

        if np.any(x < 0):
            rows = np.flatnonzero(x < 0)
            raise BalanceError(f"negative gross output at rows {rows[:10].tolist()}")

        # Clamp balancing-artifact negatives in Z, reject real ones. Final
        # demand may be negative (inventory changes).
        neg = Z < 0
        if np.any(neg):
            limit = NEGATIVE_Z_REL_TOL * np.maximum(x, 1.0)[np.newaxis, :]
            bad = Z < -limit
            if np.any(bad):
                i, j = np.argwhere(bad)[0]
                raise BalanceError(
                    f"intermediate flow Z[{i},{j}] = {Z[i, j]:g} is negative "
                    "beyond the balancing tolerance"
                )
            Z = np.where(neg, 0.0, Z)

        tol = _balance_tol(x)
        implied_va = x - Z.sum(axis=0)
        va = self.va
        if va is None:
            va = implied_va
        else:
            va = np.array(va, dtype=float)
            if va.shape != (nk,):
                raise DimensionMismatch(f"va must be {(nk,)}, got {va.shape}")

        row_gap = np.abs(x - (Z.sum(axis=1) + F.sum(axis=1)))
        if np.any(row_gap > tol):
            worst = np.argsort(row_gap - tol)[::-1][:10]
            labels = self._labels_static(countries, industries)
            detail = ", ".join(f"{labels[i]} (gap {row_gap[i]:.3g})" for i in worst
                               if row_gap[i] > tol[i])
            raise BalanceError(f"row balance violated: {detail}")
        for values, what in ((implied_va, "column balance violated"),
                             (va, "negative value added")):
            if np.any(values < -tol):
                rows = np.flatnonzero(values < -tol)
                labels = self._labels_static(countries, industries)
                raise BalanceError(
                    f"{what} at " + ", ".join(labels[i] for i in rows[:10])
                )

        for arr in (Z, F, x, va):
            arr.setflags(write=False)
        object.__setattr__(self, "countries", countries)
        object.__setattr__(self, "industries", industries)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "va", va)
        object.__setattr__(self, "block_index", _block_index(countries, industries))

    @staticmethod
    def _labels_static(countries, industries):
        return [f"{c}:{s}" for c in countries for s in industries]

    @property
    def n_countries(self):
        return len(self.countries)

    @property
    def n_industries(self):
        return len(self.industries)

    def row_labels(self):
        return self._labels_static(self.countries, self.industries)

    def rows(self, country):
        """Row/column slice of one country's industries."""
        try:
            return self.block_index[country]
        except KeyError:
            raise UnknownCountry(f"country {country!r} not in table") from None


@dataclass(frozen=True)
class LeontiefModel:
    """Technical coefficients A and, once factored, the LU factors of (I - A).

    ``factors`` is the ``(lu, piv)`` pair of :func:`scipy.linalg.lu_factor`;
    :func:`build_model` returns a factored, validated model. The Leontief
    inverse B is not stored: :meth:`solve` applies it to right-hand sides.
    """

    countries: tuple
    industries: tuple
    A: np.ndarray
    factors: tuple = field(default=None, repr=False)
    block_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "industries", tuple(self.industries))
        self.A.setflags(write=False)
        if self.factors is not None:
            self.factors[0].setflags(write=False)
        object.__setattr__(
            self, "block_index", _block_index(self.countries, self.industries)
        )

    def rows(self, country):
        try:
            return self.block_index[country]
        except KeyError:
            raise UnknownCountry(f"country {country!r} not in model") from None

    def _label(self, row):
        c, s = divmod(int(row), len(self.industries))
        return f"{self.countries[c]}:{self.industries[s]}"

    def validate(self):
        """Certify that the economy is productive from the LU factors.

        Requires A >= 0, solves y = (I - A)^(-1) 1 and requires y > 0 and
        y - A y > 0, the latter beyond the rounding bound of its own
        evaluation. A positive y with A y < y proves that the spectral
        radius of a nonnegative A is below one, so B = sum_k A^k is
        nonnegative and diag(B) >= 1 exactly, without forming B. Raises
        :class:`NonProductive` naming the row at fault.
        """
        if self.A.min() < 0:
            i, j = np.unravel_index(np.argmin(self.A), self.A.shape)
            raise NonProductive(
                f"technical coefficient A[{self._label(i)}, {self._label(j)}] "
                f"= {self.A[i, j]:.3g} is negative"
            )
        n = self.A.shape[0]
        y = self.solve(np.ones((n, 1)))[:, 0]
        Ay = self.A @ y
        bound = (n + 1) * np.finfo(float).eps * (np.abs(y) + np.abs(Ay))
        bad = ~((y > 0) & (y - Ay > bound))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NonProductive(
                f"economy is not productive at {self._label(i)}: "
                f"y = {y[i]:.3g}, y - A y = {y[i] - Ay[i]:.3g} for y = (I - A)^-1 1"
            )

    def solve(self, rhs, trans=0):
        """X with (I - A) X = rhs, or (I - A)' X = rhs when ``trans=1``.

        ``rhs`` is (N*K, m). Raises :class:`NonProductive` when a column's
        residual exceeds ``LEONTIEF_RESIDUAL_TOL`` times the largest
        magnitude of that column of ``rhs``.
        """
        if self.factors is None:
            raise NonProductive("(I - A) has not been factored; use build_model")
        X = scipy.linalg.lu_solve(self.factors, rhs, trans=trans)
        A = self.A.T if trans else self.A
        residual = np.abs(X - A @ X - rhs).max(axis=0)
        bad = ~(residual <= LEONTIEF_RESIDUAL_TOL * np.abs(rhs).max(axis=0))
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NonProductive(
                f"Leontief solve residual {residual[j]:.3g} exceeds tolerance "
                f"for right-hand side {j}"
            )
        return X


@dataclass(frozen=True)
class EmissionIntensity:
    """Direct CO2 intensity per row, tonnes per thousand USD of gross output."""

    countries: tuple
    industries: tuple
    e: np.ndarray

    def __post_init__(self):
        e = np.array(self.e, dtype=float)
        nk = len(self.countries) * len(self.industries)
        if e.shape != (nk,):
            raise DimensionMismatch(f"e must be {(nk,)}, got {e.shape}")
        if np.any(e < 0):
            raise DimensionMismatch("emission intensities must be nonnegative")
        e.setflags(write=False)
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "industries", tuple(self.industries))
        object.__setattr__(self, "e", e)


@dataclass(frozen=True)
class EmbodiedAccounts:
    """Per-country, per-industry embodied trade accounts.

    Grids are (N, K). CO2 grids and ``backward_gvc`` attribute values to the
    exporting industry (the column of B); ``forward_gvc`` attributes to the
    domestic source industry whose value added travels in partners' exports.
    """

    countries: tuple
    industries: tuple
    gross_exports: np.ndarray
    domestic_co2: np.ndarray
    foreign_co2: np.ndarray
    forward_gvc: np.ndarray
    backward_gvc: np.ndarray
    year: int = None

    def __post_init__(self):
        grids = {
            "gross_exports": self.gross_exports,
            "domestic_co2": self.domestic_co2,
            "foreign_co2": self.foreign_co2,
            "forward_gvc": self.forward_gvc,
            "backward_gvc": self.backward_gvc,
        }
        shape = (len(self.countries), len(self.industries))
        for name, grid in grids.items():
            if grid.shape != shape:
                raise DimensionMismatch(f"{name} must be {shape}, got {grid.shape}")
            if grid.min() < -ACCOUNTS_NEGATIVE_REL_TOL * np.abs(grid).max():
                raise DimensionMismatch(f"{name} has negative entry {grid.min():.3g}")
            grid.setflags(write=False)
        bwd = self.backward_gvc.sum(axis=1)
        exp = self.gross_exports.sum(axis=1)
        if np.any(bwd > exp * (1 + 1e-6) + 1e-9):
            i = int(np.argmax(bwd - exp))
            raise DimensionMismatch(
                f"backward participation exceeds gross exports for "
                f"{self.countries[i]}"
            )
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "industries", tuple(self.industries))

    def country_index(self, country):
        try:
            return self.countries.index(country)
        except ValueError:
            raise UnknownCountry(f"country {country!r} not in accounts") from None

    def indicator(self, name):
        """One of the five (N, K) grids by indicator key."""
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown indicator {name!r}") from None

    def aggregate(self, name, industries=None):
        """Country totals of an indicator, optionally over an industry subset."""
        grid = self.indicator(name)
        if industries is None:
            return grid.sum(axis=1)
        cols = [self.industries.index(s) for s in industries if s in self.industries]
        if not cols:
            raise KeyError(
                f"none of the requested industries {sorted(industries)!r} exist "
                f"in {sorted(self.industries)!r}"
            )
        return grid[:, cols].sum(axis=1)


INDICATOR_KEYS = (
    "gross_exports",
    "domestic_co2",
    "foreign_co2",
    "forward_gvc",
    "backward_gvc",
)


# ---------------------------------------------------------------------------
# Coefficients and inverse
# ---------------------------------------------------------------------------

def build_coefficients(icio: IcioTable) -> LeontiefModel:
    """Build A = Z diag(x)^(-1) with zero columns for zero-output industries.

    Raises
    ------
    SingularOutput
        If an industry reports zero gross output but buys intermediates.
    """
    x = icio.x
    zero = x <= 0.0
    if np.any(zero):
        purchases = np.abs(icio.Z[:, zero]).max(axis=0)
        offending = np.flatnonzero(zero)[purchases > BALANCE_ABS_TOL]
        if offending.size:
            labels = icio.row_labels()
            raise SingularOutput(
                "zero-output industries with nonzero intermediate purchases: "
                + ", ".join(labels[i] for i in offending[:10])
            )
    denom = np.where(zero, 1.0, x)
    A = icio.Z / denom[np.newaxis, :]
    A[:, zero] = 0.0
    return LeontiefModel(icio.countries, icio.industries, A)


def _factorize(model: LeontiefModel) -> LeontiefModel:
    """LU-factor (I - A) in place of a Fortran-ordered copy of -A, then
    certify productivity with :meth:`LeontiefModel.validate`."""
    n = model.A.shape[0]
    system = np.negative(model.A, order="F")
    system[np.diag_indices(n)] += 1.0
    try:
        lu, piv = scipy.linalg.lu_factor(system, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise NonProductive(f"(I - A) could not be factorized: {exc}") from exc
    diag = np.abs(np.diag(lu))
    if diag.min() <= n * np.finfo(float).eps * max(diag.max(), 1.0):
        raise NonProductive("(I - A) is numerically singular")
    factored = LeontiefModel(model.countries, model.industries, model.A,
                             (lu, piv))
    factored.validate()
    return factored


def build_model(icio: IcioTable) -> LeontiefModel:
    """Coefficients of ``icio`` and the LU factors of (I - A), validated.

    The returned model carries no Leontief inverse; its factors serve the
    solves of :func:`compute_accounts` and :func:`conservation_gap`.
    Raises :class:`NonProductive` if (I - A) is singular or the economy
    fails the productivity certificate.
    """
    return _factorize(build_coefficients(icio))


def leontief_inverse(model: LeontiefModel) -> np.ndarray:
    """The Leontief inverse B = (I - A)^(-1), from triangular solves
    against the identity.

    This is the only place B is formed: the library path for callers who
    need B itself, and the reference the accounts kernel is tested
    against. (I - A) is factored and certified as in :func:`build_model`.
    """
    return _factorize(model).solve(np.eye(model.A.shape[0]))


# ---------------------------------------------------------------------------
# Trade aggregates
# ---------------------------------------------------------------------------

def gross_exports_vector(icio: IcioTable) -> np.ndarray:
    """Global (N*K,) gross exports: each row's sales to foreign buyers.

    Sums intermediate sales to foreign industries and final demand of
    foreign destinations. Tiny negative results (inventory-change final
    demand) are clamped to zero; larger ones are rejected, naming the
    country.
    """
    n, k = icio.n_countries, icio.n_industries
    home = np.repeat(np.arange(n), k)
    sales = icio.Z.reshape(n * k, n, k).sum(axis=2) + icio.F
    sales[np.arange(n * k), home] = 0.0
    ex = sales.sum(axis=1)
    bad = ex < -_balance_tol(icio.x)
    if np.any(bad):
        country = home[np.argmax(bad)]
        raise BalanceError(
            f"negative gross exports for {icio.countries[country]}: "
            f"{ex[home == country].min():.3g}"
        )
    return np.where(ex < 0, 0.0, ex)


def gross_exports(icio: IcioTable, country: str) -> np.ndarray:
    """Exports of each of ``country``'s industries to all foreign buyers."""
    rc = icio.rows(country)
    return gross_exports_vector(icio)[rc]


def embodied_emissions(e: EmissionIntensity, B: np.ndarray,
                       trade: np.ndarray) -> np.ndarray:
    """Emissions embodied in trade flows: diag(e) B T.

    Entry (s, m) is CO2 originating in source row s that is embodied in
    trade-flow column m.
    """
    trade = np.asarray(trade, dtype=float)
    if trade.ndim == 1:
        trade = trade[:, np.newaxis]
    if B is None:
        raise DimensionMismatch("Leontief inverse B has not been computed")
    if B.shape[1] != trade.shape[0] or e.e.shape[0] != B.shape[0]:
        raise DimensionMismatch(
            f"non-conforming shapes: e {e.e.shape}, B {B.shape}, T {trade.shape}"
        )
    return e.e[:, np.newaxis] * (B @ trade)


def _va_ratios(icio: IcioTable) -> np.ndarray:
    x = icio.x
    return np.where(x > 0, icio.va / np.where(x > 0, x, 1.0), 0.0)


# ---------------------------------------------------------------------------
# Full accounts
# ---------------------------------------------------------------------------

def compute_accounts(icio: IcioTable, model: LeontiefModel,
                     e: EmissionIntensity) -> EmbodiedAccounts:
    """All five indicators for every country from 4N solves.

    With m_c the row mask of country c and ex the gross-export vector,
    one transposed solve against the factors of (I - A) gives w' B for
    the 3N source weightings w = e*m_c, e*(1 - m_c) and v*(1 - m_c).
    Scaled by ex on country c's own columns, they are its domestic CO2,
    foreign CO2 and backward GVC per exporting industry, each computed
    directly rather than as a total minus a part. One plain solve gives
    B (ex*(1 - m_c)), the requirements of c's partners' exports; scaled
    by v on c's own rows it is forward GVC per domestic source industry.
    Every solve is residual-checked; B is never formed.
    """
    n, k = icio.n_countries, icio.n_industries
    ex = gross_exports_vector(icio)
    v = _va_ratios(icio)
    home = np.repeat(np.eye(n), k, axis=0)
    abroad = 1.0 - home
    weights = np.hstack([e.e[:, np.newaxis] * home,
                         e.e[:, np.newaxis] * abroad,
                         v[:, np.newaxis] * abroad])
    multipliers = model.solve(weights, trans=1)
    requirements = model.solve(ex[:, np.newaxis] * abroad)

    def own_block(columns):
        # (N*K, N) -> (N, K): country c's rows of column c.
        return columns.reshape(n, k, n)[np.arange(n), :, np.arange(n)]

    exports = ex.reshape(n, k)
    domestic, foreign, backward = (exports * own_block(part)
                                   for part in np.hsplit(multipliers, 3))
    out = {
        "gross_exports": exports,
        "domestic_co2": domestic,
        "foreign_co2": foreign,
        "forward_gvc": v.reshape(n, k) * own_block(requirements),
        "backward_gvc": backward,
    }
    # Exact zeros pick up -0.0 and round-off from the solves.
    for grid in out.values():
        tol = ACCOUNTS_NEGATIVE_REL_TOL * np.abs(grid).max()
        grid[(grid <= 0) & (grid >= -tol)] = 0.0
    return EmbodiedAccounts(icio.countries, icio.industries, year=icio.year, **out)


def conservation_gap(icio: IcioTable, model: LeontiefModel,
                     e: EmissionIntensity) -> float:
    """Relative gap between production-based and consumption-embodied totals.

    Production-based total is sum(e * x); the consumption side routes total
    final demand through diag(e) B with one solve. The two agree whenever
    row balance holds exactly, which makes this a cheap end-to-end sanity
    check on any table.
    """
    produced = float(e.e @ icio.x)
    final = icio.F.sum(axis=1)[:, np.newaxis]
    embodied = float(e.e @ model.solve(final)[:, 0])
    scale = max(abs(produced), abs(embodied), 1e-30)
    return abs(produced - embodied) / scale
