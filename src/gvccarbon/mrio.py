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
needs B itself. :func:`build_model`, the one constructor of a
:class:`LeontiefModel`, factors (I - A) once by LU and certifies that
the economy is productive; :func:`compute_accounts` then solves against
those factors for 4N right-hand sides (the adjoint solves w' B for three
source weightings per country, and B times each country's partners'
exports). B is formed only by :func:`leontief_inverse`.

A is never formed either: (I - A) is written from Z and x straight into
the buffer that is factored, and the checks apply A through Z. Those
products go through ``scipy.linalg.blas.dgemm``, the BLAS that factors and
solves: the numpy and scipy wheels each bundle an OpenBLAS with its own
thread pool, and a product on numpy's between solves on scipy's makes the
two pools compete for the same CPUs.

All monetary magnitudes are thousand USD; emissions are tonnes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BalanceError,
    DimensionMismatch,
    DuplicateKey,
    NegativeEmission,
    NonProductive,
    SchemaError,
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
# largest magnitude, is clamped to zero; anything larger is rejected. The
# same fraction of the largest country's gross exports is the round-off
# slack when backward participation is checked against gross exports.
ACCOUNTS_NEGATIVE_REL_TOL = 1e-9


def _balance_tol(x):
    return np.maximum(BALANCE_ABS_TOL, BALANCE_REL_TOL * np.abs(x))


def row_labels(countries, industries):
    """``"{country}:{industry}"`` per row, country-major: the one home of
    the row-label format."""
    return [f"{c}:{s}" for c in countries for s in industries]


def repeated(codes):
    """The codes that occur more than once in ``codes``, in first-seen order."""
    return [code for code, count in Counter(codes).items() if count > 1]


def _rows_at(countries, industries, bad):
    """Labels of the first ten rows flagged in the (N*K,) mask ``bad``."""
    labels = row_labels(countries, industries)
    return ", ".join(labels[i] for i in np.flatnonzero(bad)[:10])


@dataclass(frozen=True, eq=False)
class IcioTable:
    """Validated inter-country input-output table.

    Parameters
    ----------
    countries : ordered country codes (length N).
    industries : ordered industry codes (length K), shared by every country.
    Z : (N*K, N*K) intermediate-use matrix.
    F : (N*K, N) final demand aggregated to one column per destination country.
    x : (N*K,) gross output vector.
    year : optional reference year carried through to reports.
    """

    countries: tuple
    industries: tuple
    Z: np.ndarray
    F: np.ndarray
    x: np.ndarray
    year: int = None
    # Value added, never given: x - column sums of the clamped Z.
    va: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        countries = tuple(self.countries)
        industries = tuple(self.industries)
        n, k = len(countries), len(industries)
        if n < 1 or k < 1:
            raise BalanceError("table needs at least one country and one industry")
        for kind, codes in (("country", countries), ("industry", industries)):
            if twice := repeated(codes):
                raise DuplicateKey(f"repeated {kind} codes: {', '.join(twice)}")
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

        # Each check flags NaN; non-finite Z and F make a non-finite row gap.
        bad = ~((x >= 0) & (x < np.inf))
        if np.any(bad):
            raise BalanceError("negative or non-finite gross output at "
                               + _rows_at(countries, industries, bad))

        # Clamp balancing-artifact negatives in Z, reject real ones. Final
        # demand may be negative (inventory changes).
        neg = Z < 0
        if np.any(neg):
            limit = NEGATIVE_Z_REL_TOL * np.maximum(x, 1.0)[np.newaxis, :]
            bad = Z < -limit
            if np.any(bad):
                i, j = np.argwhere(bad)[0]
                labels = row_labels(countries, industries)
                raise BalanceError(
                    f"intermediate flow Z[{labels[i]}, {labels[j]}] = "
                    f"{Z[i, j]:g} is negative beyond the balancing tolerance"
                )
            Z = np.where(neg, 0.0, Z)

        tol = _balance_tol(x)
        row_gap = np.abs(x - (Z.sum(axis=1) + F.sum(axis=1)))
        bad = ~(row_gap <= tol)
        if np.any(bad):
            # argsort puts NaN gaps last; reversed, they come first.
            worst = np.argsort(row_gap - tol)[::-1][:10]
            labels = row_labels(countries, industries)
            detail = ", ".join(f"{labels[i]} (gap {row_gap[i]:.3g})"
                               for i in worst if bad[i])
            raise BalanceError(f"row balance violated: {detail}")
        va = x - Z.sum(axis=0)
        bad = ~((va >= -tol) & (va < np.inf))
        if np.any(bad):
            raise BalanceError("column balance violated: negative or "
                               "non-finite value added at "
                               + _rows_at(countries, industries, bad))

        for arr in (Z, F, x, va):
            arr.setflags(write=False)
        object.__setattr__(self, "countries", countries)
        object.__setattr__(self, "industries", industries)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "va", va)

    @property
    def n_countries(self):
        return len(self.countries)

    @property
    def n_industries(self):
        return len(self.industries)

    def row_labels(self):
        return row_labels(self.countries, self.industries)


@dataclass(frozen=True, eq=False)
class LeontiefModel:
    """A table and the LU factors of its (I - A), A = Z diag(x)^(-1),
    built only by :func:`build_model`, which certifies the economy
    productive. ``factors`` is the ``(lu, piv)`` pair of
    :func:`scipy.linalg.lu_factor`. Neither A nor B is stored: the checks
    apply A through the table's read-only ``Z`` and ``x`` (zero columns
    where ``x <= 0``), and :meth:`solve` applies B to right-hand sides.
    """

    table: IcioTable
    factors: tuple = field(repr=False)

    def __post_init__(self):
        self.factors[0].setflags(write=False)

    def _over_x(self, values, out=None):
        """diag(x)^(-1) ``values``, (N*K, m), with zero rows where x <= 0:
        A X is Z (X / x) and A' X is (Z' X) / x. A subnormal x_j overflows
        row j only where column j of Z, and so of A, is zero (as
        :func:`build_coefficients` ensures); that row is zeroed too."""
        x = self.table.x
        positive = x > 0
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.divide(values, np.where(positive, x, 1.0)[:, np.newaxis],
                            out=out)
            out[~positive] = 0.0
            unbounded = np.flatnonzero(~np.isfinite(out.sum(axis=1)))
        out[unbounded[~self.table.Z[:, unbounded].any(axis=0)]] = 0.0
        return out

    def _z_times(self, values, trans=0):
        """Z ``values``, or Z' ``values`` when ``trans=1``, for (N*K, m)
        ``values``, on the BLAS of :meth:`solve`. ``dgemm`` takes the
        F-contiguous view Z' of the C-ordered Z, so Z is never copied."""
        from scipy.linalg.blas import dgemm  # loaded with scipy.linalg

        return dgemm(1.0, self.table.Z.T, values, trans_a=1 - trans)

    def validate(self):
        """Certify that the economy is productive from the LU factors.

        A >= 0 by construction: an :class:`IcioTable` holds a clamped Z >= 0
        and x >= 0, and A has zero columns where x <= 0. Solves
        y = (I - A)^(-1) 1 and requires y > 0 and y - A y > 0, the latter
        beyond the rounding bound of its own evaluation. A positive y with
        A y < y proves that the spectral radius of A is below one, so
        B = sum_k A^k is nonnegative and diag(B) >= 1 exactly, without
        forming B. Raises :class:`NonProductive` naming the row at fault.

        A y is evaluated as Z (y / x), by :meth:`_z_times` on the BLAS that
        factors and solves, so each of its n terms carries one rounding
        more than a product with a stored A would: that of the quotient
        y_j / x_j. The bound is therefore (n + 2) eps (|y| + |A y|), where
        a stored A needs (n + 1) eps; it holds in any order of summation.
        |A| |y| = |A y| because A >= 0 and y > 0.
        """
        n = self.table.x.size
        Y = self.solve(np.ones((n, 1)))
        y, Ay = Y[:, 0], self._z_times(self._over_x(Y))[:, 0]
        bound = (n + 2) * np.finfo(float).eps * (np.abs(y) + np.abs(Ay))
        bad = ~((y > 0) & (y - Ay > bound))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NonProductive(
                f"economy is not productive at {self.table.row_labels()[i]}: "
                f"y = {y[i]:.3g}, y - A y = {y[i] - Ay[i]:.3g} for y = (I - A)^-1 1"
            )

    def solve(self, rhs, trans=0):
        """X with (I - A) X = rhs, or (I - A)' X = rhs when ``trans=1``.

        ``rhs`` is (N*K, m). Raises :class:`NonProductive` when a column's
        residual exceeds ``LEONTIEF_RESIDUAL_TOL`` times the largest
        magnitude of that column of ``rhs``. The residual is evaluated in
        place in the product array A X (or A' X), so the check needs at
        most one (N*K, m) array beyond X and that product. ``lu_solve`` and
        the product with Z (:meth:`_z_times`) run on the same BLAS, scipy's.
        """
        import scipy.linalg  # loaded at a process's first factorization

        X = scipy.linalg.lu_solve(self.factors, rhs, trans=trans)
        if trans:
            residual = self._z_times(X, trans=1)
            self._over_x(residual, out=residual)
        else:
            residual = self._z_times(self._over_x(X))
        np.subtract(X, residual, out=residual)
        residual -= rhs
        residual = np.abs(residual, out=residual).max(axis=0)
        scale = np.maximum(rhs.max(axis=0), -rhs.min(axis=0))
        bad = ~(residual <= LEONTIEF_RESIDUAL_TOL * scale)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NonProductive(
                f"Leontief solve residual {residual[j]:.3g} exceeds tolerance "
                f"for right-hand side {j}"
            )
        return X


@dataclass(frozen=True, eq=False)
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
        if not np.isfinite(e).all():
            raise SchemaError("non-finite emission intensity at " + _rows_at(
                self.countries, self.industries, ~np.isfinite(e)))
        if np.any(e < 0):
            raise NegativeEmission("negative emission intensity at " + _rows_at(
                self.countries, self.industries, e < 0))
        e.setflags(write=False)
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "industries", tuple(self.industries))
        object.__setattr__(self, "e", e)


@dataclass(frozen=True, eq=False)
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
        shape = (len(self.countries), len(self.industries))
        for name in INDICATOR_KEYS:
            grid = getattr(self, name)
            if grid.shape != shape:
                raise DimensionMismatch(f"{name} must be {shape}, got {grid.shape}")
            if grid.min() < -ACCOUNTS_NEGATIVE_REL_TOL * np.abs(grid).max():
                raise DimensionMismatch(f"{name} has negative entry {grid.min():.3g}")
            grid.setflags(write=False)
        bwd = self.backward_gvc.sum(axis=1)
        exp = self.gross_exports.sum(axis=1)
        slack = ACCOUNTS_NEGATIVE_REL_TOL * np.abs(exp).max()
        if np.any(bwd > exp * (1 + 1e-6) + slack):
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
        """One of the five (N, K) grids by a key of ``INDICATOR_KEYS``."""
        if name not in INDICATOR_KEYS:
            raise KeyError(f"unknown indicator {name!r}")
        return getattr(self, name)

    def aggregate(self, name, industries=None, countries=None):
        """Totals of an indicator per country, in the order of ``countries``
        (by default every country), optionally over an industry subset:
        the one home of the sampled manufacturing totals."""
        grid = self.indicator(name)
        if industries is not None:
            cols = [self.industries.index(s) for s in industries
                    if s in self.industries]
            if not cols:
                raise KeyError(
                    f"none of the requested industries {sorted(industries)!r} "
                    f"exist in {sorted(self.industries)!r}")
            grid = grid[:, cols]
        totals = grid.sum(axis=1)
        if countries is None:
            return totals
        return totals[[self.country_index(c) for c in countries]]


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

def build_coefficients(icio: IcioTable) -> np.ndarray:
    """(I - A), A = Z diag(x)^(-1) with zero columns where x <= 0, written
    from Z and x straight into the Fortran-ordered buffer that
    :func:`build_model` factors in place: the only (N*K, N*K) array formed.

    Raises :class:`SingularOutput` if an industry buys intermediates but
    reports zero gross output, or so little that a purchase over it would
    overflow.
    """
    x = icio.x
    positive = x > 0
    # Z is nonnegative. A purchase over x overflows only where it exceeds
    # x times the largest float, a product that cannot overflow for x < 1.
    limit = np.where(positive, np.minimum(x, 1.0) * np.finfo(float).max,
                     BALANCE_ABS_TOL)
    offending = np.flatnonzero(icio.Z.max(axis=0) > limit)
    if offending.size:
        labels = icio.row_labels()
        raise SingularOutput(
            "intermediate purchases over gross output are not finite for: "
            + ", ".join(labels[i] for i in offending[:10]))
    n = x.size
    system = np.empty((n, n), order="F")
    np.divide(icio.Z, np.where(positive, x, 1.0), out=system)
    system[:, ~positive] = 0.0
    np.negative(system, out=system)
    system[np.diag_indices(n)] += 1.0
    return system


def build_model(icio: IcioTable) -> LeontiefModel:
    """The validated model of ``icio``: the LU factors of (I - A), no B.

    Raises :class:`NonProductive` if (I - A) is singular or the economy
    fails the productivity certificate of :meth:`LeontiefModel.validate`.
    """
    import scipy.linalg  # loaded at a process's first factorization

    try:
        lu, piv = scipy.linalg.lu_factor(build_coefficients(icio),
                                         overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NonProductive(f"(I - A) could not be factorized: {exc}") from exc
    diag = np.abs(np.diag(lu))
    if diag.min() <= lu.shape[0] * np.finfo(float).eps * max(diag.max(), 1.0):
        raise NonProductive("(I - A) is numerically singular")
    model = LeontiefModel(icio, (lu, piv))
    model.validate()
    return model


def leontief_inverse(model: LeontiefModel) -> np.ndarray:
    """B = (I - A)^(-1) of a built model, from solves against the identity:
    the only place B is formed, for callers who need B itself and as the
    reference the accounts kernel is tested against."""
    return model.solve(np.eye(model.table.x.size))


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


#: Largest relative conservation gap the exports label "ok"; anything
#: wider is labelled "FAIL".
CONSERVATION_GAP_TOL = 1e-8


def conservation_gap(icio: IcioTable, model: LeontiefModel,
                     e: EmissionIntensity) -> float:
    """Relative gap between production-based and consumption-embodied totals.

    Production-based total is sum(e * x); the consumption side routes total
    final demand through diag(e) B with one solve. The two agree whenever
    row balance holds exactly, which makes this a cheap end-to-end sanity
    check on any table. Scaling ``e`` by a power of two leaves the gap
    unchanged bit for bit.
    """
    produced = float(e.e @ icio.x)
    final = icio.F.sum(axis=1)[:, np.newaxis]
    embodied = float(e.e @ model.solve(final)[:, 0])
    scale = max(abs(produced), abs(embodied))
    return abs(produced - embodied) / scale if scale > 0 else 0.0
