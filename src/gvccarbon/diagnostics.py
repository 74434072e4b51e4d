"""Cross-sectional dependence testing, descriptive statistics,
correlation matrices, and country ranking tables.

The dependence statistic aggregates pairwise correlations of unit
residual series,

    CD = sqrt(2T / (N (N - 1))) * sum_{i<j} corr(u_i, u_j),

which is asymptotically standard normal when the units are independent.
Series with unavailable head periods (from lagged or differenced
residuals) are trimmed to their common window first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, DimensionMismatch, MissingValue
from .panel import PanelDataset


def two_sided_normal_p(z) -> float:
    """P(|N(0, 1)| >= |z|), the two-sided p-value of a standard normal
    statistic: 1 at 0, 0 at infinity, NaN for NaN."""
    return math.erfc(abs(z) / math.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class CdReport:
    statistic: float
    avg_abs_correlation: float
    pairwise: np.ndarray  # (N, N) symmetric, unit diagonal
    p_value: float


def pesaran_cd(residuals: np.ndarray) -> CdReport:
    """Cross-sectional dependence test on an (N, T) residual grid.

    All-NaN columns (head periods dropped by an estimator) are removed as
    a block; any other NaN cell raises :class:`DimensionMismatch`. Any
    constant series makes the pairwise correlation undefined and raises
    :class:`DegenerateSeries`.
    """
    grid = np.asarray(residuals, dtype=float)
    if grid.ndim != 2:
        raise DimensionMismatch("residuals must be a 2-d unit-by-period grid")
    keep = ~np.isnan(grid).all(axis=0)
    grid = grid[:, keep]
    n, t = grid.shape
    if n < 2 or t < 3:
        raise DimensionMismatch(f"need N >= 2 and T >= 3, got N={n}, T={t}")
    if np.isnan(grid).any():
        raise DimensionMismatch("residual grid has ragged missing cells")

    centered = grid - grid.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered ** 2).sum(axis=1))
    flat = np.flatnonzero(norms == 0)
    if flat.size:
        raise DegenerateSeries(f"constant residual series for unit {flat[0]}")
    scaled = centered / norms[:, np.newaxis]
    pairwise = scaled @ scaled.T
    np.fill_diagonal(pairwise, 1.0)
    pairwise = np.clip((pairwise + pairwise.T) / 2.0, -1.0, 1.0)

    iu = np.triu_indices(n, k=1)
    upper = pairwise[iu]
    cd = float(np.sqrt(2.0 * t / (n * (n - 1))) * upper.sum())
    p = two_sided_normal_p(cd)
    pairwise.setflags(write=False)
    return CdReport(cd, float(np.abs(upper).mean()), pairwise, p)


# ---------------------------------------------------------------------------
# Descriptives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatsRow:
    variable: str
    obs: int
    mean: float
    std: float
    minimum: float
    maximum: float


def descriptive_stats(panel: PanelDataset, variables) -> list:
    """Obs / mean / sample std (n-1) / min / max per variable."""
    rows = []
    for name in variables:
        values = panel.grid(name).reshape(-1)
        obs = values.size
        std = float(values.std(ddof=1)) if obs > 1 else 0.0
        rows.append(StatsRow(name, obs, float(values.mean()), std,
                             float(values.min()), float(values.max())))
    return rows


def correlation_matrix(panel: PanelDataset, variables) -> np.ndarray:
    """Pearson correlations over the pooled unit-period observations."""
    variables = tuple(variables)
    if len(variables) < 2:
        raise DimensionMismatch("correlation matrix needs at least 2 variables")
    data = np.vstack([panel.grid(name).reshape(-1) for name in variables])
    if np.any(data.std(axis=1) == 0):
        j = int(np.flatnonzero(data.std(axis=1) == 0)[0])
        raise DegenerateSeries(f"variable {variables[j]!r} is constant")
    corr = np.corrcoef(data)
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Rank tables
# ---------------------------------------------------------------------------

LEVEL_BASIS = "level"
SHARE_BASIS = "share-of-gross-exports"


@dataclass(frozen=True)
class RankTable:
    indicator: str
    year: int
    basis: str
    rows: tuple  # (rank, country, value) with values non-increasing

    def ranking(self):
        return tuple(country for _, country, _ in self.rows)


def rank_table(values: dict, indicator: str, year: int,
               basis: str = LEVEL_BASIS, gross_exports: dict = None) -> RankTable:
    """Rank countries by an indicator, highest value first.

    Under the share basis each value is divided by the same year's gross
    exports before sorting. Ties break lexicographically by country code,
    which keeps tables reproducible.
    """
    if basis not in (LEVEL_BASIS, SHARE_BASIS):
        raise DimensionMismatch(f"unknown rank basis {basis!r}")
    items = []
    for country in sorted(values):
        value = values[country]
        if value is None or (isinstance(value, float) and np.isnan(value)):
            raise MissingValue(f"no {indicator} value for {country}")
        if basis == SHARE_BASIS:
            denom = (gross_exports or {}).get(country)
            if denom is None or not denom > 0:
                raise MissingValue(f"no positive gross exports for {country}: "
                                   f"{denom}")
            value = value / denom
        items.append((country, float(value)))
    items.sort(key=lambda cv: (-cv[1], cv[0]))
    rows = tuple((rank, country, value)
                 for rank, (country, value) in enumerate(items, start=1))
    return RankTable(indicator, int(year), basis, rows)
