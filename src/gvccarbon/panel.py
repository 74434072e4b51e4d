"""Balanced country-by-year panels and derived regressors.

A :class:`PanelDataset` is an immutable bundle of named, complete (N, T)
value grids over a shared unit and period index. Derived variables (logs,
squares, interactions) are added through :func:`derive_variable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateSource,
    MissingCell,
    NonPositiveLog,
    SchemaError,
    UnknownVariable,
)
from .mrio import repeated

#: Each account variable of an assembled panel and the accounts grid it
#: sums over the manufacturing industries.
ACCOUNT_KEYS = {
    "Domestic CO2": "domestic_co2",
    "Foreign CO2": "foreign_co2",
    "Forward GVC": "forward_gvc",
    "Backward GVC": "backward_gvc",
}
ACCOUNT_VARIABLES = tuple(ACCOUNT_KEYS)
INDICATOR_VARIABLES = ("GDP", "MFG", "ESI", "TO", "FOR_COVER",
                       "REN_ENERGY_CONS", "POP_DENSITY")

#: ISIC Rev.4 section C divisions in inter-country IO industry coding.
DEFAULT_MANUFACTURING = (
    "D10T12", "D13T15", "D16", "D17T18", "D19", "D20", "D21", "D22", "D23",
    "D24", "D25", "D26", "D27", "D28", "D29", "D30", "D31T33",
)


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Balanced panel of named variables over units x periods.

    Construction raises :class:`MissingCell` for the first NaN cell, in
    row-major order, of the first variable holding one.
    """

    units: tuple
    periods: tuple
    variables: dict

    def __post_init__(self):
        units = tuple(self.units)
        periods = tuple(int(p) for p in self.periods)
        if twice := repeated(units):
            raise SchemaError(f"repeated unit codes: {', '.join(twice)}")
        if list(periods) != sorted(periods) or len(set(periods)) != len(periods):
            raise SchemaError("periods must be strictly increasing")
        n, t = len(units), len(periods)
        variables = {}
        for name, grid in self.variables.items():
            grid = np.array(grid, dtype=float)
            if grid.shape != (n, t):
                raise SchemaError(
                    f"variable {name!r} must have shape {(n, t)}, got {grid.shape}"
                )
            holes = np.argwhere(np.isnan(grid))
            if holes.size:
                i, j = holes[0]
                raise MissingCell(units[i], periods[j], name)
            grid.setflags(write=False)
            variables[name] = grid
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "variables", variables)

    @property
    def n_units(self):
        return len(self.units)

    @property
    def n_periods(self):
        return len(self.periods)

    def grid(self, name) -> np.ndarray:
        try:
            return self.variables[name]
        except KeyError:
            raise UnknownVariable(f"variable {name!r} not in panel") from None

    def names(self):
        return tuple(self.variables)

    def with_variable(self, name, grid) -> "PanelDataset":
        """New dataset sharing existing grids plus one more variable."""
        if name in self.variables:
            raise SchemaError(f"variable {name!r} already exists")
        variables = dict(self.variables)
        variables[name] = grid
        return PanelDataset(self.units, self.periods, variables)

    def subset_units(self, units) -> "PanelDataset":
        """Restrict to a unit subset, preserving panel order."""
        keep = [u for u in self.units if u in set(units)]
        missing = set(units) - set(self.units)
        if missing:
            raise UnknownVariable(f"units not in panel: {sorted(missing)}")
        idx = [self.units.index(u) for u in keep]
        variables = {k: v[idx] for k, v in self.variables.items()}
        return PanelDataset(tuple(keep), self.periods, variables)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_panel(accounts_by_year, indicators, units, periods,
                   manufacturing=DEFAULT_MANUFACTURING) -> PanelDataset:
    """Assemble the raw panel from embodied accounts plus indicator series.

    Parameters
    ----------
    accounts_by_year : mapping year -> EmbodiedAccounts
        Supplies the ``ACCOUNT_KEYS`` grids, aggregated over the
        ``manufacturing`` industry codes.
    indicators : IndicatorPanel
        Long-format (country, year, variable, value) records for the
        remaining controls, read in one pass.
    units, periods : requested sample; every (unit, period, variable)
        cell must exist in exactly one source. :class:`PanelDataset`
        names the first cell left empty, account variables first.
    """
    units = tuple(units)
    periods = tuple(int(p) for p in periods)
    rows = {u: i for i, u in enumerate(units)}
    columns = {year: j for j, year in enumerate(periods)}
    shape = (len(units), len(periods))

    found = {}
    for country, year, variable, value, _ in indicators.records:
        if variable not in found:
            found[variable] = np.full(shape, np.nan)
        i, j = rows.get(country), columns.get(int(year))
        if i is not None and j is not None:
            found[variable][i, j] = value
    overlap = set(ACCOUNT_KEYS) & set(found)
    if overlap:
        raise DuplicateSource(
            f"variables supplied by both accounts and indicators: {sorted(overlap)}"
        )

    grids = {name: np.full(shape, np.nan) for name in ACCOUNT_KEYS}
    for j, year in enumerate(periods):
        accounts = accounts_by_year.get(year)
        if accounts is None:
            continue
        for name, key in ACCOUNT_KEYS.items():
            grids[name][:, j] = accounts.aggregate(key, manufacturing, units)
    grids.update(sorted(found.items()))
    return PanelDataset(units, periods, grids)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def derive_variable(panel: PanelDataset, kind: str, inputs, out: str,
                    *, base: float = 10.0) -> PanelDataset:
    """Add a derived variable to the panel.

    kind is one of ``log`` (default base 10), ``square``, or
    ``interaction`` (elementwise product of two inputs).
    """
    if isinstance(inputs, str):
        inputs = (inputs,)
    inputs = tuple(inputs)
    grids = [panel.grid(name) for name in inputs]

    if kind == "log":
        (v,) = grids
        bad = np.argwhere(v <= 0)
        if bad.size:
            i, j = bad[0]
            raise NonPositiveLog(panel.units[i], panel.periods[j], inputs[0],
                                 float(v[i, j]))
        result = np.log(v) / math.log(base)
    elif kind == "square":
        (v,) = grids
        result = v * v
    elif kind == "interaction":
        if len(grids) != 2:
            raise SchemaError("interaction takes exactly two input variables")
        result = grids[0] * grids[1]
    else:
        raise SchemaError(f"unknown transform kind {kind!r}")
    return panel.with_variable(out, result)
