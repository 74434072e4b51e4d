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

#: Variable codes every assembled panel is expected to carry.
ACCOUNT_VARIABLES = ("Domestic CO2", "Foreign CO2", "Forward GVC", "Backward GVC")
INDICATOR_VARIABLES = ("GDP", "MFG", "ESI", "TO", "FOR_COVER",
                       "REN_ENERGY_CONS", "POP_DENSITY")

#: ISIC Rev.4 section C divisions in inter-country IO industry coding.
DEFAULT_MANUFACTURING = (
    "D10T12", "D13T15", "D16", "D17T18", "D19", "D20", "D21", "D22", "D23",
    "D24", "D25", "D26", "D27", "D28", "D29", "D30", "D31T33",
)


@dataclass(frozen=True)
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
        if len(set(units)) != len(units):
            raise SchemaError("duplicate unit codes")
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
        Supplies the four trade indicators, aggregated over the
        ``manufacturing`` industry codes.
    indicators : IndicatorPanel
        Long-format (country, year, variable, value) records for the
        remaining controls.
    units, periods : requested sample; every (unit, period, variable)
        cell must exist in exactly one source.
    """
    units = tuple(units)
    periods = tuple(int(p) for p in periods)
    n, t = len(units), len(periods)

    overlap = set(ACCOUNT_VARIABLES) & set(indicators.variable_names())
    if overlap:
        raise DuplicateSource(
            f"variables supplied by both accounts and indicators: {sorted(overlap)}"
        )

    grids = {name: np.full((n, t), np.nan) for name in ACCOUNT_VARIABLES}
    account_keys = {
        "Domestic CO2": "domestic_co2",
        "Foreign CO2": "foreign_co2",
        "Forward GVC": "forward_gvc",
        "Backward GVC": "backward_gvc",
    }
    for j, year in enumerate(periods):
        accounts = accounts_by_year.get(year)
        if accounts is None:
            raise MissingCell(units[0], year, ACCOUNT_VARIABLES[0])
        for name, key in account_keys.items():
            totals = accounts.aggregate(key, manufacturing)
            for i, u in enumerate(units):
                grids[name][i, j] = totals[accounts.country_index(u)]

    for name in indicators.variable_names():
        grid = np.full((n, t), np.nan)
        for i, u in enumerate(units):
            for j, year in enumerate(periods):
                value = indicators.value(u, year, name)
                if value is None:
                    raise MissingCell(u, year, name)
                grid[i, j] = value
        grids[name] = grid

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
