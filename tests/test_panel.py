"""Panel assembly, derived regressors, and balance validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gvccarbon import synthetic
from gvccarbon.errors import (
    DuplicateSource,
    MissingCell,
    NonPositiveLog,
    SchemaError,
    UnknownVariable,
)
from gvccarbon.workflow import IndicatorPanel
from gvccarbon.mrio import build_model, compute_accounts
from gvccarbon.panel import (
    PanelDataset,
    assemble_panel,
    derive_variable,
)


def simple_panel(n=2, t=4, seed=0):
    rng = np.random.default_rng(seed)
    grids = {
        "y": rng.uniform(1.0, 5.0, size=(n, t)),
        "x": rng.uniform(1.0, 5.0, size=(n, t)),
    }
    units = tuple(f"U{i}" for i in range(n))
    periods = tuple(range(2000, 2000 + t))
    return PanelDataset(units, periods, grids)


def accounts_fixture(years, seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for year in years:
        icio = synthetic.random_icio(rng, ("A", "B", "ROW"), ("D10T12", "D35"),
                                     year=year)
        model = build_model(icio)
        e = synthetic.random_intensity(rng, icio)
        out[year] = compute_accounts(icio, model, e)
    return out


def indicator_fixture(units, years, variables=("GDP", "TO")):
    records = []
    value = 1.0
    for v in variables:
        for u in units:
            for y in years:
                value += 0.25
                records.append((u, y, v, value, "unit"))
    return IndicatorPanel(tuple(records))


class TestAssembly:
    def test_full_panel_counts(self):
        years = (2000, 2001, 2002)
        units = ("A", "B")
        accounts = accounts_fixture(years)
        panel = assemble_panel(accounts, indicator_fixture(units, years),
                               units, years, manufacturing=("D10T12",))
        assert panel.n_units == 2 and panel.n_periods == 3
        for name in panel.names():
            grid = panel.grid(name)
            assert grid.shape == (2, 3)
            assert not np.isnan(grid).any()

    def test_single_unit_constant_variable(self):
        panel = PanelDataset(("A",), (2000, 2001, 2002),
                             {"c": np.full((1, 3), 7.0)})
        assert_allclose(panel.grid("c"), 7.0)

    def test_missing_indicator_cell_named(self):
        years = (2000, 2001, 2002)
        units = ("A", "B")
        accounts = accounts_fixture(years)
        records = [r for r in indicator_fixture(units, years).records
                   if not (r[0] == "B" and r[1] == 2001 and r[2] == "GDP")]
        with pytest.raises(MissingCell) as exc:
            assemble_panel(accounts, IndicatorPanel(tuple(records)),
                           units, years, manufacturing=("D10T12",))
        assert (exc.value.unit, exc.value.period, exc.value.variable) == \
            ("B", 2001, "GDP")

    def test_missing_accounts_year_named(self):
        years = (2000, 2001, 2002)
        units = ("A", "B")
        accounts = accounts_fixture((2000, 2002))
        with pytest.raises(MissingCell) as exc:
            assemble_panel(accounts, indicator_fixture(units, years),
                           units, years, manufacturing=("D10T12",))
        assert (exc.value.unit, exc.value.period, exc.value.variable) == \
            ("A", 2001, "Domestic CO2")

    def test_duplicate_source_rejected(self):
        years = (2000, 2001, 2002)
        units = ("A", "B")
        accounts = accounts_fixture(years)
        clashing = IndicatorPanel(tuple(
            (u, y, "Forward GVC", 1.0, "unit") for u in units for y in years
        ))
        with pytest.raises(DuplicateSource):
            assemble_panel(accounts, clashing, units, years,
                           manufacturing=("D10T12",))


class TestDerive:
    def test_log_of_ones_is_zero(self):
        panel = PanelDataset(("A",), (1, 2, 3), {"v": np.ones((1, 3))})
        assert_allclose(derive_variable(panel, "log", "v"), np.zeros((1, 3)))

    def test_square_of_appendix_level(self):
        panel = PanelDataset(("A",), (1,), {"v": np.array([[7.394219]])})
        square = derive_variable(panel, "interaction", ("v", "v"))
        assert_allclose(square, [[7.394219 ** 2]], rtol=1e-15)
        assert abs(square[0, 0] - 54.674474619961) < 1e-9

    def test_log_base_switch(self):
        panel = PanelDataset(("A",), (1,), {"v": np.array([[math.e]])})
        assert_allclose(derive_variable(panel, "log", "v", base=math.e),
                        [[1.0]], rtol=1e-12)

    def test_nonpositive_log_names_cell(self):
        panel = PanelDataset(("A", "B"), (1, 2),
                             {"v": np.array([[1.0, 2.0], [3.0, -0.5]])})
        with pytest.raises(NonPositiveLog) as exc:
            derive_variable(panel, "log", "v")
        assert exc.value.unit == "B" and exc.value.period == 2

    def test_unknown_input(self):
        with pytest.raises(UnknownVariable):
            derive_variable(simple_panel(), "log", "nope")

    @pytest.mark.parametrize("inputs", [("x", "y"), ()])
    def test_log_takes_exactly_one_input(self, inputs):
        with pytest.raises(SchemaError,
                           match="^log takes exactly one input variable$"):
            derive_variable(simple_panel(), "log", inputs)

    def test_redefinition_rejected(self):
        panel = simple_panel()
        with pytest.raises(SchemaError, match="^variables already exist: y$"):
            panel.with_variables({"z": panel.grid("x"),
                                  "y": panel.grid("x") ** 2})

    @given(st.floats(min_value=0.01, max_value=1e6),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_log_linearity(self, c, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.5, 10.0, size=(2, 3))
        panel = PanelDataset(("A", "B"), (1, 2, 3),
                             {"v": values, "cv": c * values})
        gap = derive_variable(panel, "log", "cv") - derive_variable(panel, "log", "v")
        assert np.ptp(gap) < 1e-9

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_interaction_commutes(self, seed):
        panel = simple_panel(seed=seed)
        a = derive_variable(panel, "interaction", ("x", "y"))
        b = derive_variable(panel, "interaction", ("y", "x"))
        assert_allclose(a, b, rtol=0, atol=0)

    def test_with_variables_adds_every_grid_once(self):
        panel = simple_panel()
        grids = {"xy": derive_variable(panel, "interaction", ("x", "y")),
                 "log x": derive_variable(panel, "log", "x")}
        wide = panel.with_variables(grids)
        assert wide.names() == ("y", "x", "xy", "log x")
        for name, grid in grids.items():
            assert np.array_equal(wide.grid(name), grid)
        assert panel.names() == ("y", "x")


class TestValidation:
    def test_construction_rejects_holes(self):
        grid = np.ones((2, 3))
        grid[1, 0] = np.nan
        grid[0, 2] = np.nan
        with pytest.raises(MissingCell) as exc:
            PanelDataset(("A", "B"), (1, 2, 3), {"u": np.ones((2, 3)), "v": grid})
        # The first hole in row-major order is named.
        assert (exc.value.unit, exc.value.period, exc.value.variable) == \
            ("A", 3, "v")

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_construction_rejects_infinite_cells(self, value):
        # An infinite cell is a schema error naming its cell, not a hole,
        # and it is found ahead of a later hole.
        grid = np.ones((2, 3))
        grid[0, 1] = value
        grid[1, 0] = np.nan
        with pytest.raises(SchemaError) as exc:
            PanelDataset(("A", "B"), (1, 2, 3), {"u": np.ones((2, 3)), "v": grid})
        assert not isinstance(exc.value, MissingCell)
        assert exc.value.exit_code == 2
        assert str(exc.value) == \
            f"non-finite cell {value}: unit=A period=2 variable=v"

    def test_repeated_units_are_named(self):
        with pytest.raises(SchemaError, match="^repeated unit codes: A$"):
            PanelDataset(("A", "B", "A"), (1, 2), {"u": np.ones((3, 2))})


class TestSubset:
    def test_subset_preserves_order_and_values(self):
        panel = simple_panel(n=4)
        sub = panel.subset_units(["U2", "U0"])
        assert sub.units == ("U0", "U2")
        assert_allclose(sub.grid("x")[1], panel.grid("x")[2])

    def test_subset_unknown_unit(self):
        with pytest.raises(UnknownVariable):
            simple_panel().subset_units(["nope"])
