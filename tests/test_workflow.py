"""Workflow orchestration details not covered by the CLI round trips."""

import numpy as np
import pytest

from gvccarbon import workflow
from gvccarbon.errors import NonPositiveLog, SchemaError
from gvccarbon.ingest import load_config
from gvccarbon.panel import ACCOUNT_VARIABLES, INDICATOR_VARIABLES, PanelDataset


def tiny_config(tmp_path, extra_variables=""):
    text = (
        "[data]\ndir = .\nyears = 2000-2005\n"
        "[sample]\ncountries = AAA,BBB\noecd = AAA\n"
        "[variables]\nmanufacturing = M\n" + extra_variables
    )
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


def panel_with_esi(values):
    grid = np.asarray(values, float)[np.newaxis, :]
    n_periods = grid.shape[1]
    data = {"ESI": grid}
    for name in ACCOUNT_VARIABLES + INDICATOR_VARIABLES:
        if name != "ESI":
            data[name] = np.full((1, n_periods), 2.0)
    return PanelDataset(("AAA",), tuple(range(2000, 2000 + n_periods)), data)


class TestEsiShift:
    def test_nonpositive_esi_fails_by_default(self, tmp_path):
        config = tiny_config(tmp_path)
        panel = panel_with_esi([0.5, -0.2, 1.0])
        with pytest.raises(NonPositiveLog):
            workflow.regression_panel(config, panel)

    def test_optin_shift_allows_log(self, tmp_path):
        config = tiny_config(tmp_path, "esi_shift = 1.5\n")
        assert config.esi_shift == 1.5
        panel = workflow.regression_panel(config, panel_with_esi([0.5, -0.2, 1.0]))
        logged = panel.grid("log ESI")
        assert np.allclose(logged[0, 1], np.log10(-0.2 + 1.5))
        shifted = panel.grid("ESI shifted")
        assert np.array_equal(shifted, panel.grid("ESI") + 1.5)


class TestLoadYear:
    def test_table_without_year_line_loads(self, demo_config, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(demo_config.parent, clone)
        path = clone / "icio_1995.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("#year: 1995\n", ""), encoding="utf-8")
        icio, _ = workflow.load_year(load_config(clone / "demo.cfg"), 1995)
        assert icio.year is None


class TestModelDefinitions:
    def test_panel_tables_rejects_unknown_command(self, demo_config):
        config = load_config(demo_config)
        with pytest.raises(SchemaError, match="modelX"):
            workflow.panel_tables(config, None, "modelX")

    def test_full_bundle_contains_every_table(self, demo_config):
        config = load_config(demo_config)
        bundle = workflow.full_bundle(config)
        names = set(bundle.tables)
        assert {"table5_model1", "table5_model2", "table6", "table7",
                "table8_domestic", "table8_foreign", "table9_domestic",
                "table9_foreign", "table2_cd", "appendix_stats",
                "appendix_corr_forward", "appendix_corr_backward",
                "ranks_1995", "ranks_2018"} == names
        assert bundle.config_hash

    def test_full_bundle_loads_each_year_once(self, demo_config, monkeypatch):
        config = load_config(demo_config)
        loaded = []
        load_year = workflow.load_year

        def counting_load_year(config, year):
            loaded.append(year)
            return load_year(config, year)

        monkeypatch.setattr(workflow, "load_year", counting_load_year)
        workflow.full_bundle(config)
        assert sorted(loaded) == list(config.years)
