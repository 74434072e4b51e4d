"""Workflow orchestration details not covered by the CLI round trips."""

import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import gvccarbon
from conftest import kept_accounts
from gvccarbon import ingest, mrio, workflow
from gvccarbon.errors import (
    NegativeEmission,
    NonPositiveLog,
    NonProductive,
    SchemaError,
)
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

    def test_full_bundle_loads_each_year_once(self, cold_demo_config,
                                              monkeypatch):
        config = load_config(cold_demo_config)
        loaded = count_load_years(monkeypatch)
        workflow.full_bundle(config)
        assert sorted(loaded) == list(config.years)

    def test_warm_full_bundle_loads_no_year(self, cold_demo_config,
                                            monkeypatch):
        config = load_config(cold_demo_config)
        workflow.full_bundle(config)
        loaded = count_load_years(monkeypatch)
        workflow.full_bundle(config)
        assert loaded == []


def count_load_years(monkeypatch):
    """The list of the years ``workflow.load_year`` is called for."""
    loaded = []
    load_year = workflow.load_year

    def counting_load_year(config, year):
        loaded.append(year)
        return load_year(config, year)

    monkeypatch.setattr(workflow, "load_year", counting_load_year)
    return loaded


def count_solves(monkeypatch):
    """The list of the tables ``mrio.build_model`` is called on."""
    built = []
    build_model = mrio.build_model

    def counting_build_model(icio):
        built.append(icio)
        return build_model(icio)

    monkeypatch.setattr(mrio, "build_model", counting_build_model)
    return built


def bump_last_digit(path):
    """Change the last digit of the file at ``path``, in place."""
    data = bytearray(path.read_bytes())
    last = max(data.rfind(digit) for digit in b"0123456789")
    data[last] = ord("1") if data[last] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def assert_same_accounts(got, want):
    (accounts, gap), (expected, expected_gap) = got, want
    assert (accounts.countries, accounts.industries, accounts.year) == \
        (expected.countries, expected.industries, expected.year)
    for name in mrio.INDICATOR_KEYS:
        assert accounts.indicator(name).tobytes() == \
            expected.indicator(name).tobytes(), name
    assert gap == expected_gap


class TestKeptAccounts:
    def test_warm_call_reads_the_cold_accounts(self, cold_demo_config,
                                               monkeypatch):
        config = load_config(cold_demo_config)
        cold = workflow.year_accounts(config, 1995)
        assert len(kept_accounts(cold_demo_config)) == 1
        loaded, built = count_load_years(monkeypatch), count_solves(monkeypatch)
        assert_same_accounts(workflow.year_accounts(config, 1995), cold)
        assert loaded == built == []

    def test_cold_call_on_new_inputs_hashes_each_once(self, cold_demo_config,
                                                      monkeypatch):
        # The copied inputs are newer than the step, so their digest entries
        # are racy; the table's load trusts the entry this process has just
        # written.
        config = load_config(cold_demo_config)
        hashed, file_sha256 = [], ingest._file_sha256
        monkeypatch.setattr(ingest, "_file_sha256",
                            lambda path: hashed.append(path) or file_sha256(path))
        loaded = count_load_years(monkeypatch)
        workflow.year_accounts(config, 1995)
        assert loaded == [1995]
        assert sorted(hashed) == sorted([config.icio_path(1995),
                                         config.emissions_path(1995)])

    def test_key_changes_with_a_byte_of_either_file(self, cold_demo_config):
        config = load_config(cold_demo_config)
        seen = []
        for path in (None, config.emissions_path(1995),
                     config.icio_path(1995)):
            if path is not None:
                bump_last_digit(path)
            workflow.year_accounts(config, 1995)
            # One entry per table name: the new one replaces the older.
            [name] = kept_accounts(cold_demo_config)
            seen.append(name)
            # ... and leaves the table's kept body and its digest entry,
            # entries of other kinds.
            table = config.icio_path(1995)
            entries = [p.name for p in
                       (table.parent / ingest.CACHE_DIR).glob(f"{table.name}.*")]
            assert len(entries) == 3 and name in entries
            assert f"{table.name}.sha256" in entries
        assert len(set(seen)) == 3

    @pytest.mark.parametrize("change", [
        *(f"env {name}" for name in workflow.BLAS_VARIABLES),
        "cpus", "numpy", "scipy", "numpy blas", "scipy blas", "sources"])
    def test_key_changes_with_the_environment(self, monkeypatch, change):
        def key():
            return workflow._accounts_key("a" * 64, "b" * 64)

        before = key()
        with monkeypatch.context() as patch:
            if change.startswith("env "):
                name = change[4:]
                patch.setenv(name, os.environ.get(name, "") + "7")
            elif change == "cpus":
                cpus = set(range(ingest._cpu_count() + 1))
                patch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                              raising=False)
            elif change in ("numpy", "scipy"):
                module = {"numpy": np, "scipy": scipy}[change]
                patch.setattr(module, "__version__",
                              module.__version__ + ".post1")
            elif change.endswith(" blas"):
                module = {"numpy": np, "scipy": scipy}[change.split()[0]]
                blas = workflow._blas

                def another(of):
                    return {"name": "other"} if of is module else blas(of)

                patch.setattr(workflow, "_blas", another)
            else:
                patch.setattr(workflow, "_sources_sha256",
                              lambda package: "0" * 64)
            assert key() != before
        assert key() == before

    def test_source_digest_changes_with_one_byte(self, tmp_path):
        package = Path(gvccarbon.__file__).parent
        copy = tmp_path / "gvccarbon"
        copy.mkdir()
        for path in package.glob("*.py"):
            shutil.copy(path, copy / path.name)
        assert workflow._sources_sha256(copy) == \
            workflow._sources_sha256(package)
        edited = tmp_path / "edited"
        shutil.copytree(copy, edited)
        bump_last_digit(edited / "mrio.py")
        assert workflow._sources_sha256(edited) != \
            workflow._sources_sha256(package)

    @pytest.mark.parametrize("spoil", ["truncated", "wrong shape", "not npy"])
    def test_spoiled_entry_is_ignored_and_written_again(
            self, cold_demo_config, monkeypatch, spoil):
        config = load_config(cold_demo_config)
        cold = workflow.year_accounts(config, 1995)
        [name] = kept_accounts(cold_demo_config)
        entry = cold_demo_config.parent / ingest.CACHE_DIR / name
        kept = entry.read_bytes()
        if spoil == "wrong shape":
            np.save(entry, np.load(entry)[:-1])
        else:
            entry.write_bytes({"truncated": kept[:len(kept) // 2],
                               "not npy": b"not an array\n"}[spoil])
        built = count_solves(monkeypatch)
        assert_same_accounts(workflow.year_accounts(config, 1995), cold)
        assert len(built) == 1
        assert entry.read_bytes() == kept
        assert kept_accounts(cold_demo_config) == [name]

    @pytest.mark.parametrize("replaced", ["table", "emissions"])
    def test_input_replaced_while_solving_keeps_no_entry(
            self, cold_demo_config, monkeypatch, replaced):
        config = load_config(cold_demo_config)
        path = {"table": config.icio_path(1995),
                "emissions": config.emissions_path(1995)}[replaced]
        compute_accounts = mrio.compute_accounts

        def compute_then_replace(*args):
            accounts = compute_accounts(*args)
            ingest._atomic_write(path, path.read_text(encoding="utf-8"))
            return accounts

        monkeypatch.setattr(mrio, "compute_accounts", compute_then_replace)
        first = workflow.year_accounts(config, 1995)
        assert kept_accounts(cold_demo_config) == []
        monkeypatch.undo()
        # The same bytes, hashed again, are solved and kept.
        assert_same_accounts(workflow.year_accounts(config, 1995), first)
        assert len(kept_accounts(cold_demo_config)) == 1

    @pytest.mark.parametrize("fault", ["nonproductive", "negative emissions"])
    def test_year_that_raises_writes_no_entry(self, cold_demo_config,
                                              monkeypatch, fault):
        config = load_config(cold_demo_config)
        if fault == "nonproductive":
            build_model = mrio.build_model

            def inflated(icio):
                return build_model(SimpleNamespace(
                    countries=icio.countries, industries=icio.industries,
                    Z=icio.Z * 10.0, x=icio.x, row_labels=icio.row_labels))

            monkeypatch.setattr(mrio, "build_model", inflated)
            error = NonProductive
        else:
            path = config.emissions_path(1995)
            header, first, *rest = path.read_text().splitlines(True)
            first = first.rsplit(",", 1)[0] + ",-1\n"
            path.write_text("".join([header, first, *rest]))
            error = NegativeEmission
        with pytest.raises(error):
            workflow.year_accounts(config, 1995)
        assert kept_accounts(cold_demo_config) == []
