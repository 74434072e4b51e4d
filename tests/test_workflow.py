"""Workflow orchestration details not covered by the CLI round trips."""

import ast
import dataclasses
import os
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import gvccarbon
from conftest import kept_accounts
from gvccarbon import ingest, mrio, synthetic, workflow
from gvccarbon.errors import (
    BalanceError,
    NegativeEmission,
    NonPositiveLog,
    NonProductive,
    SchemaError,
)
from gvccarbon.workflow import load_config
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


class TestRegressionPanel:
    @pytest.mark.parametrize("extra, built", [("", 2),
                                              ("esi_shift = 1.5\n", 3)])
    def test_builds_the_derived_variables_in_one_step(self, tmp_path,
                                                      monkeypatch, extra,
                                                      built):
        # The logs are one construction, the squares and interactions
        # another, and the shifted stringency index a third.
        config = tiny_config(tmp_path, extra)
        base = panel_with_esi([0.5, 0.2, 1.0])
        calls = []
        post_init = PanelDataset.__post_init__

        def counted(panel):
            calls.append(panel)
            post_init(panel)

        monkeypatch.setattr(PanelDataset, "__post_init__", counted)
        panel = workflow.regression_panel(config, base)
        assert len(calls) == built and calls[-1] is panel
        assert len(panel.names()) == len(base.names()) + 19 + (built == 3)


class TestLoadYear:
    def test_table_without_year_line_loads(self, demo_config, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(demo_config.parent, clone)
        path = clone / "icio_1995.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("#year: 1995\n", ""), encoding="utf-8")
        icio, _ = ingest.load_year(load_config(clone / "demo.cfg"), 1995)
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
        loaded = count_load_years(monkeypatch, workflow)
        workflow.full_bundle(config)
        assert sorted(loaded) == list(config.years)

    def test_warm_full_bundle_loads_no_year(self, cold_demo_config,
                                            monkeypatch):
        config = load_config(cold_demo_config)
        workflow.full_bundle(config)
        loaded = count_load_years(monkeypatch, workflow)
        workflow.full_bundle(config)
        assert loaded == []


def count_load_years(monkeypatch, readers=ingest):
    """The list of the years ``readers.load_year`` is called for: in
    ``ingest`` by ``ingest.year_accounts``, in ``workflow`` by
    ``workflow.year_accounts``."""
    loaded = []
    load_year = readers.load_year

    def counting_load_year(config, year, *args):
        loaded.append(year)
        return load_year(config, year, *args)

    monkeypatch.setattr(readers, "load_year", counting_load_year)
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


@st.composite
def zeroed_worlds(draw):
    """A closed world of 2-4 countries and 2-3 industries, through
    ``synthetic._closed_world``, in which one industry has no output and
    one country sells no intermediates abroad; and its intensities."""
    n, k = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dead, insular = draw(st.integers(0, n * k - 1)), draw(st.integers(0, n - 1))
    owner = np.repeat(np.arange(n), k)
    a = rng.uniform(0.1, 1.0, size=(n * k, n * k))
    a[np.ix_(owner == insular, owner != insular)] = 0.0
    a[dead] = a[:, dead] = 0.0
    sums = a.sum(axis=0)
    a *= rng.uniform(0.2, 0.7, size=n * k) / np.where(sums > 0, sums, 1.0)
    f = rng.uniform(5.0, 50.0, size=(n * k, n))
    f[dead] = 0.0
    icio = synthetic._closed_world(a, f, tuple(f"C{i}" for i in range(n)),
                                   tuple(f"S{j}" for j in range(k)), 2000)
    assert icio.x[dead] == 0.0
    return icio, synthetic.random_intensity(rng, icio)


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
        cold = ingest.year_accounts(config, 1995)
        assert len(kept_accounts(cold_demo_config)) == 1
        loaded, built = count_load_years(monkeypatch), count_solves(monkeypatch)
        assert_same_accounts(ingest.year_accounts(config, 1995), cold)
        assert loaded == built == []

    def test_cold_call_on_new_inputs_hashes_each_once(self, cold_demo_config,
                                                      monkeypatch):
        # The copied inputs are newer than the step, so their digest entries
        # are racy; each is written once, and the table's load hashes
        # nothing.
        config = load_config(cold_demo_config)
        hashed, file_sha256 = [], ingest._file_sha256
        monkeypatch.setattr(ingest, "_file_sha256",
                            lambda path: hashed.append(path) or file_sha256(path))
        loaded = count_load_years(monkeypatch)
        ingest.year_accounts(config, 1995)
        assert loaded == [1995]
        assert sorted(hashed) == sorted(ingest.year_files(config, 1995))

    def test_key_changes_with_a_byte_of_either_file(self, cold_demo_config):
        config = load_config(cold_demo_config)
        seen, (table, emissions) = [], ingest.year_files(config, 1995)
        for path in (None, emissions, table):
            if path is not None:
                bump_last_digit(path)
            ingest.year_accounts(config, 1995)
            # One entry per table name: the new one replaces the older.
            [name] = kept_accounts(cold_demo_config)
            seen.append(name)
            # ... and leaves the table's digest entry.
            entries = [p.name for p in
                       (table.parent / ingest.CACHE_DIR).glob(f"{table.name}.*")]
            assert len(entries) == 2 and name in entries
            assert f"{table.name}.sha256" in entries
        assert len(set(seen)) == 3

    @pytest.mark.parametrize("change", [
        *(f"env {name}" for name in ingest.BLAS_VARIABLES),
        "cpus", "numpy", "scipy", "numpy blas", "scipy blas", "sources"])
    def test_key_changes_with_the_environment(self, monkeypatch, change):
        def key():
            return ingest._accounts_key("a" * 64, "b" * 64)

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
                blas = ingest._blas

                def another(of):
                    return {"name": "other"} if of is module else blas(of)

                patch.setattr(ingest, "_blas", another)
            else:
                patch.setattr(ingest, "_sources_sha256",
                              lambda package: "0" * 64)
            assert key() != before
        assert key() == before

    def test_cold_year_runs_only_the_digested_sources(self,
                                                      cold_demo_config):
        # The package modules whose code a cold year runs are exactly the
        # ones whose sources key its kept accounts.
        config = load_config(cold_demo_config)
        package = Path(gvccarbon.__file__).parent
        ran, previous = set(), sys.getprofile()

        def profile(frame, event, arg):
            if event == "call":
                ran.add(Path(frame.f_code.co_filename))

        sys.setprofile(profile)
        try:  # as the commands call it, and directly
            workflow.year_accounts(config, 1995)
            ingest.year_accounts(config, 2000)
        finally:
            sys.setprofile(previous)
        assert len(kept_accounts(cold_demo_config)) == 2
        assert sorted(path.name for path in ran if path.parent == package) \
            == sorted(ingest._YEAR_SOURCES)

    def test_workflow_reads_a_cold_year_through_its_own_names(
            self, cold_demo_config, monkeypatch):
        # The benchmark's tracer wraps these names on workflow: a cold year
        # calls each once there, a warm one none.
        config = load_config(cold_demo_config)
        calls = []
        for name in ("load_year", "load_icio", "load_emissions_vector"):
            function = getattr(workflow, name)
            monkeypatch.setattr(workflow, name, lambda *args, f=function,
                                name=name: calls.append(name) or f(*args))
        cold = workflow.year_accounts(config, 1995)
        assert calls == ["load_year", "load_icio", "load_emissions_vector"]
        assert_same_accounts(workflow.year_accounts(config, 1995), cold)
        assert len(calls) == 3

    def test_source_digest_changes_with_one_byte(self, tmp_path):
        # A byte of the year path's sources changes the digest; a comment
        # line appended to any other module of a copied package keeps it.
        package = Path(gvccarbon.__file__).parent
        digest = ingest._sources_sha256(package)
        names = sorted(path.name for path in package.glob("*.py"))
        assert set(ingest._YEAR_SOURCES) < set(names)
        for name in names:
            copy = tmp_path / name
            copy.mkdir()
            for path in package.glob("*.py"):
                shutil.copy(path, copy / path.name)
            if name in ingest._YEAR_SOURCES:
                bump_last_digit(copy / name)
                assert ingest._sources_sha256(copy) != digest, name
            else:
                with open(copy / name, "a", encoding="utf-8") as handle:
                    handle.write("# a comment\n")
                assert ingest._sources_sha256(copy) == digest, name

    def test_ingest_imports_only_the_year_path_modules(self):
        # ingest's package imports are year-path modules alone, so config
        # and econometric code cannot drift back into what keys a kept year.
        tree = ast.parse(Path(ingest.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported.update([node.module] if node.module
                                else (alias.name for alias in node.names))
        assert imported == {"errors", "mrio"}

    @settings(max_examples=25, deadline=None)
    @given(world=zeroed_worlds())
    def test_cold_and_warm_years_are_the_accounts_of_the_table(self, world):
        # Kept or solved, a year's record gives the accounts and the gap
        # of the loaded table bit for bit, structural zeros included.
        icio, intensity = world
        with tempfile.TemporaryDirectory() as data, \
                pytest.MonkeyPatch.context() as patch:
            config = workflow.RunConfig(
                data_dir=Path(data), years=(2000,), sample=icio.countries,
                oecd=(), manufacturing=icio.industries)
            table_path, emissions_path = ingest.year_files(config, 2000)
            ingest.save_icio(icio, table_path)
            ingest.save_emissions(icio, intensity.e * icio.x, emissions_path)
            cold = ingest.year_accounts(config, 2000)
            table, e = ingest.load_year(config, 2000)
            model = mrio.build_model(table)
            want = (mrio.compute_accounts(table, model, e),
                    mrio.conservation_gap(table, model, e))
            patch.setattr(ingest, "load_year", None)  # a warm year loads none
            warm = ingest.year_accounts(config, 2000)
        assert_same_accounts(cold, want)
        assert_same_accounts(warm, want)

    @pytest.mark.parametrize("spoil", [
        "empty", "truncated", "garbage", "not npy", "zip", "wrong shape",
        "float32", "object dtype"])
    def test_spoiled_entry_is_ignored_and_written_again(
            self, cold_demo_config, monkeypatch, spoil):
        config = load_config(cold_demo_config)
        cold = ingest.year_accounts(config, 1995)
        [name] = kept_accounts(cold_demo_config)
        entry = cold_demo_config.parent / ingest.CACHE_DIR / name
        kept = entry.read_bytes()
        if spoil == "wrong shape":
            np.save(entry, np.load(entry)[:-1])
        elif spoil == "float32":
            np.save(entry, np.load(entry).astype(np.float32))
        elif spoil == "object dtype":
            np.save(entry, np.array([1.0, "a"], dtype=object))
        else:
            # "garbage": the .npy magic, then a header that is none.
            entry.write_bytes({"empty": b"", "truncated": kept[:len(kept) // 2],
                               "garbage": b"\x93NUMPY\x01\x00garbage\n",
                               "not npy": b"not an array\n",
                               "zip": b"PK\x03\x04not a zip\n"}[spoil])
        built = count_solves(monkeypatch)
        assert_same_accounts(ingest.year_accounts(config, 1995), cold)
        assert len(built) == 1
        assert entry.read_bytes() == kept
        assert kept_accounts(cold_demo_config) == [name]

    @pytest.mark.parametrize("error", [OSError, PermissionError])
    def test_failed_write_keeps_no_file(self, cold_demo_config, monkeypatch,
                                        error):
        # The cache holds digest entries only: no accounts entry and no
        # temp file left by the write.
        config = load_config(cold_demo_config)

        def failing_save(handle, values, **options):
            handle.write(b"\x93NUMPY")
            raise error("no room")

        with monkeypatch.context() as patch:
            patch.setattr(ingest.np, "save", failing_save)
            failed = ingest.year_accounts(config, 1995)
        cache = cold_demo_config.parent / ingest.CACHE_DIR
        assert [p.name for p in cache.iterdir() if p.suffix != ".sha256"] == []
        assert_same_accounts(ingest.year_accounts(config, 1995), failed)
        assert len(kept_accounts(cold_demo_config)) == 1

    def test_new_bytes_replace_the_entry_of_their_file_only(
            self, cold_demo_config):
        # "icio_1995.csv.bak" begins with "icio_1995.csv.", the prefix of
        # the table's entries; the entry of the copy stays.
        config = load_config(cold_demo_config)
        copy = dataclasses.replace(config, icio_pattern="icio_{year}.csv.bak")
        shutil.copy(ingest.year_files(config, 1995)[0],
                    ingest.year_files(copy, 1995)[0])
        ingest.year_accounts(config, 1995)
        ingest.year_accounts(copy, 1995)
        first = kept_accounts(cold_demo_config)
        [copied] = [name for name in first
                    if name.startswith("icio_1995.csv.bak.")]
        bump_last_digit(ingest.year_files(config, 1995)[0])
        ingest.year_accounts(config, 1995)
        [name] = set(kept_accounts(cold_demo_config)) - {copied}
        assert name not in first
        assert kept_accounts(cold_demo_config) == sorted([name, copied])

    def test_stale_parsed_body_goes_when_accounts_are_next_kept(
            self, cold_demo_config):
        # Earlier versions kept each parsed table as <table>.<sha256>.v1.npy.
        # A warm read writes nothing, so such a file stays until the year
        # is solved and kept again.
        config = load_config(cold_demo_config)
        table = ingest.year_files(config, 1995)[0]
        ingest.year_accounts(config, 1995)
        cache = table.parent / ingest.CACHE_DIR
        stale = cache / f"{table.name}.{'ab' * 32}.v1.npy"
        np.save(stale, np.zeros((2, 3)))
        ingest.year_accounts(config, 1995)
        assert stale.exists()
        bump_last_digit(ingest.year_files(config, 1995)[1])
        ingest.year_accounts(config, 1995)
        assert not stale.exists()
        assert sorted(p.name for p in cache.glob(f"{table.name}.*")) == \
            sorted([*kept_accounts(cold_demo_config), f"{table.name}.sha256"])

    @pytest.mark.parametrize("replaced", ["table", "emissions"])
    def test_input_replaced_while_solving_keeps_no_entry(
            self, cold_demo_config, monkeypatch, replaced):
        config = load_config(cold_demo_config)
        path = dict(zip(("table", "emissions"),
                        ingest.year_files(config, 1995)))[replaced]
        compute_accounts = mrio.compute_accounts

        def compute_then_replace(*args):
            accounts = compute_accounts(*args)
            ingest._atomic_write(path, path.read_text(encoding="utf-8"))
            return accounts

        monkeypatch.setattr(mrio, "compute_accounts", compute_then_replace)
        first = ingest.year_accounts(config, 1995)
        assert kept_accounts(cold_demo_config) == []
        monkeypatch.undo()
        # The same bytes, hashed again, are solved and kept.
        assert_same_accounts(ingest.year_accounts(config, 1995), first)
        assert len(kept_accounts(cold_demo_config)) == 1

    @pytest.mark.parametrize("fault", ["body fault", "row balance",
                                       "nonproductive", "negative emissions"])
    def test_year_that_raises_writes_no_entry(self, cold_demo_config,
                                              monkeypatch, fault):
        config = load_config(cold_demo_config)
        if fault in ("body fault", "row balance"):
            # The last number of the table is the last row's gross output.
            path = ingest.year_files(config, 1995)[0]
            text = path.read_text(encoding="utf-8").rstrip("\n")
            out, error = {"body fault": ("1_00", SchemaError),
                          "row balance": ("-1", BalanceError)}[fault]
            path.write_text(f"{text.rpartition(',')[0]},{out}\n",
                            encoding="utf-8")
        elif fault == "nonproductive":
            build_model = mrio.build_model

            def inflated(icio):
                return build_model(SimpleNamespace(
                    countries=icio.countries, industries=icio.industries,
                    Z=icio.Z * 10.0, x=icio.x, row_labels=icio.row_labels))

            monkeypatch.setattr(mrio, "build_model", inflated)
            error = NonProductive
        else:
            path = ingest.year_files(config, 1995)[1]
            header, first, *rest = path.read_text().splitlines(True)
            first = first.rsplit(",", 1)[0] + ",-1\n"
            path.write_text("".join([header, first, *rest]))
            error = NegativeEmission
        with pytest.raises(error):
            ingest.year_accounts(config, 1995)
        assert kept_accounts(cold_demo_config) == []
