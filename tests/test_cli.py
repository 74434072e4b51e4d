"""End-to-end command-line runs on the bundled synthetic dataset."""

import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import gvccarbon
from conftest import drop_kept_accounts, kept_accounts
from gvccarbon import diagnostics, ingest, mrio, synthetic, workflow
from gvccarbon.cli import main
from gvccarbon.errors import NonPositiveLog
from gvccarbon.workflow import load_config
from gvccarbon.report import parse_cell_number

pytestmark = pytest.mark.filterwarnings(
    "ignore::gvccarbon.errors.WeakInstrument")

PINNED_REPORT = Path(__file__).with_name("demo_report.sha256")
PINNED_DATA = Path(__file__).with_name("demo_data.sha256")
PINNED_RANKS = Path(__file__).with_name("demo_rank.sha256")
# Determinism hash of the seed-0 demo report; it covers the config hash and
# every table, not where the data sits.
DEMO_DETERMINISM_HASH = (
    "2391c1dfbde818640c15a24681e544a050047b8a83be5273090269c6021ee62b")


def pinned_digests(path):
    """``{file name: sha256}`` from a file in ``sha256sum`` format."""
    pinned = {}
    for line in path.read_text().splitlines():
        digest, name = line.split("  ")
        pinned[name] = digest
    return pinned


def digests(directory, skip=()):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir() if p.name not in skip}


def run(demo_config, out, *args, check=None):
    argv = ["--config", str(demo_config), "--out", str(out)]
    if check:
        argv += ["--check", str(check)]
    argv += list(args)
    return main(argv)


def load_table(out, name):
    return json.loads((out / f"{name}.json").read_text())


def rows_by_label(payload):
    return {row[0]: row[1:] for row in payload["rows"]}


class TestRegress:
    def test_model1_shape(self, demo_config, tmp_path, capsys):
        assert run(demo_config, tmp_path, "regress", "model1") == 0
        payload = load_table(tmp_path, "table5_model1")
        labels = [row[0] for row in payload["rows"]]
        assert labels == [
            "Forward GVC", "(Forward GVC)^2", "GDP", "MFG", "STR", "TO",
            "Wald Chi Square", "No. of Cross Sections", "No. of Observations",
        ]
        rows = rows_by_label(payload)
        assert rows["No. of Cross Sections"][0] == "16"
        assert rows["No. of Observations"][0] == "384"
        text = capsys.readouterr().out
        assert "Wald Chi Square" in text

    def test_model2_shape(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "regress", "model2") == 0
        payload = load_table(tmp_path, "table5_model2")
        assert payload["rows"][0][0] == "Backward GVC"
        assert payload["rows"][1][0] == "(Backward GVC)^2"

    def test_table6_columns_and_interactions(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "regress", "table6") == 0
        payload = load_table(tmp_path, "table6")
        assert payload["columns"] == [
            "Explanatory Variables", "OECD", "NON OECD", "ALL EMEs"]
        rows = rows_by_label(payload)
        # Interactions run on the full sample only.
        inter = rows["Forward GVC*FOR_COVER"]
        assert inter[0] == "" and inter[1] == "" and inter[2] != ""
        assert rows["No. of Cross Sections"] == ["8", "8", "16"]

    def test_table8_footers(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "regress", "table8") == 0
        for side in ("domestic", "foreign"):
            rows = rows_by_label(load_table(tmp_path, f"table8_{side}"))
            assert rows["No of time periods"][0] == "24"
            assert rows["Fixed Time Effects"][0] == "Yes"
            assert rows["No. of Observations"][0] == "384"

    def test_table9_structure(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "regress", "table9") == 0
        payload = load_table(tmp_path, "table9_domestic")
        labels = [row[0] for row in payload["rows"]]
        assert labels[0] == "Lagged Domestic Emissions"
        assert labels[-3:] == ["Wald Chi Square", "Overall R square",
                               "No. of Observations"]
        assert "Forward Participation (First Difference)" in labels
        assert "Constant" in labels


class TestDiagnosticsCommands:
    def test_cd_test(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "cd-test") == 0
        payload = load_table(tmp_path, "table2_cd")
        assert payload["columns"] == [
            "Model", "Avg Absolute Correlation", "Pesaran Statistic"]
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            parse_cell_number(row[2])

    def test_stats_obs_384(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "stats") == 0
        payload = load_table(tmp_path, "appendix_stats")
        assert len(payload["rows"]) == 10
        assert all(row[1] == "384" for row in payload["rows"])

    def test_corr_matrices(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "corr") == 0
        payload = load_table(tmp_path, "appendix_corr_forward")
        assert payload["rows"][0][1] == "1.0000"
        assert len(payload["rows"]) == 5

    def test_rank_shape(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "rank") == 0
        payload = load_table(tmp_path, "ranks_1995")
        assert len(payload["rows"]) == 16
        assert payload["columns"][0] == "Ranks"
        assert len(payload["columns"]) == 5
        countries = {row[1] for row in payload["rows"]}
        assert len(countries) == 16 and "ROW" not in countries

    def test_rank_single_indicator(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "rank", "--indicator",
                   "domestic_co2", "--year", "2018") == 0
        payload = load_table(tmp_path, "rank_domestic_co2_2018")
        values = [float(row[2]) for row in payload["rows"]]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("basis, words", [
        ("default", "participation as a share of gross exports; "
                    "emission levels"),
        ("level", "participation levels; emission levels"),
        ("share", "participation as a share of gross exports; "
                  "emissions as a share of gross exports"),
    ])
    def test_rank_caption_names_the_bases_used(self, demo_config, tmp_path,
                                               basis, words):
        assert run(demo_config, tmp_path, "rank", "--basis", basis) == 0
        payload = load_table(tmp_path, "ranks_1995")
        assert payload["caption"] == \
            f"Ranks from highest to lowest in 1995 ({words})"
        # Each column ranks on the caption's basis: the level ordering of
        # forward participation, and the share ordering of domestic CO2.
        config = load_config(demo_config)
        accounts, _ = workflow.year_accounts(config, 1995)
        forward = workflow.rank_year_table(
            config, 1995, accounts, "forward_gvc",
            diagnostics.LEVEL_BASIS)
        domestic = workflow.rank_year_table(
            config, 1995, accounts, "domestic_co2",
            diagnostics.SHARE_BASIS)
        columns = list(zip(*payload["rows"]))
        assert (columns[1] == tuple(row[1] for row in forward.rows)) == \
            (basis == "level")
        assert (columns[4] == tuple(row[1] for row in domestic.rows)) == \
            (basis == "share")

    def test_rank_single_indicator_table(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "rank", "--indicator",
                   "forward_gvc") == 0
        payload = load_table(tmp_path, "rank_forward_gvc_1995")
        assert payload["caption"] == \
            "forward_gvc ranks, 1995 (basis: share-of-gross-exports)"
        assert payload["columns"] == ["Rank", "Country", "Value"]
        assert payload["source_ops"] == ["diagnostics.rank_table"]
        assert [row[0] for row in payload["rows"]] == \
            [str(r) for r in range(1, 17)]
        # Its order is the first column of the four-column table.
        assert run(demo_config, tmp_path, "rank") == 0
        ranks = load_table(tmp_path, "ranks_1995")
        assert [row[1] for row in payload["rows"]] == \
            [row[1] for row in ranks["rows"]]

    def test_rank_files_match_pinned_digests(self, demo_config, tmp_path):
        # A single-indicator table on a forced basis, and the four-column
        # table on levels.
        assert run(demo_config, tmp_path, "rank", "--indicator",
                   "domestic_co2", "--basis", "share") == 0
        assert run(demo_config, tmp_path, "rank", "--year", "2018",
                   "--basis", "level") == 0
        assert digests(tmp_path) == pinned_digests(PINNED_RANKS)


class TestExports:
    def test_embodied_writes_one_file_per_year(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "embodied") == 0
        files = sorted(tmp_path.glob("embodied_*.csv"))
        assert len(files) == 24
        text = files[0].read_text()
        assert text.splitlines()[0] == \
            "country,industry,gross_exports,domestic_co2,foreign_co2"
        assert "conservation_gap" in text

    def test_gvc_export(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "gvc") == 0
        assert len(list(tmp_path.glob("gvc_*.csv"))) == 24

    def test_build_panel(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "build-panel") == 0
        lines = (tmp_path / "panel.csv").read_text().splitlines()
        assert lines[0] == "country,year,variable,value"
        assert len(lines) == 1 + 11 * 16 * 24

    def test_account_exports_round_trip(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "embodied") == 0
        assert run(demo_config, tmp_path, "gvc") == 0
        config = load_config(demo_config)
        for year in (config.years[0], config.years[-1]):
            accounts, gap = workflow.year_accounts(config, year)
            status = "ok" if gap <= mrio.CONSERVATION_GAP_TOL else "FAIL"
            for which, keys in workflow.EXPORT_SETS.items():
                text = (tmp_path / f"{which}_{year}.csv").read_text()
                header, *rows, footer = text.splitlines()
                assert footer == f"# conservation_gap: {gap:.3e} ({status})"
                cells = [row.split(",") for row in rows]
                assert [c[:2] for c in cells] == [
                    [c, k] for c in accounts.countries
                    for k in accounts.industries]
                columns = header.split(",")
                for key in keys:
                    j = columns.index(key)
                    parsed = np.array([float(c[j]) for c in cells])
                    grid = np.ascontiguousarray(accounts.indicator(key))
                    assert parsed.tobytes() == grid.tobytes(), (which, key)

    def test_solved_and_kept_accounts_write_the_same_exports(
            self, cold_demo_config, tmp_path, monkeypatch):
        # The kept accounts are removed before each first run, so that it
        # parses and solves every year; the second run of each command
        # reads them back and parses nothing.
        for which in ("embodied", "gvc"):
            drop_kept_accounts(cold_demo_config)
            assert run(cold_demo_config, tmp_path / "solved", which) == 0

        def no_parse(path, *args):
            raise AssertionError(f"parsed {path}")

        monkeypatch.setattr(ingest, "_parse_body", no_parse)
        for which in ("embodied", "gvc"):
            assert run(cold_demo_config, tmp_path / "kept", which) == 0
        names = sorted(p.name for p in (tmp_path / "kept").iterdir())
        assert len(names) == 48
        for name in names:
            assert (tmp_path / "solved" / name).read_bytes() == \
                (tmp_path / "kept" / name).read_bytes(), name

    def test_panel_export_round_trip(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "build-panel") == 0
        panel = workflow.base_panel(load_config(demo_config))
        _, *rows = (tmp_path / "panel.csv").read_text().splitlines()
        assert len(rows) == len(panel.names()) * panel.n_units * panel.n_periods
        for row in rows:
            unit, period, name, value = row.split(",")
            cell = panel.grid(name)[panel.units.index(unit),
                                    panel.periods.index(int(period))]
            assert float(value) == cell and \
                np.signbit(float(value)) == np.signbit(cell), row


class TestReportCommand:
    def test_bundle_is_deterministic(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path / "a", "report") == 0
        assert run(demo_config, tmp_path / "b", "report") == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "manifest.json" in names
        for name in names:
            if name == "manifest.json":
                ma = json.loads((tmp_path / "a" / name).read_text())
                mb = json.loads((tmp_path / "b" / name).read_text())
                assert ma["determinism_hash"] == mb["determinism_hash"]
            else:
                assert (tmp_path / "a" / name).read_bytes() == \
                    (tmp_path / "b" / name).read_bytes()

    def test_tables_match_pinned_digests(self, demo_config, tmp_path):
        # Digests of the seed-0 demo report, in `sha256sum` format. A
        # change that alters any table byte must re-pin them deliberately.
        pinned = pinned_digests(PINNED_REPORT)
        assert len(pinned) == 14 * 3
        assert run(demo_config, tmp_path, "report") == 0
        assert digests(tmp_path, skip={"manifest.json"}) == pinned

    def test_demo_data_matches_pinned_digests(self, tmp_path):
        # Every file of the seed-0 demo world: 24 ICIO tables, 24 emissions
        # files, the indicator panel and the config.
        pinned = pinned_digests(PINNED_DATA)
        assert len(pinned) == 24 * 2 + 2
        synthetic.write_demo_dataset(tmp_path, seed=0)
        assert digests(tmp_path) == pinned

    def test_manifest_records_input_digests_and_versions(self, demo_config,
                                                         tmp_path):
        assert run(demo_config, tmp_path, "report") == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        config = load_config(demo_config)
        paths = [demo_config, *workflow.run_inputs(config)]
        assert sorted(manifest["inputs"]) == sorted(str(p) for p in paths)
        for path in paths:
            assert manifest["inputs"][str(path)] == \
                hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest["versions"] == {
            "gvccarbon": gvccarbon.__version__, "numpy": np.__version__,
            "python": platform.python_version(), "scipy": scipy.__version__}
        # What keys the kept accounts, and each year's conservation gap.
        assert manifest["numerics"] == ingest.numerics()
        assert sorted(manifest["numerics"]) == [
            "blas", "blas_variables", "cpus", "numpy", "scipy",
            "sources_sha256"]
        gaps = manifest["conservation_gaps"]
        assert list(gaps) == [str(year) for year in config.years]
        for year in config.years:
            assert gaps[str(year)] == workflow.year_accounts(config, year)[1]
        # The digests, versions, numerics and gaps stay outside the
        # determinism hash.
        assert manifest["determinism_hash"] == DEMO_DETERMINISM_HASH

    def test_report_hashes_each_table_once(self, cold_demo_config, tmp_path,
                                           monkeypatch):
        # A cold run on settled inputs hashes each input once: the key of
        # each year's kept accounts, the table's load and the manifest read
        # the digest entry the first hash wrote. A warm run reads every
        # digest from its entry and opens no input in binary mode. The only
        # binary open of an input is ingest._file_sha256's, whatever module
        # calls it. Inputs are settled when their digest entries are younger
        # than them by more than the timestamp step, so each digest entry is
        # aged as it is written.
        hashed = []

        def counted(file, mode="r", *args, **kwargs):
            if mode == "rb":
                hashed.append(Path(file))
            return open(file, mode, *args, **kwargs)

        replacing = ingest._replacing

        @contextlib.contextmanager
        def aged(path, mode="w"):
            with replacing(path, mode) as handle:
                yield handle
            if path.suffix == ".sha256":
                later = path.stat().st_mtime_ns + ingest.TIMESTAMP_STEP_NS + 1
                os.utime(path, ns=(later, later))

        monkeypatch.setattr(ingest, "open", counted, raising=False)
        monkeypatch.setattr(ingest, "_replacing", aged)
        config = load_config(cold_demo_config)
        inputs = [cold_demo_config, *workflow.run_inputs(config)]
        assert len(inputs) == 24 * 2 + 2
        for out, reads in (("cold", sorted(inputs)), ("warm", [])):
            hashed.clear()
            assert run(cold_demo_config, tmp_path / out, "report") == 0
            assert sorted(path for path in hashed if path in inputs) == reads
            digests = json.loads(
                (tmp_path / out / "manifest.json").read_text())["inputs"]
            for path in inputs:
                assert digests[str(path)] == \
                    hashlib.sha256(path.read_bytes()).hexdigest()
        # One digest entry per input, beside it.
        cache = cold_demo_config.parent / ingest.CACHE_DIR
        assert sorted(cache.glob("*.sha256")) == \
            sorted(cache / f"{path.name}.sha256" for path in inputs)

    def test_cold_report_on_new_inputs_hashes_each_once(
            self, cold_demo_config, tmp_path, monkeypatch):
        # The inputs were copied just now, so every digest entry the run
        # writes is racy. The manifest still trusts it, as this process
        # wrote it: one pass per input, 50 in all. The
        # package sources, which key the kept accounts, are not inputs.
        hashed, file_sha256 = [], ingest._file_sha256
        monkeypatch.setattr(ingest, "_file_sha256",
                            lambda path: hashed.append(Path(path))
                            or file_sha256(path))
        inputs = [cold_demo_config,
                  *workflow.run_inputs(load_config(cold_demo_config))]
        assert run(cold_demo_config, tmp_path / "out", "report") == 0
        assert sorted(path for path in hashed if path in inputs) == \
            sorted(inputs)
        assert len(inputs) == 24 * 2 + 2

    def test_config_outside_the_data_directory_keeps_its_entry_there(
            self, cold_demo_config, tmp_path):
        # Each digest entry goes beside its input: the config's in the
        # config's own directory, every other input's in the data directory.
        data, project = cold_demo_config.parent, tmp_path / "project"
        project.mkdir()
        config = project / "run.cfg"
        config.write_text(cold_demo_config.read_text(encoding="utf-8").replace(
            "dir = .\n", f"dir = {data}\n", 1), encoding="utf-8")
        assert run(config, tmp_path / "out", "report") == 0
        assert sorted(p.name for p in project.iterdir()) == \
            [ingest.CACHE_DIR, "run.cfg"]
        assert [p.name for p in (project / ingest.CACHE_DIR).iterdir()] == \
            ["run.cfg.sha256"]
        kept = {p.name for p in (data / ingest.CACHE_DIR).glob("*.sha256")}
        assert "run.cfg.sha256" not in kept
        assert {f"{p.name}.sha256"
                for p in workflow.run_inputs(load_config(config))} <= kept

    def test_cell_traceable_to_library(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "regress", "model1") == 0
        payload = load_table(tmp_path, "table5_model1")
        assert "estimators.fgls_ar1" in payload["source_ops"]
        config = load_config(demo_config)
        panel = workflow.regression_panel(config, workflow.base_panel(config))
        [table] = workflow.panel_tables(config, panel, "model1")
        assert list(table.rows[0]) == payload["rows"][0]


class TestKeptAccounts:
    COMMANDS = (("report",), ("embodied",), ("gvc",), ("build-panel",),
                ("rank", "--indicator", "domestic_co2", "--year", "2018"))

    def test_warm_runs_write_what_the_cold_runs_wrote(
            self, cold_demo_config, tmp_path, monkeypatch):
        for args in self.COMMANDS:
            assert run(cold_demo_config, tmp_path / "cold", *args) == 0

        def refuse(*args):
            raise AssertionError("loaded or solved a year")

        for readers in (ingest, workflow):  # where either caller looks
            monkeypatch.setattr(readers, "load_year", refuse)
        monkeypatch.setattr(mrio, "build_model", refuse)
        for args in self.COMMANDS:
            assert run(cold_demo_config, tmp_path / "warm", *args) == 0
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        names = sorted(p.name for p in cold.iterdir())
        assert names == sorted(p.name for p in warm.iterdir())
        assert len(names) == 14 * 3 + 1 + 24 * 2 + 1 + 3
        for name in names:
            if name == "manifest.json":
                manifests = [json.loads((out / name).read_text())
                             for out in (cold, warm)]
                for manifest in manifests:
                    del manifest["generated_at"]
                assert manifests[0] == manifests[1]
            else:
                assert (warm / name).read_bytes() == \
                    (cold / name).read_bytes(), name

    def test_read_only_data_directory_gets_no_entry(self, demo_config,
                                                    tmp_path, monkeypatch):
        data = tmp_path / "read-only"
        shutil.copytree(demo_config.parent, data,
                        ignore=shutil.ignore_patterns(ingest.CACHE_DIR))
        # A directory whose mode forbids writing refuses the cache
        # directory, as the system does for any user but root.
        mkdir = Path.mkdir

        def refusing_mkdir(path, *args, **kwargs):
            if not path.parent.stat().st_mode & 0o222:
                raise PermissionError(13, "Permission denied", str(path))
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", refusing_mkdir)
        modes = {path: path.stat().st_mode for path in [data, *data.iterdir()]}
        for path, mode in modes.items():
            path.chmod(mode & ~0o222)
        try:
            assert run(data / demo_config.name, tmp_path / "out",
                       "report") == 0
            # No kept accounts or digest entry.
            assert not (data / ingest.CACHE_DIR).exists()
        finally:
            for path, mode in modes.items():
                path.chmod(mode)
        assert digests(tmp_path / "out", skip={"manifest.json"}) == \
            pinned_digests(PINNED_REPORT)
        inputs = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for path, sha256 in inputs["inputs"].items():
            assert sha256 == hashlib.sha256(Path(path).read_bytes()).hexdigest()

    @pytest.mark.parametrize("edit, message", [
        (("icio_1995.csv", "#year: 1995\n", "#year: 2007\n"),
         "icio_1995.csv: #year 2007 in a table read for 1995"),
        (("demo.cfg", "countries = BRA,", "countries = ZZZ,BRA,"),
         "sample countries missing from the IO table: ['ZZZ']"),
        (("demo.cfg", "manufacturing = D10T12,D24",
          "manufacturing = C10T12"),
         "none of the manufacturing codes ['C10T12'] is an industry"),
    ], ids=["year", "sample", "manufacturing"])
    def test_warm_data_directory_still_checks_the_table_head(
            self, cold_demo_config, tmp_path, capsys, edit, message):
        assert run(cold_demo_config, tmp_path, "embodied") == 0
        capsys.readouterr()
        name, old, new = edit
        path = cold_demo_config.parent / name
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert run(cold_demo_config, tmp_path, "embodied") == 2
        assert message in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"),
                     "stats"]) == 2

    def test_schema_error_is_2(self, demo_config, tmp_path):
        broken_dir = tmp_path / "broken"
        broken_dir.mkdir()
        (broken_dir / "bad.cfg").write_text(
            "[data]\nyears = 2000\n[sample]\ncountries = AAA\n",
            encoding="utf-8")
        rc = main(["--config", str(broken_dir / "bad.cfg"),
                   "--out", str(tmp_path), "stats"])
        assert rc == 2  # the referenced data files do not exist

    def test_numerical_error_is_3(self, demo_config, tmp_path):
        # Degenerate indicator: constant ESI makes its log an all-zero
        # column, which the rank check must reject.
        import shutil

        data_dir = demo_config.parent
        clone = tmp_path / "clone"
        shutil.copytree(data_dir, clone)
        lines = (clone / "indicators.csv").read_text().splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            if parts[2] == "ESI":
                parts[3] = "1"
            out.append(",".join(parts))
        (clone / "indicators.csv").write_text("\n".join(out) + "\n",
                                              encoding="utf-8")
        rc = main(["--config", str(clone / "demo.cfg"),
                   "--out", str(tmp_path / "o"), "regress", "model1"])
        assert rc == 3

    def test_design_without_residual_degrees_of_freedom_is_3(
            self, demo_config, tmp_path, capsys):
        # Two countries over five years give table 8 ten observations for
        # its ten columns (intercept, five regressors, four time dummies).
        text = demo_config.read_text(encoding="utf-8")
        text = re.sub(r"years = .*", "years = 1995-1999", text)
        text = re.sub(r"countries = .*", "countries = BRA,CZE", text)
        text = re.sub(r"oecd = .*", "oecd = CZE", text)
        small = tmp_path / "small.cfg"
        small.write_text(text, encoding="utf-8")
        rc = main(["--config", str(small), "--data-dir", str(demo_config.parent),
                   "--out", str(tmp_path / "o"), "regress", "table8"])
        assert rc == 3
        assert "n=10 observations do not exceed p=10" in capsys.readouterr().err

    def test_nonproductive_economy_is_3(self, cold_demo_config, tmp_path,
                                        monkeypatch, capsys):
        # Validated ingestion cannot produce A with spectral radius above
        # one, so scale every coefficient up after it.
        real = mrio.build_model

        def inflated(icio):
            return real(SimpleNamespace(
                countries=icio.countries, industries=icio.industries,
                Z=icio.Z * 10.0, x=icio.x, row_labels=icio.row_labels))

        monkeypatch.setattr(mrio, "build_model", inflated)
        assert run(cold_demo_config, tmp_path, "embodied") == 3
        assert "not productive" in capsys.readouterr().err
        assert kept_accounts(cold_demo_config) == []

    def test_overflowing_coefficient_is_3(self, cold_demo_config, tmp_path,
                                          monkeypatch, capsys):
        # A validated table whose industry S buys 5e-7 out of an output of
        # 5e-324: the coefficient would overflow.
        real = mrio.build_model
        Z, F = np.array([[0.0, 5e-7], [0.0, 0.0]]), np.array([[10.0], [5e-324]])
        table = mrio.IcioTable(("A",), ("M", "S"), Z, F, Z.sum(axis=1) + F[:, 0])
        monkeypatch.setattr(mrio, "build_model", lambda icio: real(table))
        assert run(cold_demo_config, tmp_path, "embodied") == 3
        assert "not finite for: A:S" in capsys.readouterr().err

    def test_singular_economy_is_3(self, cold_demo_config, tmp_path,
                                   monkeypatch, capsys):
        # A validated table whose AAA:D24 uses all of its own output makes
        # (I - A) exactly singular: exit 3 naming it, with no warning.
        real = mrio.build_model
        Z, F = np.array([[10.0, 0.0], [0.0, 0.0]]), np.diag([0.0, 5.0])
        table = mrio.IcioTable(("AAA", "BBB"), ("D24",), Z, F, [10.0, 5.0])
        monkeypatch.setattr(mrio, "build_model", lambda icio: real(table))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cold_demo_config, tmp_path, "embodied") == 3
        table = cold_demo_config.parent / "icio_1995.csv"
        assert capsys.readouterr().err == (
            f"error: {table}: (I - A) is numerically singular at AAA:D24: "
            "pivot 0\n")

    def test_overflowing_emission_intensity_is_2(self, tmp_path, capsys):
        # AAA:D24 emits a tonne out of an output of 1e-310: the intensity
        # overflows, and the fault is the emissions file's, with no warning.
        (tmp_path / "run.cfg").write_text(
            "[data]\nyears = 2017\n[sample]\ncountries = AAA,BBB\n"
            "oecd = AAA\n[variables]\nmanufacturing = D24\n",
            encoding="utf-8")
        (tmp_path / "icio_2017.csv").write_text(
            "#countries: AAA,BBB\n#industries: D24\n#year: 2017\n"
            "row,AAA:D24,BBB:D24,FD:AAA,FD:BBB,OUT\n"
            "AAA:D24,0,0,1e-310,0,1e-310\nBBB:D24,0,0,0,5,5\n",
            encoding="utf-8")
        emissions = tmp_path / "emissions_2017.csv"
        emissions.write_text("country,industry,tonnes\nAAA,D24,1\nBBB,D24,1\n",
                             encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(tmp_path / "run.cfg"), "--out",
                         str(tmp_path / "out"), "embodied"]) == 2
        assert capsys.readouterr().err == (
            f"error: {emissions}: non-finite emission intensity at AAA:D24\n")
        assert not (tmp_path / "out").exists()

    def test_rank_year_outside_the_config_is_2(self, demo_config, tmp_path,
                                               capsys):
        assert run(demo_config, tmp_path / "o", "rank", "--year", "1990") == 2
        assert capsys.readouterr().err == (
            "error: year 1990 is not in the configured range\n")

    def test_country_in_autarky_is_2(self, demo_config, tmp_path, capsys):
        # A sampled country that trades with no one exports no embodied
        # CO2, so the log of its account variables has no value.
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(demo_config.parent, clone)
        path = clone / "icio_2003.csv"
        icio = ingest.load_icio(path)
        home = np.repeat(np.array(icio.countries) == "BRA", icio.n_industries)
        a = icio.Z / icio.x
        a[np.ix_(home, ~home)] = 0.0
        a[np.ix_(~home, home)] = 0.0
        f = np.array(icio.F)
        f[np.ix_(home, np.array(icio.countries) != "BRA")] = 0.0
        f[~home, icio.countries.index("BRA")] = 0.0
        x = np.linalg.solve(np.eye(len(icio.x)) - a, f.sum(axis=1))
        ingest.save_icio(mrio.IcioTable(icio.countries, icio.industries,
                                        a * x, f, x, year=2003), path)

        config = load_config(clone / "demo.cfg")
        with pytest.raises(NonPositiveLog) as exc:
            workflow.regression_panel(config, workflow.base_panel(config))
        assert (exc.value.unit, exc.value.period, exc.value.variable) == \
            ("BRA", 2003, "Domestic CO2")
        assert run(clone / "demo.cfg", tmp_path / "o", "regress", "model1") == 2
        err = capsys.readouterr().err
        assert "unit=BRA period=2003 variable=Domestic CO2" in err

    @pytest.mark.parametrize("command", ["build-panel", "rank"])
    def test_manufacturing_codes_matching_no_industry_is_2(
            self, demo_config, tmp_path, capsys, command):
        # ISIC section letters instead of the table's D codes: no industry
        # to aggregate, which must stop the run before any factorization.
        text = demo_config.read_text(encoding="utf-8")
        text = text.replace("dir = .\n", f"dir = {demo_config.parent}\n", 1)
        text = text.replace("manufacturing = D10T12,D24",
                            "manufacturing = C10T12")
        config = tmp_path / "c10t12.cfg"
        config.write_text(text, encoding="utf-8")
        assert run(config, tmp_path / "o", command) == 2
        err = capsys.readouterr().err
        assert "C10T12" in err and "D10T12" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_failed_command_removes_only_the_directories_it_made(
            self, demo_config, tmp_path):
        # A command that fails after start-up leaves behind no empty output
        # directory it made, parents included; one that was there stays,
        # and so does one that holds a file.
        text = demo_config.read_text(encoding="utf-8")
        text = text.replace("dir = .\n", f"dir = {demo_config.parent}\n", 1)
        config = tmp_path / "c10t12.cfg"
        config.write_text(text.replace("manufacturing = D10T12,D24",
                                       "manufacturing = C10T12"),
                          encoding="utf-8")
        (tmp_path / "kept").mkdir()
        (tmp_path / "written").mkdir()
        (tmp_path / "written" / "a.csv").write_text("", encoding="utf-8")
        for out in ("new", "kept/new/deeper", "kept", "written"):
            assert run(config, tmp_path / out, "build-panel") == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["c10t12.cfg", "kept", "written"]
        assert list((tmp_path / "kept").iterdir()) == []
        assert [path.name for path in (tmp_path / "written").iterdir()] == \
            ["a.csv"]

    def test_interrupted_command_removes_the_directories_it_made(
            self, demo_config, tmp_path, monkeypatch):
        # An exception that is not reported with an exit code, such as an
        # interrupt during a long parse, still takes the new empty
        # directories away, and it still propagates.
        def interrupt(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(workflow, "base_panel", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run(demo_config, tmp_path / "new" / "deeper", "build-panel")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("old, new, message", [
        ("manufacturing = D10T12,D24", "manufacturing = D10T12,D24,D24",
         "manufacturing lists D24 more than once"),
        ("countries = BRA,CHN,", "countries = BRA,CHN,BRA,",
         "sample lists BRA more than once"),
        ("oecd = CZE,HUN,", "oecd = CZE,HUN,CZE,",
         "oecd lists CZE more than once"),
        ("years = 1995-2018", "years = 1995,1997,1996",
         "years must increase: 1996 follows 1997"),
        ("years = 1995-2018", "years = 1995,1995",
         "years must increase: 1995 follows 1995"),
    ])
    def test_repeated_config_code_is_2(self, demo_config, tmp_path, capsys,
                                       old, new, message):
        # No input is read: the data directory is empty.
        text = demo_config.read_text(encoding="utf-8")
        assert old in text
        config = tmp_path / "repeat.cfg"
        config.write_text(text.replace(old, new, 1), encoding="utf-8")
        assert run(config, tmp_path / "o", "build-panel") == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"

    @pytest.mark.parametrize("table, oecd, empty", [
        ("table6", "", "OECD"), ("table7", None, "NON OECD")])
    def test_empty_subsample_is_2(self, demo_config, tmp_path, capsys, table,
                                  oecd, empty):
        # No OECD country, or every sampled country in the OECD, leaves one
        # subsample of tables 6 and 7 without observations.
        text = demo_config.read_text(encoding="utf-8")
        text = text.replace("dir = .\n", f"dir = {demo_config.parent}\n", 1)
        if oecd is None:
            oecd = re.search(r"^countries = (.*)$", text, re.M).group(1)
        text = re.sub(r"^oecd = .*$", f"oecd = {oecd}", text, flags=re.M)
        config = tmp_path / "subsample.cfg"
        config.write_text(text, encoding="utf-8")
        assert run(config, tmp_path / "o", "regress", table) == 2
        assert capsys.readouterr().err == (
            f"error: {table}: the {empty} subsample is empty; [sample] oecd "
            "must list some, but not all, of the sampled countries\n")

    def test_fit_failure_names_its_table_and_is_3(self, demo_config, tmp_path,
                                                  capsys):
        # Two years leave the AR(1) step of model 1 too few periods.
        text = demo_config.read_text(encoding="utf-8")
        text = text.replace("dir = .\n", f"dir = {demo_config.parent}\n", 1)
        config = tmp_path / "two-years.cfg"
        config.write_text(re.sub(r"^years = .*$", "years = 1995-1996", text,
                                 flags=re.M), encoding="utf-8")
        assert run(config, tmp_path / "o", "regress", "model1") == 3
        assert capsys.readouterr().err == (
            "error: model1: AR(1) step needs at least 3 periods\n")

    def test_repeated_industry_code_in_table_is_2(self, demo_config, tmp_path,
                                                  capsys):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(demo_config.parent, clone)
        path = clone / "icio_1995.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("D24", "D10T12"), encoding="utf-8")
        assert run(clone / "demo.cfg", tmp_path / "o", "embodied") == 2
        assert capsys.readouterr().err == \
            f"error: {path}: repeated industry codes: D10T12\n"

    def test_row_balance_fault_in_table_names_the_file(self, demo_config,
                                                       tmp_path, capsys):
        clone = tmp_path / "clone"
        shutil.copytree(demo_config.parent, clone)
        path = clone / "icio_1995.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("BRA:D24,"))
        head, _, out = lines[row].rpartition(",")
        lines[row] = f"{head},{2 * float(out)!r}\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert run(clone / "demo.cfg", tmp_path / "o", "embodied") == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: row balance violated: BRA:D24 (gap ")

    def test_icio_year_contradicting_config_is_2(self, demo_config, tmp_path,
                                                 capsys):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(demo_config.parent, clone)
        path = clone / "icio_1995.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("#year: 1995\n", "#year: 2007\n"),
                        encoding="utf-8")
        assert run(clone / "demo.cfg", tmp_path / "o", "embodied") == 2
        assert capsys.readouterr().err == \
            f"error: {path}: #year 2007 in a table read for 1995\n"

    @staticmethod
    def append_byte(demo_config, tmp_path, name):
        """A copy of the demo data whose file ``name`` ends in a byte that
        is not UTF-8; returns its config and the path of that file."""
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(demo_config.parent, clone)
        with (clone / name).open("ab") as handle:
            handle.write(b"\xff")
        return clone / "demo.cfg", clone / name

    @pytest.mark.parametrize("runs", [1, 3])
    def test_icio_byte_not_utf8_is_2(self, demo_config, tmp_path, capsys,
                                     runs):
        config, path = self.append_byte(demo_config, tmp_path, "icio_1995.csv")
        # A rejected body is not kept, so every run parses it and fails.
        for _ in range(runs):
            assert run(config, tmp_path / "o", "embodied") == 2
            # 17 countries x 4 industries: the byte starts row 69.
            assert capsys.readouterr().err == \
                f"error: {path} row 69: byte 0xff is not UTF-8\n"

    def test_indicator_byte_not_utf8_is_2(self, demo_config, tmp_path,
                                          capsys):
        config, path = self.append_byte(demo_config, tmp_path,
                                        "indicators.csv")
        line = path.read_bytes().count(b"\n") + 1
        assert run(config, tmp_path / "o", "build-panel") == 2
        assert capsys.readouterr().err == \
            f"error: {path} line {line}: byte 0xff is not UTF-8\n"

    def test_config_byte_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[data]\nyears = 2000\xff\n")
        assert main(["--config", str(path), "stats"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_out_naming_a_file_is_2(self, demo_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert run(demo_config, taken, "stats") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "report"])
    def test_out_naming_a_file_stops_the_run_before_any_work(
            self, demo_config, tmp_path, capsys, monkeypatch, command):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")

        def no_accounts(*args):
            raise AssertionError("solved a year")

        monkeypatch.setattr(workflow, "year_accounts", no_accounts)
        assert run(demo_config, taken, command) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(taken) in err

    def test_emissions_path_that_is_a_directory_is_2(self, demo_config,
                                                      tmp_path, capsys):
        clone = tmp_path / "clone"
        shutil.copytree(demo_config.parent, clone)
        path = clone / "emissions_1995.csv"
        path.unlink()
        path.mkdir()
        assert run(clone / "demo.cfg", tmp_path / "o", "embodied") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_check_failure_is_4(self, demo_config, tmp_path):
        exp = resources.files("gvccarbon") / "expected" / "table5_model1.csv"
        rc = run(demo_config, tmp_path, "regress", "model1", check=str(exp))
        assert rc == 4

    def test_check_pass_is_0(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "regress", "model1") == 0
        payload = load_table(tmp_path, "table5_model1")
        value = parse_cell_number(rows_by_label(payload)["Forward GVC"][0])
        exp = tmp_path / "self.csv"
        exp.write_text(
            "table,row,column,value,tol\n"
            f"table5_model1,Forward GVC,Coefficient,{value!r},1e-9\n",
            encoding="utf-8")
        assert run(demo_config, tmp_path, "regress", "model1",
                   check=exp) == 0


class TestLogBase:
    def test_config_line_changes_the_tables_and_the_config_hash(
            self, demo_config, tmp_path):
        # The config is the one source of the log base, and its hash is in
        # the manifest.
        text = demo_config.read_text(encoding="utf-8")
        text = text.replace("dir = .\n", f"dir = {demo_config.parent}\n", 1)
        assert "log_base = 10\n" in text
        hashes = {}
        for name, line in (("ten", "log_base = 10\n"),
                           ("natural", "log_base = e\n")):
            config = tmp_path / f"{name}.cfg"
            config.write_text(text.replace("log_base = 10\n", line),
                              encoding="utf-8")
            assert run(config, tmp_path / name, "report") == 0
            hashes[name] = json.loads((tmp_path / name / "manifest.json")
                                      .read_text())["config_hash"]
        pinned = pinned_digests(PINNED_REPORT)
        assert digests(tmp_path / "ten", skip={"manifest.json"}) == pinned
        assert digests(tmp_path / "natural", skip={"manifest.json"}) != pinned
        assert hashes["natural"] != hashes["ten"]

    def test_flag_is_2(self, demo_config, tmp_path, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--config", str(demo_config), "--out", str(tmp_path / "o"),
                  "--log-base=e", "stats"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --log-base=e" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestImport:
    # scipy.linalg and scipy.special cost about a quarter second of every
    # command's start-up, and scipy.stats about half a second more. A
    # process loads scipy.linalg at its first LU factorization; the
    # estimators run on numpy alone and their normal p-values come from
    # math.erfc, so nothing loads scipy.special.
    @staticmethod
    def fresh(code):
        """Output of ``code`` run in a new interpreter on this package."""
        src = str(Path(gvccarbon.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_import_leaves_scipy_submodules_out(self):
        code = ("import sys, gvccarbon, gvccarbon.cli, gvccarbon.synthetic\n"
                "print([m for m in ('scipy.linalg', 'scipy.special', "
                "'scipy.stats') if m in sys.modules])")
        assert self.fresh(code) == "[]"

    def test_import_loads_no_process_pool(self):
        # Only save_icio's forked writer needs them, about 18 ms of every
        # command's start-up.
        code = ("import sys, gvccarbon, gvccarbon.cli, gvccarbon.synthetic\n"
                "print([m for m in ('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules])")
        assert self.fresh(code) == "[]"

    def test_estimators_load_no_scipy_submodule(self):
        tests = str(Path(__file__).parent)
        code = ("import sys, warnings\n"
                f"sys.path.insert(0, {tests!r})\n"
                "import numpy as np\n"
                "from _dgp import simulate_ar1_panel\n"
                "from gvccarbon.estimators import (RegressionSpec, "
                "anderson_hsiao, fgls_ar1, ols)\n"
                "warnings.simplefilter('ignore')\n"
                "panel = simulate_ar1_panel(np.random.default_rng(0))\n"
                "spec = RegressionSpec('y', ('x',), "
                "covariance='ar1+panel-heteroscedastic')\n"
                "ols(panel, spec), fgls_ar1(panel, spec)\n"
                "anderson_hsiao(panel, 'y', ('x',), instrumented='x')\n"
                "print(sorted(m for m in sys.modules "
                "if m.startswith('scipy.')))")
        assert self.fresh(code) == "[]"

    @classmethod
    def fresh_run(cls, config, out, *args):
        """Exit code of a command run in a new interpreter, and whether it
        left ``scipy.linalg`` and ``scipy.special`` in ``sys.modules``."""
        argv = ["--config", str(config), "--out", str(out), *args]
        code = ("import contextlib, io, sys\n"
                "from gvccarbon import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = cli.main({argv!r})\n"
                "print(rc, 'scipy.linalg' in sys.modules, "
                "'scipy.special' in sys.modules)")
        return cls.fresh(code)

    def test_report_loads_scipy_linalg_but_not_special(self, cold_demo_config,
                                                       tmp_path):
        assert self.fresh_run(cold_demo_config, tmp_path, "report") == \
            "0 True False"

    @pytest.mark.parametrize("command", ["report", "embodied"])
    def test_warm_command_loads_no_scipy_submodule(self, cold_demo_config,
                                                   tmp_path, command):
        # Every year's accounts are kept by the first run, so the second
        # factors nothing.
        assert self.fresh_run(cold_demo_config, tmp_path / "cold",
                              command) == "0 True False"
        assert self.fresh_run(cold_demo_config, tmp_path / "warm",
                              command) == "0 False False"
        for path in (tmp_path / "cold").iterdir():
            if path.name != "manifest.json":
                assert (tmp_path / "warm" / path.name).read_bytes() == \
                    path.read_bytes(), path.name
