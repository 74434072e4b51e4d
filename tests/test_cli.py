"""End-to-end command-line runs on the bundled synthetic dataset."""

import json
from importlib import resources

import pytest

from gvccarbon import mrio, workflow
from gvccarbon.cli import main
from gvccarbon.ingest import load_config
from gvccarbon.report import parse_cell_number

pytestmark = pytest.mark.filterwarnings(
    "ignore::gvccarbon.errors.WeakInstrument")


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

    def test_cell_traceable_to_library(self, demo_config, tmp_path):
        assert run(demo_config, tmp_path, "regress", "model1") == 0
        payload = load_table(tmp_path, "table5_model1")
        assert "estimators.fgls_ar1" in payload["source_ops"]
        config = load_config(demo_config)
        panel = workflow.regression_panel(config, workflow.base_panel(config))
        table = workflow.quadratic_model_table(config, panel, "model1")
        assert list(table.rows[0]) == payload["rows"][0]


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

    def test_nonproductive_economy_is_3(self, demo_config, tmp_path,
                                        monkeypatch, capsys):
        # Validated ingestion cannot produce A with spectral radius above
        # one, so scale every coefficient up after it.
        real = mrio.build_coefficients

        def inflated(icio):
            model = real(icio)
            return mrio.LeontiefModel(model.countries, model.industries,
                                      model.A * 10.0)

        monkeypatch.setattr(mrio, "build_coefficients", inflated)
        assert run(demo_config, tmp_path, "embodied") == 3
        assert "not productive" in capsys.readouterr().err

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
