"""Table model, renderers, bundles, and expectation checking."""

import hashlib
import json
import os
import shutil
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from gvccarbon import workflow
from gvccarbon.errors import CheckFailure, SchemaError
from gvccarbon.ingest import load_config, load_icio
from gvccarbon.report import (
    ReportBundle,
    Table,
    check_expectations,
    hash_run_inputs,
    load_expectations,
    parse_cell_number,
    require_expectations,
    split_cell,
    to_csv,
    to_json,
    to_text,
)


def sample_table(name="t1"):
    return Table(
        name=name,
        caption="A caption",
        columns=("Explanatory Variables", "Coefficient"),
        rows=(("x", "0.22** (0.00)"), ("z", "-0.01 (0.24)"),
              ("Wald Chi Square", "190.00")),
        source_ops=("estimators.fgls_ar1",),
        notes=("a note",),
        stacked_p=True,
    )


class TestCellParsing:
    def test_split_cell(self):
        assert split_cell("0.22** (0.00)") == ("0.22**", "(0.00)")
        assert split_cell("190.00") == ("190.00", None)
        assert split_cell("(0.24)") == ("(0.24)", None)

    def test_parse_numbers(self):
        assert parse_cell_number("0.22**") == 0.22
        assert parse_cell_number("0.22** (0.00)") == 0.22
        assert parse_cell_number("(0.24)") == 0.24
        assert parse_cell_number("-0.01* (0.05)") == -0.01
        assert parse_cell_number("16") == 16.0
        with pytest.raises(ValueError):
            parse_cell_number("")

    def test_cell_lookup(self):
        table = sample_table()
        assert table.cell("x", "Coefficient") == "0.22** (0.00)"
        with pytest.raises(KeyError):
            table.cell("nope", "Coefficient")
        with pytest.raises(KeyError):
            table.cell("x", "nope")


class TestRenderers:
    def test_text_stacks_p_values(self):
        text = to_text(sample_table())
        lines = text.splitlines()
        xi = next(i for i, line in enumerate(lines) if line.startswith("x"))
        assert "0.22**" in lines[xi]
        assert "(0.00)" in lines[xi + 1]
        assert any(line.startswith("Note: a note") for line in lines)

    def test_csv_roundtrip_shape(self):
        table = sample_table()
        lines = to_csv(table).splitlines()
        assert lines[0] == "Explanatory Variables,Coefficient"
        assert len(lines) == 1 + len(table.rows)

    def test_json_payload(self):
        payload = json.loads(to_json(sample_table()))
        assert payload["name"] == "t1"
        assert payload["source_ops"] == ["estimators.fgls_ar1"]

    def test_row_width_checked(self):
        with pytest.raises(SchemaError):
            Table("bad", "c", ("a", "b"), (("only-one",),))


class TestBundle:
    def test_duplicate_names_rejected(self):
        bundle = ReportBundle()
        bundle.add(sample_table())
        with pytest.raises(SchemaError):
            bundle.add(sample_table())

    def test_determinism_hash_ignores_nothing_but_timestamp(self, tmp_path):
        bundle = ReportBundle(config_hash="abc")
        bundle.add(sample_table())
        first = bundle.determinism_hash()
        assert first == bundle.determinism_hash()
        other = ReportBundle(config_hash="abc")
        other.add(sample_table("t2"))
        assert other.determinism_hash() != first

    def test_write_produces_three_files_per_table(self, tmp_path):
        bundle = ReportBundle(config_hash="abc")
        bundle.add(sample_table())
        out = bundle.write(tmp_path / "out")
        names = {p.name for p in out.iterdir()}
        assert {"t1.txt", "t1.csv", "t1.json", "manifest.json"} <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["determinism_hash"] == bundle.determinism_hash()
        assert "generated_at" in manifest

    def test_inputs_hashed_in_blocks(self, tmp_path):
        # A 16 MB input must not be read whole: an ICIO table at OECD
        # scale is about 236 MB.
        path = tmp_path / "big.csv"
        data = bytes(range(256)) * (16 * 2**20 // 256)
        path.write_bytes(data)
        config = SimpleNamespace(source_path=None)
        tracemalloc.start()
        try:
            _, inputs = hash_run_inputs(config, [path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inputs == {str(path): hashlib.sha256(data).hexdigest()}
        assert peak < 4 * 2**20

    def test_table_changed_after_its_load_is_hashed_again(self, demo_config,
                                                           tmp_path):
        # cp -p onto a loaded table keeps its inode, size and mtime.
        path = tmp_path / "icio_1995.csv"
        shutil.copy(demo_config.parent / path.name, path)
        load_icio(path)
        data = bytearray(path.read_bytes())
        last_digit = max(data.rfind(d) for d in b"0123456789")
        data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
        before = path.stat()
        time.sleep(0.05)  # past the file system's timestamp tick
        with open(path, "r+b") as handle:
            handle.write(data)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        config = SimpleNamespace(source_path=None)
        _, inputs = hash_run_inputs(config, [path])
        assert inputs == {str(path): hashlib.sha256(data).hexdigest()}

    def test_config_hash_ignores_where_the_data_sits(self, demo_config,
                                                      tmp_path):
        def config_hash(config_path):
            config = load_config(config_path)
            return hash_run_inputs(config, workflow.run_inputs(config))[0]

        copy = shutil.copytree(demo_config.parent, tmp_path / "elsewhere")
        copy_config = copy / demo_config.name
        assert config_hash(copy_config) == config_hash(demo_config)

        config = load_config(copy_config)
        emissions = config.emissions_path(config.years[0])
        data = bytearray(emissions.read_bytes())
        last_digit = max(data.rfind(d) for d in b"0123456789")
        data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
        emissions.write_bytes(bytes(data))
        assert config_hash(copy_config) != config_hash(demo_config)


class TestExpectations:
    def write_exp(self, tmp_path, body):
        path = tmp_path / "exp.csv"
        path.write_text("table,row,column,value,tol\n" + body, encoding="utf-8")
        return path

    def test_pass_and_fail(self, tmp_path):
        tables = {"t1": sample_table()}
        good = load_expectations(
            self.write_exp(tmp_path, "t1,x,Coefficient,0.22,\n"))
        assert check_expectations(tables, good) == []
        bad = load_expectations(
            self.write_exp(tmp_path, "t1,x,Coefficient,0.5,\n"))
        failures = check_expectations(tables, bad)
        assert len(failures) == 1 and "0.5" in failures[0]

    def test_tolerance_column(self, tmp_path):
        tables = {"t1": sample_table()}
        wide = load_expectations(
            self.write_exp(tmp_path, "t1,x,Coefficient,0.5,1.0\n"))
        assert check_expectations(tables, wide) == []

    def test_missing_table_and_cell_reported(self, tmp_path):
        # A cell that reads nan fails, though abs(nan - 1) > tol is False.
        tables = {"t1": sample_table(),
                  "t2": Table("t2", "c", ("Variable", "Mean"), (("x", "nan"),))}
        exp = load_expectations(self.write_exp(
            tmp_path, "zz,x,Coefficient,1,\nt1,nope,Coefficient,1,\n"
                      "t2,x,Mean,1,\n"))
        failures = check_expectations(tables, exp)
        assert len(failures) == 3
        assert failures[2] == ("t2['x', 'Mean']: got nan, expected 1 "
                               "(tolerance 0.005)")

    def test_require_raises_checkfailure(self, tmp_path):
        path = self.write_exp(tmp_path, "t1,x,Coefficient,9.9,\n")
        with pytest.raises(CheckFailure):
            require_expectations({"t1": sample_table()}, path)

    def test_shipped_expectation_files_parse(self):
        from importlib import resources

        base = resources.files("gvccarbon") / "expected"
        files = [p for p in base.iterdir() if p.name.endswith(".csv")]
        assert len(files) >= 7
        for p in files:
            rows = load_expectations(p)
            assert rows, f"{p.name} is empty"
