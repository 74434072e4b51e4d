"""File loaders, serializers, and run configuration."""

import concurrent.futures
import contextlib
import csv
import hashlib
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import _oracle
from _dgp import simulate_dynamic_panel
from gvccarbon import ingest, synthetic
from gvccarbon.errors import (
    BalanceError,
    ConfigError,
    DuplicateKey,
    MissingRow,
    NegativeEmission,
    SchemaError,
    UnknownVariableName,
)
from gvccarbon.estimators import (
    COVARIANCE_SCHEMES,
    INSTRUMENT_VARIANTS,
    LAGGED_DIFFERENCE,
    RegressionSpec,
    anderson_hsiao,
)
from gvccarbon.mrio import IcioTable, build_coefficients, per_output
from gvccarbon.report import Table, load_expectations, write_tables


TOY_ICIO = """#countries: AAA,BBB
#industries: MFG
#year: 2005
row,AAA:MFG,BBB:MFG,FD:AAA,FD:BBB,OUT
AAA:MFG,20,30,45,5,100
BBB:MFG,10,40,10,40,100
"""


@pytest.fixture
def toy_icio(tmp_path):
    path = tmp_path / "icio_2005.csv"
    path.write_text(TOY_ICIO, encoding="utf-8")
    return path


class TestLoadIcio:
    def test_minimal_schema(self, toy_icio):
        table = ingest.load_icio(toy_icio)
        assert table.countries == ("AAA", "BBB")
        assert table.industries == ("MFG",)
        assert table.year == 2005
        assert_allclose(table.Z, [[20.0, 30.0], [10.0, 40.0]])
        assert_allclose(table.F, [[45.0, 5.0], [10.0, 40.0]])
        assert_allclose(table.x, [100.0, 100.0])

    def test_balance_violation_names_row(self, tmp_path):
        bad = TOY_ICIO.replace("AAA:MFG,20,30,45,5,100",
                               "AAA:MFG,20,30,45,5,101")
        path = tmp_path / "bad.csv"
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(BalanceError, match="AAA:MFG"):
            ingest.load_icio(path)

    def test_column_count_mismatch(self, tmp_path):
        bad = TOY_ICIO.replace("AAA:MFG,20,30,45,5,100", "AAA:MFG,20,30,45,5")
        path = tmp_path / "bad.csv"
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(SchemaError, match="columns"):
            ingest.load_icio(path)

    def test_locale_independent_numbers(self, tmp_path):
        bad = TOY_ICIO.replace("AAA:MFG,20,30,45,5,100",
                               'AAA:MFG,"1,234",30,45,5,100')
        path = tmp_path / "bad.csv"
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(SchemaError, match="cannot parse"):
            ingest.load_icio(path)

    def test_round_trip_through_coefficients(self, toy_icio):
        table = ingest.load_icio(toy_icio)
        assert_allclose(np.eye(2) - build_coefficients(table),
                        [[0.2, 0.3], [0.1, 0.4]])

    def test_load_save_load_byte_stable(self, tmp_path, toy_icio):
        table = ingest.load_icio(toy_icio)
        first = tmp_path / "first.csv"
        ingest.save_icio(table, first)
        second = tmp_path / "second.csv"
        ingest.save_icio(ingest.load_icio(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_random_table_survives_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        table = synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S"),
                                      year=1999)
        path = tmp_path / "t.csv"
        ingest.save_icio(table, path)
        loaded = ingest.load_icio(path)
        assert_allclose(loaded.Z, table.Z, rtol=0, atol=0)
        assert_allclose(loaded.x, table.x, rtol=0, atol=0)
        assert loaded.year == 1999


def _write(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    return path


def _raises_exactly(path, message):
    """``load_icio`` raises exactly ``message``."""
    with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
        ingest.load_icio(path)


class TestLoadIcioErrors:
    """Every rejection names the file and, for body faults, the row."""

    def test_row_label_mismatch(self, tmp_path):
        path = _write(tmp_path, TOY_ICIO.replace("BBB:MFG,10,", "BBX:MFG,10,"))
        _raises_exactly(path, f"{path} row 2: label 'BBX:MFG', "
                              "expected 'BBB:MFG'")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_token(self, tmp_path, token):
        path = _write(tmp_path, TOY_ICIO.replace("BBB:MFG,10,40,",
                                                 f"BBB:MFG,10,{token},"))
        _raises_exactly(path, f"{path} row BBB:MFG: non-finite value "
                              f"{token!r}")

    def test_row_holding_only_its_label(self, tmp_path):
        path = _write(tmp_path, TOY_ICIO.replace("AAA:MFG,20,30,45,5,100",
                                                 "AAA:MFG,"))
        # np.loadtxt finds no data in such a row, and must not warn about
        # it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _raises_exactly(path, f"{path} row 1: 2 columns, expected 6")

    def test_too_few_data_rows(self, tmp_path):
        path = _write(tmp_path, TOY_ICIO.replace("BBB:MFG,10,40,10,40,100\n",
                                                 ""))
        _raises_exactly(path, f"{path}: expected 2 data rows, found 1")

    def test_too_many_data_rows(self, tmp_path):
        path = _write(tmp_path, TOY_ICIO + "BBB:MFG,10,40,10,40,100\n")
        _raises_exactly(path, f"{path}: expected 2 data rows, found 3")

    def test_header_mismatch(self, tmp_path):
        path = _write(tmp_path, TOY_ICIO.replace("FD:BBB,OUT", "FD:CCC,OUT"))
        _raises_exactly(path, f"{path}: header must declare 6 columns "
                              "(row, one per country-industry, one FD per "
                              "country, OUT)")

    def test_token_outside_ascii_decimal_format(self, tmp_path):
        # float() accepts "1_000"; the documented format does not.
        path = _write(tmp_path, TOY_ICIO.replace("AAA:MFG,20,30,45,5,100",
                                                 "AAA:MFG,20,30,45,5,1_00"))
        _raises_exactly(path, f"{path} row AAA:MFG: cannot parse '1_00' as "
                              "a number")

    def test_full_width_digits_name_their_row(self, tmp_path):
        path = _write(tmp_path, TOY_ICIO.replace(
            "BBB:MFG,10,", "BBB:MFG,\uff11\uff10,"))
        _raises_exactly(path, f"{path} row BBB:MFG: cannot parse "
                              "'\uff11\uff10' as a number")

    def test_cell_longer_than_the_csv_field_limit(self, tmp_path):
        # 200,000 digits read as inf, and csv.reader refuses the line; the
        # row is named all the same.
        path = _write(tmp_path, TOY_ICIO.replace(
            "BBB:MFG,10,", "BBB:MFG,1" + "0" * 200_000 + ","))
        _raises_exactly(path, f"{path} row 2: field larger than field limit "
                              f"({csv.field_size_limit()})")

    def test_missing_countries_line(self, tmp_path):
        path = _write(tmp_path, TOY_ICIO.replace("#countries: AAA,BBB\n", ""))
        _raises_exactly(path, f"{path}: metadata line '#countries:' is "
                              "required")

    @pytest.mark.parametrize("key, text", [
        ("countries", "#countries:\n#industries: MFG\nrow,OUT\n"),
        ("industries", "#countries: AAA\n#industries: ,\nrow,FD:AAA,OUT\n"),
    ])
    def test_metadata_line_listing_no_code(self, tmp_path, key, text):
        # The header matches the empty code list, so the body would be
        # blamed if the metadata were not checked first.
        path = _write(tmp_path, text)
        _raises_exactly(path, f"{path}: metadata line '#{key}:' lists no "
                              "code")

    @pytest.mark.parametrize("key, line, repeat, second", [
        ("countries", "#countries: AAA,BBB\n", "#countries: AAA\n", 2),
        ("industries", "#industries: MFG\n", "#industries: MFG\n", 3),
        ("year", "#year: 2005\n", "#year: 2006\n", 4),
    ])
    def test_repeated_metadata_line(self, tmp_path, key, line, repeat,
                                    second):
        # If the last line won, a second '#countries: AAA' would load the
        # table as one country, and a second '#year:' as that year.
        path = _write(tmp_path, TOY_ICIO.replace(line, line + repeat))
        first = second - 1
        _raises_exactly(path, f"{path}: metadata line '#{key}:' on line "
                              f"{first} is repeated on line {second}")

    def test_other_comment_lines_are_ignored(self, tmp_path):
        path = _write(tmp_path, "# source: test\n# source: again\n#\n"
                                + TOY_ICIO)
        assert ingest.load_icio(path).countries == ("AAA", "BBB")


def _reference_arrays(path):
    """Z, F and x parsed with csv.reader and one float() per token."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
    n = sum(1 for name in rows[0] if name.startswith("FD:"))
    values = np.array([[float(tok) for tok in row[1:]] for row in rows[1:]])
    nk = len(values)
    return values[:, :nk], values[:, nk:nk + n], values[:, -1]


#: A unit as the loader gives it back: no blanks at either end, and no line
#: end, but commas, double quotes and inner spaces.
_UNIT = st.text(st.one_of(st.sampled_from(' ,"'), st.characters(
    blacklist_categories=("Cs", "Cc", "Zl", "Zp"))), max_size=12).map(str.strip)
_SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2e-308)
_Z_CELL = st.one_of(st.sampled_from([0.0, -0.0]), _SUBNORMAL,
                    st.floats(min_value=0.0, max_value=1e300))
_F_CELL = st.one_of(_Z_CELL, _SUBNORMAL.map(lambda v: -v),
                    st.floats(min_value=-1e300, max_value=0.0))


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    nk = n * k
    Z = np.array(draw(st.lists(_Z_CELL, min_size=nk * nk, max_size=nk * nk)))
    Z = Z.reshape(nk, nk)
    F = np.array(draw(st.lists(_F_CELL, min_size=nk * n, max_size=nk * n)))
    F = F.reshape(nk, n)
    # The first final-demand column covers twice every negative final
    # demand and the row's column sum of Z, so gross output and value
    # added stay nonnegative through round-off.
    F[:, 0] = (2 * np.abs(F[:, 1:]).sum(axis=1) + Z.sum(axis=0)
               + np.array(draw(st.lists(_Z_CELL, min_size=nk, max_size=nk))))
    x = Z.sum(axis=1) + F.sum(axis=1)
    countries = tuple(f"C{i}" for i in range(n))
    industries = tuple(f"S{i}" for i in range(k))
    return IcioTable(countries, industries, Z, F, x, year=2000)


@settings(max_examples=60, deadline=None)
@given(table=_tables(), data=st.data())
def test_load_matches_per_token_float_parse(table, data):
    # The table's emissions, saved and loaded with it, give the intensities
    # per_output gives: up to a tonne per unit of output, and any tonnes
    # where there is no output.
    drawn = np.array(data.draw(st.lists(st.floats(0.0, 1.0),
                                        min_size=len(table.x),
                                        max_size=len(table.x))))
    tonnes = np.where(table.x > 0, table.x * drawn, drawn)
    with tempfile.TemporaryDirectory() as tmp:
        path, emissions = Path(tmp) / "icio.csv", Path(tmp) / "emissions.csv"
        ingest.save_icio(table, path)
        ingest.save_emissions(table, tonnes, emissions)
        loaded = ingest.load_icio(path)
        intensity = ingest.load_emissions_vector(emissions, loaded)
        Z, F, x = _reference_arrays(path)
    for got, want in ((loaded.Z, Z), (loaded.F, F), (loaded.x, x),
                      (loaded.va, x - Z.sum(axis=0))):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(intensity.e, per_output(tonnes, table.x))


@contextlib.contextmanager
def _counting_parses():
    """Yields the list of the paths whose body ``load_icio`` parses."""
    parsed, parse_body = [], ingest._parse_body

    def parse(path, *args):
        parsed.append(path)
        return parse_body(path, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_body", parse)
        yield parsed


@contextlib.contextmanager
def _split_into(count):
    """Make ``save_icio`` cut the rows of any table into up to ``count``
    spans."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "MIN_SPAN_BYTES", 1)
        patch.setattr(ingest, "_usable_cpus", lambda: count)
        yield


@contextlib.contextmanager
def _parsed_in_chunks_of(rows):
    """Make ``load_icio`` parse every body, ``rows`` data rows at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_ROWS", rows)
        patch.setattr(ingest, "_cached_array", lambda *args: None)
        yield


@settings(max_examples=40, deadline=None)
@given(table=_tables(), newline=st.sampled_from(["\n", "\r\n", "\r"]),
       blanks=st.lists(st.integers(0, 3), max_size=10))
def test_every_span_count_matches_per_token_float_parse(table, newline,
                                                        blanks):
    # A table written in 1 to 4 spans, then given other line ends and runs
    # of blank lines, loads as per-token float() reads it. The first load
    # parses the body and the next three read the body it kept; three more
    # parse it again, in chunks of 1, 2 and 3 rows.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "icio.csv"
        loads = []
        for count in (1, 2, 3, 4):
            with _split_into(count):
                ingest.save_icio(table, path)
            saved = path.read_text(encoding="utf-8").splitlines()
            lines = saved[:4]  # three metadata lines and the header
            # blanks[i] blank lines before data row i (i == NK: after the last)
            for i, row in enumerate(saved[4:] + [None]):
                lines += [""] * (blanks[i] if i < len(blanks) else 0)
                if row is not None:
                    lines.append(row)
            path.write_bytes((newline.join(lines) + newline).encode("ascii"))
            loads.append(ingest.load_icio(path))
        for rows in (1, 2, 3):
            with _parsed_in_chunks_of(rows):
                loads.append(ingest.load_icio(path))
        Z, F, x = _reference_arrays(path)
    for loaded in loads:
        for got, want in ((loaded.Z, Z), (loaded.F, F), (loaded.x, x)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


SPLIT_TABLE = synthetic.random_icio(np.random.default_rng(5),
                                    ("AAA", "BBB", "CCC"),
                                    ("AGR", "MFG", "SRV"), year=2005)


@contextlib.contextmanager
def _no_process():
    """CPUs and a span size that would cut any body, and no way to start a
    process."""
    def no_process(*args, **kwargs):
        raise AssertionError("started a process")

    with _split_into(4), pytest.MonkeyPatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
        patch.setattr(os, "fork", no_process)
        yield


class TestBodyParse:
    def write(self, tmp_path, edit=lambda lines: lines):
        path = tmp_path / "icio.csv"
        ingest.save_icio(SPLIT_TABLE, path)
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return path

    # Each fault of TestLoadIcioErrors, placed in the last data row, and the
    # message it raises after the file's path.
    LAST_ROW_FAULTS = {
        "label": (lambda cells: ["CCX:SRV"] + cells[1:],
                  " row 9: label 'CCX:SRV', expected 'CCC:SRV'"),
        "nan": (lambda cells: cells[:2] + ["nan"] + cells[3:],
                " row CCC:SRV: non-finite value 'nan'"),
        "short row": (lambda cells: cells[:-1],
                      " row 9: 13 columns, expected 14"),
        "extra row": (lambda cells: cells + ["\n" + ",".join(cells)],
                      ": expected 9 data rows, found 10"),
        "1_00": (lambda cells: cells[:-1] + ["1_00"],
                 " row CCC:SRV: cannot parse '1_00' as a number"),
    }

    def write_fault(self, tmp_path, fault, row=9, *faults):
        """The table with ``fault`` in data row ``row``, and each further
        ``(fault, row)`` pair of ``faults``."""
        def edit(lines):
            for kind, at in ((fault, row), *faults):
                cells = self.LAST_ROW_FAULTS[kind][0](lines[3 + at].split(","))
                lines[3 + at] = ",".join(cells).replace(",\n", "\n")
            return lines

        return self.write(tmp_path, edit)

    @pytest.mark.parametrize("fault", sorted(LAST_ROW_FAULTS))
    def test_fault_in_last_row_is_named(self, tmp_path, fault):
        path = self.write_fault(tmp_path, fault)
        with _no_process():
            _raises_exactly(path, f"{path}{self.LAST_ROW_FAULTS[fault][1]}")

    @pytest.mark.parametrize("row", [1, 4, 5])
    @pytest.mark.parametrize("fault", sorted(LAST_ROW_FAULTS))
    def test_fault_at_a_chunk_boundary_is_named_as_in_one_chunk(
            self, tmp_path, fault, row):
        # In chunks of 4 rows: the first row, the last row of the first
        # chunk, and the first row of the second.
        path = self.write_fault(tmp_path, fault, row)
        with _parsed_in_chunks_of(len(SPLIT_TABLE.x)), \
                pytest.raises(SchemaError) as whole:
            ingest.load_icio(path)
        with _parsed_in_chunks_of(4):
            _raises_exactly(path, str(whole.value))

    def test_non_finite_value_in_an_earlier_chunk_is_named_first(
            self, tmp_path):
        path = self.write_fault(tmp_path, "1_00", 9, ("nan", 1))
        for rows in (1, 2, 4):
            with _parsed_in_chunks_of(rows):
                _raises_exactly(path, f"{path} row AAA:AGR: non-finite "
                                      "value 'nan'")

    def test_rows_past_the_last_label_are_all_counted(self, tmp_path):
        path = self.write(tmp_path, lambda lines: lines + lines[-2:])
        for rows in (1, 4, 32):
            with _parsed_in_chunks_of(rows):
                _raises_exactly(path, f"{path}: expected 9 data rows, "
                                      "found 11")

    def test_load_starts_no_process(self, tmp_path):
        path = self.write(tmp_path)
        with _no_process():
            loaded = ingest.load_icio(path)
        Z, F, x = _reference_arrays(path)
        for got, want in ((loaded.Z, Z), (loaded.F, F), (loaded.x, x)):
            assert got.tobytes() == want.tobytes()

    def test_faulty_body_is_parsed_once(self, tmp_path):
        # The fault is in the last of three chunks: the file is opened once,
        # and no row is handed to np.loadtxt twice.
        path = self.write_fault(tmp_path, "1_00")
        opened, rows = [], []
        path_open, loadtxt = Path.open, np.loadtxt

        def counted_open(self, *args, **kwargs):
            opened.append(self)
            return path_open(self, *args, **kwargs)

        def counted_loadtxt(lines, *args, **kwargs):
            def seen():
                for line in lines:
                    rows.append(line)
                    yield line
            return loadtxt(seen(), *args, **kwargs)

        head, labels = ingest.read_icio_head(path), SPLIT_TABLE.row_labels()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_ROWS", 4)
            patch.setattr(Path, "open", counted_open)
            patch.setattr(ingest.np, "loadtxt", counted_loadtxt)
            with pytest.raises(SchemaError, match="row CCC:SRV: cannot parse"):
                ingest._parse_body(path, head.body_start, labels,
                                   len(labels) + len(head.countries) + 2)
        assert opened == [path]
        assert len(rows) == len(set(rows)) == len(labels)


class TestBlankLinesAndLineEnds:
    # A body written in spans, with line ends and blank lines placed across
    # the boundaries of 2-row chunks, loads whole in one parse.
    def write(self, tmp_path, edit=lambda lines: lines, newline="\n"):
        path = tmp_path / "icio.csv"
        with _split_into(4):
            ingest.save_icio(SPLIT_TABLE, path)
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_bytes((newline.join(lines) + newline).encode("ascii"))
        return path

    def test_blank_run_before_the_last_row_loads_whole(self, tmp_path):
        # Blank lines before the last row, more bytes than every other data
        # row together, hold the middle of the body.
        def blank_run(lines):
            return lines[:-1] + [""] * 2000 + lines[-1:]

        (tmp_path / "whole").mkdir()
        whole = ingest.load_icio(self.write(tmp_path / "whole"))
        path = self.write(tmp_path, blank_run)
        with _no_process(), _counting_parses() as parsed, \
                _parsed_in_chunks_of(2):
            blanks = ingest.load_icio(path)
        assert parsed == [path]
        for got, want in ((blanks.Z, whole.Z), (blanks.F, whole.F),
                          (blanks.x, whole.x)):
            assert got.tobytes() == want.tobytes()

    def test_carriage_return_lines_load_whole(self, tmp_path):
        path = self.write(tmp_path, newline="\r")
        with _no_process(), _counting_parses() as parsed, \
                _parsed_in_chunks_of(2):
            loaded = ingest.load_icio(path)
        assert parsed == [path]
        assert loaded.Z.tobytes() == SPLIT_TABLE.Z.tobytes()


def test_failing_load_holds_no_copy_of_the_text(tmp_path):
    # The fault sits in the last row, so the parse reads the whole body
    # before it fails and the fault is then found by streaming the file.
    table = synthetic.random_icio(np.random.default_rng(3),
                                  [f"C{i}" for i in range(20)],
                                  [f"S{j}" for j in range(17)])
    path = tmp_path / "icio.csv"
    ingest.save_icio(table, path)
    text = path.read_bytes()
    head, _, last = text[:-1].rpartition(b"\n")
    path.write_bytes(head + b"\n" + last.rpartition(b",")[0] + b",x\n")
    values = table.Z.nbytes + table.F.nbytes + table.x.nbytes
    assert len(text) > 2 * values  # so a copy of the text breaks the bound
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match="row C19:S16: cannot parse"):
            ingest.load_icio(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * values


@settings(max_examples=30, deadline=None)
@given(table=_tables())
def test_every_write_span_count_matches_per_cell_writer(table):
    expected = _oracle.icio_bytes(table)
    in_spans, jobs = ingest._in_spans, []

    def counted(work, args):
        if work is ingest._format_rows:
            jobs.append(len(args))
        return in_spans(work, args)

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_in_spans", counted)
        path = Path(tmp) / "icio.csv"
        for count in (1, 2, 3, 4):
            with _split_into(count):
                ingest.save_icio(table, path)
            assert path.read_bytes() == expected
            loaded = ingest.load_icio(path)
            # Bitwise the table's values, sign bits included, except that a
            # zero of either sign is written as 0 and reads back as +0.0.
            for got, want in ((loaded.Z, table.Z), (loaded.F, table.F),
                              (loaded.x, table.x)):
                assert got.tobytes() == (want + 0.0).tobytes()
    nk = len(table.x)
    assert jobs == [min(count, nk) for count in (1, 2, 3, 4)]


def test_write_error_in_a_worker_leaves_the_target(tmp_path):
    path = tmp_path / "icio.csv"
    path.write_bytes(b"earlier contents\n")
    last = float(SPLIT_TABLE.x[-1])
    fmt = ingest._fmt

    def failing(value):
        if value == last:
            raise RuntimeError(f"formatter failed in process {os.getpid()}")
        return fmt(value)

    with pytest.MonkeyPatch.context() as patch, _split_into(4):
        patch.setattr(ingest, "_fmt", failing)
        with pytest.raises(RuntimeError, match="formatter failed") as caught:
            ingest.save_icio(SPLIT_TABLE, path)
    assert str(os.getpid()) not in str(caught.value)  # raised in a worker
    assert path.read_bytes() == b"earlier contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["icio.csv"]


def test_failed_write_removes_its_temp_file(tmp_path):
    path = tmp_path / "icio.csv"
    path.write_bytes(b"earlier contents\n")
    with pytest.raises(TypeError):
        ingest._atomic_write(path, "first part\n", None)
    assert path.read_bytes() == b"earlier contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["icio.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_the_mode_open_gives(tmp_path, umask, mode):
    earlier = os.umask(umask)
    try:
        path = tmp_path / "icio.csv"
        ingest.save_icio(SPLIT_TABLE, path)
        ingest.load_icio(path)
        entries = sorted((tmp_path / ingest.CACHE_DIR).iterdir())
        out = write_tables([Table("t1", "caption", ("a",), (("1",),))],
                           tmp_path / "out")
    finally:
        os.umask(earlier)
    # The kept body and the table's digest entry.
    assert [p.suffix for p in entries] == [".npy", ".sha256"]
    for written in (path, *entries, out / "t1.csv"):
        assert stat.S_IMODE(written.stat().st_mode) == mode, written.name


class TestParsedBodyCache:
    def write(self, tmp_path, table=SPLIT_TABLE, name="icio.csv"):
        path = tmp_path / name
        ingest.save_icio(table, path)
        return path

    @staticmethod
    def entries(path):
        """The names in the cache beside ``path``, temp files and other
        leftovers included, but not the digest entries, which every table
        has and TestDigestEntries covers."""
        cache = path.parent / ingest.CACHE_DIR
        return sorted(p.name for p in cache.iterdir()
                      if p.suffix != ".sha256") if cache.exists() else []

    def test_hit_is_bitwise_the_parse(self, tmp_path):
        path = self.write(tmp_path)
        with _counting_parses() as parsed:
            first = ingest.load_icio(path)
            second = ingest.load_icio(path)
        assert parsed == [path]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert self.entries(path) == [f"icio.csv.{digest}.v1.npy"]
        for name in ("Z", "F", "x", "va"):
            assert getattr(second, name).tobytes() == \
                getattr(first, name).tobytes()
        assert (second.countries, second.industries, second.year) == \
            (first.countries, first.industries, first.year) == \
            (("AAA", "BBB", "CCC"), ("AGR", "MFG", "SRV"), 2005)

    def test_key_is_the_content_not_size_and_mtime(self, tmp_path):
        path = self.write(tmp_path)
        ingest.load_icio(path)
        text = path.read_text(encoding="ascii")
        # The last digit of a long first cell of the first data row.
        token = re.search(r"\n[^,]+,([0-9]+\.[0-9]{10,})[,\n]", text)
        digit = token.end(1) - 1
        new = "1" if text[digit] != "1" else "2"
        stat = path.stat()
        path.write_text(text[:digit] + new + text[digit + 1:],
                        encoding="ascii")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        with _counting_parses() as parsed:
            loaded = ingest.load_icio(path)
        assert parsed == [path]
        value = float(token.group(1)[:-1] + new)
        assert loaded.Z[0, 0] == value != SPLIT_TABLE.Z[0, 0]
        assert len(self.entries(path)) == 1

    @pytest.mark.parametrize("spoil", [
        "empty", "truncated", "garbage", "zip", "wrong shape", "float32",
        "object dtype"])
    def test_unreadable_entry_is_parsed_and_kept_again(self, tmp_path,
                                                       spoil):
        path = self.write(tmp_path)
        ingest.load_icio(path)
        [name] = self.entries(path)
        entry = tmp_path / ingest.CACHE_DIR / name
        kept = entry.read_bytes()
        if spoil == "wrong shape":
            np.save(entry, np.load(entry)[:, :-1])
        elif spoil == "float32":
            np.save(entry, np.load(entry).astype(np.float32))
        elif spoil == "object dtype":
            np.save(entry, np.array([[1.0, "a"]], dtype=object))
        else:
            entry.write_bytes({"empty": b"", "truncated": kept[:len(kept) // 2],
                               "garbage": b"not an array\n",
                               "zip": b"PK\x03\x04not a zip\n"}[spoil])
        with _counting_parses() as parsed:
            loaded = ingest.load_icio(path)
        assert parsed == [path]
        assert loaded.Z.tobytes() == SPLIT_TABLE.Z.tobytes()
        assert entry.read_bytes() == kept
        assert self.entries(path) == [name]

    def test_new_bytes_replace_the_entry_of_their_file_only(self, tmp_path):
        path = self.write(tmp_path)
        other = self.write(tmp_path, name="icio.csv.bak")
        ingest.load_icio(path)
        ingest.load_icio(other)
        table = synthetic.random_icio(np.random.default_rng(6),
                                      ("AAA", "BBB"), ("MFG",), year=2006)
        ingest.save_icio(table, path)
        ingest.load_icio(path)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (path, other)]
        assert self.entries(path) == sorted(
            f"{p.name}.{digest}.v1.npy" for p, digest in zip((path, other),
                                                               digests))

    def test_table_replaced_during_the_load_keeps_no_entry(self, tmp_path):
        path = self.write(tmp_path)
        newer = synthetic.random_icio(np.random.default_rng(6),
                                      ("AAA", "BBB"), ("MFG",), year=2006)
        parse_body = ingest._parse_body

        def parse_then_replace(*args):
            values = parse_body(*args)
            ingest.save_icio(newer, path)
            return values

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_parse_body", parse_then_replace)
            loaded = ingest.load_icio(path)
        assert loaded.Z.tobytes() == SPLIT_TABLE.Z.tobytes()
        assert self.entries(path) == []
        assert ingest.load_icio(path).Z.tobytes() == newer.Z.tobytes()

    @pytest.mark.parametrize("error", [OSError, PermissionError])
    def test_failed_write_keeps_the_table_and_no_file(self, tmp_path, error):
        path = self.write(tmp_path)

        def failing_save(handle, values, **options):
            handle.write(b"\x93NUMPY")
            raise error("no room")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest.np, "save", failing_save)
            loaded = ingest.load_icio(path)
        assert loaded.Z.tobytes() == SPLIT_TABLE.Z.tobytes()
        assert self.entries(path) == []

    @pytest.mark.parametrize("out, error", [
        ("1_00", SchemaError), ("101", BalanceError),
    ], ids=["body fault", "row balance"])
    def test_rejected_table_keeps_no_entry(self, tmp_path, out, error):
        path = _write(tmp_path, TOY_ICIO.replace("AAA:MFG,20,30,45,5,100",
                                                 "AAA:MFG,20,30,45,5," + out))
        with pytest.raises(error, match="^" + re.escape(str(path))):
            ingest.load_icio(path)
        assert self.entries(path) == []


def _digest_entry(path):
    return path.parent / ingest.CACHE_DIR / f"{path.name}.sha256"


def _age(entry, by=ingest.TIMESTAMP_STEP_NS + 1):
    """Move the mtime of ``entry`` forward ``by`` ns, as if it had been
    written that much later."""
    later = entry.stat().st_mtime_ns + by
    os.utime(entry, ns=(later, later))


@contextlib.contextmanager
def _counting_hashes():
    """Yields the list of the paths ``_file_sha256`` reads."""
    hashed, file_sha256 = [], ingest._file_sha256

    def count(path):
        hashed.append(Path(path))
        return file_sha256(path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_file_sha256", count)
        yield hashed


def _rewrite_byte(path, offset):
    """Change the byte at ``offset`` of ``path`` in place and restore the
    file's mtime, so that only its ctime tells. On a kernel whose file
    timestamps are coarse, a change within one tick of the file's last one
    keeps the ctime; the file is touched until it moves, as it would have
    by the time a trusted entry existed."""
    before = path.stat()
    with open(path, "r+b") as handle:
        handle.seek(offset)
        old = handle.read(1)
        handle.seek(offset)
        handle.write(b"1" if old != b"1" else b"2")
    times = (before.st_atime_ns, before.st_mtime_ns)
    os.utime(path, ns=times)
    while path.stat().st_ctime_ns == before.st_ctime_ns:
        os.utime(path, ns=times)
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
        (before.st_ino, before.st_size, before.st_mtime_ns)


@contextlib.contextmanager
def _later_run():
    """A later run, modelled as another writer: one that did not write the
    entries already there, so trusts them only under the racy rule."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_WRITER", os.urandom(8).hex())
        yield


def _make_racy(path):
    """Put the mtime of the digest entry of ``path`` back to the file's last
    change, so that only its writer may trust it, however slow the run."""
    stat = path.stat()
    changed = max(stat.st_mtime_ns, stat.st_ctime_ns)
    os.utime(_digest_entry(path), ns=(changed, changed))


class TestDigestEntries:
    TEXT = "country,industry,tonnes\nAAA,MFG,1.5\n"

    def write(self, directory, text=TEXT):
        path = Path(directory) / "emissions.csv"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="ascii")
        return path

    @staticmethod
    def fresh(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @staticmethod
    def line(stamp, sha256, writer=None):
        """The text of a digest entry, by this process unless ``writer``."""
        stamp = " ".join(map(str, stamp))
        return f"{writer or ingest._WRITER} {stamp} {sha256}\n"

    def test_aged_entry_is_read_in_place_of_the_file(self, tmp_path):
        path = self.write(tmp_path)
        with _counting_hashes() as hashed:
            stamp, sha256 = ingest._hash_input(path)
            _age(_digest_entry(path))
            with _later_run():
                assert ingest._hash_input(path) == (stamp, sha256)
        assert hashed == [path]
        assert sha256 == self.fresh(path)
        assert _digest_entry(path).read_text(encoding="ascii") == \
            self.line(stamp, sha256)

    def test_racy_entry_this_process_wrote_is_trusted(self, tmp_path):
        path = self.write(tmp_path)
        with _counting_hashes() as hashed:
            stamp, sha256 = ingest._hash_input(path)
            _make_racy(path)
            assert ingest._hash_input(path) == (stamp, sha256)
            _rewrite_byte(path, len(self.TEXT) - 2)
            _, rewritten = ingest._hash_input(path)
        assert hashed == [path, path]
        assert rewritten == self.fresh(path) != sha256

    def test_fresh_process_hashes_again_under_its_own_writer(self, tmp_path):
        path = self.write(tmp_path)
        stamp, sha256 = ingest._hash_input(path)
        _make_racy(path)
        code = ("import sys\nfrom gvccarbon import ingest\nhashed = []\n"
                "file_sha256 = ingest._file_sha256\n"
                "ingest._file_sha256 = lambda p: hashed.append(p) or "
                "file_sha256(p)\n"
                "print(ingest._WRITER, *ingest._hash_input(sys.argv[1])[1:], "
                "len(hashed))")
        src = str(Path(ingest.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code, str(path)],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        writer, digest, count = out.stdout.split()
        assert (digest, count) == (sha256, "1") and writer != ingest._WRITER
        assert _digest_entry(path).read_text(encoding="ascii") == \
            self.line(stamp, sha256, writer)
        # Its entry is racy and not this process's: hashed here once more.
        _make_racy(path)
        with _counting_hashes() as hashed:
            assert ingest._hash_input(path) == (stamp, sha256)
        assert hashed == [path]
        assert _digest_entry(path).read_text(encoding="ascii") == \
            self.line(stamp, sha256)

    def test_entry_a_forked_child_wrote_is_trusted(self, tmp_path):
        path = self.write(tmp_path)
        pid = os.fork()
        if pid == 0:  # the child hashes the file and writes its entry
            code = 1
            try:
                ingest._hash_input(path)
                code = 0
            finally:
                os._exit(code)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        stamp = ingest._STAMP(path.stat())
        assert _digest_entry(path).read_text(encoding="ascii") == \
            self.line(stamp, self.fresh(path))
        _make_racy(path)
        with _counting_hashes() as hashed:
            assert ingest._hash_input(path) == (stamp, self.fresh(path))
            _rewrite_byte(path, len(self.TEXT) - 2)
            _, sha256 = ingest._hash_input(path)
        assert hashed == [path]
        assert sha256 == self.fresh(path)

    @settings(max_examples=40, deadline=None)
    @given(offset=st.integers(0, len(TEXT) - 1))
    def test_in_place_rewrite_with_the_mtime_restored_is_hashed(self, offset):
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write(tmp)
            ingest._hash_input(path)
            _age(_digest_entry(path))
            _rewrite_byte(path, offset)
            with _later_run(), _counting_hashes() as hashed:
                _, sha256 = ingest._hash_input(path)
            assert hashed == [path]
            assert sha256 == self.fresh(path)

    @pytest.mark.parametrize("by, trusted", [
        (0, False), (ingest.TIMESTAMP_STEP_NS, False),
        (ingest.TIMESTAMP_STEP_NS + 1, True)])
    def test_entry_within_the_step_of_the_file_is_not_trusted(
            self, tmp_path, by, trusted):
        # An entry another run wrote with the file's stamp but another
        # digest, ``by`` ns after the file's last change: only one past the
        # step is read.
        path = self.write(tmp_path)
        ingest._hash_input(path)
        entry, stamp = _digest_entry(path), ingest._STAMP(path.stat())
        entry.write_text(self.line(stamp, "0" * 64, os.urandom(8).hex()),
                         encoding="ascii")
        written = max(stamp[2:]) + by
        os.utime(entry, ns=(written, written))
        with _counting_hashes() as hashed:
            _, sha256 = ingest._hash_input(path)
        assert (sha256 == "0" * 64) == trusted
        assert hashed == ([] if trusted else [path])
        if not trusted:
            assert sha256 == self.fresh(path)
            assert entry.read_text(encoding="ascii") == \
                self.line(stamp, sha256)

    def test_entry_mtime_is_taken_before_the_read(self, tmp_path):
        # The probe is touched as the read starts, and the read goes on a
        # timestamp tick later; an entry dated when it is written would be
        # later than the probe.
        path = self.write(tmp_path)
        cache = tmp_path / ingest.CACHE_DIR
        cache.mkdir()
        probe, tick, file_sha256 = cache / "probe", cache / "tick", \
            ingest._file_sha256

        def touch_then_hash(file):
            probe.touch()
            tick.touch()
            while tick.stat().st_mtime_ns <= probe.stat().st_mtime_ns:
                tick.touch()
            return file_sha256(file)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_file_sha256", touch_then_hash)
            ingest._hash_input(path)
        assert _digest_entry(path).stat().st_mtime_ns <= \
            probe.stat().st_mtime_ns

    def test_file_with_a_later_mtime_than_its_entry_is_hashed(self, tmp_path):
        path = self.write(tmp_path)
        ingest._hash_input(path)
        _age(_digest_entry(path))
        future = _digest_entry(path).stat().st_mtime_ns
        os.utime(path, ns=(future, future))
        ingest._hash_input(path)
        _age(_digest_entry(path), by=ingest.TIMESTAMP_STEP_NS)
        with _later_run(), _counting_hashes() as hashed:
            ingest._hash_input(path)
        assert hashed == [path]

    @pytest.mark.parametrize("spoil", [
        "empty", "truncated", "garbage", "not ascii", "other stamp",
        "upper-case digest", "two lines", "directory", "no writer"])
    def test_spoiled_entry_is_ignored_and_written_again(self, tmp_path, spoil):
        # "no writer" is the one-field format of earlier versions: hashed
        # once more and written again.
        path = self.write(tmp_path)
        ingest._hash_input(path)
        entry = _digest_entry(path)
        kept = entry.read_text(encoding="ascii")
        writer, _, rest = kept.partition(" ")
        stamp, _, digest = rest.rpartition(" ")
        if spoil == "directory":
            entry.unlink()
            entry.mkdir()
        else:
            entry.write_bytes({
                "empty": b"", "truncated": kept[:len(kept) // 2].encode(),
                "garbage": b"not a digest\n", "not ascii": b"\xff" + kept.encode(),
                "other stamp": f"{writer} 1{stamp} {digest}".encode(),
                "upper-case digest": f"{writer} {stamp} {digest.upper()}".encode(),
                "two lines": (kept + kept).encode(),
                "no writer": f"{stamp} {digest}".encode()}[spoil])
            _age(entry)
        with _counting_hashes() as hashed:
            _, sha256 = ingest._hash_input(path)
        assert hashed == [path]
        assert sha256 == self.fresh(path)
        if spoil != "directory":
            assert entry.read_text(encoding="ascii") == kept

    def test_file_rewritten_while_hashed_keeps_no_entry(self, tmp_path):
        path = self.write(tmp_path)
        file_sha256 = ingest._file_sha256

        def hash_then_rewrite(file):
            digest = file_sha256(file)
            self.write(tmp_path, "country,industry,tonnes\nAAA,MFG,2.5\n")
            return digest

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_file_sha256", hash_then_rewrite)
            ingest._hash_input(path)
        # No entry, and no temp file left behind.
        assert list((tmp_path / ingest.CACHE_DIR).iterdir()) == []
        with _counting_hashes() as hashed:
            _, sha256 = ingest._hash_input(path)
        assert hashed == [path]
        assert sha256 == self.fresh(path)
        assert _digest_entry(path).exists()

    def test_copied_directory_hashes_again(self, tmp_path):
        path = self.write(tmp_path / "data")
        ingest._hash_input(path)
        copy = tmp_path / "copy"
        shutil.copytree(path.parent, copy)
        _age(_digest_entry(copy / path.name))
        with _later_run(), _counting_hashes() as hashed:
            _, sha256 = ingest._hash_input(copy / path.name)
        assert hashed == [copy / path.name]
        assert sha256 == self.fresh(path)

    def test_unwritable_cache_directory_hashes_every_time(self, tmp_path):
        path = self.write(tmp_path)
        (tmp_path / ingest.CACHE_DIR).write_text("a file, not a directory\n")
        with _counting_hashes() as hashed:
            for _ in range(2):
                assert ingest._hash_input(path)[1] == self.fresh(path)
        assert hashed == [path, path]


class TestEmissions:
    def write(self, tmp_path, body):
        path = tmp_path / "emissions.csv"
        path.write_text("country,industry,tonnes\n" + body, encoding="utf-8")
        return path

    def test_all_zero(self, tmp_path, toy_icio):
        table = ingest.load_icio(toy_icio)
        path = self.write(tmp_path, "AAA,MFG,0\nBBB,MFG,0\n")
        e = ingest.load_emissions_vector(path, table)
        assert_allclose(e.e, [0.0, 0.0])

    def test_intensity_division(self, tmp_path, toy_icio):
        table = ingest.load_icio(toy_icio)
        path = self.write(tmp_path, "AAA,MFG,10\nBBB,MFG,25\n")
        e = ingest.load_emissions_vector(path, table)
        assert_allclose(e.e, [0.1, 0.25])

    def test_shuffled_keys_identical(self, tmp_path, toy_icio):
        table = ingest.load_icio(toy_icio)
        ordered = self.write(tmp_path, "AAA,MFG,10\nBBB,MFG,25\n")
        e1 = ingest.load_emissions_vector(ordered, table)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(
            "country,industry,tonnes\nBBB,MFG,25\nAAA,MFG,10\n",
            encoding="utf-8")
        e2 = ingest.load_emissions_vector(shuffled, table)
        assert_allclose(e1.e, e2.e, rtol=0, atol=0)

    def test_missing_row(self, tmp_path, toy_icio):
        table = ingest.load_icio(toy_icio)
        path = self.write(tmp_path, "AAA,MFG,10\n")
        with pytest.raises(MissingRow, match="^" + re.escape(
                f"{path}: no emissions record for (BBB, MFG)") + "$"):
            ingest.load_emissions_vector(path, table)

    def test_negative_emission(self, tmp_path, toy_icio):
        table = ingest.load_icio(toy_icio)
        path = self.write(tmp_path, "BBB,MFG,2\nAAA,MFG,-1\n")
        with pytest.raises(NegativeEmission, match="^" + re.escape(
                f"{path} line 3: negative emissions for ('AAA', 'MFG')") + "$"):
            ingest.load_emissions_vector(path, table)

    def test_duplicate_record(self, tmp_path, toy_icio):
        table = ingest.load_icio(toy_icio)
        path = self.write(tmp_path, "AAA,MFG,1\nBBB,MFG,3\nAAA,MFG,2\n")
        with pytest.raises(DuplicateKey, match="^" + re.escape(
                f"{path} line 4: duplicate record for ('AAA', 'MFG')") + "$"):
            ingest.load_emissions_vector(path, table)

    def test_record_outside_the_table_names_its_line(self, tmp_path,
                                                     toy_icio):
        table = ingest.load_icio(toy_icio)
        path = self.write(tmp_path, "AAA,MFG,10\nBBB,MFG,25\nBRA,D99,123.0\n")
        with pytest.raises(SchemaError, match="^" + re.escape(
                f"{path} line 4: record for ('BRA', 'D99') names no row of "
                "the table") + "$"):
            ingest.load_emissions_vector(path, table)


class TestIndicators:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text("country,year,variable,value,unit\n", encoding="utf-8")
        panel = ingest.load_indicator_panel(path)
        assert panel.records == ()

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text(
            "country,year,variable,value,unit\n"
            "IND,2005,GDP,700,usd\nIND,2005,GDP,800,usd\n",
            encoding="utf-8")
        with pytest.raises(DuplicateKey, match="^" + re.escape(
                f"{path}: duplicate indicator record ('IND', 2005, 'GDP')") + "$"):
            ingest.load_indicator_panel(path)

    def test_unknown_variable_name(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text(
            "country,year,variable,value,unit\nIND,2004,GDP,3,usd\n"
            "IND,2005,WIDGETS,3,ct\n",
            encoding="utf-8")
        with pytest.raises(UnknownVariableName, match="^" + re.escape(
                f"{path} line 3: unknown indicator 'WIDGETS'; expected one of (")):
            ingest.load_indicator_panel(path)

    def test_place_is_the_line_a_record_ends_on(self, tmp_path):
        # A quoted unit may hold a line break; the records after it keep
        # their own line numbers.
        path = tmp_path / "ind.csv"
        path.write_text(
            'country,year,variable,value,unit\nIND,2004,GDP,3,"usd\nper head"\n'
            "IND,2005,WIDGETS,3,ct\n",
            encoding="utf-8")
        with pytest.raises(UnknownVariableName, match="^" + re.escape(
                f"{path} line 4: unknown indicator 'WIDGETS'")):
            ingest.load_indicator_panel(path)

    def test_alias_normalization(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text(
            "country,year,variable,value,unit\nIND,2005,str,1.5,index\n",
            encoding="utf-8")
        panel = ingest.load_indicator_panel(path)
        assert panel.records == (("IND", 2005, "ESI", 1.5, "index"),)

    def test_cell_longer_than_the_csv_field_limit_names_its_line(
            self, tmp_path):
        # The writer quotes any unit; one past csv's field limit is a
        # schema error naming its line, not an escaping _csv.Error.
        path = tmp_path / "ind.csv"
        ingest.save_indicator_panel(ingest.IndicatorPanel((
            ("IND", 2005, "GDP", 700.0, "usd"),
            ("IND", 2006, "GDP", 710.0, "u" * 200_000))), path)
        with pytest.raises(SchemaError) as caught:
            ingest.load_indicator_panel(path)
        assert str(caught.value) == (
            f"{path} line 3: field larger than field limit "
            f"({csv.field_size_limit()})")

    def test_year_must_be_integer(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text(
            "country,year,variable,value,unit\nIND,2005.0,GDP,700,usd\n",
            encoding="utf-8")
        with pytest.raises(SchemaError, match="integer"):
            ingest.load_indicator_panel(path)

    @pytest.mark.parametrize("year", ["2_005", "\uff12\uff10\uff10\uff15"])
    def test_year_outside_ascii_digits_rejected(self, tmp_path, year):
        path = tmp_path / "ind.csv"
        path.write_text(f"country,year,variable,value,unit\n"
                        f"IND,{year},GDP,700,usd\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path} line 2: {year!r} is not an integer")):
            ingest.load_indicator_panel(path)

    def test_counting_oracle(self, tmp_path):
        # 16 countries x 24 years x 7 variables = 2688 records.
        rows = ["country,year,variable,value,unit"]
        variables = ("GDP", "MFG", "ESI", "TO", "FOR_COVER",
                     "REN_ENERGY_CONS", "POP_DENSITY")
        for c in range(16):
            for y in range(1995, 2019):
                for v in variables:
                    rows.append(f"C{c:02d},{y},{v},1.5,u")
        path = tmp_path / "ind.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        panel = ingest.load_indicator_panel(path)
        assert len(panel.records) == 2688
        assert len({r[0] for r in panel.records}) == 16
        assert len({r[1] for r in panel.records}) == 24

    @settings(max_examples=60, deadline=None)
    @given(units=st.lists(_UNIT, min_size=2, max_size=2))
    def test_round_trip(self, units):
        # A unit may hold commas, double quotes and spaces, as in
        # "constant 2015 US$, PPP"; it is quoted and reads back whole.
        records = (("IND", 2005, "GDP", 712.5, "usd"),
                   ("CHN", 2006, "TO", 45.0, "pct"))
        records = tuple(record[:4] + (unit,)
                        for record, unit in zip(records, units))
        panel = ingest.IndicatorPanel(records)
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            ingest.save_indicator_panel(panel, path)
            loaded = ingest.load_indicator_panel(path)
            ingest.save_indicator_panel(loaded, again)
            assert path.read_bytes() == again.read_bytes()
        assert loaded.records == tuple(sorted(records))



# Each loader that reads a headed CSV: (header, two data rows, a short row,
# call). The call takes the file and the toy ICIO table.
HEADED_LOADERS = {
    "emissions": (
        "country,industry,tonnes", ("AAA,MFG,10", "BBB,MFG,25"), "AAA,MFG",
        lambda path, icio:
            ingest.load_emissions_vector(path, icio).e.tolist()),
    "indicators": (
        "country,year,variable,value,unit",
        ("IND,2005,GDP,700,usd", "IND,2006,GDP,710,usd"), "IND,2007,GDP,720",
        lambda path, icio: ingest.load_indicator_panel(path).records),
    "expectations": (
        "table,row,column,value,tol",
        ("t1,x,Coefficient,0.22,", "t1,z,Coefficient,-0.01,0.5"),
        "t1,x,Coefficient,0.22",
        lambda path, icio: load_expectations(path)),
}


@pytest.mark.parametrize("kind", sorted(HEADED_LOADERS))
class TestHeadedRecords:
    def load(self, tmp_path, toy_icio, kind, lines):
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return HEADED_LOADERS[kind][3](path, ingest.load_icio(toy_icio))

    def test_missing_file_named(self, tmp_path, toy_icio, kind):
        missing = tmp_path / "absent.csv"
        with pytest.raises(SchemaError,
                           match=re.escape(f"no such file: {missing}")):
            HEADED_LOADERS[kind][3](missing, ingest.load_icio(toy_icio))

    def test_header_must_match_exactly(self, tmp_path, toy_icio, kind):
        header, rows, _, _ = HEADED_LOADERS[kind]
        spaced = header.replace(",", ", ")
        with pytest.raises(SchemaError, match=re.escape(
                f"{tmp_path / kind}.csv: header must be {header}")):
            self.load(tmp_path, toy_icio, kind, (spaced,) + rows)

    def test_short_row_names_file_and_line(self, tmp_path, toy_icio, kind):
        header, rows, short, _ = HEADED_LOADERS[kind]
        width = header.count(",") + 1
        with pytest.raises(SchemaError, match=re.escape(
                f"{tmp_path / kind}.csv line 3: expected {width} columns")):
            self.load(tmp_path, toy_icio, kind, (header, rows[0], short))

    @pytest.mark.parametrize("written", ["1_000", "\uff11\uff10\uff10\uff10"])
    def test_number_outside_ascii_decimal_names_file_and_line(
            self, tmp_path, toy_icio, kind, written):
        # float() reads both; the number grammar of every input file does not.
        header, rows, _, _ = HEADED_LOADERS[kind]
        cells = rows[1].split(",")
        cells[header.split(",").index(
            "tonnes" if kind == "emissions" else "value")] = written
        with pytest.raises(SchemaError, match=re.escape(
                f"{tmp_path / kind}.csv line 3: cannot parse {written!r}")):
            self.load(tmp_path, toy_icio, kind,
                      (header, rows[0], ",".join(cells)))

    def test_empty_line_skipped(self, tmp_path, toy_icio, kind):
        header, rows, _, _ = HEADED_LOADERS[kind]
        dense = self.load(tmp_path, toy_icio, kind, (header,) + rows)
        spaced = self.load(tmp_path, toy_icio, kind,
                           (header, "", rows[0], "", rows[1]))
        assert len(dense) == 2
        assert spaced == dense


CONFIG_TEXT = """[data]
dir = .
years = 2000-2002

[sample]
countries = AAA,BBB
oecd = AAA

[variables]
manufacturing = MFG
log_base = 10

[estimation]
fgls_scheme = ar1
instrument = lagged-level

[output]
dir = results
"""


class TestConfig:
    def test_parses_and_partitions(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT, encoding="utf-8")
        config = ingest.load_config(path)
        assert config.years == (2000, 2001, 2002)
        assert config.sample == ("AAA", "BBB")
        assert config.oecd == ("AAA",) and config.non_oecd == ("BBB",)
        assert config.fgls_scheme == "ar1"
        assert config.icio_path(2000).name == "icio_2000.csv"

    @pytest.mark.parametrize("scheme", COVARIANCE_SCHEMES)
    @pytest.mark.parametrize("variant", INSTRUMENT_VARIANTS)
    def test_estimation_options_match_the_estimators(self, tmp_path, scheme,
                                                     variant):
        # Every option the config accepts is one the estimators accept.
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.replace(
            "fgls_scheme = ar1\ninstrument = lagged-level",
            f"fgls_scheme = {scheme}\ninstrument = {variant}"),
            encoding="utf-8")
        config = ingest.load_config(path)
        assert (config.fgls_scheme, config.instrument) == (scheme, variant)
        RegressionSpec("y", ("x",), covariance=config.fgls_scheme)
        panel = simulate_dynamic_panel(np.random.default_rng(4))
        anderson_hsiao(panel, "y", ("x",), instrument=config.instrument)

    @pytest.mark.parametrize("key, value", [("fgls_scheme", "ar2"),
                                            ("instrument", "lagged-lag")])
    def test_unknown_estimation_options_rejected(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(re.sub(rf"{key} = .*", f"{key} = {value}", CONFIG_TEXT),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            ingest.load_config(path)

    def test_omitted_keys_take_the_runconfig_defaults(self, tmp_path):
        # CONFIG_TEXT names no file pattern, so those take defaults too.
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.replace("log_base = 10\n", "")
                        .replace("fgls_scheme = ar1\n", "")
                        .replace("instrument = lagged-level\n", "")
                        .replace("[output]\ndir = results\n", ""),
                        encoding="utf-8")
        config = ingest.load_config(path)
        defaults = ingest.RunConfig
        for name in ("icio_pattern", "emissions_pattern", "indicators",
                     "log_base", "fgls_scheme", "instrument", "output_dir"):
            assert getattr(config, name) == getattr(defaults, name), name
        assert defaults.instrument == LAGGED_DIFFERENCE
        assert config.icio_path(2000).name == "icio_2000.csv"

    def test_oecd_outside_sample_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.replace("oecd = AAA", "oecd = CCC"),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="outside the sample"):
            ingest.load_config(path)

    def test_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT, encoding="utf-8")
        config = ingest.load_config(path, data_dir=tmp_path / "elsewhere",
                                    output_dir=tmp_path / "o", log_base="e")
        assert config.data_dir == tmp_path / "elsewhere"
        assert abs(config.log_base - np.e) < 1e-12

    @pytest.mark.parametrize("base", ["nan", "inf", "-inf", "0", "1"])
    def test_unusable_log_base_rejected(self, tmp_path, base):
        # An infinite base turns every log into 0 and a NaN base into NaN.
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT, encoding="utf-8")
        with pytest.raises(ConfigError, match="log base"):
            ingest.load_config(path, log_base=base)

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        text = CONFIG_TEXT.replace("dir = .\n", "")
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setenv(ingest.DATA_DIR_ENV, str(tmp_path / "envdata"))
        config = ingest.load_config(path)
        assert config.data_dir == tmp_path / "envdata"

    def test_year_list_form(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.replace("2000-2002", "1995,1997"),
                        encoding="utf-8")
        assert ingest.load_config(path).years == (1995, 1997)

    def test_check_sample(self, tmp_path, toy_icio):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT, encoding="utf-8")
        config = ingest.load_config(path)
        table = ingest.load_icio(toy_icio)
        ingest.check_sample(config, table)

        bad_path = tmp_path / "bad.cfg"
        bad_path.write_text(CONFIG_TEXT.replace("AAA,BBB", "AAA,XXX"),
                            encoding="utf-8")
        bad = ingest.load_config(bad_path)
        with pytest.raises(ConfigError, match="missing from"):
            ingest.check_sample(bad, table)

    @pytest.mark.parametrize("codes, matches", [
        ("MFG,C10T12", True), ("C10T12", False), ("C10T12,D24", False)])
    def test_check_sample_needs_one_manufacturing_industry(
            self, tmp_path, toy_icio, codes, matches):
        # A partial match aggregates the codes that exist; no match at all
        # would fail only when the first indicator is aggregated.
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.replace("manufacturing = MFG",
                                            f"manufacturing = {codes}"),
                        encoding="utf-8")
        config = ingest.load_config(path)
        table = ingest.load_icio(toy_icio)
        if matches:
            ingest.check_sample(config, table)
        else:
            with pytest.raises(ConfigError, match=r"C10T12.*\['MFG'\]"):
                ingest.check_sample(config, table)


class TestDemoDataset:
    def test_demo_is_deterministic_and_loadable(self, tmp_path):
        cfg1 = synthetic.write_demo_dataset(tmp_path / "one", seed=0)
        cfg2 = synthetic.write_demo_dataset(tmp_path / "two", seed=0)
        year = synthetic.DEMO_YEARS[0]
        a = (tmp_path / "one" / f"icio_{year}.csv").read_bytes()
        b = (tmp_path / "two" / f"icio_{year}.csv").read_bytes()
        assert a == b

        config = ingest.load_config(cfg1)
        assert len(config.years) == 24
        assert len(config.sample) == 16
        table = ingest.load_icio(config.icio_path(year))
        assert table.countries == synthetic.DEMO_SAMPLE + ("ROW",)
        e = ingest.load_emissions_vector(config.emissions_path(year), table)
        assert e.e.min() >= 0
        indicators = ingest.load_indicator_panel(config.indicators_path)
        assert len(indicators.records) == 16 * 24 * 7
