"""Report tables: rendering, bundling, provenance, and expectation checks.

A :class:`Table` is a named grid of strings plus provenance (which library
operations produced it). Each coefficient cell of a
:func:`coefficient_table` is a :func:`coef_cell`: the coefficient, its
stars at ``SIGNIFICANCE_LEVELS`` and its p-value. :func:`write_tables`
writes each table as plain text, CSV, and JSON. A bundle's manifest maps the path of the config file
and of every input to its sha256, and records one config hash, the
versions of the package, Python, numpy and scipy, the numerics record
that keys the kept accounts, each year's conservation gap, and a
determinism hash over the config hash and the tables, so identical inputs
yield byte-identical table files. The config hash covers the bytes of the
config file and of every input, not where they sit; the input digests,
the versions, the numerics record, the gaps and the timestamp stay
outside the determinism hash.
"""

from __future__ import annotations

import hashlib
import json
import platform
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import CheckFailure, SchemaError
from .ingest import (_atomic_write, _hash_input, _parse_float,
                     _read_records, csv_text)

DEFAULT_CHECK_TOL = 5e-3


@dataclass(frozen=True)
class Table:
    name: str
    caption: str
    columns: tuple
    rows: tuple  # tuple of row tuples, all strings
    source_ops: tuple = ()
    notes: tuple = ()
    stacked_p: bool = False  # text form prints the p-value under the cell

    def __post_init__(self):
        rows = tuple(tuple(str(c) for c in row) for row in self.rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise SchemaError(
                    f"table {self.name}: row width {len(row)} != "
                    f"{len(self.columns)} columns"
                )
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "source_ops", tuple(self.source_ops))
        object.__setattr__(self, "notes", tuple(self.notes))

    def cell(self, row_label: str, column: str) -> str:
        if column not in self.columns:
            raise KeyError(f"table {self.name} has no column {column!r}")
        j = self.columns.index(column)
        for row in self.rows:
            if row[0] == row_label:
                return row[j]
        raise KeyError(f"table {self.name} has no row {row_label!r}")


#: The stars a coefficient earns at each significance level, strictest first.
SIGNIFICANCE_LEVELS = ((0.05, "**"), (0.10, "*"))


def coef_cell(result, name, digits=2) -> str:
    """A fitted coefficient, the stars of the strictest level its p-value
    meets, and the p-value in brackets, as in '0.22** (0.00)'."""
    p = result.p_value(name)
    stars = next((s for level, s in SIGNIFICANCE_LEVELS if p <= level), "")
    return f"{result.coefficient(name):.{digits}f}{stars} ({p:.2f})"


def coefficient_table(name, caption, columns, rows, source_ops,
                      notes=()) -> Table:
    """A table of :func:`coef_cell` cells: the significance notes go ahead
    of ``notes``, and the text form prints each p-value under its cell."""
    legend = tuple(f"{stars} indicates significance at the {level:.0%} level"
                   for level, stars in SIGNIFICANCE_LEVELS)
    return Table(name, caption, columns, rows, source_ops,
                 notes=(*legend, "Brackets hold the p-value", *notes),
                 stacked_p=True)


_P_SUFFIX = re.compile(r"\(([^)]*)\)\s*$")


def split_cell(text: str):
    """Split a rendered cell into (numeric part, trailing '(p)') strings."""
    text = text.strip()
    match = _P_SUFFIX.search(text)
    p_text = None
    if match and not text.startswith("("):
        p_text = match.group(0)
        text = text[: match.start()].strip()
    return text, p_text


def parse_cell_number(text: str) -> float:
    """Numeric value of a rendered cell such as '0.22**' or '(0.00)'."""
    cleaned = text.strip().strip("*")
    cleaned, _ = split_cell(cleaned)
    cleaned = cleaned.strip().strip("*")
    if cleaned.startswith("(") and cleaned.endswith(")"):
        cleaned = cleaned[1:-1]
    if cleaned in ("", "-"):
        raise ValueError(f"cell {text!r} holds no number")
    return float(cleaned)


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def to_text(table: Table) -> str:
    columns = list(table.columns)
    display_rows = []
    for row in table.rows:
        if table.stacked_p:
            tops, bottoms = [row[0]], [""]
            has_p = False
            for cell in row[1:]:
                value, p_text = split_cell(cell)
                tops.append(value)
                bottoms.append(p_text or "")
                has_p = has_p or p_text is not None
            display_rows.append(tops)
            if has_p:
                display_rows.append(bottoms)
        else:
            display_rows.append(list(row))
    widths = [
        max(len(columns[j]), *(len(r[j]) for r in display_rows), 1)
        if display_rows else len(columns[j])
        for j in range(len(columns))
    ]
    rule = "-" * (sum(widths) + 2 * (len(columns) - 1))
    out = [table.caption, rule,
           "  ".join(c.ljust(w) for c, w in zip(columns, widths)), rule]
    for row in display_rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    out.append(rule)
    out.extend(f"Note: {note}" for note in table.notes)
    return "\n".join(out) + "\n"


def to_csv(table: Table) -> str:
    return csv_text(table.columns, table.rows)


def to_payload(table: Table) -> dict:
    return {
        "name": table.name,
        "caption": table.caption,
        "columns": list(table.columns),
        "rows": [list(r) for r in table.rows],
        "source_ops": list(table.source_ops),
        "notes": list(table.notes),
    }


def to_json(table: Table) -> str:
    return json.dumps(to_payload(table), indent=2, sort_keys=True) + "\n"


def write_tables(tables, out_dir) -> Path:
    """Write each table as ``<name>.txt``, ``<name>.csv`` and ``<name>.json``."""
    out = Path(out_dir)
    for table in tables:
        _atomic_write(out / f"{table.name}.txt", to_text(table))
        _atomic_write(out / f"{table.name}.csv", to_csv(table))
        _atomic_write(out / f"{table.name}.json", to_json(table))
    return out


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

@dataclass
class ReportBundle:
    tables: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)  # path -> sha256
    config_hash: str = ""
    numerics: dict = field(default_factory=dict)  # workflow.numerics()
    conservation_gaps: dict = field(default_factory=dict)  # year -> gap

    def add(self, table: Table):
        if table.name in self.tables:
            raise SchemaError(f"duplicate table name {table.name!r}")
        self.tables[table.name] = table

    def determinism_hash(self) -> str:
        payload = {
            "config_hash": self.config_hash,
            "tables": {k: to_payload(v) for k, v in sorted(self.tables.items())},
        }
        canonical = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(canonical).hexdigest()

    def write(self, out_dir) -> Path:
        out = write_tables([t for _, t in sorted(self.tables.items())], out_dir)
        manifest = {
            "determinism_hash": self.determinism_hash(),
            "config_hash": self.config_hash,
            "tables": {
                name: {"caption": t.caption, "source_ops": list(t.source_ops)}
                for name, t in sorted(self.tables.items())
            },
            # Excluded from the determinism hash by construction.
            "inputs": self.inputs,
            "numerics": self.numerics,
            "conservation_gaps": self.conservation_gaps,
            "versions": {"gvccarbon": __version__, "numpy": np.__version__,
                         "python": platform.python_version(),
                         "scipy": scipy.__version__},
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }
        _atomic_write(out / "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return out


def hash_run_inputs(config, paths):
    """Config hash and ``{path: sha256}`` of the config file and the inputs.

    The config hash digests the config file's sha256, then each input's,
    in path order, so file boundaries count; paths do not enter, so a copy
    of the data elsewhere hashes the same. Missing files are left out.
    Each digest is ``ingest._hash_input``'s: one kept beside its file,
    by this run's years or an earlier run, is read back while it holds, and
    the file's bytes are not read again.
    """
    files = [Path(p) for p in sorted(str(p) for p in paths)]
    if config.source_path is not None:
        files.insert(0, Path(config.source_path))
    digest, inputs = hashlib.sha256(), {}
    for path in files:
        if path.exists():
            inputs[str(path)] = _hash_input(path)[1]
            digest.update(bytes.fromhex(inputs[str(path)]))
    return digest.hexdigest(), inputs


# ---------------------------------------------------------------------------
# Expectation checks
# ---------------------------------------------------------------------------

EXPECTATION_HEADER = ["table", "row", "column", "value", "tol"]


def load_expectations(path):
    path = Path(path)
    out = []
    for where, row in _read_records(path, EXPECTATION_HEADER):
        tol = DEFAULT_CHECK_TOL if not row[4].strip() else \
            _parse_float(row[4], where)
        if tol < 0:
            raise SchemaError(f"{where}: negative tolerance {row[4].strip()!r}")
        out.append((row[0].strip(), row[1].strip(), row[2].strip(),
                    _parse_float(row[3], where), tol))
    return out


def check_expectations(tables: dict, expectations) -> list:
    """Compare produced cells against expected values; return failure lines."""
    failures = []
    for name, row_label, column, expected, tol in expectations:
        where = f"{name}[{row_label!r}, {column!r}]"
        table = tables.get(name)
        if table is None:
            failures.append(f"{where}: table was not produced")
            continue
        try:
            cell = table.cell(row_label, column)
            actual = parse_cell_number(cell)
        except (KeyError, ValueError) as exc:
            failures.append(f"{where}: {exc}")
            continue
        if not abs(actual - expected) <= tol:  # a NaN cell fails
            failures.append(
                f"{where}: got {actual:g}, expected {expected:g} "
                f"(tolerance {tol:g})"
            )
    return failures


def require_expectations(tables: dict, path):
    failures = check_expectations(tables, load_expectations(path))
    if failures:
        raise CheckFailure(
            "expectation check failed:\n  " + "\n  ".join(failures)
        )
