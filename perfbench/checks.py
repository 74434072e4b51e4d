"""Output checks. Each returns a list of failure messages; empty means
the operation's output is correct.

The checks hold whatever algorithm computes the accounts: they compare
against identities and against references computed independently by
``world.reference``, never against the package's own intermediates.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

GAP_TOL = 1e-10          # conservation_gap is already relative
EXPORTS_RTOL = 1e-12     # same sums, different summation order
EMBODIED_RTOL = 1e-9     # one LU solve against another
GVC_RTOL = 1e-9

ACCOUNT_COLUMNS = ("gross_exports", "domestic_co2", "foreign_co2")
DEMO_TABLES = ("appendix_corr_backward", "appendix_corr_forward",
               "appendix_stats", "table2_cd", "table5_model1", "table5_model2",
               "table6", "table7", "table8_domestic", "table8_foreign",
               "table9_domestic", "table9_foreign")
HASH_LINE = re.compile(r"determinism hash ([0-9a-f]{12})\)")


def _mismatch(actual, expected, rtol):
    """Indices where actual and expected differ by more than rtol relative."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    ok = np.abs(actual - expected) <= rtol * np.abs(expected)
    return np.flatnonzero(~ok)


def check_accounts(year, gap, grids, ref, countries):
    """Checks on one year's accounts.

    ``grids`` maps indicator name to an (N, K) array and holds at least
    ``ACCOUNT_COLUMNS``; the participation checks run when it also holds
    ``forward_gvc`` and ``backward_gvc``.
    """
    failures = []
    if not gap <= GAP_TOL:
        failures.append(f"{year}: conservation gap {gap!r} > {GAP_TOL}")
    exports = grids["gross_exports"]
    bad = _mismatch(exports, ref["gross_exports"], EXPORTS_RTOL)
    if bad.size:
        failures.append(f"{year}: gross_exports differs from Z and F at "
                        f"{bad.size} cells, first flat index {bad[0]}")
    for key in ("domestic_co2", "foreign_co2"):
        if not np.all(grids[key] >= 0):
            failures.append(f"{year}: {key} has negative or non-finite cells")
    total = grids["domestic_co2"].sum(axis=1) + grids["foreign_co2"].sum(axis=1)
    bad = _mismatch(total, ref["embodied_total"], EMBODIED_RTOL)
    if bad.size:
        failures.append(f"{year}: domestic + foreign CO2 differs from "
                        f"e'(I-A)^-1 for {countries[bad[0]]} "
                        f"({total[bad[0]]!r} vs {ref['embodied_total'][bad[0]]!r})")
    if "forward_gvc" in grids:
        forward = float(grids["forward_gvc"].sum())
        backward = float(grids["backward_gvc"].sum())
        if not abs(forward - backward) <= GVC_RTOL * max(abs(forward), abs(backward)):
            failures.append(f"{year}: sum forward_gvc {forward!r} != "
                            f"sum backward_gvc {backward!r}")
        over = np.flatnonzero(~(grids["backward_gvc"].sum(axis=1)
                                <= exports.sum(axis=1) * (1 + EXPORTS_RTOL)))
        if over.size:
            failures.append(f"{year}: backward participation exceeds gross "
                            f"exports for {countries[over[0]]}")
    return failures


def read_accounts_export(path, countries, industries):
    """(grids, gap) from one ``embodied_<year>.csv`` written by the CLI."""
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    footer = [line for line in lines if line.startswith("# conservation_gap:")]
    rows = list(csv.reader(body))
    if not rows or tuple(rows[0]) != ("country", "industry") + ACCOUNT_COLUMNS:
        raise ValueError(f"{path.name}: unexpected header {rows[:1]}")
    labels = [(c, s) for c in countries for s in industries]
    if [tuple(r[:2]) for r in rows[1:]] != labels:
        raise ValueError(f"{path.name}: rows are not the expected "
                         f"{len(labels)} country-industry pairs in order")
    if len(footer) != 1:
        raise ValueError(f"{path.name}: no conservation_gap footer")
    values = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
    shape = (len(countries), len(industries))
    grids = {key: values[:, j].reshape(shape)
             for j, key in enumerate(ACCOUNT_COLUMNS)}
    gap = float(footer[0].split(":", 1)[1].split()[0])
    return grids, gap


def check_embodied_output(out_dir, refs, countries, industries):
    """Checks on one ``embodied`` run; refs maps year to its reference."""
    failures = []
    for year, ref in refs.items():
        path = Path(out_dir) / f"embodied_{year}.csv"
        try:
            grids, gap = read_accounts_export(path, countries, industries)
        except (OSError, ValueError) as exc:
            failures.append(f"{year}: {exc}")
            continue
        failures += check_accounts(year, gap, grids, ref, countries)
    return failures


def check_report_output(out_dir, stdout_text, first_year, last_year):
    """(printed hash or None, failures) for one ``report`` run."""
    failures = []
    match = HASH_LINE.search(stdout_text)
    printed = match.group(1) if match else None
    if printed is None:
        failures.append("report printed no determinism hash")
    out = Path(out_dir)
    names = DEMO_TABLES + (f"ranks_{first_year}", f"ranks_{last_year}")
    for name in names:
        for suffix in (".txt", ".csv", ".json"):
            path = out / f"{name}{suffix}"
            if not path.is_file() or path.stat().st_size == 0:
                failures.append(f"table file {path.name} missing or empty")
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        failures.append(f"manifest.json unreadable: {exc}")
        return printed, failures
    if sorted(manifest.get("tables", {})) != sorted(names):
        failures.append("manifest lists other tables than the report's")
    if printed and not str(manifest.get("determinism_hash", "")).startswith(printed):
        failures.append("printed hash does not match manifest.json")
    return printed, failures
