"""Command-line surface chaining ingestion, accounting, panel assembly,
estimation, and diagnostics into rendered tables and delimited exports.

Exit codes: 0 success, 2 schema or config error, 3 numerical failure,
4 expectation-check failure in --check mode.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from . import workflow
from .errors import GvcCarbonError, SchemaError
from .ingest import _atomic_write, load_config
from .report import Table, require_expectations, to_csv, to_json, to_text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gvccarbon",
        description="Embodied-carbon accounting and GVC panel econometrics "
                    "from inter-country input-output tables.",
    )
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--data-dir", help="override the config's data directory")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--log-base", help="log base for transforms (number or 'e')")
    parser.add_argument("--check", metavar="EXPECTED",
                        help="compare produced tables against an expectation "
                             "file (table,row,column,value,tol)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("embodied",
                   help="per-year embodied CO2 accounts, one file per year")
    sub.add_parser("gvc",
                   help="per-year forward/backward participation accounts")
    sub.add_parser("build-panel", help="assemble and export the raw panel")

    regress = sub.add_parser("regress", help="estimate one published model")
    regress.add_argument("model", choices=workflow.REGRESS_TABLES)

    sub.add_parser("cd-test", help="cross-sectional dependence diagnostics")
    sub.add_parser("stats", help="descriptive statistics")
    sub.add_parser("corr", help="correlation matrices")

    rank = sub.add_parser("rank", help="country rank tables")
    rank.add_argument("--year", type=int, help="defaults to the first year")
    rank.add_argument("--indicator", default="all",
                      choices=("all",) + tuple(k for k, _, _ in
                                               workflow.RANK_COLUMNS))
    rank.add_argument("--basis", choices=("default", "level", "share"),
                      default="default")

    sub.add_parser("report", help="produce every table plus a manifest")
    return parser


def _write_tables(tables, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for table in tables:
        _atomic_write(out / f"{table.name}.txt", to_text(table))
        _atomic_write(out / f"{table.name}.csv", to_csv(table))
        _atomic_write(out / f"{table.name}.json", to_json(table))


def _print_tables(tables):
    for table in tables:
        print(to_text(table))


def _export_csv(path, header, rows, footer_comments=()):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    for comment in footer_comments:
        buffer.write(f"# {comment}\n")
    _atomic_write(path, buffer.getvalue())


def cmd_accounts(config, out_dir, which):
    out = Path(out_dir)
    keys = workflow.EXPORT_SETS[which]
    for year in config.years:
        header, rows, gap = workflow.accounts_export(config, year, which)
        status = "ok" if gap <= 1e-8 else "FAIL"
        _export_csv(out / f"{which}_{year}.csv", header, rows,
                    footer_comments=(f"conservation_gap: {gap:.3e} ({status})",))
        totals = {}
        for key in keys:
            col = header.index(key)
            totals[key] = sum(float(r[col]) for r in rows)
        line = ", ".join(f"{k}={totals[k]:.3f}" for k in keys)
        print(f"{year}: {line}, conservation gap {gap:.3e} ({status})")
    print(f"wrote {len(config.years)} files to {out}")
    return {}


def cmd_build_panel(config, out_dir):
    panel = workflow.base_panel(config)
    header, rows = workflow.panel_export(panel)
    _export_csv(Path(out_dir) / "panel.csv", header, rows)
    n, t = panel.n_units, panel.n_periods
    for name in panel.names():
        print(f"{name}: {n * t} cells ({n} x {t})")
    print(f"panel written to {Path(out_dir) / 'panel.csv'}")
    return {}


def _panel_for_models(config):
    return workflow.regression_panel(config, workflow.base_panel(config))


def cmd_regress(config, out_dir, model_id):
    tables = workflow.regress_tables(config, _panel_for_models(config), model_id)
    _print_tables(tables)
    _write_tables(tables, out_dir)
    return {t.name: t for t in tables}


def cmd_cd_test(config, out_dir):
    table = workflow.cd_table(_panel_for_models(config))
    _print_tables([table])
    _write_tables([table], out_dir)
    return {table.name: table}


def cmd_stats(config, out_dir):
    table = workflow.stats_table(_panel_for_models(config))
    _print_tables([table])
    _write_tables([table], out_dir)
    return {table.name: table}


def cmd_corr(config, out_dir):
    panel = _panel_for_models(config)
    tables = [workflow.correlation_table(panel, which)
              for which in ("forward", "backward")]
    _print_tables(tables)
    _write_tables(tables, out_dir)
    return {t.name: t for t in tables}


def cmd_rank(config, out_dir, year, indicator, basis):
    year = year if year is not None else config.years[0]
    if year not in config.years:
        raise SchemaError(f"year {year} is not in the configured range")
    _, accounts, _ = workflow.year_accounts(config, year)
    override = None if basis == "default" else basis
    if indicator == "all":
        table = workflow.rank_year_table(config, year, accounts,
                                         basis_override=override)
    else:
        ranked = workflow.rank_indicator(config, year, accounts, indicator,
                                         override)
        rows = tuple((str(r), c, f"{v:.6f}") for r, c, v in ranked.rows)
        table = Table(
            name=f"rank_{indicator}_{year}",
            caption=f"{indicator} ranks, {year} (basis: {ranked.basis})",
            columns=("Rank", "Country", "Value"),
            rows=rows,
            source_ops=("diagnostics.rank_table",),
        )
    _print_tables([table])
    _write_tables([table], out_dir)
    return {table.name: table}


def cmd_report(config, out_dir):
    bundle = workflow.full_bundle(config)
    target = bundle.write(out_dir)
    print(f"report bundle written to {target} "
          f"({len(bundle.tables)} tables, determinism hash "
          f"{bundle.determinism_hash()[:12]})")
    return dict(bundle.tables)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, data_dir=args.data_dir,
                             output_dir=args.out, log_base=args.log_base)
        out_dir = config.output_dir
        if args.command == "embodied":
            tables = cmd_accounts(config, out_dir, "embodied")
        elif args.command == "gvc":
            tables = cmd_accounts(config, out_dir, "gvc")
        elif args.command == "build-panel":
            tables = cmd_build_panel(config, out_dir)
        elif args.command == "regress":
            tables = cmd_regress(config, out_dir, args.model)
        elif args.command == "cd-test":
            tables = cmd_cd_test(config, out_dir)
        elif args.command == "stats":
            tables = cmd_stats(config, out_dir)
        elif args.command == "corr":
            tables = cmd_corr(config, out_dir)
        elif args.command == "rank":
            tables = cmd_rank(config, out_dir, args.year, args.indicator,
                              args.basis)
        elif args.command == "report":
            tables = cmd_report(config, out_dir)
        else:  # pragma: no cover
            raise SchemaError(f"unknown command {args.command!r}")
        if args.check:
            require_expectations(tables, args.check)
            print(f"expectation check passed: {args.check}")
    except GvcCarbonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
