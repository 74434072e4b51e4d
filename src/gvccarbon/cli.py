"""Command-line surface chaining ingestion, accounting, panel assembly,
estimation, and diagnostics into rendered tables and delimited exports.
Each command reads its options and calls ``workflow``, which builds every table.

Exit codes: 0 success, 2 schema or config error or an unusable input or
output path, 3 numerical failure, 4 expectation-check failure in --check
mode.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import diagnostics, mrio, workflow
from .errors import GvcCarbonError, SchemaError
from .ingest import _atomic_write, csv_text
from .report import require_expectations, to_text, write_tables

#: The ``rank --basis`` choices; ``default`` is each indicator's own basis.
RANK_BASES = {"default": None, "level": diagnostics.LEVEL_BASIS,
              "share": diagnostics.SHARE_BASIS}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gvccarbon",
        description="Embodied-carbon accounting and GVC panel econometrics "
                    "from inter-country input-output tables.",
    )
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--data-dir", help="override the config's data directory")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--check", metavar="EXPECTED",
                        help="compare produced tables against an expectation "
                             "file (table,row,column,value,tol)")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(run=run)
        return cmd

    command("embodied", cmd_accounts,
            "per-year embodied CO2 accounts, one file per year")
    command("gvc", cmd_accounts,
            "per-year forward/backward participation accounts")
    command("build-panel", cmd_build_panel, "assemble and export the raw panel")
    regress = command("regress", cmd_panel_tables, "estimate one published model")
    regress.add_argument("model", choices=workflow.REGRESS_TABLES)
    command("cd-test", cmd_panel_tables, "cross-sectional dependence diagnostics")
    command("stats", cmd_panel_tables, "descriptive statistics")
    command("corr", cmd_panel_tables, "correlation matrices")
    rank = command("rank", cmd_rank, "country rank tables")
    rank.add_argument("--year", type=int, help="defaults to the first year")
    rank.add_argument("--indicator", default="all", choices=(
        "all", *(key for key, _, _ in workflow.RANK_COLUMNS)))
    rank.add_argument("--basis", choices=RANK_BASES, default="default")
    command("report", cmd_report, "produce every table plus a manifest")
    return parser


def _show(config, tables):
    """Print each table, write its files, and return the tables by name."""
    for table in tables:
        print(to_text(table))
    write_tables(tables, config.output_dir)
    return {t.name: t for t in tables}


def cmd_accounts(config, args):
    which = args.command
    for year in config.years:
        accounts, gap = workflow.year_accounts(config, year)
        status = "ok" if gap <= mrio.CONSERVATION_GAP_TOL else "FAIL"
        text = csv_text(*workflow.accounts_export(accounts, which))
        _atomic_write(config.output_dir / f"{which}_{year}.csv",
                      text + f"# conservation_gap: {gap:.3e} ({status})\n")
        # Summed left to right in row-major order, as the rows are written.
        line = ", ".join(
            f"{key}={sum(accounts.indicator(key).ravel().tolist()):.3f}"
            for key in workflow.EXPORT_SETS[which])
        print(f"{year}: {line}, conservation gap {gap:.3e} ({status})")
    print(f"wrote {len(config.years)} files to {config.output_dir}")
    return {}


def cmd_build_panel(config, args):
    panel = workflow.base_panel(config)
    target = config.output_dir / "panel.csv"
    _atomic_write(target, csv_text(*workflow.panel_export(panel)))
    n, t = panel.n_units, panel.n_periods
    for name in panel.names():
        print(f"{name}: {n * t} cells ({n} x {t})")
    print(f"panel written to {target}")
    return {}


def cmd_panel_tables(config, args):
    """``regress MODEL``, ``cd-test``, ``stats`` or ``corr``."""
    panel = workflow.regression_panel(config, workflow.base_panel(config))
    return _show(config, workflow.panel_tables(
        config, panel, getattr(args, "model", args.command)))


def cmd_rank(config, args):
    year = args.year if args.year is not None else config.years[0]
    if year not in config.years:
        raise SchemaError(f"year {year} is not in the configured range")
    accounts, _ = workflow.year_accounts(config, year)
    indicator = None if args.indicator == "all" else args.indicator
    return _show(config, [workflow.rank_year_table(
        config, year, accounts, indicator, RANK_BASES[args.basis])])


def cmd_report(config, args):
    bundle = workflow.full_bundle(config)
    target = bundle.write(config.output_dir)
    print(f"report bundle written to {target} "
          f"({len(bundle.tables)} tables, determinism hash "
          f"{bundle.determinism_hash()[:12]})")
    return dict(bundle.tables)


def main(argv=None):
    args = build_parser().parse_args(argv)
    made = []  # the output directories this run makes, innermost first
    done = False
    try:
        config = workflow.load_config(args.config, data_dir=args.data_dir,
                                      output_dir=args.out)
        out = config.output_dir
        made = [path for path in (out, *out.parents) if not path.exists()]
        out.mkdir(parents=True, exist_ok=True)  # before any work
        tables = args.run(config, args)
        if args.check:
            require_expectations(tables, args.check)
            print(f"expectation check passed: {args.check}")
        done = True
    except (GvcCarbonError, OSError) as exc:
        # An OSError is a path the system refuses; its message names it.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", SchemaError.exit_code)
    finally:
        # On any failure, an interrupt included; rmdir fails on a
        # directory that is not empty.
        for path in made if not done else ():
            with contextlib.suppress(OSError):
                path.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
