"""End-to-end runs: ingest -> accounts -> panel -> estimates -> tables.

Each public ``*_table`` function produces one report table with the row
and column structure of the corresponding published table: the two
quadratic models, the subsample runs with country-characteristic
interactions, the fixed-time-effects variant, the dynamic IV variant,
the dependence diagnostics, descriptive statistics, correlation
matrices, and the country rankings.

The paper tests two channels, domestic CO2 against forward participation
and foreign CO2 against backward participation; ``SIDES`` is the one
home of that pairing, and every table builder takes its channel from it.
:func:`panel_tables` is the one list of the tables fitted on the
regression panel, keyed by command, and :func:`rank_year_table` builds
every rank table on the ``diagnostics`` bases: ``report`` and the CLI
both go through them. Every command takes a year's accounts from
:data:`year_accounts`, which solves each set of inputs once, keeps the
result beside the table, and reads a missed year through this module.
"""

from __future__ import annotations

import functools
import sys
from typing import NamedTuple

from . import diagnostics, estimators, ingest
from .errors import ConfigError, SchemaError, prefixed
from .ingest import RunConfig, _fmt, load_indicator_panel, numerics
# A year is read through these names here, where the benchmark's tracer
# wraps them, until its spans move into the package (ROADMAP item 1b).
from .ingest import load_emissions_vector, load_icio, load_year  # noqa: F401
from .panel import (
    ACCOUNT_VARIABLES,
    INDICATOR_VARIABLES,
    PanelDataset,
    assemble_panel,
    derive_variable,
)
from .report import (ReportBundle, Table, coef_cell, coefficient_table,
                     hash_run_inputs)

GVC_CONTROLS = ("FOR_COVER", "REN_ENERGY_CONS", "POP_DENSITY")


class Side(NamedTuple):
    """One of the paper's two channels: CO2 embodied in gross exports
    against the GVC participation measure that carries it."""

    tag: str            # "domestic" or "foreign", in table names
    label: str          # "Domestic" or "Foreign", in captions and rows
    dependent: str      # the embodied-CO2 variable
    gvc: str            # the participation variable
    participation: str  # its row label


SIDES = (
    Side("domestic", "Domestic", "Domestic CO2", "Forward GVC",
         "Forward Participation"),
    Side("foreign", "Foreign", "Foreign CO2", "Backward GVC",
         "Backward Participation"),
)


def log_name(var):
    return f"log {var}"


def sq_name(var):
    return f"log {var} sq"


def inter_name(gvc, control):
    return f"log {gvc} x {control}"


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

year_accounts = functools.partial(ingest.year_accounts,
                                  readers=sys.modules[__name__])


def accounts_series(config: RunConfig):
    """``{year: (accounts, conservation gap)}`` over the configured years."""
    return {year: year_accounts(config, year) for year in config.years}


def base_panel(config: RunConfig, series=None) -> PanelDataset:
    """Raw variables over the configured sample and years, from
    :func:`accounts_series` unless given."""
    series = accounts_series(config) if series is None else series
    accounts = {year: pair[0] for year, pair in series.items()}
    indicators = load_indicator_panel(config.indicators_path)
    return assemble_panel(accounts, indicators, config.sample, config.years,
                          manufacturing=config.manufacturing)


def regression_panel(config: RunConfig, base: PanelDataset) -> PanelDataset:
    """Logs of every variable plus the squared and interacted GVC terms.

    The stringency index may sit at or below zero; with ``esi_shift``
    configured it is shifted up before the log, otherwise a non-positive
    level is a hard failure.
    """
    panel, esi = base, "ESI"
    if config.esi_shift is not None:
        esi = "ESI shifted"
        panel = base.with_variables({esi: base.grid("ESI") + config.esi_shift})
    panel = panel.with_variables({
        log_name(var): derive_variable(panel, "log", esi if var == "ESI" else var,
                                       base=config.log_base)
        for var in ACCOUNT_VARIABLES + INDICATOR_VARIABLES})
    derived = {}
    for gvc in (side.gvc for side in SIDES):
        derived[sq_name(gvc)] = derive_variable(
            panel, "interaction", (log_name(gvc),) * 2)
        for control in GVC_CONTROLS:
            derived[inter_name(gvc, control)] = derive_variable(
                panel, "interaction", (log_name(gvc), log_name(control)))
    return panel.with_variables(derived)


def run_inputs(config: RunConfig):
    pair = (config.icio_path, config.emissions_path)
    return (config.indicators_path,
            *(path(year) for year in config.years for path in pair))


# ---------------------------------------------------------------------------
# Model definitions
# ---------------------------------------------------------------------------

#: The country controls of tables 5-7, as (variable, row label).
CONTROL_ROWS = (
    (log_name("GDP"), "GDP"),
    (log_name("MFG"), "MFG"),
    (log_name("ESI"), "STR"),
    (log_name("TO"), "TO"),
)


def quadratic_model_table(config: RunConfig, panel: PanelDataset,
                          model_id: str, side: Side) -> Table:
    """One column of the headline regression: GVC term, its square, controls."""
    rows_spec = [
        (log_name(side.gvc), side.gvc),
        (sq_name(side.gvc), f"({side.gvc})^2"),
        *CONTROL_ROWS,
    ]
    spec = estimators.RegressionSpec(
        log_name(side.dependent), tuple(name for name, _ in rows_spec),
        covariance=config.fgls_scheme)
    result = estimators.fgls_ar1(panel, spec)
    rows = [(label, coef_cell(result, name)) for name, label in rows_spec]
    rows.append(("Wald Chi Square", f"{result.wald_stat:.2f}"))
    rows.append(("No. of Cross Sections", str(panel.n_units)))
    rows.append(("No. of Observations", str(result.n)))
    short = ", ".join(label for _, label in rows_spec)
    return coefficient_table(
        name=f"table5_{model_id}",
        caption=f"Regression results ({model_id.upper()}): "
                f"{side.dependent} = f({short})",
        columns=("Explanatory Variables", "Coefficient"),
        rows=tuple(rows),
        # "estimators.wald_joint" labels the fit's Wald statistic, as the
        # pinned table files record it.
        source_ops=("estimators.fgls_ar1", "estimators.wald_joint"),
    )


def subsample_table(config: RunConfig, panel: PanelDataset,
                    model_id: str, side: Side) -> Table:
    """OECD / non-OECD / full-sample runs with GVC interaction terms."""
    base_rows = [(log_name(side.gvc), side.gvc), *CONTROL_ROWS]
    inter_rows = [
        (inter_name(side.gvc, control), f"{side.gvc}*{control}")
        for control in GVC_CONTROLS
    ]
    base_names = tuple(name for name, _ in base_rows)

    subsamples = (
        ("OECD", config.oecd, base_names),
        ("NON OECD", config.non_oecd, base_names),
        ("ALL EMEs", config.sample,
         base_names + tuple(name for name, _ in inter_rows)),
    )
    fits = []
    for label, units, regressors in subsamples:
        if not units:
            raise ConfigError(f"the {label} subsample is empty; "
                              "[sample] oecd must list some, but not all, "
                              "of the sampled countries")
        sub = panel.subset_units(units)
        spec = estimators.RegressionSpec(log_name(side.dependent), regressors,
                                         covariance=config.fgls_scheme)
        fits.append((sub, estimators.fgls_ar1(sub, spec)))

    rows = [(label, *(coef_cell(result, name) if name in result.names else ""
                      for _, result in fits))
            for name, label in base_rows + inter_rows]
    rows.append(("Wald Chi Square",
                 *(f"{result.wald_stat:.2f}" for _, result in fits)))
    rows.append(("No. of Observations", *(str(result.n) for _, result in fits)))
    rows.append(("No. of Cross Sections", *(str(sub.n_units) for sub, _ in fits)))

    return coefficient_table(
        name=model_id,
        caption=f"{side.label} emissions embodied in gross exports through "
                f"{side.gvc.lower()} participation, by subsample, "
                "with country characteristics",
        columns=("Explanatory Variables", "OECD", "NON OECD", "ALL EMEs"),
        rows=tuple(rows),
        source_ops=("estimators.fgls_ar1", "estimators.wald_joint"),
    )


def _dynamic_rows(side: Side):
    """The five (variable, row label) regressors of tables 8 and 9."""
    return (
        (log_name("MFG"), "Manufacturing share"),
        (log_name("GDP"), "GDP Per Capita"),
        (log_name("TO"), "Trade openness"),
        (log_name(side.gvc), side.participation),
        (log_name("ESI"), "Stringency Index"),
    )


def time_effects_table(config: RunConfig, panel: PanelDataset,
                       model_id: str, side: Side) -> Table:
    rows_spec = _dynamic_rows(side)
    dep_label = f"{side.label} Emissions"
    spec = estimators.RegressionSpec(
        log_name(side.dependent), tuple(name for name, _ in rows_spec),
        covariance=config.fgls_scheme)
    result = estimators.fgls_ar1(*estimators.with_time_effects(panel, spec))
    rows = [(label, coef_cell(result, name, digits=4))
            for name, label in rows_spec]
    rows.append(("Wald Chi Square", f"{result.wald_stat:.3f}"))
    rows.append(("Fixed Time Effects", "Yes"))
    rows.append(("No. of Observations", str(result.n)))
    rows.append(("No. of Cross sections", str(panel.n_units)))
    rows.append(("No of time periods", str(panel.n_periods)))
    return coefficient_table(
        name=f"{model_id}_{side.tag}",
        caption=f"Panel results with fixed time effects, dep. var: {dep_label}",
        columns=("Dep Var: " + dep_label, "Coefficient"),
        rows=tuple(rows),
        source_ops=("estimators.with_time_effects", "estimators.fgls_ar1"),
    )


def dynamic_iv_table(config: RunConfig, panel: PanelDataset,
                     model_id: str, side: Side) -> Table:
    regressors = _dynamic_rows(side)
    dep, dep_label = log_name(side.dependent), f"{side.label} Emissions"
    result = estimators.anderson_hsiao(
        panel, dep, tuple(name for name, _ in regressors),
        instrumented=log_name(side.gvc), instrument=config.instrument)

    rows = [(f"Lagged {dep_label}",
             coef_cell(result, f"lag d({dep})", digits=4))]
    for name, label in regressors:
        rows.append((f"{label} (First Difference)",
                     coef_cell(result, f"d({name})", digits=4)))
    rows.append(("Constant", coef_cell(result, "const", digits=4)))
    rows.append(("Wald Chi Square", f"{result.wald_stat:.2f}"))
    rows.append(("Overall R square", f"{result.r_squared:.4f}"))
    rows.append(("No. of Observations", str(result.n)))
    worst_f = min(result.first_stage_f.values())
    return coefficient_table(
        name=f"{model_id}_{side.tag}",
        caption="Dynamic panel with instrumented lagged differences, "
                f"dep. var: {dep_label}",
        columns=("Dep Var: " + dep_label, "Coefficient"),
        rows=tuple(rows),
        source_ops=("estimators.anderson_hsiao",),
        notes=(f"Instrument variant: {config.instrument}; weakest "
               f"first-stage F = {worst_f:.2f}",),
    )


# ---------------------------------------------------------------------------
# Diagnostics tables
# ---------------------------------------------------------------------------

def cd_table(panel: PanelDataset) -> Table:
    """Dependence diagnostics on the pooled-regression residuals."""
    rows = []
    for side in SIDES:
        spec = estimators.RegressionSpec(
            log_name(side.dependent),
            (log_name(side.gvc), log_name("TO"), log_name("MFG"),
             log_name("GDP"), log_name("ESI")))
        result = estimators.ols(panel, spec)
        cd = diagnostics.pesaran_cd(result.residuals)
        rows.append((f"{side.label[:3]} CO2 = f({side.gvc}, TO, MFG, GDP, STR)",
                     f"{cd.avg_abs_correlation:.3f} ({cd.p_value:.2f})",
                     f"{cd.statistic:.2f}"))
    return Table(
        name="table2_cd",
        caption="Cross-sectional dependence of the pooled residuals",
        columns=("Model", "Avg Absolute Correlation", "Pesaran Statistic"),
        rows=tuple(rows),
        source_ops=("estimators.ols", "diagnostics.pesaran_cd"),
        notes=("H0: cross-sections are not dependent; "
               "p-values in parentheses",),
    )


APPENDIX_VARS = (
    ("Forward GVC", "Forward GVC"),
    ("Backward GVC", "Backward GVC"),
    ("Domestic CO2", "Domestic Emissions embodied in gross exports"),
    ("Foreign CO2", "Foreign Emissions embodied in gross exports"),
    ("FOR_COVER", "Forest Cover"),
    ("TO", "Trade Openness"),
    ("POP_DENSITY", "Population Density"),
    ("ESI", "Stringency Index"),
    ("GDP", "GDP Per Capita"),
    ("MFG", "Manufacturing Share in GDP"),
)


def stats_table(panel: PanelDataset) -> Table:
    names = [log_name(var) for var, _ in APPENDIX_VARS]
    stats = diagnostics.descriptive_stats(panel, names)
    rows = []
    for (_, label), row in zip(APPENDIX_VARS, stats):
        rows.append((label, str(row.obs), f"{row.mean:.6f}", f"{row.std:.6f}",
                     f"{row.minimum:.6f}", f"{row.maximum:.6f}"))
    return Table(
        name="appendix_stats",
        caption="Descriptive statistics (all variables in logarithmic form)",
        columns=("Variable", "Obs", "Mean", "Std. Dev.", "Min", "Max"),
        rows=tuple(rows),
        source_ops=("diagnostics.descriptive_stats",),
    )


def correlation_table(panel: PanelDataset, side: Side) -> Table:
    """Pairwise correlations of the side's participation and four controls."""
    which = side.gvc.split()[0].lower()
    pairs = ((side.gvc, side.participation),
             ("MFG", "Manufacturing Value Added"),
             ("GDP", "GDP Per Capita"),
             ("ESI", "Stringency Index"),
             ("TO", "Trade Openness"))
    names = [log_name(var) for var, _ in pairs]
    labels = [label for _, label in pairs]
    corr = diagnostics.correlation_matrix(panel, names)
    rows = []
    for i, label in enumerate(labels):
        cells = [f"{corr[i, j]:.4f}" if j <= i else "" for j in range(len(labels))]
        rows.append((label, *cells))
    return Table(
        name=f"appendix_corr_{which}",
        caption=f"Correlation matrix ({which} participation set)",
        columns=("", *labels),
        rows=tuple(rows),
        source_ops=("diagnostics.correlation_matrix",),
    )


#: Each ``ranks_<year>`` column: accounts key, label and basis. Participation
#: ranks shares of gross exports, as published; emissions rank levels.
RANK_COLUMNS = (
    ("forward_gvc", "Forward Participation", diagnostics.SHARE_BASIS),
    ("backward_gvc", "Backward Participation", diagnostics.SHARE_BASIS),
    ("foreign_co2", "Foreign Emissions embodied in Gross Exports",
     diagnostics.LEVEL_BASIS),
    ("domestic_co2", "Domestic Emissions embodied in Gross Exports",
     diagnostics.LEVEL_BASIS),
)
#: Caption words per basis: for participation, then for emissions (``*_co2``).
RANK_CAPTION_WORDS = {
    diagnostics.SHARE_BASIS: ("participation as a share of gross exports",
                              "emissions as a share of gross exports"),
    diagnostics.LEVEL_BASIS: ("participation levels", "emission levels"),
}


def rank_year_table(config: RunConfig, year, accounts, indicator=None,
                    basis=None) -> Table:
    """The sampled countries ranked from highest to lowest in one year's
    accounts: by each of ``RANK_COLUMNS`` as ``ranks_<year>``, or by one
    ``indicator`` as ``rank_<indicator>_<year>``. Each indicator takes its
    ``RANK_COLUMNS`` basis unless ``basis``, a ``diagnostics`` basis, is
    given for all."""
    def totals(key):
        return dict(zip(config.sample, accounts.aggregate(
            key, config.manufacturing, config.sample)))

    bases = {key: basis or default for key, _, default in RANK_COLUMNS}
    exports = totals("gross_exports")
    ranks = [diagnostics.rank_table(totals(key), key, year, basis=bases[key],
                                    gross_exports=exports)
             for key in ([indicator] if indicator else bases)]
    if indicator:
        return Table(
            name=f"rank_{indicator}_{year}",
            caption=f"{indicator} ranks, {year} (basis: {ranks[0].basis})",
            columns=("Rank", "Country", "Value"),
            rows=tuple((str(r), c, f"{v:.6f}") for r, c, v in ranks[0].rows),
            source_ops=("diagnostics.rank_table",),
        )
    words = dict.fromkeys(RANK_CAPTION_WORDS[r.basis][r.indicator.endswith("_co2")]
                          for r in ranks)
    return Table(
        name=f"ranks_{year}",
        caption=f"Ranks from highest to lowest in {year} ({'; '.join(words)})",
        columns=("Ranks",) + tuple(label for _, label, _ in RANK_COLUMNS),
        rows=tuple(zip(map(str, range(1, len(config.sample) + 1)),
                       *(r.ranking() for r in ranks))),
        source_ops=("diagnostics.rank_table", "mrio.compute_accounts"),
        notes=("A low rank implies higher emissions and higher participation",),
    )


# ---------------------------------------------------------------------------
# Data exports
# ---------------------------------------------------------------------------

EXPORT_SETS = {
    "embodied": ("gross_exports", "domestic_co2", "foreign_co2"),
    "gvc": ("gross_exports", "forward_gvc", "backward_gvc"),
}


def accounts_export(accounts, which: str):
    """Per-country-industry rows of one year's accounts; returns (header, rows)."""
    keys = EXPORT_SETS[which]
    header = ("country", "industry") + keys
    rows = []
    for ci, country in enumerate(accounts.countries):
        for ki, industry in enumerate(accounts.industries):
            cells = [country, industry]
            cells += [_fmt(accounts.indicator(k)[ci, ki]) for k in keys]
            rows.append(tuple(cells))
    return header, tuple(rows)


def panel_export(panel: PanelDataset):
    header = ("country", "year", "variable", "value")
    rows = []
    for name in sorted(panel.names()):
        grid = panel.grid(name)
        for i, unit in enumerate(panel.units):
            for j, period in enumerate(panel.periods):
                rows.append((unit, str(period), name, _fmt(grid[i, j])))
    return header, tuple(rows)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

#: Each ``regress`` id: its table builder and the channels it is fitted on.
REGRESS_TABLES = {
    "model1": (quadratic_model_table, SIDES[:1]),
    "model2": (quadratic_model_table, SIDES[1:]),
    "table6": (subsample_table, SIDES[:1]),
    "table7": (subsample_table, SIDES[1:]),
    "table8": (time_effects_table, SIDES),
    "table9": (dynamic_iv_table, SIDES),
}

#: The commands whose tables come from the regression panel, report order.
PANEL_COMMANDS = (*REGRESS_TABLES, "cd-test", "stats", "corr")


def panel_tables(config: RunConfig, panel: PanelDataset, command: str):
    """The tables of one of ``PANEL_COMMANDS``, a ``regress`` id or a
    diagnostics command, fitted on the regression panel. An error raised
    while they are built names the command."""
    if command not in PANEL_COMMANDS:
        raise SchemaError(f"unknown table command {command!r}")
    with prefixed(command):
        if command in REGRESS_TABLES:
            build, sides = REGRESS_TABLES[command]
            return [build(config, panel, command, side) for side in sides]
        if command == "cd-test":
            return [cd_table(panel)]
        if command == "stats":
            return [stats_table(panel)]
        return [correlation_table(panel, side) for side in SIDES]


def full_bundle(config: RunConfig) -> ReportBundle:
    series = accounts_series(config)
    panel = regression_panel(config, base_panel(config, series))
    config_hash, inputs = hash_run_inputs(config, run_inputs(config))
    bundle = ReportBundle(
        inputs=inputs, config_hash=config_hash, numerics=numerics(),
        conservation_gaps={year: gap for year, (_, gap) in series.items()})
    for command in PANEL_COMMANDS:
        for table in panel_tables(config, panel, command):
            bundle.add(table)
    for year in sorted({config.years[0], config.years[-1]}):
        bundle.add(rank_year_table(config, year, series[year][0]))
    return bundle
