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
The run config (:func:`load_config`) and the indicator panel file are
read here, not in ``ingest``, so a year runs none of their code.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import diagnostics, estimators, ingest
from .errors import (ConfigError, DuplicateKey, SchemaError,
                     UnknownVariableName, prefixed)
from .ingest import (_atomic_write, _fmt, _parse_float, _parse_int,
                     _parse_list, _read_records, csv_text, numerics)
# A year is read through these names here, where the benchmark's tracer
# wraps them, until its spans move into the package (ROADMAP item 1b).
from .ingest import load_emissions_vector, load_icio, load_year  # noqa: F401
from .mrio import repeated
from .panel import (ACCOUNT_VARIABLES, DEFAULT_LOG_BASE, DEFAULT_MANUFACTURING,
                    INDICATOR_VARIABLES, PanelDataset, assemble_panel,
                    derive_variable)
from .report import (ReportBundle, Table, coef_cell, coefficient_table,
                     hash_run_inputs)

DATA_DIR_ENV = "GVCCARBON_DATA_DIR"
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
# Indicator panels
# ---------------------------------------------------------------------------

INDICATOR_HEADER = ["country", "year", "variable", "value", "unit"]
#: Accepted spellings for indicator codes, normalized to the canonical one.
VARIABLE_ALIASES = {
    "STR": "ESI",
    "STRINGENCY": "ESI",
    "TRADE_OPENNESS": "TO",
    "GDP_PER_CAPITA": "GDP",
}


@dataclass(frozen=True)
class IndicatorPanel:
    """Long-format indicator records keyed by (country, year, variable)."""

    records: tuple  # (country, year, variable, value, unit)

    def __post_init__(self):
        seen = set()
        for country, year, variable, _, _ in self.records:
            key = (country, int(year), variable)
            if key in seen:
                raise DuplicateKey(f"duplicate indicator record {key}")
            seen.add(key)


def normalize_variable_name(name: str, where: str) -> str:
    """The canonical code of the indicator ``name``, read at ``where``."""
    canon = name.strip().upper()
    canon = VARIABLE_ALIASES.get(canon, canon)
    if canon in INDICATOR_VARIABLES:
        return canon
    raise UnknownVariableName(f"{where}: unknown indicator {name!r}; "
                              f"expected one of {INDICATOR_VARIABLES}")


def load_indicator_panel(path) -> IndicatorPanel:
    path = Path(path)
    records = []
    for where, row in _read_records(path, INDICATOR_HEADER):
        country = row[0].strip()
        year = _parse_int(row[1], where)
        variable = normalize_variable_name(row[2], where)
        value = _parse_float(row[3], where)
        records.append((country, year, variable, value, row[4].strip()))
    with prefixed(path, DuplicateKey):  # the panel's check does not know the file
        return IndicatorPanel(tuple(records))


def save_indicator_panel(indicators: IndicatorPanel, path):
    _atomic_write(path, csv_text(INDICATOR_HEADER, (
        (country, year, variable, _fmt(value), unit)
        for country, year, variable, value, unit in sorted(indicators.records))))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Paths, sample definition, and estimation switches for one run."""

    data_dir: Path
    years: tuple
    sample: tuple
    oecd: tuple
    icio_pattern: str = "icio_{year}.csv"
    emissions_pattern: str = "emissions_{year}.csv"
    indicators: str = "indicators.csv"
    manufacturing: tuple = DEFAULT_MANUFACTURING
    log_base: float = DEFAULT_LOG_BASE
    # Opt-in additive shift applied to the stringency index before its
    # log; by default non-positive levels are a hard failure.
    esi_shift: float = None
    fgls_scheme: str = estimators.COVARIANCE_SCHEMES[-1]  # the paper's
    instrument: str = estimators.LAGGED_DIFFERENCE
    output_dir: Path = Path("out")
    source_path: Path = None

    def __post_init__(self):
        if not self.years:
            raise ConfigError("config declares no years")
        if not self.sample:
            raise ConfigError("config declares no sample countries")
        for name in ("sample", "oecd", "manufacturing"):
            if twice := repeated(getattr(self, name)):
                raise ConfigError(f"{name} lists {', '.join(twice)} more than once")
        for before, year in zip(self.years, self.years[1:]):
            if year <= before:
                raise ConfigError(f"years must increase: {year} follows {before}")
        extra = set(self.oecd) - set(self.sample)
        if extra:
            raise ConfigError(
                f"OECD flags name countries outside the sample: {sorted(extra)}"
            )
        if self.fgls_scheme not in estimators.COVARIANCE_SCHEMES:
            raise ConfigError(f"unknown fgls_scheme {self.fgls_scheme!r}")
        if self.instrument not in estimators.INSTRUMENT_VARIANTS:
            raise ConfigError(f"unknown instrument {self.instrument!r}")

    @property
    def non_oecd(self):
        return tuple(c for c in self.sample if c not in set(self.oecd))

    @property
    def indicators_path(self) -> Path:
        return self.data_dir / self.indicators


def _parse_years(text: str, where: str):
    text = text.strip()
    if "-" in text and "," not in text:
        lo, _, hi = text.partition("-")
        lo, hi = _parse_int(lo, where), _parse_int(hi, where)
        if hi < lo:
            raise ConfigError(f"{where}: year range {text!r} is reversed")
        return tuple(range(lo, hi + 1))
    return tuple(_parse_int(tok, where) for tok in text.split(",") if tok.strip())


def parse_log_base(token, where) -> float:
    """``token``, the value of the config key ``where``, as a usable log
    base: ``e`` or a finite positive number other than 1."""
    token = str(token).strip().lower()
    if token in ("e", "ln", "natural"):
        return math.e
    try:
        base = _parse_float(token, where)
    except SchemaError as exc:
        raise ConfigError(f"{exc}; expected a finite number or 'e'") from None
    if base <= 0 or base == 1:
        raise ConfigError(f"{where}: log base {base} is not usable")
    return base


def load_config(path, data_dir=None, output_dir=None) -> RunConfig:
    """Read a sectioned key = value config file, applying CLI overrides.

    ``;`` after a blank starts a comment, and a key that this function does
    not read is a ``ConfigError``. The data directory resolves as: explicit
    override, then the config's own value, then the GVCCARBON_DATA_DIR
    environment variable, then the config file's directory.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    parser = ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read(path, encoding="utf-8")
    except (ConfigParserError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    read = set()

    def get(section, option, fallback=None):
        read.add((section, option))
        return parser.get(section, option, fallback=fallback)

    for section in ("data", "sample"):
        if not parser.has_section(section):
            raise ConfigError(f"{path}: missing [{section}] section")

    dir_text = get("data", "dir")  # read even when overridden
    if data_dir is not None:
        base = Path(data_dir)
    elif dir_text is not None:
        base = Path(dir_text)
        if not base.is_absolute():
            base = path.parent / base
    elif os.environ.get(DATA_DIR_ENV):
        base = Path(os.environ[DATA_DIR_ENV])
    else:
        base = path.parent

    years_text = get("data", "years")
    if years_text is None:
        raise ConfigError(f"{path}: [data] years is required")
    shift = get("variables", "esi_shift")
    try:  # a value that does not parse is a fault of the config
        years = _parse_years(years_text, f"{path} [data] years")
        shift = shift if shift is None else _parse_float(
            shift, f"{path} [variables] esi_shift")
    except SchemaError as exc:
        raise ConfigError(str(exc)) from None
    sample = _parse_list(get("sample", "countries", ""))
    if not years:
        raise ConfigError(f"{path} [data] years: lists no year")
    if not sample:
        raise ConfigError(f"{path} [sample] countries: lists no country")
    out = get("output", "dir", RunConfig.output_dir)  # read even when overridden
    fields = dict(
        data_dir=base,
        icio_pattern=get("data", "icio_pattern", RunConfig.icio_pattern),
        emissions_pattern=get("data", "emissions_pattern",
                              RunConfig.emissions_pattern),
        indicators=get("data", "indicators", RunConfig.indicators),
        years=years,
        sample=sample,
        oecd=_parse_list(get("sample", "oecd", "")),
        manufacturing=_parse_list(get("variables", "manufacturing", ""))
        or DEFAULT_MANUFACTURING,
        log_base=parse_log_base(get("variables", "log_base",
                                    RunConfig.log_base),
                                f"{path} [variables] log_base"),
        esi_shift=shift,
        fgls_scheme=get("estimation", "fgls_scheme", RunConfig.fgls_scheme),
        instrument=get("estimation", "instrument", RunConfig.instrument),
        output_dir=Path(out if output_dir is None else output_dir),
        source_path=path,
    )
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if (section, key) not in read:
                raise ConfigError(f"{path} [{section}] {key}: unknown key")
    with prefixed(path, ConfigError):  # RunConfig's checks do not know the file
        return RunConfig(**fields)


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
    return (config.indicators_path, *(path for year in config.years
                                      for path in ingest.year_files(config, year)))


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
    rows.append(("Constant", coef_cell(result, estimators.INTERCEPT_NAME, digits=4)))
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
