"""Synthetic worlds: random closed-economy IO fixtures and a bundled
demo dataset.

The generators build tables that satisfy the accounting identities by
construction: draw nonnegative coefficients A with column sums below one,
draw final demand F, then set gross output x = (I - A)^(-1) F 1 and
intermediate use Z = A diag(x). Row balance and nonnegative value added
follow exactly, so every fixture passes ingestion validation and obeys
the conservation identities to solver precision. ``_closed_world`` is the
one place a balanced world is built from A and F.

``write_demo_dataset`` materializes a 16-economy (plus rest-of-world),
24-year world with indicator series, in the on-disk formats the loaders
read. It is deterministic for a fixed seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import ingest, workflow
from .mrio import EmissionIntensity, IcioTable

#: The demo sample: 16 emerging economies; ROW closes the world.
DEMO_SAMPLE = ("BRA", "CHN", "CZE", "HUN", "IDN", "IND", "ISR", "KOR",
               "POL", "PRT", "RUS", "SVN", "THA", "TUR", "VNM", "ZAF")
DEMO_OECD = ("CZE", "HUN", "ISR", "KOR", "POL", "PRT", "SVN", "TUR")
DEMO_INDUSTRIES = ("D10T12", "D24", "D35", "D68")
DEMO_MANUFACTURING = ("D10T12", "D24")
DEMO_YEARS = tuple(range(1995, 2019))

#: Each demo indicator: its unit, the range of its first-year level and
#: the range of its yearly growth factor, both drawn per sampled country.
DEMO_INDICATORS = {
    "GDP": ("current US$", (1500.0, 30000.0), (1.02, 1.07)),
    "MFG": ("% of GDP", (9.0, 32.0), (0.995, 1.005)),
    "ESI": ("index 0-6", (0.4, 1.8), (1.01, 1.05)),
    "TO": ("% of GDP", (25.0, 150.0), (1.0, 1.015)),
    "FOR_COVER": ("% of land area", (8.0, 65.0), (0.998, 1.002)),
    "REN_ENERGY_CONS": ("% of final energy", (3.0, 55.0), (0.99, 1.01)),
    "POP_DENSITY": ("people per km2", (9.0, 500.0), (1.0, 1.02)),
}


def _home_bias(f_grid, k, factor):
    """Scale each country's final demand for its own K products in place."""
    for ci in range(f_grid.shape[1]):
        f_grid[ci * k:(ci + 1) * k, ci] *= factor


def _closed_world(a, f_grid, countries, industries, year) -> IcioTable:
    """The balanced table of A and F: x = (I - A)^-1 F 1 and Z = A diag(x)."""
    x = np.linalg.solve(np.eye(a.shape[0]) - a, f_grid.sum(axis=1))
    return IcioTable(countries, industries, a * x[np.newaxis, :], f_grid, x,
                     year=year)


def random_icio(rng, countries, industries, year=None) -> IcioTable:
    """Random closed-world IO table with exact row balance.

    Column sums of A are drawn in [0.2, 0.7], which bounds the spectral
    radius below one and keeps value added positive everywhere.

    A seed names one table only at a fixed BLAS thread count: the solve
    for x runs through threaded BLAS, whose sums round differently with
    the number of threads.
    """
    countries = tuple(countries)
    industries = tuple(industries)
    nk = len(countries) * len(industries)
    a = rng.uniform(0.1, 1.0, size=(nk, nk))
    targets = rng.uniform(0.2, 0.7, size=nk)
    a *= targets / a.sum(axis=0)

    f_grid = rng.uniform(5.0, 50.0, size=(nk, len(countries)))
    # Home bias: most final demand is met domestically.
    _home_bias(f_grid, len(industries), 4.0)
    return _closed_world(a, f_grid, countries, industries, year)


def random_intensity(rng, icio: IcioTable) -> EmissionIntensity:
    """Direct intensities drawn in [0.02, 0.6], zero where x is zero."""
    e = rng.uniform(0.02, 0.6, size=icio.x.shape)
    e[icio.x == 0] = 0.0
    return EmissionIntensity(icio.countries, icio.industries, e)


# ---------------------------------------------------------------------------
# Demo dataset
# ---------------------------------------------------------------------------

def _demo_indicators(rng, sample):
    """Smoothly growing indicator series, all strictly positive."""
    specs = DEMO_INDICATORS.values()
    levels = [rng.uniform(*level, len(sample)) for _, level, _ in specs]
    trends = [rng.uniform(*trend, len(sample)) for _, _, trend in specs]
    rows = []
    for (variable, (unit, *_)), first, trend in zip(
            DEMO_INDICATORS.items(), levels, trends):
        for ci, country in enumerate(sample):
            value = first[ci]
            for year in DEMO_YEARS:
                noisy = value * float(np.exp(rng.normal(0.0, 0.06)))
                if variable == "ESI":
                    noisy = min(noisy, 5.9)
                rows.append((country, year, variable, round(noisy, 6), unit))
                value *= trend[ci]
    return workflow.IndicatorPanel(tuple(rows))


def write_demo_dataset(target_dir, seed: int = 0) -> Path:
    """Create the demo data directory; returns the path of its config file.

    Contents: one IO table and one emissions file per year 1995-2018 for
    17 economies (16 sampled plus ROW) and 4 industries, an indicator
    panel for the sampled countries, and a ready-to-run config.
    """
    target = Path(target_dir)
    target.mkdir(parents=True, exist_ok=True)
    defaults = workflow.RunConfig
    rng = np.random.default_rng(seed)
    countries = DEMO_SAMPLE + ("ROW",)
    industries = DEMO_INDUSTRIES
    nk = len(countries) * len(industries)

    base_a = np.zeros((nk, nk))
    k = len(industries)
    for j in range(nk):
        col = rng.uniform(0.05, 1.0, nk)
        home = (j // k) * k
        col[home:home + k] *= 6.0  # domestic inputs dominate
        base_a[:, j] = col * (rng.uniform(0.3, 0.6) / col.sum())
    base_f = rng.uniform(20.0, 200.0, size=(nk, len(countries)))
    _home_bias(base_f, k, 5.0)
    growth = rng.uniform(1.01, 1.06, size=len(countries))

    intensity = rng.uniform(0.05, 0.6, size=nk)
    intensity[::k] *= 1.5  # heavy manufacturing rows run dirtier
    decline = rng.uniform(0.985, 0.999, size=nk)

    for t, year in enumerate(DEMO_YEARS):
        # Sizable idiosyncratic year shocks keep the derived panel series
        # away from unit roots, which the AR(1) step would (rightly) refuse.
        drift = np.exp(rng.normal(0.0, 0.08, size=base_f.shape))
        f_grid = base_f * (growth[np.newaxis, :] ** t) * drift
        icio = _closed_world(base_a, f_grid, countries, industries, year)
        ingest.save_icio(icio,
                         target / defaults.icio_pattern.format(year=year))
        jitter = np.exp(rng.normal(0.0, 0.05, size=nk))
        tonnes = intensity * (decline ** t) * jitter * icio.x
        ingest.save_emissions(
            icio, tonnes, target / defaults.emissions_pattern.format(year=year))

    workflow.save_indicator_panel(_demo_indicators(rng, DEMO_SAMPLE),
                                  target / defaults.indicators)

    config_path = target / "demo.cfg"
    config_text = "\n".join([
        "[data]",
        "dir = .",
        f"icio_pattern = {defaults.icio_pattern}",
        f"emissions_pattern = {defaults.emissions_pattern}",
        f"indicators = {defaults.indicators}",
        f"years = {DEMO_YEARS[0]}-{DEMO_YEARS[-1]}",
        "",
        "[sample]",
        "countries = " + ",".join(DEMO_SAMPLE),
        "oecd = " + ",".join(DEMO_OECD),
        "",
        "[variables]",
        "manufacturing = " + ",".join(DEMO_MANUFACTURING),
        f"log_base = {defaults.log_base:g}",
        "",
        "[estimation]",
        f"fgls_scheme = {defaults.fgls_scheme}",
        f"instrument = {defaults.instrument}",
        "",
        "[output]",
        f"dir = {defaults.output_dir}",
        "",
    ])
    ingest._atomic_write(config_path, config_text)
    return config_path


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Write the bundled synthetic demo dataset to a directory."
    )
    parser.add_argument("target", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    config = write_demo_dataset(args.target, seed=args.seed)
    print(f"demo dataset written; config at {config}")


if __name__ == "__main__":
    main()
