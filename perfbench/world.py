"""The OECD-sized random world and the reference values the output checks
compare against.

Tables come from ``gvccarbon.synthetic.random_icio`` and
``random_intensity``. The references are computed here with plain numpy,
independently of how ``gvccarbon.mrio`` computes its accounts, so the
checks keep holding when that algorithm changes.
"""

from __future__ import annotations

import numpy as np

FIRST_YEAR = 2017


def codes(n_countries, n_industries):
    countries = tuple(f"C{i:02d}" for i in range(n_countries))
    industries = tuple(f"D{j:02d}" for j in range(n_industries))
    return countries, industries


def years(n_years):
    return tuple(range(FIRST_YEAR, FIRST_YEAR + n_years))


def generate(seed, n_countries, n_industries, n_years):
    """[(icio, intensity)] per year; the same seed gives the same world."""
    from gvccarbon import synthetic  # the parent process never imports it

    rng = np.random.default_rng(seed)
    countries, industries = codes(n_countries, n_industries)
    out = []
    for year in years(n_years):
        icio = synthetic.random_icio(rng, countries, industries, year=year)
        out.append((icio, synthetic.random_intensity(rng, icio)))
    return out


def loaded_intensity(x, tonnes):
    """Intensity exactly as ``ingest.load_emissions_vector`` derives it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0, tonnes / np.where(x > 0, x, 1.0), 0.0)


def reference(icio, e):
    """Gross exports per (country, industry) and CO2 embodied in each
    country's exports, domestic plus foreign.

    The second is e' (I - A)^-1 restricted to the country's export rows:
    one transposed solve, no inverse.
    """
    n, k = len(icio.countries), len(icio.industries)
    owner = np.repeat(np.arange(n), k)
    foreign_z = owner[:, np.newaxis] != owner[np.newaxis, :]
    foreign_f = owner[:, np.newaxis] != np.arange(n)[np.newaxis, :]
    exports = (np.where(foreign_z, icio.Z, 0.0).sum(axis=1)
               + np.where(foreign_f, icio.F, 0.0).sum(axis=1))
    system = -(icio.Z / np.where(icio.x > 0, icio.x, 1.0)[np.newaxis, :])
    system[np.diag_indices_from(system)] += 1.0
    multipliers = np.linalg.solve(system.T, e)
    embodied = np.bincount(owner, weights=multipliers * exports, minlength=n)
    return {"gross_exports": exports.reshape(n, k), "embodied_total": embodied}
