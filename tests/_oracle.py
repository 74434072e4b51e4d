"""Plain-numpy oracles for the input-output and regression tests.

Each helper recomputes what it needs from the table's or the design's
arrays, without calling into ``gvccarbon.mrio`` or
``gvccarbon.estimators``, so a test that compares library output against
them checks two independent computations.
"""

from types import SimpleNamespace

import numpy as np


def block(icio, country):
    """Row/column slice of one country's industries."""
    k = len(icio.industries)
    c = icio.countries.index(country)
    return slice(c * k, (c + 1) * k)


def country_exports(icio, country):
    """Sales of ``country``'s industries to foreign industries and foreign
    final demand, from ``Z`` and ``F`` with a foreign mask."""
    rc = block(icio, country)
    foreign_z = np.ones(icio.Z.shape[1], dtype=bool)
    foreign_z[rc] = False
    foreign_f = np.ones(icio.F.shape[1], dtype=bool)
    foreign_f[icio.countries.index(country)] = False
    return (icio.Z[rc][:, foreign_z].sum(axis=1)
            + icio.F[rc][:, foreign_f].sum(axis=1))


def coefficients(icio):
    """Dense technical coefficients A = Z diag(x)^-1 of a table, with zero
    columns where x <= 0."""
    x = np.asarray(icio.x)
    positive = x > 0
    return np.where(positive, icio.Z / np.where(positive, x, 1.0), 0.0)


def dense_table(A, industries=None):
    """One-country stand-in table of a dense coefficient matrix: Z = A and
    x = 1, so A is its own coefficients. It skips the table checks, so
    ``A`` may be nonproductive. Rows are labelled ``A:<industry>``."""
    Z = np.asarray(A, dtype=float)
    industries = tuple(industries or (f"s{i}" for i in range(len(Z))))
    labels = [f"A:{s}" for s in industries]
    return SimpleNamespace(countries=("A",), industries=industries, Z=Z,
                           x=np.ones(len(Z)), row_labels=lambda: labels)


def random_coefficients(rng, size, spectral_radius):
    """Dense nonnegative coefficient matrix scaled to a target spectral radius."""
    a = rng.uniform(0.0, 1.0, size=(size, size))
    current = np.abs(np.linalg.eigvals(a)).max()
    return a * (spectral_radius / current)


def icio_bytes(icio):
    """The canonical file of an ICIO table, written one cell at a time: a
    zero (of either sign) prints as ``0``, any other value as the ``repr``
    of the Python float."""
    def token(value):
        value = float(value)
        return "0" if value == 0.0 else repr(value)

    labels = [f"{c}:{s}" for c in icio.countries for s in icio.industries]
    lines = ["#countries: " + ",".join(icio.countries),
             "#industries: " + ",".join(icio.industries)]
    if icio.year is not None:
        lines.append(f"#year: {icio.year}")
    lines.append(",".join(["row"] + labels
                          + [f"FD:{c}" for c in icio.countries] + ["OUT"]))
    for i, label in enumerate(labels):
        lines.append(",".join([label] + [token(v) for v in icio.Z[i]]
                              + [token(v) for v in icio.F[i]]
                              + [token(icio.x[i])]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def svd_least_squares(W, v):
    """Least squares of ``v`` on ``W`` from the SVD of the column-scaled
    design: (beta, classical covariance), the covariance being
    resid'resid / (n - p) times V S^-2 V' mapped back to ``W``'s columns."""
    n, p = W.shape
    norms = np.linalg.norm(W, axis=0)
    u, s, vt = np.linalg.svd(W / norms, full_matrices=False)
    m = vt.T / s / norms[:, np.newaxis]
    beta = m @ (u.T @ v)
    resid = v - W @ beta
    return beta, float(resid @ resid) / (n - p) * (m @ m.T)


def wald_by_rss(W, v, s2):
    """Wald statistic that every column of ``W`` but the first has a zero
    coefficient, from the Wald/F identity: (RSS of ``v`` on ``W[:, :1]``
    - RSS of ``v`` on ``W``) / ``s2``, each RSS from ``lstsq`` on the
    column-scaled design."""
    def rss(design):
        scaled = design / np.linalg.norm(design, axis=0)
        coef, *_ = np.linalg.lstsq(scaled, v, rcond=None)
        resid = v - scaled @ coef
        return float(resid @ resid)

    return (rss(W[:, :1]) - rss(W)) / s2
