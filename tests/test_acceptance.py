"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
its measured quantities. Stated tolerances are pinned here, not
recomputed elsewhere:

  1. Leontief inverse vs 100-term power-series oracle, 1e-7, residual
     1e-8, 200 random productive matrices, < 5 s.
  2. Conservation identities on 50 random closed worlds: production vs
     consumption totals 1e-8 relative; domestic + foreign split 1e-9.
  3. FGLS: identity-scheme collapse to OLS at 1e-10; efficiency vs OLS
     on 500 simulated AR(1) panels (5% slack); mean rho within 0.08;
     < 60 s.
  4. Dependence statistic size under the null: rejection rate in
     [3%, 7%] at the 5% level over 1000 replications; mean in [-0.1, 0.1].
  5. Dynamic-panel IV: exact recovery without noise (1e-8); Monte Carlo
     mean within 0.05 of 0.45 over 500 replications; equality with a
     hand-rolled two-stage oracle at 1e-10.
  6. CLI table shapes on the bundled synthetic 16x24 dataset.
  7. Published-value expectation files ship and drive --check; a DGP
     calibrated to the published sign pattern is recovered in >= 95%
     of replications.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from _dgp import simulate_ar1_panel, simulate_dynamic_panel
from gvccarbon import mrio, synthetic
from gvccarbon.cli import main as cli_main
from gvccarbon.diagnostics import pesaran_cd
from gvccarbon.estimators import (
    RegressionSpec,
    anderson_hsiao,
    fgls_ar1,
    ols,
)
from gvccarbon.panel import PanelDataset
from gvccarbon.report import load_expectations, parse_cell_number

pytestmark = pytest.mark.filterwarnings(
    "ignore::gvccarbon.errors.WeakInstrument")


def report_line(ok, label, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# Criterion 1 -----------------------------------------------------------

def test_criterion_1_leontief_neumann_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 13))
        # Radii capped at 0.8: truncating the power series at 100 terms
        # leaves a tail of order radius**101 / (1 - radius), which only
        # stays below the 1e-7 tolerance away from the 0.9 boundary.
        radius = float(rng.uniform(0.05, 0.8))
        A = synthetic.random_coefficients(rng, size, radius)
        assert np.abs(np.linalg.eigvals(A)).max() <= 0.9 + 1e-12
        labels = tuple(f"s{i}" for i in range(size))
        B = mrio.leontief_inverse(mrio.LeontiefModel(("X",), labels, A))

        series = np.zeros_like(A)
        term = np.eye(size)
        for _ in range(100):
            series += term
            term = term @ A
        worst_gap = max(worst_gap, float(np.abs(B - series).max()))
        residual = (np.eye(size) - A) @ B - np.eye(size)
        worst_residual = max(worst_residual, float(np.abs(residual).max()))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-7 and worst_residual <= 1e-8 and elapsed < 5.0
    report_line(ok, "criterion 1 (Leontief oracle)",
                f"max |B - series| = {worst_gap:.2e}, "
                f"max residual = {worst_residual:.2e}, {elapsed:.2f}s")


# Criterion 2 -----------------------------------------------------------

def test_criterion_2_conservation_identities():
    rng = np.random.default_rng(2025)
    worst_total = 0.0
    worst_split = 0.0
    for _ in range(50):
        n_countries = int(rng.integers(2, 5))
        n_industries = int(rng.integers(1, 4))
        countries = tuple(f"C{i}" for i in range(n_countries))
        industries = tuple(f"S{i}" for i in range(n_industries))
        icio = synthetic.random_icio(rng, countries, industries)
        model = mrio.build_model(icio)
        B = mrio.leontief_inverse(mrio.build_coefficients(icio))
        e = synthetic.random_intensity(rng, icio)
        worst_total = max(worst_total, mrio.conservation_gap(icio, model, e))
        accounts = mrio.compute_accounts(icio, model, e)
        for ci, c in enumerate(countries):
            rc = icio.rows(c)
            ex = mrio.gross_exports(icio, c)
            total = float(e.e @ (B[:, rc] @ ex))
            dom = accounts.domestic_co2[ci].sum()
            frn = accounts.foreign_co2[ci].sum()
            gap = abs(dom + frn - total) / max(abs(total), 1e-30)
            worst_split = max(worst_split, gap)
    ok = worst_total <= 1e-8 and worst_split <= 1e-9
    report_line(ok, "criterion 2 (conservation)",
                f"worst production/consumption gap = {worst_total:.2e}, "
                f"worst split gap = {worst_split:.2e}")


# Criterion 3 -----------------------------------------------------------

def test_criterion_3_fgls_collapse_and_efficiency():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    panel = simulate_ar1_panel(rng, n_units=10, n_periods=14)
    collapse_gap = float(np.abs(
        fgls_ar1(panel, RegressionSpec("y", ("x",), covariance="iid")).beta
        - ols(panel, RegressionSpec("y", ("x",))).beta
    ).max())

    fgls_slopes, ols_slopes, rhos = [], [], []
    for _ in range(500):
        sim = simulate_ar1_panel(rng, n_units=16, n_periods=24,
                                 beta=(1.0, 0.5), rho=0.6)
        ols_slopes.append(ols(sim, RegressionSpec("y", ("x",)))
                          .coefficient("x"))
        res = fgls_ar1(sim, RegressionSpec(
            "y", ("x",), covariance="ar1+panel-heteroscedastic"))
        fgls_slopes.append(res.coefficient("x"))
        rhos.append(res.rho_hat)
    var_fgls = float(np.var(fgls_slopes))
    var_ols = float(np.var(ols_slopes))
    rho_mean = float(np.mean(rhos))
    elapsed = time.perf_counter() - start

    ok = (collapse_gap <= 1e-10
          and var_fgls <= 1.05 * var_ols
          and abs(rho_mean - 0.6) <= 0.08
          and elapsed < 60.0)
    report_line(ok, "criterion 3 (FGLS collapse and efficiency)",
                f"collapse gap = {collapse_gap:.2e}, "
                f"var ratio = {var_fgls / var_ols:.3f}, "
                f"mean rho = {rho_mean:.3f}, {elapsed:.1f}s")


# Criterion 4 -----------------------------------------------------------

def test_criterion_4_cd_size_under_null():
    rng = np.random.default_rng(2027)
    stats = np.empty(1000)
    for i in range(1000):
        stats[i] = pesaran_cd(rng.normal(size=(16, 24))).statistic
    rejection = float(np.mean(np.abs(stats) > 1.959963984540054))
    mean = float(stats.mean())
    ok = 0.03 <= rejection <= 0.07 and -0.1 <= mean <= 0.1
    report_line(ok, "criterion 4 (CD test size)",
                f"rejection rate = {rejection:.3f}, mean = {mean:.3f}")


# Criterion 5 -----------------------------------------------------------

def test_criterion_5_dynamic_panel_iv():
    rng = np.random.default_rng(2028)
    clean = simulate_dynamic_panel(rng, n_units=4, n_periods=30, alpha=0.5,
                                   noise=0.0)
    exact_gap = abs(anderson_hsiao(clean, "y", ("x",))
                    .coefficient("lag d(y)") - 0.5)

    estimates = []
    for _ in range(500):
        sim = simulate_dynamic_panel(rng, n_units=16, n_periods=24,
                                     alpha=0.45)
        estimates.append(anderson_hsiao(sim, "y", ("x",))
                         .coefficient("lag d(y)"))
    mc_gap = abs(float(np.mean(estimates)) - 0.45)

    fixture = simulate_dynamic_panel(np.random.default_rng(7), n_units=3,
                                     n_periods=6, alpha=0.4, noise=0.3)
    res = anderson_hsiao(fixture, "y", ("x",))
    y = fixture.grid("y")
    x = fixture.grid("x")
    dy = np.diff(y, axis=1)
    dx = np.diff(x, axis=1)
    dep = dy[:, 2:].reshape(-1)
    ones = np.ones_like(dep)
    Z = np.column_stack([ones, dx[:, 2:].reshape(-1), dy[:, :-2].reshape(-1)])
    gamma, *_ = np.linalg.lstsq(Z, dy[:, 1:-1].reshape(-1), rcond=None)
    X2 = np.column_stack([ones, Z @ gamma, dx[:, 2:].reshape(-1)])
    beta, *_ = np.linalg.lstsq(X2, dep, rcond=None)
    oracle_gap = float(np.abs(res.beta - beta).max())

    ok = exact_gap <= 1e-8 and mc_gap <= 0.05 and oracle_gap <= 1e-10
    report_line(ok, "criterion 5 (dynamic panel IV)",
                f"noise-free gap = {exact_gap:.2e}, MC bias = {mc_gap:.3f}, "
                f"oracle gap = {oracle_gap:.2e}")


# Criterion 6 -----------------------------------------------------------

def test_criterion_6_cli_table_shapes(demo_config, tmp_path):
    out = tmp_path / "out"

    def run(*args):
        rc = cli_main(["--config", str(demo_config), "--out", str(out)]
                      + list(args))
        assert rc == 0, f"command {args} exited {rc}"

    def table(name):
        return json.loads((out / f"{name}.json").read_text())

    checks = []

    run("regress", "model1")
    payload = table("table5_model1")
    labels = [row[0] for row in payload["rows"]]
    checks.append(("table V model 1", labels == [
        "Forward GVC", "(Forward GVC)^2", "GDP", "MFG", "STR", "TO",
        "Wald Chi Square", "No. of Cross Sections", "No. of Observations"]))

    run("regress", "model2")
    labels = [row[0] for row in table("table5_model2")["rows"]]
    checks.append(("table V model 2",
                   labels[:2] == ["Backward GVC", "(Backward GVC)^2"]
                   and len(labels) == 9))

    run("regress", "table8")
    rows = {r[0]: r[1] for r in table("table8_domestic")["rows"]}
    checks.append(("table VIII footer",
                   rows.get("No of time periods") == "24"
                   and rows.get("Fixed Time Effects") == "Yes"))

    run("regress", "table9")
    labels = [r[0] for r in table("table9_domestic")["rows"]]
    checks.append(("table IX rows",
                   labels[0] == "Lagged Domestic Emissions"
                   and "Constant" in labels
                   and "Overall R square" in labels))

    run("cd-test")
    payload = table("table2_cd")
    checks.append(("table II shape",
                   payload["columns"] == ["Model", "Avg Absolute Correlation",
                                          "Pesaran Statistic"]
                   and len(payload["rows"]) == 2))

    run("stats")
    payload = table("appendix_stats")
    checks.append(("appendix Obs=384",
                   len(payload["rows"]) == 10
                   and all(r[1] == "384" for r in payload["rows"])))

    run("rank")
    payload = table("ranks_1995")
    checks.append(("rank table shape",
                   len(payload["rows"]) == 16
                   and len(payload["columns"]) == 5))

    failed = [name for name, good in checks if not good]
    report_line(not failed, "criterion 6 (CLI table shapes)",
                f"{len(checks) - len(failed)}/{len(checks)} shapes exact"
                + (f"; failed: {failed}" if failed else ""))


# Criterion 7 -----------------------------------------------------------

def _expected_file(name):
    return resources.files("gvccarbon") / "expected" / name


def test_criterion_7a_expectation_files_encode_published_values():
    model1 = {(row[1], row[2]): row[3]
              for row in load_expectations(_expected_file("table5_model1.csv"))}
    cd = {(row[1], row[2]): row[3]
          for row in load_expectations(_expected_file("table2_cd.csv"))}
    stats = {(row[1], row[2]): row[3]
             for row in load_expectations(_expected_file("appendix_stats.csv"))}
    ok = (model1[("Forward GVC", "Coefficient")] == 0.22
          and model1[("TO", "Coefficient")] == 0.37
          and model1[("Wald Chi Square", "Coefficient")] == 190
          and cd[("Dom CO2 = f(Forward GVC, TO, MFG, GDP, STR)",
                  "Pesaran Statistic")] == 13.77
          and stats[("Forward GVC", "Mean")] == 7.394219)
    report_line(ok, "criterion 7a (published expectation files)",
                "headline values present at 5e-3 default tolerance")


def test_criterion_7b_check_mode_detects_mismatch(demo_config, tmp_path):
    rc_fail = cli_main([
        "--config", str(demo_config), "--out", str(tmp_path / "a"),
        "--check", str(_expected_file("table5_model1.csv")),
        "regress", "model1"])
    rc_ok = cli_main(["--config", str(demo_config),
                      "--out", str(tmp_path / "b"), "regress", "model1"])
    payload = json.loads((tmp_path / "b" / "table5_model1.json").read_text())
    value = parse_cell_number(
        next(r[1] for r in payload["rows"] if r[0] == "Forward GVC"))
    self_exp = tmp_path / "self.csv"
    self_exp.write_text(
        "table,row,column,value,tol\n"
        f"table5_model1,Forward GVC,Coefficient,{value!r},1e-9\n",
        encoding="utf-8")
    rc_self = cli_main([
        "--config", str(demo_config), "--out", str(tmp_path / "c"),
        "--check", str(self_exp), "regress", "model1"])
    ok = rc_fail == 4 and rc_ok == 0 and rc_self == 0
    report_line(ok, "criterion 7b (check mode)",
                f"paper-values exit = {rc_fail} (expected 4), "
                f"self-check exit = {rc_self} (expected 0)")


def _sign_pattern_panel(rng, betas, rho=0.6, sigma=0.03):
    """Panel whose coefficients carry the published sign pattern."""
    n, t = 16, 24
    grids = {}
    for name in ("gvc", "to", "mfg", "gdp", "str"):
        level = np.empty((n, t))
        level[:, 0] = rng.normal(size=n)
        for s in range(1, t):
            level[:, s] = 0.7 * level[:, s - 1] + rng.normal(size=n) * 0.7
        grids[name] = level
    u = np.empty((n, t))
    scales = rng.uniform(0.7, 1.3, size=n) * sigma
    u[:, 0] = rng.normal(size=n) * scales / np.sqrt(1 - rho * rho)
    for s in range(1, t):
        u[:, s] = rho * u[:, s - 1] + rng.normal(size=n) * scales
    y = 1.0 + u
    for name, beta in betas.items():
        y = y + beta * grids[name]
    grids["y"] = y
    units = tuple(f"U{i:02d}" for i in range(n))
    return PanelDataset(units, tuple(range(1995, 1995 + t)), grids)


def test_criterion_7c_sign_pattern_recovery():
    # Coefficients follow the published headline models: positive GVC,
    # TO, and MFG throughout; GDP negative in the domestic model and
    # positive in the foreign one.
    designs = {
        "domestic": {"gvc": 0.22, "to": 0.37, "mfg": 0.10, "gdp": -0.01,
                     "str": 0.02},
        "foreign": {"gvc": 0.19, "to": 0.59, "mfg": 0.27, "gdp": 0.09,
                    "str": 0.01},
    }
    tracked = ("gvc", "to", "mfg", "gdp")
    rng = np.random.default_rng(2029)
    worst = 1.0
    for betas in designs.values():
        hits = {name: 0 for name in tracked}
        reps = 200
        for _ in range(reps):
            panel = _sign_pattern_panel(rng, betas)
            res = fgls_ar1(panel, RegressionSpec(
                "y", ("gvc", "to", "mfg", "gdp", "str"),
                covariance="ar1+panel-heteroscedastic"))
            for name in tracked:
                if np.sign(res.coefficient(name)) == np.sign(betas[name]):
                    hits[name] += 1
        worst = min(worst, min(hits.values()) / reps)
    ok = worst >= 0.95
    report_line(ok, "criterion 7c (sign-pattern recovery)",
                f"worst tracked-coefficient recovery rate = {worst:.3f}")
