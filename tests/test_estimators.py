"""OLS, feasible GLS, Wald tests, time effects, and the dynamic-panel IV."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _dgp import simulate_ar1_panel, simulate_dynamic_panel
from _oracle import svd_least_squares, wald_by_rss
from gvccarbon import estimators
from gvccarbon.errors import (
    InsufficientPeriods,
    NonStationaryRho,
    NumericalError,
    RankDeficient,
    SchemaError,
    WeakInstrument,
)
from gvccarbon.estimators import (
    INSTRUMENT_VARIANTS,
    RegressionResult,
    RegressionSpec,
    anderson_hsiao,
    fgls_ar1,
    ols,
    with_time_effects,
)
from gvccarbon.diagnostics import pesaran_cd
from gvccarbon.panel import PanelDataset, derive_variable
from gvccarbon.report import coef_cell


def panel_from(**grids):
    name = next(iter(grids))
    n, t = np.asarray(grids[name]).shape
    units = tuple(f"U{i}" for i in range(n))
    periods = tuple(range(2000, 2000 + t))
    return PanelDataset(units, periods,
                        {k: np.asarray(v, float) for k, v in grids.items()})


def result_with(beta, cov):
    """A hand-built result with coefficients ``b0, b1, ...``."""
    beta = np.asarray(beta, float)
    names = tuple(f"b{i}" for i in range(beta.size))
    return RegressionResult(
        names=names, beta=beta, cov_beta=np.asarray(cov, float),
        residuals=np.zeros((2, 4)), p_values=np.ones(beta.size),
        n=8, p=beta.size,
    )


class TestOls:
    def test_exact_linear_fit(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.5, 3.5]])
        y = 2.0 + 3.0 * x
        res = ols(panel_from(y=y, x=x), RegressionSpec("y", ("x",)))
        assert_allclose(res.beta, [2.0, 3.0], atol=1e-12)
        assert res.names == ("const", "x")

    def test_repeated_regressors_are_named(self):
        with pytest.raises(SchemaError, match="^repeated regressors: x$"):
            RegressionSpec("y", ("x", "z", "x"))

    def test_constant_dependent(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        y = np.full((2, 3), 7.5)
        res = ols(panel_from(y=y, x=x), RegressionSpec("y", ("x",)))
        assert_allclose(res.coefficient("x"), 0.0, atol=1e-12)
        assert_allclose(res.coefficient("const"), 7.5, atol=1e-12)

    def test_normal_equations_oracle(self):
        # 5 observations as a 1x5 panel; solve (X'X)^(-1) X'y by hand.
        x = np.array([[1.0, 2.0, 4.0, 5.0, 7.0]])
        y = np.array([[2.1, 2.9, 5.2, 5.8, 8.3]])
        X = np.column_stack([np.ones(5), x[0]])
        xtx = X.T @ X
        xty = X.T @ y[0]
        det = xtx[0, 0] * xtx[1, 1] - xtx[0, 1] * xtx[1, 0]
        inv = np.array([[xtx[1, 1], -xtx[0, 1]], [-xtx[1, 0], xtx[0, 0]]]) / det
        expected = inv @ xty
        res = ols(panel_from(y=y, x=x), RegressionSpec("y", ("x",)))
        assert_allclose(res.beta, expected, rtol=1e-12)

    def test_rank_deficiency_names_latest_column(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5))
        grids = {"y": rng.normal(size=(3, 5)), "x1": x, "x2": 2.0 * x}
        with pytest.raises(RankDeficient) as exc:
            ols(panel_from(**grids), RegressionSpec("y", ("x1", "x2")))
        assert "x2" in exc.value.columns

    @pytest.mark.parametrize("fit", [ols, fgls_ar1])
    def test_exactly_identified_design_rejected(self, fit):
        # Three observations for three columns leave no degrees of freedom
        # for the residual variance.
        rng = np.random.default_rng(22)
        grids = {name: rng.normal(size=(1, 3)) for name in ("y", "x1", "x2")}
        spec = RegressionSpec("y", ("x1", "x2"),
                              covariance="ar1+panel-heteroscedastic")
        with pytest.raises(RankDeficient, match="n=3 .* p=3"):
            fit(panel_from(**grids), spec)

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(1)
        panel = simulate_ar1_panel(rng, n_units=6, n_periods=12)
        res = ols(panel, RegressionSpec("y", ("x",)))
        y = panel.grid("y").reshape(-1)
        X = np.column_stack([np.ones(y.size), panel.grid("x").reshape(-1)])

        def rss(beta):
            r = y - X @ beta
            return float(r @ r)

        base = rss(res.beta)
        for j in range(2):
            step = np.zeros(2)
            step[j] = 1e-6
            grad = (rss(res.beta + step) - rss(res.beta - step)) / 2e-6
            assert abs(grad) <= 1e-6 * (1.0 + base)

    def test_residual_grid_layout(self):
        rng = np.random.default_rng(2)
        panel = simulate_ar1_panel(rng, n_units=4, n_periods=6)
        res = ols(panel, RegressionSpec("y", ("x",)))
        assert res.residuals.shape == (4, 6)
        assert not np.isnan(res.residuals).any()


class TestFitCore:
    @staticmethod
    def design(rng, n, k):
        """An intercept beside k - 1 normal columns of scales 1e-3 to 1e3."""
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=k - 1)
        return np.column_stack([np.ones(n),
                                rng.normal(size=(n, k - 1)) * scales])

    def test_block_of_right_hand_sides_equals_one_fit_each(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            n, k = int(rng.integers(6, 80)), int(rng.integers(2, 6))
            W, V = self.design(rng, n, k), rng.normal(size=(n, 2))
            names = tuple(f"w{j}" for j in range(k))
            beta, resid, M, qtv = estimators._fit(W, V, names)
            assert beta.shape == qtv.shape == (k, 2) and resid.shape == (n, 2)
            for j in range(2):
                b, r, m, q = estimators._fit(W, V[:, j], names)
                assert b.shape == q.shape == (k,)
                assert_allclose(beta[:, j], b, rtol=1e-12)
                # Residuals near zero are compared on the scale of v.
                assert_allclose(resid[:, j], r, rtol=0,
                                atol=1e-12 * np.linalg.norm(V[:, j]))
                assert_allclose(qtv[:, j], q, rtol=1e-12)
                assert_allclose(M, m, rtol=1e-12)

    @pytest.mark.parametrize("fault, columns", [
        ("zero", ("w2",)), ("collinear", ("w2",)), ("near", ("w2",)),
        ("short", ("w0", "w1", "w2"))])
    def test_block_raises_what_each_column_raises(self, fault, columns):
        rng = np.random.default_rng(31)
        W = self.design(rng, 3 if fault == "short" else 12, 3)
        if fault == "zero":
            W[:, 2] = 0.0
        elif fault == "collinear":
            W[:, 2] = 2.0 * W[:, 1]
        elif fault == "near":
            W[:, 2] = W[:, 1] + 1e-11 * rng.normal(size=len(W))
        V, names = rng.normal(size=(len(W), 2)), ("w0", "w1", "w2")
        raised = []
        for v in (V, V[:, 0], V[:, 1]):
            with pytest.raises(RankDeficient) as exc:
                estimators._fit(W, v, names)
            raised.append((str(exc.value), exc.value.columns))
        assert raised[0][1] == columns
        assert raised == [raised[0]] * 3


def collinear_panel(seed, condition):
    """A simulated 16 x 24 AR(1) panel with ``x2 = x1 + eps * noise``, eps
    chosen so that the column-scaled design [1, x1, x2] has about the
    given condition number; returns the panel and that number."""
    rng = np.random.default_rng(seed)
    panel = simulate_ar1_panel(rng)
    x1 = panel.grid("x")
    noise = rng.normal(size=x1.shape)

    def scaled_condition(eps):
        X = np.column_stack([np.ones(x1.size), x1.ravel(),
                             (x1 + eps * noise).ravel()])
        return np.linalg.cond(X / np.linalg.norm(X, axis=0))

    # The condition number is inversely proportional to a small eps.
    eps = 1e-4 * scaled_condition(1e-4) / condition
    return PanelDataset(panel.units, panel.periods,
                        {"y": panel.grid("y"), "x1": x1,
                         "x2": x1 + eps * noise}), scaled_condition(eps)


def ar1_rotated(grid, rho, sigma2):
    """AR(1) innovations along the periods of an (N, T, k) grid, each unit
    scaled by its innovation standard deviation."""
    out = grid.copy()
    out[:, 0] *= np.sqrt(1.0 - rho * rho)
    out[:, 1:] -= rho * grid[:, :-1]
    return out / np.sqrt(sigma2)[:, np.newaxis, np.newaxis]


class TestIllConditioned:
    SPEC = RegressionSpec("y", ("x1", "x2"),
                          covariance="ar1+panel-heteroscedastic")

    @given(seed=st.integers(0, 99), log_condition=st.floats(3.0, np.log10(2e7)))
    @settings(max_examples=40, deadline=None)
    @example(seed=0, log_condition=np.log10(2e7))
    def test_standard_errors_match_the_svd_oracle(self, seed, log_condition):
        # Forming W'W squares the condition number; standard errors from
        # the R factor keep close to an SVD of the scaled design.
        panel, condition = collinear_panel(seed, 10.0 ** log_condition)
        assert 0.9e3 <= condition <= 2.1e7
        y, X, _ = estimators.build_design(panel, self.SPEC)
        res = ols(panel, self.SPEC)
        _, cov = svd_least_squares(X, y)
        assert_allclose(np.diag(res.cov_beta), np.diag(cov), rtol=1e-8)

        res = fgls_ar1(panel, self.SPEC)
        rotated = ar1_rotated(
            np.column_stack([X, y]).reshape(panel.n_units, panel.n_periods, -1),
            res.rho_hat, res.sigma_hat).reshape(y.size, -1)
        _, cov = svd_least_squares(rotated[:, :-1], rotated[:, -1])
        assert_allclose(np.diag(res.cov_beta), np.diag(cov), rtol=1e-8)

    @given(seed=st.integers(0, 99),
           log_condition=st.floats(3.0, np.log10(8e9)))
    @settings(max_examples=40, deadline=None)
    @example(seed=0, log_condition=np.log10(2e8))
    @example(seed=0, log_condition=np.log10(4e8))
    @example(seed=0, log_condition=np.log10(7e8))
    def test_wald_statistic_matches_the_rss_oracle(self, seed, log_condition):
        # Factoring the slopes' sub-covariance squares the condition
        # number; the statistic from the R factor keeps close to the RSS
        # difference of the fit without and with the slopes.
        panel, condition = collinear_panel(seed, 10.0 ** log_condition)
        assert 0.9e3 <= condition <= 8.8e9
        y, X, _ = estimators.build_design(panel, self.SPEC)

        def oracle(W, v):
            beta, _ = svd_least_squares(W, v)
            resid = v - W @ beta
            s2 = float(resid @ resid) / (v.size - W.shape[1])
            return wald_by_rss(W, v, s2)

        assert_allclose(ols(panel, self.SPEC).wald_stat, oracle(X, y),
                        rtol=1e-6)
        res = fgls_ar1(panel, self.SPEC)
        rotated = ar1_rotated(
            np.column_stack([X, y]).reshape(panel.n_units, panel.n_periods, -1),
            res.rho_hat, res.sigma_hat).reshape(y.size, -1)
        assert_allclose(res.wald_stat, oracle(rotated[:, :-1], rotated[:, -1]),
                        rtol=1e-6)

    def test_condition_number_limit_names_the_most_collinear_column(self):
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=(4, 10))
        grids = {"y": rng.normal(size=(4, 10)), "x1": x1,
                 "x2": x1 + 1e-11 * rng.normal(size=(4, 10))}
        with pytest.raises(RankDeficient) as exc:
            ols(panel_from(**grids), RegressionSpec("y", ("x1", "x2")))
        assert str(exc.value) == ("condition number exceeds 1e+10; "
                                  "most collinear column: x2")
        assert exc.value.columns == ("x2",)


class TestUnitsOfMeasure:
    @given(seed=st.integers(0, 19), power=st.integers(-12, 12),
           estimator=st.sampled_from(["ols", "fgls_ar1"]))
    @settings(max_examples=60, deadline=None)
    def test_slope_scales_inversely_with_the_regressor_unit(self, seed, power,
                                                            estimator):
        # Measuring x in units 10^k times smaller is no reason to reject
        # the design, and divides its slope by 10^k.
        fit = {"ols": ols, "fgls_ar1": fgls_ar1}[estimator]
        spec = RegressionSpec("y", ("x",), covariance=(
            "ar1+panel-heteroscedastic" if estimator == "fgls_ar1" else "iid"))
        base = simulate_ar1_panel(np.random.default_rng(seed))
        scaled = PanelDataset(base.units, base.periods, {
            "y": base.grid("y"), "x": base.grid("x") * 10.0 ** power})
        expected = fit(base, spec).coefficient("x") * 10.0 ** -power
        assert_allclose(fit(scaled, spec).coefficient("x"), expected,
                        rtol=1e-9)


class TestFgls:
    def test_identity_scheme_collapses_to_ols(self):
        rng = np.random.default_rng(3)
        panel = simulate_ar1_panel(rng, n_units=8, n_periods=12)
        base = ols(panel, RegressionSpec("y", ("x",)))
        gls = fgls_ar1(panel, RegressionSpec("y", ("x",), covariance="iid"))
        assert_allclose(gls.beta, base.beta, atol=1e-10)
        assert gls.rho_hat is None

    def test_simulation_recovers_truth(self):
        rng = np.random.default_rng(4)
        betas, rhos = [], []
        for _ in range(200):
            panel = simulate_ar1_panel(rng, n_units=16, n_periods=200,
                                       beta=(1.0, 0.5), rho=0.6)
            res = fgls_ar1(panel, RegressionSpec(
                "y", ("x",), covariance="ar1+panel-heteroscedastic"))
            betas.append(res.beta)
            rhos.append(res.rho_hat)
        betas = np.array(betas)
        mean = betas.mean(axis=0)
        mc_se = betas.std(axis=0, ddof=1) / np.sqrt(len(betas))
        assert abs(mean[0] - 1.0) <= 2 * mc_se[0]
        assert abs(mean[1] - 0.5) <= 2 * mc_se[1]
        assert 0.55 <= np.mean(rhos) <= 0.65

    def test_nonstationary_rho_fails(self):
        t = np.arange(12, dtype=float)
        y = np.vstack([2.0 ** t, 2.0 ** t * 1.1])
        x = np.vstack([np.sin(t), np.cos(t)])
        with pytest.raises(NonStationaryRho):
            fgls_ar1(panel_from(y=y, x=x),
                     RegressionSpec("y", ("x",), covariance="ar1"))

    def test_heteroscedastic_only_scheme(self):
        rng = np.random.default_rng(5)
        panel = simulate_ar1_panel(rng, n_units=6, n_periods=30, rho=0.0)
        res = fgls_ar1(panel, RegressionSpec(
            "y", ("x",), covariance="panel-heteroscedastic"))
        assert res.rho_hat is None
        assert res.sigma_hat.shape == (6,)
        assert np.all(res.sigma_hat > 0)

    def test_matches_explicit_dense_gls_formula(self):
        # Assemble the block-diagonal AR(1)+heteroscedastic covariance
        # explicitly and solve the textbook weighted normal equations;
        # the rotation-based path must agree to near machine precision.
        rng = np.random.default_rng(21)
        panel = simulate_ar1_panel(rng, n_units=3, n_periods=6)
        from gvccarbon.estimators import build_design

        spec = RegressionSpec("y", ("x",),
                              covariance="ar1+panel-heteroscedastic")
        res = fgls_ar1(panel, spec)
        y, X, _ = build_design(panel, spec)

        rho = res.rho_hat
        t = panel.n_periods
        toeplitz = rho ** np.abs(np.subtract.outer(np.arange(t), np.arange(t)))
        blocks = [s2 / (1.0 - rho ** 2) * toeplitz for s2 in res.sigma_hat]
        phi = np.zeros((3 * t, 3 * t))
        for i, block in enumerate(blocks):
            phi[i * t:(i + 1) * t, i * t:(i + 1) * t] = block
        phi_inv = np.linalg.inv(phi)

        xtpx = X.T @ phi_inv @ X
        beta = np.linalg.solve(xtpx, X.T @ phi_inv @ y)
        middle = phi_inv - phi_inv @ X @ np.linalg.inv(xtpx) @ X.T @ phi_inv
        sigma2 = float(y @ middle @ y) / (y.size - X.shape[1])
        cov = sigma2 * np.linalg.inv(xtpx)

        assert_allclose(res.beta, beta, rtol=1e-9, atol=1e-12)
        assert_allclose(res.cov_beta, cov, rtol=1e-8, atol=1e-12)

    def test_design_rotation_matches_the_column_loop(self):
        # FGLS rotates the whole (N, T, p) design at once; each column must
        # come out bit for bit as if rotated on its own.
        X = np.random.default_rng(23).normal(size=(4, 7, 3))
        whole = estimators._ar1_rotate(X, 0.6)
        for j in range(X.shape[2]):
            assert np.array_equal(whole[..., j],
                                  estimators._ar1_rotate(X[..., j], 0.6))

    def test_first_step_shares_the_design(self, monkeypatch):
        # One design build feeds both steps; the first step is the bare
        # least-squares core, not a full OLS result.
        builds = []
        build_design = estimators.build_design

        def counting_build_design(panel, spec):
            builds.append(spec)
            return build_design(panel, spec)

        def no_ols(panel, spec):
            raise AssertionError("fgls_ar1 must not run ols()")

        monkeypatch.setattr(estimators, "build_design", counting_build_design)
        monkeypatch.setattr(estimators, "ols", no_ols)
        rng = np.random.default_rng(19)
        panel = simulate_ar1_panel(rng, n_units=8, n_periods=20, rho=0.6)
        for scheme in estimators.COVARIANCE_SCHEMES:
            builds.clear()
            fgls_ar1(panel, RegressionSpec("y", ("x",), covariance=scheme))
            assert len(builds) == 1, scheme

    def test_reported_covariance_is_psd_and_symmetric(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            panel = simulate_ar1_panel(np.random.default_rng(seed),
                                       n_units=10, n_periods=16)
            res = fgls_ar1(panel, RegressionSpec(
                "y", ("x",), covariance="ar1+panel-heteroscedastic"))
            assert np.abs(res.cov_beta - res.cov_beta.T).max() <= 1e-10
            assert np.linalg.eigvalsh(res.cov_beta).min() >= -1e-10

    def test_slope_invariant_to_regressor_rescaling(self):
        rng = np.random.default_rng(7)
        n, t = 6, 10
        level = rng.uniform(1.0, 9.0, size=(n, t))
        y = rng.normal(size=(n, t)) + np.log10(level)
        panel = panel_from(y=y, v=level, v_scaled=1000.0 * level)
        panel = panel.with_variables({
            "log v": derive_variable(panel, "log", "v"),
            "log vs": derive_variable(panel, "log", "v_scaled")})
        for fit in (ols, fgls_ar1):
            a = fit(panel, RegressionSpec(
                "y", ("log v",), covariance="ar1"))
            b = fit(panel, RegressionSpec(
                "y", ("log vs",), covariance="ar1"))
            assert abs(a.beta[1] - b.beta[1]) <= 1e-10
            assert abs((a.beta[0] - b.beta[0]) - 3.0 * a.beta[1]) <= 1e-9


class TestWald:
    def test_fit_statistic_is_the_joint_test_of_its_slopes(self):
        # The statistic the fit keeps is b2' V22^-1 b2 under the covariance
        # it reports, V22 being the block of every coefficient but const.
        panel = simulate_ar1_panel(np.random.default_rng(12))
        panel = panel.with_variables(
            {"x2": derive_variable(panel, "interaction", ("x", "x"))})
        spec = RegressionSpec("y", ("x", "x2"),
                              covariance="ar1+panel-heteroscedastic")
        dynamic = simulate_dynamic_panel(np.random.default_rng(12))
        fits = [ols(panel, spec),
                fgls_ar1(*with_time_effects(panel, spec)),
                anderson_hsiao(dynamic, "y", ("x",), instrumented="x")]
        for res in fits:
            b, cov = res.beta[1:], res.cov_beta[1:, 1:]
            assert_allclose(res.wald_stat, b @ np.linalg.solve(cov, b),
                            rtol=1e-10)


class TestTimeEffects:
    def test_dummy_count_24_periods(self):
        panel, wide = with_time_effects(
            panel_from(y=np.zeros((3, 24)), x=np.ones((3, 24))),
            RegressionSpec("y", ("x",)))
        dummies = [r for r in wide.regressors if r.startswith("t_")]
        assert len(dummies) == 23
        assert "t_2000" not in wide.regressors
        assert "t_2000" not in panel.variables
        for j, name in enumerate(dummies, start=1):
            grid = panel.grid(name)
            assert np.all(grid[:, j] == 1.0) and grid.sum() == 3.0, name

    def test_dummy_count_two_periods(self):
        panel, spec = with_time_effects(
            panel_from(y=np.zeros((3, 2)), x=np.ones((3, 2))),
            RegressionSpec("y", ("x",)))
        assert sum(r.startswith("t_") for r in spec.regressors) == 1
        assert sum(v.startswith("t_") for v in panel.variables) == 1

    def test_one_period_has_no_time_effects(self):
        with pytest.raises(InsufficientPeriods):
            with_time_effects(panel_from(y=np.zeros((3, 1))),
                              RegressionSpec("y", ("x",)))

    def test_group_mean_oracle(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(5, 4))
        panel, spec = with_time_effects(panel_from(y=y, x=np.zeros((5, 4))),
                                        RegressionSpec("y", ("x",)))
        res = ols(panel, dataclasses.replace(
            spec, regressors=spec.regressors[1:]))
        fitted = y - res.residuals
        for t in range(4):
            assert_allclose(fitted[:, t], y[:, t].mean(), rtol=1e-10)

    def test_time_effects_estimable(self):
        rng = np.random.default_rng(9)
        panel = simulate_ar1_panel(rng, n_units=6, n_periods=8)
        res = fgls_ar1(*with_time_effects(
            panel, RegressionSpec("y", ("x",), covariance="ar1")))
        assert res.p == 1 + 1 + 7  # intercept, slope, 7 dummies

    def test_panel_variable_named_like_a_dummy_is_replaced(self):
        # The time effects are the indicators, whatever the panel held
        # under their names.
        panel = simulate_ar1_panel(np.random.default_rng(9), n_units=6,
                                   n_periods=8)
        noise = np.random.default_rng(10).normal(size=(6, 8))
        spec = RegressionSpec("y", ("x",), covariance="ar1")
        clean = fgls_ar1(*with_time_effects(panel, spec))
        noisy = fgls_ar1(*with_time_effects(
            panel.with_variables({"t_2003": noise}), spec))
        assert np.array_equal(noisy.beta, clean.beta)
        assert np.array_equal(noisy.cov_beta, clean.cov_beta)

    def test_panel_holds_only_the_fit_and_its_indicators(self):
        panel = simulate_ar1_panel(np.random.default_rng(9), n_units=4,
                                   n_periods=5)
        panel = panel.with_variables({"z": panel.grid("x") ** 2,
                                      "w": panel.grid("y") + 1.0})
        wide, spec = with_time_effects(panel, RegressionSpec("y", ("z",)))
        indicators = ("t_2001", "t_2002", "t_2003", "t_2004")
        assert spec.regressors == ("z", *indicators)
        assert wide.names() == ("y", "z", *indicators)
        for name in ("y", "z"):
            assert np.array_equal(wide.grid(name), panel.grid(name))

    @pytest.mark.parametrize("scheme", estimators.COVARIANCE_SCHEMES)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_units=st.integers(3, 10),
           n_periods=st.integers(4, 12), power=st.floats(-3.0, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_slope_ignores_a_shift_of_each_period(self, scheme, seed,
                                                  n_units, n_periods, power):
        # A shift of the dependent variable in each period is what the time
        # effects absorb: the residuals, and so rho, the unit variances and
        # the slope, stay where they were.
        rng = np.random.default_rng(seed)
        panel = simulate_ar1_panel(rng, n_units=n_units, n_periods=n_periods)
        shift = 10.0 ** power * rng.normal(size=n_periods)
        shifted = PanelDataset(panel.units, panel.periods, {
            "y": panel.grid("y") + shift, "x": panel.grid("x")})
        spec = RegressionSpec("y", ("x",), covariance=scheme)
        try:
            base = fgls_ar1(*with_time_effects(panel, spec))
        except NumericalError:
            assume(False)
        moved = fgls_ar1(*with_time_effects(shifted, spec))
        assert_allclose(moved.coefficient("x"), base.coefficient("x"),
                        rtol=1e-9)


@pytest.mark.filterwarnings("ignore::gvccarbon.errors.WeakInstrument")
class TestAndersonHsiao:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(10)
        panel = simulate_dynamic_panel(rng, n_units=3, n_periods=40,
                                       alpha=0.5, noise=0.0)
        res = anderson_hsiao(panel, "y", ("x",))
        assert abs(res.coefficient("lag d(y)") - 0.5) <= 1e-8
        assert abs(res.coefficient("d(x)") - 1.0) <= 1e-8

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(11)
        estimates = []
        for _ in range(120):
            panel = simulate_dynamic_panel(rng, alpha=0.45)
            res = anderson_hsiao(panel, "y", ("x",))
            estimates.append(res.coefficient("lag d(y)"))
        assert abs(np.mean(estimates) - 0.45) <= 0.05

    @pytest.mark.parametrize("instrument", INSTRUMENT_VARIANTS)
    def test_regressor_constant_over_time_is_named(self, instrument):
        panel = simulate_dynamic_panel(np.random.default_rng(13), n_units=4,
                                       n_periods=8)
        x = np.repeat(panel.grid("x")[:, :1], panel.n_periods, axis=1)
        flat = PanelDataset(panel.units, panel.periods,
                            {"y": panel.grid("y"), "x": x})
        with pytest.raises(RankDeficient,
                           match=r"^all-zero column\(s\): d\(x\)$") as exc:
            anderson_hsiao(flat, "y", ("x",), instrument=instrument)
        assert exc.value.columns == ("d(x)",)

    @staticmethod
    def hand_rolled_design(panel, instrument, instrumented):
        """``(first, dep, X, Z, n_exog, endogenous columns of X)`` of the
        equation of y on x, built period by period; Z holds the exogenous
        columns of X, then the instruments."""
        y = panel.grid("y")
        x = panel.grid("x")

        def d(grid, t):
            return (grid[:, t] - grid[:, t - 1]).reshape(-1)

        def level(grid, t):
            return grid[:, t].reshape(-1)

        # The deepest lag is d(y)_{t-2} = y_{t-2} - y_{t-3} for lagged
        # differences and y_{t-2} (with d(y)_{t-1}) for lagged levels.
        first = 3 if instrument == "lagged-difference" else 2
        t = np.arange(first, panel.n_periods)
        deep = d if instrument == "lagged-difference" else level
        dep, dy_lag, dx = d(y, t), d(y, t - 1), d(x, t)
        ones = np.ones_like(dep)
        X = np.column_stack([ones, dy_lag, dx])
        if instrumented is None:
            Z = np.column_stack([ones, dx, deep(y, t - 2)])
            return first, dep, X, Z, 2, [1]
        Z = np.column_stack([ones, deep(y, t - 2), deep(x, t - 1)])
        return first, dep, X, Z, 1, [1, 2]

    @pytest.mark.parametrize("instrumented", [None, "x"])
    @pytest.mark.parametrize("instrument", INSTRUMENT_VARIANTS)
    def test_hand_rolled_2sls_oracle(self, instrument, instrumented):
        rng = np.random.default_rng(12)
        panel = simulate_dynamic_panel(rng, n_units=3, n_periods=6,
                                       alpha=0.4, noise=0.3)
        res = anderson_hsiao(panel, "y", ("x",), instrumented=instrumented,
                             instrument=instrument)
        first, dep, X, Z, _, endo = self.hand_rolled_design(
            panel, instrument, instrumented)

        def project(col):
            return Z @ np.linalg.lstsq(Z, col, rcond=None)[0]

        X2 = X.copy()
        for j in endo:
            X2[:, j] = project(X[:, j])
        beta, *_ = np.linalg.lstsq(X2, dep, rcond=None)

        assert_allclose(res.beta, beta, atol=1e-10)
        assert res.n == dep.size == 3 * (panel.n_periods - first)
        assert np.isnan(res.residuals[:, :first]).all()
        assert not np.isnan(res.residuals[:, first:]).any()
        expected = {"lag d(y)"} | ({"d(x)"} if instrumented else set())
        assert set(res.first_stage_f) == expected

    @pytest.mark.parametrize("instrumented", [None, "x"])
    @pytest.mark.parametrize("instrument", INSTRUMENT_VARIANTS)
    def test_first_stage_bitwise_equal_to_hand_written_lstsq(
            self, instrument, instrumented):
        # The two stages written by hand with lstsq on Z, on its exogenous
        # columns and on the fitted design, RSS summed by hand, and the
        # covariance factor M = V S^-1 from the SVD x_hat = U S V'. The QR
        # core must agree to rounding.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            panel = simulate_dynamic_panel(
                rng, n_units=int(rng.integers(2, 12)),
                n_periods=int(rng.integers(6, 20)),
                alpha=rng.uniform(-0.9, 0.9), noise=rng.uniform(0.0, 2.0))
            res = anderson_hsiao(panel, "y", ("x",), instrumented=instrumented,
                                 instrument=instrument)
            _, dep, X, Z, n_exog, endo = self.hand_rolled_design(
                panel, instrument, instrumented)
            x_hat, f_stats = X.copy(), []
            for j in endo:
                target = X[:, j]
                coef, *_ = np.linalg.lstsq(Z, target, rcond=None)
                fitted = Z @ coef
                x_hat[:, j] = fitted
                rss_u = float(((target - fitted) ** 2).sum())
                coef_r, *_ = np.linalg.lstsq(Z[:, :n_exog], target, rcond=None)
                rss_r = float(((target - Z[:, :n_exog] @ coef_r) ** 2).sum())
                q, dof = Z.shape[1] - n_exog, dep.size - Z.shape[1]
                f_stats.append(((rss_r - rss_u) / q) / (rss_u / dof))
            beta, *_ = np.linalg.lstsq(x_hat, dep, rcond=None)
            _, s, vt = np.linalg.svd(x_hat, full_matrices=False)
            m, resid = vt.T / s, dep - X @ beta
            cov = float(resid @ resid) / (dep.size - beta.size) * (m @ m.T)
            assert_allclose(res.beta, beta, rtol=1e-10)
            assert_allclose(res.cov_beta, cov, rtol=1e-10)
            assert_allclose(list(res.first_stage_f.values()), f_stats,
                            rtol=1e-10)

    @pytest.mark.parametrize("instrumented", [None, "x"])
    @pytest.mark.parametrize("instrument", INSTRUMENT_VARIANTS)
    def test_first_stage_f_and_wald_match_their_rss_forms(
            self, instrument, instrumented):
        # Each F from the restricted and unrestricted RSS of its own
        # first-stage fits, and the second stage's Wald statistic from the
        # RSS of y on the intercept and on the fitted design, every RSS
        # from lstsq on the column-scaled design.
        def rss(design, target):
            scaled = design / np.linalg.norm(design, axis=0)
            coef, *_ = np.linalg.lstsq(scaled, target, rcond=None)
            resid = target - scaled @ coef
            return float(resid @ resid), scaled @ coef

        for seed in range(60):
            rng = np.random.default_rng(200 + seed)
            panel = simulate_dynamic_panel(
                rng, n_units=int(rng.integers(2, 16)),
                n_periods=int(rng.integers(6, 24)),
                alpha=rng.uniform(-0.9, 0.9), noise=rng.uniform(0.1, 2.0))
            res = anderson_hsiao(panel, "y", ("x",), instrumented=instrumented,
                                 instrument=instrument)
            _, dep, X, Z, n_exog, endo = self.hand_rolled_design(
                panel, instrument, instrumented)
            q, dof = Z.shape[1] - n_exog, dep.size - Z.shape[1]
            x_hat, f_stats = X.copy(), []
            for j in endo:
                rss_u, x_hat[:, j] = rss(Z, X[:, j])
                rss_r, _ = rss(Z[:, :n_exog], X[:, j])
                f_stats.append(((rss_r - rss_u) / q) / (rss_u / dof))
            assert_allclose(list(res.first_stage_f.values()), f_stats,
                            rtol=1e-10)
            resid = dep - X @ res.beta
            s2 = float(resid @ resid) / (dep.size - X.shape[1])
            assert_allclose(res.wald_stat, wald_by_rss(x_hat, dep, s2),
                            rtol=1e-10)

    @pytest.mark.parametrize("instrumented", [None, "x"])
    @pytest.mark.parametrize("instrument", INSTRUMENT_VARIANTS)
    def test_two_least_squares_fits_per_estimate(self, monkeypatch, instrument,
                                                 instrumented):
        # One fit of every endogenous column on the instruments, one of the
        # dependent variable on the fitted design.
        shapes, real = [], estimators._fit

        def counted(W, v, names):
            shapes.append((W.shape[1], np.shape(v)))
            return real(W, v, names)

        monkeypatch.setattr(estimators, "_fit", counted)
        panel = simulate_dynamic_panel(np.random.default_rng(17))
        res = anderson_hsiao(panel, "y", ("x",), instrumented=instrumented,
                             instrument=instrument)
        n, endo = res.n, len(res.first_stage_f)
        assert shapes == [(3, (n, endo)), (3, (n,))]

    def test_instrumented_regressor_lagged_level(self):
        rng = np.random.default_rng(13)
        panel = simulate_dynamic_panel(rng, n_units=8, n_periods=20,
                                       alpha=0.3, noise=0.2)
        res = anderson_hsiao(panel, "y", ("x",), instrumented="x",
                             instrument="lagged-level")
        assert "d(x)" in res.first_stage_f
        assert "lag d(y)" in res.first_stage_f

    def test_weak_instrument_warning(self):
        rng = np.random.default_rng(14)
        n, t = 4, 8
        # Random-walk regressor: its lagged difference carries no signal
        # for the current difference.
        x = np.cumsum(rng.normal(size=(n, t)), axis=1)
        y = x + 0.1 * rng.normal(size=(n, t))
        panel = panel_from(y=y, x=x)
        with pytest.warns(WeakInstrument):
            anderson_hsiao(panel, "y", ("x",), instrumented="x")

    def test_insufficient_periods(self):
        rng = np.random.default_rng(15)
        panel = simulate_dynamic_panel(rng, n_units=4, n_periods=3)
        with pytest.raises(InsufficientPeriods):
            anderson_hsiao(panel, "y", ("x",))

    def test_first_stage_f_reported(self):
        rng = np.random.default_rng(16)
        panel = simulate_dynamic_panel(rng, alpha=0.45)
        res = anderson_hsiao(panel, "y", ("x",))
        assert set(res.first_stage_f) == {"lag d(y)"}
        assert res.first_stage_f["lag d(y)"] > 0


class TestIdentity:
    def test_equal_content_compares_and_hashes_by_identity(self):
        # The generated __eq__ compared the arrays and raised ValueError,
        # and __hash__ raised TypeError.
        def one():
            panel = simulate_ar1_panel(np.random.default_rng(5), n_units=4,
                                       n_periods=6)
            result = ols(panel, RegressionSpec("y", ("x",)))
            return panel, result, pesaran_cd(result.residuals)

        for first, second in zip(one(), one()):
            assert first == first and first != second
            assert len({first, second, first}) == 2


class TestRendering:
    def test_star_thresholds(self):
        base = result_with([0.5], np.eye(1))
        for p, cell in ((0.0, "0.50** (0.00)"), (0.05, "0.50** (0.05)"),
                        (0.07, "0.50* (0.07)"), (0.10, "0.50* (0.10)"),
                        (0.24, "0.50 (0.24)")):
            res = dataclasses.replace(base, p_values=np.array([p]))
            assert coef_cell(res, "b0") == cell

    def test_rows_format(self):
        res = result_with([0.22, 0.02], np.diag([1.0, 1.0]))
        res = dataclasses.replace(res, p_values=np.array([0.0, 0.24]))
        assert coef_cell(res, "b0") == "0.22** (0.00)"
        assert coef_cell(res, "b1") == "0.02 (0.24)"
        assert coef_cell(res, "b0", digits=4) == "0.2200** (0.00)"


class TestEfficiency:
    def test_fgls_beats_ols_on_ar1_panels(self):
        # Smoke-scale version; the acceptance suite runs the full design.
        rng = np.random.default_rng(18)
        fgls_slopes, ols_slopes = [], []
        for _ in range(120):
            panel = simulate_ar1_panel(rng, n_units=16, n_periods=24, rho=0.6)
            ols_slopes.append(
                ols(panel, RegressionSpec("y", ("x",))).coefficient("x"))
            fgls_slopes.append(
                fgls_ar1(panel, RegressionSpec(
                    "y", ("x",), covariance="ar1+panel-heteroscedastic"
                )).coefficient("x"))
        assert np.var(fgls_slopes) <= 1.05 * np.var(ols_slopes)
