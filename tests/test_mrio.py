"""Core input-output accounting: coefficients, inverse, embodied carbon."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracle import (
    block,
    coefficients,
    country_exports,
    dense_table,
    random_coefficients,
)
from gvccarbon import mrio, synthetic
from gvccarbon.errors import (
    BalanceError,
    DimensionMismatch,
    DuplicateKey,
    NegativeEmission,
    NonProductive,
    SchemaError,
    SingularOutput,
    UnknownCountry,
)
from gvccarbon.mrio import (
    EmissionIntensity,
    IcioTable,
    build_coefficients,
    build_model,
    compute_accounts,
    leontief_inverse,
)


def one_country_table(Z, x, industries=("M", "S")):
    """Single-country table; final demand absorbs the row residual."""
    Z = np.asarray(Z, dtype=float)
    x = np.asarray(x, dtype=float)
    F = (x - Z.sum(axis=1))[:, np.newaxis]
    return IcioTable(("AAA",), industries[: len(x)], Z, F, x)


def two_country_table():
    """2 countries x 2 industries with cross-border intermediate and final trade."""
    # Rows/cols: A:M, A:S, B:M, B:S
    Z = np.array([
        [10.0, 5.0, 8.0, 2.0],
        [4.0, 12.0, 3.0, 6.0],
        [7.0, 2.0, 15.0, 5.0],
        [1.0, 3.0, 6.0, 9.0],
    ])
    x = np.array([60.0, 55.0, 70.0, 40.0])
    F = np.zeros((4, 2))
    resid = x - Z.sum(axis=1)
    # Split each row's final demand 70/30 between home and abroad.
    F[0] = [0.7 * resid[0], 0.3 * resid[0]]
    F[1] = [0.6 * resid[1], 0.4 * resid[1]]
    F[2] = [0.35 * resid[2], 0.65 * resid[2]]
    F[3] = [0.25 * resid[3], 0.75 * resid[3]]
    return IcioTable(("A", "B"), ("M", "S"), Z, F, x)


def autarkic_table():
    """Two isolated economies: block-diagonal Z, home-only final demand."""
    Z = np.array([
        [10.0, 5.0, 0.0, 0.0],
        [4.0, 12.0, 0.0, 0.0],
        [0.0, 0.0, 15.0, 5.0],
        [0.0, 0.0, 6.0, 9.0],
    ])
    x = np.array([60.0, 55.0, 70.0, 40.0])
    F = np.zeros((4, 2))
    F[:2, 0] = x[:2] - Z[:2].sum(axis=1)
    F[2:, 1] = x[2:] - Z[2:].sum(axis=1)
    return IcioTable(("A", "B"), ("M", "S"), Z, F, x)


def home_sourcing_world(rng, n=6, k=5, scale=1e6, home_only=True):
    """Random n x k closed world with final demand at ``scale``.

    With ``home_only`` country 0 buys intermediates only at home: the
    foreign rows of its columns are a structural-zero block, as in real
    ICIO tables.
    """
    nk = n * k
    a = rng.uniform(0.1, 1.0, size=(nk, nk))
    if home_only:
        a[k:, :k] = 0.0
    a *= rng.uniform(0.2, 0.7, size=nk) / a.sum(axis=0)
    f = rng.uniform(5.0, 50.0, size=(nk, n)) * scale
    x = np.linalg.solve(np.eye(nk) - a, f.sum(axis=1))
    countries = tuple(f"C{i}" for i in range(n))
    industries = tuple(f"S{j}" for j in range(k))
    return IcioTable(countries, industries, a * x, f, x)


def explicit_inverse(icio):
    """The dense Leontief inverse, from the oracle's coefficients."""
    n = len(icio.x)
    return np.linalg.solve(np.eye(n) - coefficients(icio), np.eye(n))


def without_output(icio, rows, purchases=0.0):
    """``icio`` with the industries at ``rows`` shut down: no output and no
    sales. Each still buys ``purchases`` from every industry that
    produces, a balancing residue the zero-output guard lets through
    when it is at most ``BALANCE_ABS_TOL``."""
    Z, F = np.array(icio.Z), np.array(icio.F)
    Z[:, rows] = purchases
    Z[rows] = 0.0
    F[rows] = 0.0
    return IcioTable(icio.countries, icio.industries, Z, F,
                     Z.sum(axis=1) + F.sum(axis=1))


STRUCTURAL_ZEROS = ("no_output", "no_exports", "no_foreign_inputs",
                    "autarky", "no_emissions")


def structural_zero_world(rng, n, k, zeros):
    """Random n x k world with the named structural zeros of real ICIO
    tables: an industry with no output, a row that sells nothing abroad,
    a column that buys nothing abroad, a country that neither imports nor
    exports, and all-zero emissions."""
    nk = n * k
    owner = np.repeat(np.arange(n), k)
    abroad = owner[:, np.newaxis] != owner[np.newaxis, :]
    abroad_f = owner[:, np.newaxis] != np.arange(n)[np.newaxis, :]
    a = rng.uniform(0.1, 1.0, size=(nk, nk))
    f = rng.uniform(5.0, 50.0, size=(nk, n))
    if "no_exports" in zeros:
        i = rng.integers(nk)
        a[i, abroad[i]] = 0.0
        f[i, abroad_f[i]] = 0.0
    if "no_foreign_inputs" in zeros:
        j = rng.integers(nk)
        a[abroad[:, j], j] = 0.0
    if "autarky" in zeros:
        country = rng.integers(n)
        c = owner == country
        a[np.ix_(c, ~c)] = 0.0
        a[np.ix_(~c, c)] = 0.0
        f[c] *= ~abroad_f[c]
        f[~c, country] = 0.0
    dead = np.zeros(nk, dtype=bool)
    if "no_output" in zeros:
        dead[rng.integers(nk)] = True
        a[dead] = 0.0
        a[:, dead] = 0.0
        f[dead] = 0.0
    sums = a.sum(axis=0)
    targets = rng.uniform(0.2, 0.7, size=nk)
    a *= np.where(sums > 0, targets / np.where(sums > 0, sums, 1.0), 0.0)
    x = np.linalg.solve(np.eye(nk) - a, f.sum(axis=1))
    x[dead] = 0.0
    icio = IcioTable(tuple(f"C{i}" for i in range(n)),
                     tuple(f"S{j}" for j in range(k)), a * x, f, x)
    if "no_emissions" in zeros:
        return icio, EmissionIntensity(icio.countries, icio.industries,
                                       np.zeros(nk))
    return icio, synthetic.random_intensity(rng, icio)


def explicit_accounts(icio, e_vec):
    """The five (N, K) grids from the explicit Leontief inverse B.

    Per country c, W = B[:, c] diag(ex_c) is the requirement of each of
    c's exporting industries; CO2 and backward GVC weight its domestic
    and foreign source rows, forward GVC weights c's own rows of B times
    the partners' exports.
    """
    B = explicit_inverse(icio)
    ex = mrio.gross_exports_vector(icio)
    v = np.where(icio.x > 0, icio.va / np.where(icio.x > 0, icio.x, 1.0), 0.0)
    shape = (icio.n_countries, icio.n_industries)
    out = {key: np.zeros(shape) for key in mrio.INDICATOR_KEYS}
    for ci, c in enumerate(icio.countries):
        rc = block(icio, c)
        foreign = np.ones(len(ex), dtype=bool)
        foreign[rc] = False
        W = B[:, rc] * ex[rc]
        out["gross_exports"][ci] = ex[rc]
        out["domestic_co2"][ci] = e_vec[rc] @ W[rc]
        out["foreign_co2"][ci] = e_vec[foreign] @ W[foreign]
        out["backward_gvc"][ci] = v[foreign] @ W[foreign]
        out["forward_gvc"][ci] = v[rc] * (B[rc][:, foreign] @ ex[foreign])
    return out


def coefficients_of(table):
    """A as :func:`build_coefficients` writes it, read back from I - A."""
    return np.eye(len(table.x)) - build_coefficients(table)


class TestIcioTable:
    def test_row_balance_violation_names_rows(self):
        Z = np.array([[10.0]])
        with pytest.raises(BalanceError, match="row balance"):
            IcioTable(("A",), ("M",), Z, np.array([[50.0]]), np.array([100.0]))

    def test_column_balance_violation(self):
        # Column uses more inputs than it produces.
        Z = np.array([[0.0, 30.0], [0.0, 0.0]])
        x = np.array([50.0, 20.0])
        F = (x - Z.sum(axis=1))[:, np.newaxis]
        with pytest.raises(BalanceError, match="column balance"):
            IcioTable(("A",), ("M", "S"), Z, F, x)

    def test_tiny_negative_z_clamped(self):
        Z = np.array([[20.0, -1e-6], [10.0, 40.0]])
        x = np.array([100.0, 100.0])
        F = (x - Z.sum(axis=1))[:, np.newaxis]
        table = IcioTable(("A",), ("M", "S"), Z, F, x)
        assert table.Z[0, 1] == 0.0

    def test_clamping_works_on_the_tables_own_copy(self):
        # Clamping a tiny negative writes into the table's copy of Z, so
        # building it holds that copy, one bool mask at a time, numpy's
        # ufunc buffers and small vectors, never a second float copy or a
        # second mask. A -0.0 is not negative and keeps its sign bit.
        nk = 300
        Z = np.random.default_rng(3).uniform(0.0, 1.0, (nk, nk))
        Z[0, 1], Z[1, 0] = -1e-9, -0.0
        x = Z.sum(axis=1) + 2.0 * nk
        F = (x - Z.sum(axis=1))[:, np.newaxis]
        tracemalloc.start()
        try:
            table = IcioTable(("A",), tuple(f"S{j}" for j in range(nk)),
                              Z, F, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= Z.nbytes + Z.size + 128 * 1024
        assert table.Z.tobytes() == np.where(Z < 0, 0.0, Z).tobytes()
        assert np.signbit(table.Z[1, 0]) and Z[0, 1] == -1e-9

    def test_large_negative_z_rejected(self):
        Z = np.array([[20.0, -2.0], [10.0, 40.0]])
        x = np.array([100.0, 100.0])
        F = (x - Z.sum(axis=1))[:, np.newaxis]
        with pytest.raises(BalanceError, match="negative beyond"):
            IcioTable(("A",), ("M", "S"), Z, F, x)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["Z", "F", "x"])
    def test_non_finite_cell_names_its_row(self, where, value):
        # NaN fails every comparison, so a check written as `gap > tol`
        # lets it through; the bad cell sits in row A:S.
        arrays = {"Z": np.array([[20.0, 30.0], [10.0, 40.0]]),
                  "x": np.array([100.0, 100.0])}
        arrays["F"] = (arrays["x"] - arrays["Z"].sum(axis=1))[:, np.newaxis]
        arrays[where][1 if where == "x" else (1, 0)] = value
        named = {"x": "gross output at A:S"}
        with pytest.raises(BalanceError, match=named.get(where, "A:S")):
            IcioTable(("A",), ("M", "S"), **arrays)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_intensity_names_its_row(self, value):
        with pytest.raises(SchemaError, match="A:S"):
            EmissionIntensity(("A",), ("M", "S"), [0.1, value])

    def test_negative_intensity_names_its_row(self):
        # The same fault as a negative record in an emissions file: a
        # schema error (exit 2) naming the row, not a numerical one.
        with pytest.raises(NegativeEmission, match="at A:S$"):
            EmissionIntensity(("A",), ("M", "S"), [0.1, -0.2])

    @pytest.mark.parametrize("countries, industries, message", [
        (("A", "A"), ("M",), "repeated country codes: A"),
        (("A",), ("M", "M"), "repeated industry codes: M"),
        (("A", "B", "A", "B"), ("M",), "repeated country codes: A, B"),
    ])
    def test_repeated_codes_are_named(self, countries, industries, message):
        # Before this check ("A", "A") built, and aggregating ["M"] over
        # industries ("M", "M") summed only the first.
        n = len(countries) * len(industries)
        Z, x = np.zeros((n, n)), np.full(n, 10.0)
        F = np.zeros((n, len(countries)))
        F[:, 0] = x
        with pytest.raises(DuplicateKey) as exc:
            IcioTable(countries, industries, Z, F, x)
        assert str(exc.value) == message
        assert exc.value.exit_code == 2

    def test_negative_final_demand_is_fine(self):
        # Inventory drawdowns may push a final-demand cell below zero.
        Z = np.array([[20.0, 30.0], [10.0, 40.0]])
        x = np.array([100.0, 100.0])
        F = np.array([[52.0, -2.0], [55.0, -5.0]])
        table = IcioTable(("A", "B"), ("M",), Z, F, x)
        assert table.F[0, 1] == -2.0


class TestCoefficients:
    def test_zero_intermediates(self):
        table = one_country_table(np.zeros((2, 2)), [100.0, 50.0])
        assert_allclose(coefficients_of(table), np.zeros((2, 2)))
        # The model holds the table itself; it copies nothing.
        assert build_model(table).table is table

    def test_scalar_ratio(self):
        table = one_country_table([[50.0]], [100.0], industries=("M",))
        assert_allclose(coefficients_of(table), [[0.5]])

    def test_hand_division_column_wise(self):
        table = one_country_table([[20.0, 30.0], [10.0, 40.0]], [100.0, 100.0])
        assert_allclose(coefficients_of(table), [[0.2, 0.3], [0.1, 0.4]])

    def test_zero_output_column_stays_zero(self):
        Z = np.array([[20.0, 0.0], [10.0, 0.0]])
        x = np.array([100.0, 0.0])
        F = (x - Z.sum(axis=1))[:, np.newaxis]
        table = IcioTable(("A",), ("M", "S"), Z, F, x)
        assert_allclose(coefficients_of(table)[:, 1], [0.0, 0.0])
        # The factored model applies that zero column: B e_S = e_S.
        assert_allclose(leontief_inverse(build_model(table))[:, 1], [0.0, 1.0])

    def test_singular_output_guard(self):
        # Zero output with real purchases cannot come out of validated
        # ingestion, so exercise the guard with a bare stand-in table.
        class Stub:
            countries = ("A",)
            industries = ("M", "S")
            Z = np.array([[0.0, 5.0], [0.0, 0.0]])
            x = np.array([100.0, 0.0])

            def row_labels(self):
                return ["A:M", "A:S"]

        with pytest.raises(SingularOutput):
            build_coefficients(Stub())

    def test_overflowing_coefficient_is_singular_output(self):
        # A validated table: S buys 5e-7 out of an output of 5e-324, within
        # the value-added tolerance, and 5e-7 / 5e-324 overflows.
        Z = np.array([[0.0, 5e-7], [0.0, 0.0]])
        F = np.array([[10.0], [5e-324]])
        table = IcioTable(("A",), ("M", "S"), Z, F, Z.sum(axis=1) + F[:, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOutput, match="not finite for: A:S$"):
                build_model(table)
        assert SingularOutput.exit_code == 3

    def test_subnormal_output_that_buys_nothing_is_productive(self):
        # S buys nothing out of an output of 5e-324: its column of A is
        # zero, though 1 / 5e-324 overflows in the checks that apply A.
        Z, F = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[10.0], [5e-324]])
        table = IcioTable(("A",), ("M", "S"), Z, F, Z.sum(axis=1) + F[:, 0])
        e = EmissionIntensity(("A",), ("M", "S"), [0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = build_model(table)
            accounts = compute_accounts(table, model, e)
            assert_allclose(leontief_inverse(model), [[1.1, 0.0], [0.0, 1.0]])
            assert mrio.conservation_gap(table, model, e) == 0.0
        for key in mrio.INDICATOR_KEYS:
            assert np.isfinite(accounts.indicator(key)).all(), key


class TestLeontiefInverse:
    def test_no_intermediates_gives_identity(self):
        model = build_model(dense_table(np.zeros((2, 2)), ("M", "S")))
        assert_allclose(leontief_inverse(model), np.eye(2))

    def test_scalar_geometric_series(self):
        model = build_model(dense_table([[0.5]], ("M",)))
        assert_allclose(leontief_inverse(model), [[2.0]], atol=1e-12)

    def test_neumann_series_oracle(self):
        A = np.array([[0.2, 0.3], [0.1, 0.4]])
        expected = np.zeros((2, 2))
        term = np.eye(2)
        for _ in range(51):
            expected += term
            term = term @ A
        B = leontief_inverse(build_model(dense_table(A, ("M", "S"))))
        assert_allclose(B, expected, atol=1e-8)

    def test_nonproductive_negative_inverse(self):
        with pytest.raises(NonProductive):
            leontief_inverse(build_model(dense_table([[1.2]], ("M",))))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system(self):
        with pytest.raises(NonProductive):
            leontief_inverse(build_model(dense_table([[1.0]], ("M",))))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("ratio, message", [(1.2, "not productive at A:M"),
                                                (1.0, "singular")])
    def test_build_model_rejects_nonproductive(self, ratio, message):
        with pytest.raises(NonProductive, match=message):
            build_model(dense_table([[ratio]], ("M",)))

    def test_residual_and_diagonal_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            icio = synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S"))
            B = leontief_inverse(build_model(icio))
            A = coefficients(icio)
            n = A.shape[0]
            residual = (np.eye(n) - A) @ B - np.eye(n)
            assert np.abs(residual).max() <= 1e-8
            assert B.min() >= -1e-10
            assert np.diag(B).min() >= 1.0

    def test_high_spectral_radius_against_long_series(self):
        # Near the productivity boundary the inverse still matches a
        # sufficiently long power series.
        rng = np.random.default_rng(11)
        A = random_coefficients(rng, 6, 0.9)
        B = leontief_inverse(build_model(dense_table(A, tuple("abcdef"))))
        expected = np.zeros_like(A)
        term = np.eye(6)
        for _ in range(600):
            expected += term
            term = term @ A
        assert_allclose(B, expected, atol=1e-7)


class TestFactorization:
    def test_factors_equal_lu_of_dense_coefficients(self):
        # Dividing Z by x straight into the factored buffer gives the LU
        # factors of I - A with A formed densely, entry for entry. Only a
        # structural zero may carry the other sign: the kernel negates A,
        # while I - A subtracts it from +0.
        rng = np.random.default_rng(13)
        for trial in range(12):
            icio = synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S", "T"))
            if trial % 3:
                icio = without_output(icio, rng.choice(9, trial % 3,
                                                       replace=False),
                                      purchases=1e-7 * (trial % 2))
            lu, piv = build_model(icio).factors
            expected_lu, expected_piv = scipy.linalg.lu_factor(
                np.eye(9) - coefficients(icio))
            np.testing.assert_array_equal(lu, expected_lu)
            np.testing.assert_array_equal(piv, expected_piv)

    def test_inverse_of_a_built_model_factors_once(self, monkeypatch):
        calls = []
        real = scipy.linalg.lu_factor

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
        icio = two_country_table()
        B = leontief_inverse(build_model(icio))
        assert calls == [(4, 4)]
        assert_allclose(B, explicit_inverse(icio), rtol=1e-12)

    def test_build_model_allocates_one_dense_matrix(self):
        # Beyond the LU buffer build_model allocates only vectors: the LU
        # skips scipy's finiteness mask, and a dense copy of A would
        # double the peak.
        rng = np.random.default_rng(29)
        icio = synthetic.random_icio(rng, [f"C{i}" for i in range(20)],
                                     [f"S{j}" for j in range(30)])
        nk = len(icio.x)
        tracemalloc.start()
        try:
            model = build_model(icio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.factors is not None
        assert peak <= 1.1 * nk * nk * 8


class TestResidualGuard:
    """Each solve's residual is checked in both directions, with the
    products with Z on the BLAS that solves."""

    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("column", [None, 1])
    def test_perturbed_column_is_named(self, monkeypatch, trans, column):
        model = build_model(two_country_table())
        real = scipy.linalg.lu_solve

        def perturbed(*args, **kwargs):
            X = real(*args, **kwargs)
            if column is not None:
                X[:, column] += 1e-6 * np.abs(X).max()
            return X

        monkeypatch.setattr(scipy.linalg, "lu_solve", perturbed)
        rhs = np.arange(1.0, 13.0).reshape(4, 3)
        if column is not None:
            with pytest.raises(NonProductive,
                               match=f"for right-hand side {column}$"):
                model.solve(rhs, trans=trans)
            return
        system = np.eye(4) - coefficients(model.table)
        X = model.solve(rhs, trans=trans)
        assert_allclose((system.T if trans else system) @ X, rhs, rtol=1e-12)

    def test_products_with_z_equal_numpy(self):
        rng = np.random.default_rng(31)
        icio = without_output(
            synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S", "T")),
            [4], purchases=1e-7)
        assert icio.x[4] == 0 and icio.Z[:, 4].any()
        model = build_model(icio)
        X = rng.uniform(0.5, 2.0, size=(9, 5))
        for values in (X, np.asfortranarray(X)):
            assert_allclose(model._z_times(values), icio.Z @ X, rtol=1e-12)
            assert_allclose(model._z_times(values, trans=1), icio.Z.T @ X,
                            rtol=1e-12)


class TestStructuralZeros:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
           k=st.integers(1, 3),
           zeros=st.sets(st.sampled_from(STRUCTURAL_ZEROS), min_size=1))
    def test_structural_zeros_match_dense_oracle(self, seed, n, k, zeros):
        icio, e = structural_zero_world(np.random.default_rng(seed), n, k,
                                        zeros)
        model = build_model(icio)
        accounts = compute_accounts(icio, model, e)
        assert mrio.conservation_gap(icio, model, e) <= mrio.CONSERVATION_GAP_TOL
        expected = explicit_accounts(icio, e.e)
        for key in mrio.INDICATOR_KEYS:
            scale = np.abs(expected[key]).max()
            assert_allclose(accounts.indicator(key), expected[key],
                            rtol=1e-12, atol=1e-12 * scale, err_msg=key)


def exports_of(icio, country):
    return mrio.gross_exports_vector(icio)[block(icio, country)]


class TestGrossExports:
    def test_autarkic_world_exports_nothing(self):
        table = autarkic_table()
        for c in table.countries:
            assert_allclose(exports_of(table, c), 0.0, atol=1e-12)

    def test_direct_sum(self):
        # Country A sells 10 intermediate and 5 final abroad.
        Z = np.array([[0.0, 10.0], [0.0, 0.0]])
        x = np.array([15.0, 30.0])
        F = np.array([[0.0, 5.0], [30.0, 0.0]])
        table = IcioTable(("A", "B"), ("M",), Z, F, x)
        assert_allclose(exports_of(table, "A"), [15.0])

    def test_brute_force_row_scan(self):
        table = two_country_table()
        for c in table.countries:
            rc = block(table, c)
            ci = table.countries.index(c)
            expected = []
            for i in range(rc.start, rc.stop):
                total = 0.0
                for j in range(table.Z.shape[1]):
                    if not (rc.start <= j < rc.stop):
                        total += table.Z[i, j]
                for d in range(len(table.countries)):
                    if d != ci:
                        total += table.F[i, d]
                expected.append(total)
            assert_allclose(exports_of(table, c), expected, rtol=1e-12)
            assert_allclose(country_exports(table, c), expected, rtol=1e-12)

    def test_unknown_country(self):
        with pytest.raises(UnknownCountry):
            accounts_of(two_country_table()).country_index("XXX")

    def test_negative_exports_name_the_country(self):
        # Inventory drawdown abroad larger than every other foreign sale.
        F = np.array([[15.0, 0.0], [-5.0, 10.0]])
        table = IcioTable(("A", "B"), ("M",), np.zeros((2, 2)), F,
                          np.array([15.0, 5.0]))
        with pytest.raises(BalanceError, match="negative gross exports for B"):
            mrio.gross_exports_vector(table)


class TestEmbodiedEmissions:
    def test_zero_intensity(self):
        accounts = accounts_of(two_country_table())
        assert_allclose(accounts.domestic_co2, np.zeros((2, 2)))
        assert_allclose(accounts.foreign_co2, np.zeros((2, 2)))

    def test_explicit_two_by_two_arithmetic(self):
        # A = [[1, 2], [1, 2]] / 7 has B = [[1.25, 0.5], [0.25, 1.5]];
        # final demand is split so that gross exports are (40, 10).
        e_vec = np.array([0.1, 0.2])
        B = np.array([[1.25, 0.5], [0.25, 1.5]])
        ex = np.array([40.0, 10.0])
        Z = np.array([[10.0, 20.0], [10.0, 20.0]])
        F = np.array([[20.0, 20.0], [0.0, 40.0]])
        table = IcioTable(("A", "B"), ("M",), Z, F, np.array([70.0, 70.0]))
        accounts = accounts_of(table, e_vec)
        assert_allclose(accounts.gross_exports[:, 0], ex, rtol=1e-15)
        domestic = np.array([e_vec[0] * B[0, 0] * ex[0],
                             e_vec[1] * B[1, 1] * ex[1]])
        foreign = np.array([e_vec[1] * B[1, 0] * ex[0],
                            e_vec[0] * B[0, 1] * ex[1]])
        assert_allclose(accounts.domestic_co2[:, 0], domestic, rtol=1e-12)
        assert_allclose(accounts.foreign_co2[:, 0], foreign, rtol=1e-12)
        assert_allclose(
            accounts.domestic_co2[:, 0] + accounts.foreign_co2[:, 0],
            (e_vec @ B) * ex, rtol=1e-12)


def accounts_of(table, e_vec=None):
    """compute_accounts on ``table``; zero intensities unless given."""
    if e_vec is None:
        e_vec = np.zeros(table.x.shape)
    e = EmissionIntensity(table.countries, table.industries, e_vec)
    return compute_accounts(table, build_model(table), e)


class TestCountrySplit:
    def test_zero_domestic_intensity(self):
        table = two_country_table()
        e_vec = np.array([0.0, 0.0, 0.3, 0.4])  # country A emits nothing
        assert accounts_of(table, e_vec).domestic_co2[0].sum() == 0.0

    def test_autarkic_country_has_no_export_emissions(self):
        accounts = accounts_of(autarkic_table(), np.full(4, 0.2))
        assert accounts.domestic_co2[0].sum() == 0.0
        assert accounts.foreign_co2[0].sum() == 0.0

    def test_single_country_world_has_no_foreign_content(self):
        table = one_country_table([[20.0, 30.0], [10.0, 40.0]],
                                  [100.0, 100.0])
        accounts = accounts_of(table, np.array([0.5, 0.1]))
        assert accounts.foreign_co2[0].sum() == 0.0

    def test_block_extraction_oracle(self):
        table = two_country_table()
        B = explicit_inverse(table)
        e_vec = np.array([0.12, 0.08, 0.25, 0.3])
        rc = block(table, "A")
        ex = country_exports(table, "A")
        req = B[:, rc] @ ex
        expected_dom = sum(e_vec[i] * req[i] for i in range(rc.start, rc.stop))
        expected_for = sum(e_vec[i] * req[i] for i in range(4)
                           if not (rc.start <= i < rc.stop))
        accounts = accounts_of(table, e_vec)
        assert_allclose(accounts.domestic_co2[0].sum(), expected_dom, rtol=1e-12)
        assert_allclose(accounts.foreign_co2[0].sum(), expected_for, rtol=1e-12)

    def test_additivity_of_split(self):
        table = two_country_table()
        B = explicit_inverse(table)
        e_vec = np.array([0.12, 0.08, 0.25, 0.3])
        accounts = accounts_of(table, e_vec)
        for ci, c in enumerate(table.countries):
            rc = block(table, c)
            ex = country_exports(table, c)
            total = float(e_vec @ (B[:, rc] @ ex))
            dom = accounts.domestic_co2[ci].sum()
            frn = accounts.foreign_co2[ci].sum()
            assert abs(dom + frn - total) <= 1e-9 * max(total, 1e-30)


class TestGvcParticipation:
    def test_autarkic_world(self):
        accounts = accounts_of(autarkic_table())
        for ci in range(2):
            assert accounts.forward_gvc[ci].sum() == 0.0
            assert accounts.backward_gvc[ci].sum() == 0.0

    def test_zero_value_added_means_zero_forward(self):
        # Country A's industry uses inputs worth its entire output.
        Z = np.array([[50.0, 20.0], [50.0, 10.0]])
        x = np.array([100.0, 50.0])
        F = (x - Z.sum(axis=1)).reshape(2, 1) * np.array([[0.5, 0.5]])
        table = IcioTable(("A", "B"), ("M",), Z, F, x)
        assert_allclose(table.va, [0.0, 20.0])
        assert accounts_of(table).forward_gvc[0].sum() == 0.0

    def test_three_country_chain_trace(self):
        # A ships 10 of intermediates to B; B exports 20 of final goods to C.
        Z = np.zeros((3, 3))
        Z[0, 1] = 10.0
        x = np.array([10.0, 20.0, 5.0])
        F = np.zeros((3, 3))
        F[1, 2] = 20.0
        F[2, 2] = 5.0
        table = IcioTable(("A", "B", "C"), ("M",), Z, F, x)
        accounts = accounts_of(table)
        # v_A = 1 (pure value added); B[A, B] = 0.5; B's exports are 20.
        assert_allclose(accounts.forward_gvc[0].sum(), 1.0 * 0.5 * 20.0,
                        rtol=1e-12)
        assert_allclose(accounts.backward_gvc[1].sum(), 10.0, rtol=1e-12)

    def test_value_added_decomposition_identity(self):
        table = two_country_table()
        B = explicit_inverse(table)
        accounts = accounts_of(table)
        v = table.va / table.x
        for ci, c in enumerate(table.countries):
            rc = block(table, c)
            ex = country_exports(table, c)
            domestic_va = float(v[rc] @ (B[rc, rc] @ ex))
            bwd = accounts.backward_gvc[ci].sum()
            assert abs(bwd + domestic_va - ex.sum()) <= 1e-6 * ex.sum()


def equivalence_worlds():
    """Random worlds, half with a structural-zero import block, some with
    an industry that exports nothing and one with zero output."""
    rng = np.random.default_rng(3)
    for i in range(12):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        icio = home_sourcing_world(rng, n, k, scale=10.0 ** (i % 7),
                                   home_only=i % 2 == 0)
        yield icio, synthetic.random_intensity(rng, icio)
    # Industry A:S neither exports nor produces; B:M sells only at home.
    Z = np.array([[10.0, 0.0, 5.0, 2.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 8.0, 3.0],
                  [4.0, 0.0, 6.0, 9.0]])
    F = np.array([[20.0, 13.0], [0.0, 0.0], [0.0, 29.0], [5.0, 16.0]])
    icio = IcioTable(("A", "B"), ("M", "S"), Z, F, Z.sum(axis=1) + F.sum(axis=1))
    yield icio, synthetic.random_intensity(rng, icio)


class TestIdentity:
    @pytest.mark.parametrize("build", [
        lambda icio, e: icio,
        lambda icio, e: e,
        lambda icio, e: build_model(icio),
        lambda icio, e: compute_accounts(icio, build_model(icio), e),
    ], ids=["IcioTable", "EmissionIntensity", "LeontiefModel",
            "EmbodiedAccounts"])
    def test_equal_content_compares_and_hashes_by_identity(self, build):
        # The generated __eq__ compared the arrays and raised ValueError,
        # and __hash__ raised TypeError.
        def one():
            rng = np.random.default_rng(4)
            icio = synthetic.random_icio(rng, ("A", "B"), ("M", "S"))
            return build(icio, synthetic.random_intensity(rng, icio))

        first, second = one(), one()
        assert first == first and first != second
        assert len({first, second, first}) == 2

class TestAccounts:
    def test_matches_individual_operations(self):
        # The adjoint solves agree with the per-country formulas on the
        # explicit inverse; structural zeros are compared at the scale of
        # their grid.
        for icio, e in equivalence_worlds():
            accounts = compute_accounts(icio, build_model(icio), e)
            expected = explicit_accounts(icio, e.e)
            for key in mrio.INDICATOR_KEYS:
                scale = np.abs(expected[key]).max()
                assert_allclose(accounts.indicator(key), expected[key],
                                rtol=1e-12, atol=1e-12 * scale, err_msg=key)

    def test_backward_bounded_by_exports(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            icio = synthetic.random_icio(rng, ("A", "B"), ("M", "S", "T"))
            model = build_model(icio)
            accounts = compute_accounts(icio, model,
                                        synthetic.random_intensity(rng, icio))
            bwd = accounts.backward_gvc.sum(axis=1)
            ex = accounts.gross_exports.sum(axis=1)
            assert np.all(bwd <= ex * (1 + 1e-6))

    def test_invariant_rejects_backward_above_exports(self):
        grids = dict(
            gross_exports=np.array([[1.0]]),
            domestic_co2=np.zeros((1, 1)),
            foreign_co2=np.zeros((1, 1)),
            forward_gvc=np.zeros((1, 1)),
            backward_gvc=np.array([[2.0]]),
        )
        with pytest.raises(DimensionMismatch, match="backward"):
            mrio.EmbodiedAccounts(("A",), ("M",), **grids)

    @pytest.mark.parametrize("scale", [1e-12, 1e-3, 1e9])
    def test_invariant_rejects_backward_above_exports_at_any_scale(self, scale):
        grids = dict(
            gross_exports=np.array([[scale], [1.1 * scale]]),
            domestic_co2=np.zeros((2, 1)),
            foreign_co2=np.zeros((2, 1)),
            forward_gvc=np.zeros((2, 1)),
            backward_gvc=np.array([[2 * scale], [0.5 * scale]]),
        )
        with pytest.raises(DimensionMismatch, match="exceeds gross exports for A"):
            mrio.EmbodiedAccounts(("A", "B"), ("M",), **grids)

    def test_aggregate_industry_subset(self):
        rng = np.random.default_rng(9)
        icio = synthetic.random_icio(rng, ("A", "B"), ("M", "S"))
        accounts = compute_accounts(icio, build_model(icio),
                                    synthetic.random_intensity(rng, icio))
        manu = accounts.aggregate("domestic_co2", ["M"])
        both = accounts.aggregate("domestic_co2")
        assert np.all(manu <= both + 1e-12)
        with pytest.raises(KeyError):
            accounts.aggregate("domestic_co2", ["nope"])

    def test_aggregate_for_countries_in_their_order(self):
        rng = np.random.default_rng(9)
        icio = synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S"))
        accounts = compute_accounts(icio, build_model(icio),
                                    synthetic.random_intensity(rng, icio))
        every = accounts.aggregate("forward_gvc", ["M"])
        sampled = accounts.aggregate("forward_gvc", ["M"], ("C", "A"))
        assert np.array_equal(sampled, every[[2, 0]])
        with pytest.raises(UnknownCountry, match="'D'"):
            accounts.aggregate("forward_gvc", ["M"], ("A", "D"))

    def test_round_off_below_zero_clamped_at_construction(self):
        # Within 1e-9 of the grid's largest magnitude, 2.0, is round-off.
        grids = {key: np.full((1, 3), 2.0) for key in mrio.INDICATOR_KEYS}
        grids["foreign_co2"] = np.array([[-1.5e-9, -0.0, 2.0]])
        accounts = mrio.EmbodiedAccounts(("A",), ("M", "S", "T"), **grids)
        assert accounts.foreign_co2.tolist() == [[0.0, 0.0, 2.0]]
        assert not np.signbit(accounts.foreign_co2).any()
        grids["foreign_co2"] = np.array([[-2.5e-9, 0.0, 2.0]])
        with pytest.raises(DimensionMismatch, match="foreign_co2 has negative"):
            mrio.EmbodiedAccounts(("A",), ("M", "S", "T"), **grids)

    @pytest.mark.parametrize("run", [compute_accounts, mrio.conservation_gap])
    def test_inputs_of_another_world_rejected(self, run):
        # The solves run on another table's model too; only the check fails.
        rng = np.random.default_rng(11)
        one, two = (synthetic.random_icio(rng, ("A", "B"), ("M", "S"))
                    for _ in range(2))
        e = synthetic.random_intensity(rng, two)
        with pytest.raises(DimensionMismatch, match="another table"):
            run(two, build_model(one), e)
        model = build_model(two)
        for countries, industries, message in (
                (("B", "A"), ("M", "S"), "countries are not the table's: B "
                                         "where the table has A"),
                (("A", "B"), ("M", "T"), "industries are not the table's: "
                                         "T where the table has S")):
            other = EmissionIntensity(countries, industries, e.e)
            with pytest.raises(DimensionMismatch, match=message):
                run(two, model, other)
        run(two, model, e)

    @pytest.mark.parametrize("name", ["year", "countries", "industries",
                                      "country_index", "nope"])
    def test_indicator_serves_only_indicator_keys(self, name):
        accounts = accounts_of(two_country_table())
        with pytest.raises(KeyError, match="unknown indicator"):
            accounts.indicator(name)
        with pytest.raises(KeyError, match="unknown indicator"):
            accounts.aggregate(name)


class TestScaleFreeTolerances:
    def test_home_sourcing_country_at_icio_flow_scale(self):
        # Flows of order 1e6 (thousand USD, the size of ICIO flows) with a
        # structural-zero import block: the foreign CO2 and backward GVC of
        # country 0 are zero up to round-off that grows with the flows, so
        # no absolute threshold may reject them.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            icio = home_sourcing_world(rng)
            e = synthetic.random_intensity(rng, icio)
            accounts = compute_accounts(icio, build_model(icio), e)
            for key in mrio.INDICATOR_KEYS:
                assert accounts.indicator(key).min() >= 0.0, (seed, key)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), power=st.integers(-3, 9),
           home_only=st.booleans())
    def test_indicators_scale_linearly_with_flows(self, seed, power, home_only):
        rng = np.random.default_rng(seed)
        base = home_sourcing_world(rng, 3, 2, scale=1.0, home_only=home_only)
        e = synthetic.random_intensity(rng, base)
        factor = 10.0 ** power
        scaled = IcioTable(base.countries, base.industries, base.Z * factor,
                           base.F * factor, base.x * factor)
        one = compute_accounts(base, build_model(base), e)
        other = compute_accounts(scaled, build_model(scaled), e)
        for key in mrio.INDICATOR_KEYS:
            expected = one.indicator(key) * factor
            assert_allclose(other.indicator(key), expected, rtol=1e-10,
                            atol=1e-12 * np.abs(expected).max(), err_msg=key)


class TestCountryOrder:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
           k=st.integers(1, 3), home_only=st.booleans())
    def test_permuting_countries_permutes_accounts(self, seed, n, k,
                                                   home_only):
        rng = np.random.default_rng(seed)
        base = home_sourcing_world(rng, n, k, scale=1.0, home_only=home_only)
        e = synthetic.random_intensity(rng, base)
        order = rng.permutation(n)
        rows = (order[:, np.newaxis] * k + np.arange(k)).reshape(-1)
        permuted = IcioTable(tuple(base.countries[c] for c in order),
                             base.industries, base.Z[np.ix_(rows, rows)],
                             base.F[np.ix_(rows, order)], base.x[rows])
        e_perm = EmissionIntensity(permuted.countries, permuted.industries,
                                   e.e[rows])
        one = compute_accounts(base, build_model(base), e)
        other = compute_accounts(permuted, build_model(permuted), e_perm)
        assert other.countries == permuted.countries
        for key in mrio.INDICATOR_KEYS:
            expected = one.indicator(key)[order]
            assert_allclose(other.indicator(key), expected, rtol=1e-10,
                            atol=1e-12 * np.abs(expected).max(), err_msg=key)


class TestGlobalInvariants:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), power=st.integers(-300, 300))
    def test_conservation_gap_does_not_depend_on_the_unit_of_e(self, seed,
                                                               power):
        # A power of two scales both totals exactly, so the relative gap
        # must come out bit for bit the same, however small the totals.
        rng = np.random.default_rng(seed)
        icio = synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S"))
        model = build_model(icio)
        e = synthetic.random_intensity(rng, icio)
        scaled = EmissionIntensity(e.countries, e.industries,
                                   e.e * 2.0 ** power)
        assert (mrio.conservation_gap(icio, model, scaled)
                == mrio.conservation_gap(icio, model, e))

    def test_conservation_gap_of_zero_emissions_is_zero(self):
        icio = two_country_table()
        e = EmissionIntensity(icio.countries, icio.industries, np.zeros(4))
        assert mrio.conservation_gap(icio, build_model(icio), e) == 0.0

    def test_conservation_and_additivity_on_random_worlds(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            icio = synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S"))
            model = build_model(icio)
            B = explicit_inverse(icio)
            e = synthetic.random_intensity(rng, icio)
            assert mrio.conservation_gap(icio, model, e) <= 1e-8
            accounts = compute_accounts(icio, model, e)
            for ci, c in enumerate(icio.countries):
                rc = block(icio, c)
                ex = country_exports(icio, c)
                total = float(e.e @ (B[:, rc] @ ex))
                dom = accounts.domestic_co2[ci].sum()
                frn = accounts.foreign_co2[ci].sum()
                assert abs(dom + frn - total) <= 1e-9 * max(total, 1e-30)

    def test_value_added_closure_all_sources(self):
        rng = np.random.default_rng(17)
        icio = synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S"))
        B = explicit_inverse(icio)
        v = icio.va / icio.x
        for c in icio.countries:
            rc = block(icio, c)
            ex = country_exports(icio, c)
            embodied = float(v @ (B[:, rc] @ ex))
            assert abs(embodied - ex.sum()) <= 1e-6 * max(ex.sum(), 1e-30)

    def test_monotonicity_in_intensity(self):
        rng = np.random.default_rng(23)
        icio = synthetic.random_icio(rng, ("A", "B"), ("M", "S"))
        model = build_model(icio)
        e_vec = rng.uniform(0.05, 0.5, size=icio.x.shape)
        base = compute_accounts(
            icio, model, EmissionIntensity(icio.countries, icio.industries, e_vec)
        )
        for i in range(len(e_vec)):
            bumped = e_vec.copy()
            bumped[i] += 0.1
            more = compute_accounts(
                icio, model,
                EmissionIntensity(icio.countries, icio.industries, bumped),
            )
            assert np.all(more.domestic_co2 >= base.domestic_co2 - 1e-12)
            assert np.all(more.foreign_co2 >= base.foreign_co2 - 1e-12)
