"""Core input-output accounting: coefficients, inverse, embodied carbon."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gvccarbon import mrio, synthetic
from gvccarbon.errors import (
    BalanceError,
    DimensionMismatch,
    NonProductive,
    SingularOutput,
    UnknownCountry,
)
from gvccarbon.mrio import (
    EmissionIntensity,
    IcioTable,
    LeontiefModel,
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
    return leontief_inverse(build_coefficients(icio))


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
        rc = icio.rows(c)
        foreign = np.ones(len(ex), dtype=bool)
        foreign[rc] = False
        W = B[:, rc] * ex[rc]
        out["gross_exports"][ci] = ex[rc]
        out["domestic_co2"][ci] = e_vec[rc] @ W[rc]
        out["foreign_co2"][ci] = e_vec[foreign] @ W[foreign]
        out["backward_gvc"][ci] = v[foreign] @ W[foreign]
        out["forward_gvc"][ci] = v[rc] * (B[rc][:, foreign] @ ex[foreign])
    return out


class NonProductiveStub:
    """Bare stand-in table with A = [[ratio]]: validated ingestion cannot
    produce a nonproductive table."""

    countries = ("A",)
    industries = ("M",)
    x = np.array([100.0])

    def __init__(self, ratio):
        self.Z = np.array([[100.0 * ratio]])

    def row_labels(self):
        return ["A:M"]


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

    def test_large_negative_z_rejected(self):
        Z = np.array([[20.0, -2.0], [10.0, 40.0]])
        x = np.array([100.0, 100.0])
        F = (x - Z.sum(axis=1))[:, np.newaxis]
        with pytest.raises(BalanceError, match="negative beyond"):
            IcioTable(("A",), ("M", "S"), Z, F, x)

    def test_negative_final_demand_is_fine(self):
        # Inventory drawdowns may push a final-demand cell below zero.
        Z = np.array([[20.0, 30.0], [10.0, 40.0]])
        x = np.array([100.0, 100.0])
        F = np.array([[52.0, -2.0], [55.0, -5.0]])
        table = IcioTable(("A", "B"), ("M",), Z, F, x)
        assert table.F[0, 1] == -2.0

    def test_block_index_contiguous(self):
        table = two_country_table()
        assert table.rows("A") == slice(0, 2)
        assert table.rows("B") == slice(2, 4)
        with pytest.raises(UnknownCountry):
            table.rows("ZZZ")


class TestCoefficients:
    def test_zero_intermediates(self):
        table = one_country_table(np.zeros((2, 2)), [100.0, 50.0])
        model = build_coefficients(table)
        assert_allclose(model.A, np.zeros((2, 2)))
        assert model.factors is None

    def test_scalar_ratio(self):
        table = one_country_table([[50.0]], [100.0], industries=("M",))
        model = build_coefficients(table)
        assert_allclose(model.A, [[0.5]])

    def test_hand_division_column_wise(self):
        table = one_country_table([[20.0, 30.0], [10.0, 40.0]], [100.0, 100.0])
        model = build_coefficients(table)
        assert_allclose(model.A, [[0.2, 0.3], [0.1, 0.4]])

    def test_zero_output_column_stays_zero(self):
        Z = np.array([[20.0, 0.0], [10.0, 0.0]])
        x = np.array([100.0, 0.0])
        F = (x - Z.sum(axis=1))[:, np.newaxis]
        table = IcioTable(("A",), ("M", "S"), Z, F, x)
        model = build_coefficients(table)
        assert_allclose(model.A[:, 1], [0.0, 0.0])

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


class TestLeontiefInverse:
    def test_no_intermediates_gives_identity(self):
        model = LeontiefModel(("A",), ("M", "S"), np.zeros((2, 2)))
        assert_allclose(leontief_inverse(model), np.eye(2))

    def test_scalar_geometric_series(self):
        model = LeontiefModel(("A",), ("M",), np.array([[0.5]]))
        assert_allclose(leontief_inverse(model), [[2.0]], atol=1e-12)

    def test_neumann_series_oracle(self):
        A = np.array([[0.2, 0.3], [0.1, 0.4]])
        expected = np.zeros((2, 2))
        term = np.eye(2)
        for _ in range(51):
            expected += term
            term = term @ A
        B = leontief_inverse(LeontiefModel(("A",), ("M", "S"), A))
        assert_allclose(B, expected, atol=1e-8)

    def test_nonproductive_negative_inverse(self):
        model = LeontiefModel(("A",), ("M",), np.array([[1.2]]))
        with pytest.raises(NonProductive):
            leontief_inverse(model)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system(self):
        model = LeontiefModel(("A",), ("M",), np.array([[1.0]]))
        with pytest.raises(NonProductive):
            leontief_inverse(model)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("ratio, message", [(1.2, "not productive at A:M"),
                                                (1.0, "singular")])
    def test_build_model_rejects_nonproductive(self, ratio, message):
        with pytest.raises(NonProductive, match=message):
            build_model(NonProductiveStub(ratio))

    def test_negative_coefficient_rejected(self):
        model = LeontiefModel(("A",), ("M", "S"),
                              np.array([[0.2, -0.1], [0.1, 0.3]]))
        with pytest.raises(NonProductive, match=r"A\[A:M, A:S\]"):
            leontief_inverse(model)

    def test_unfactored_model_cannot_solve(self):
        model = build_coefficients(two_country_table())
        with pytest.raises(NonProductive, match="not been factored"):
            model.solve(np.ones((4, 1)))

    def test_residual_and_diagonal_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            icio = synthetic.random_icio(rng, ("A", "B", "C"), ("M", "S"))
            model = build_coefficients(icio)
            B = leontief_inverse(model)
            n = model.A.shape[0]
            residual = (np.eye(n) - model.A) @ B - np.eye(n)
            assert np.abs(residual).max() <= 1e-8
            assert B.min() >= -1e-10
            assert np.diag(B).min() >= 1.0

    def test_high_spectral_radius_against_long_series(self):
        # Near the productivity boundary the inverse still matches a
        # sufficiently long power series.
        rng = np.random.default_rng(11)
        A = synthetic.random_coefficients(rng, 6, 0.9)
        B = leontief_inverse(LeontiefModel(("A",), tuple("abcdef"), A))
        expected = np.zeros_like(A)
        term = np.eye(6)
        for _ in range(600):
            expected += term
            term = term @ A
        assert_allclose(B, expected, atol=1e-7)


class TestGrossExports:
    def test_autarkic_world_exports_nothing(self):
        table = autarkic_table()
        for c in table.countries:
            assert_allclose(mrio.gross_exports(table, c), 0.0, atol=1e-12)

    def test_direct_sum(self):
        # Country A sells 10 intermediate and 5 final abroad.
        Z = np.array([[0.0, 10.0], [0.0, 0.0]])
        x = np.array([15.0, 30.0])
        F = np.array([[0.0, 5.0], [30.0, 0.0]])
        table = IcioTable(("A", "B"), ("M",), Z, F, x)
        assert_allclose(mrio.gross_exports(table, "A"), [15.0])

    def test_brute_force_row_scan(self):
        table = two_country_table()
        for c in table.countries:
            rc = table.rows(c)
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
            assert_allclose(mrio.gross_exports(table, c), expected, rtol=1e-12)

    def test_unknown_country(self):
        with pytest.raises(UnknownCountry):
            mrio.gross_exports(two_country_table(), "XXX")

    def test_negative_exports_name_the_country(self):
        # Inventory drawdown abroad larger than every other foreign sale.
        F = np.array([[15.0, 0.0], [-5.0, 10.0]])
        table = IcioTable(("A", "B"), ("M",), np.zeros((2, 2)), F,
                          np.array([15.0, 5.0]))
        with pytest.raises(BalanceError, match="negative gross exports for B"):
            mrio.gross_exports_vector(table)


class TestEmbodiedEmissions:
    def test_zero_intensity(self):
        table = two_country_table()
        e = EmissionIntensity(table.countries, table.industries, np.zeros(4))
        C = mrio.embodied_emissions(e, explicit_inverse(table), np.ones((4, 3)))
        assert_allclose(C, np.zeros((4, 3)))

    def test_identity_multiplier(self):
        table = two_country_table()
        e_vec = np.array([0.1, 0.2, 0.3, 0.4])
        e = EmissionIntensity(table.countries, table.industries, e_vec)
        ex = mrio.gross_exports_vector(table)
        C = mrio.embodied_emissions(e, np.eye(4), ex)
        assert_allclose(C[:, 0], e_vec * ex)

    def test_explicit_two_by_two_arithmetic(self):
        e_vec = np.array([0.1, 0.2])
        B = np.array([[1.25, 0.5], [0.25, 1.5]])
        ex = np.array([40.0, 10.0])
        expected = np.array([
            e_vec[0] * (B[0, 0] * ex[0] + B[0, 1] * ex[1]),
            e_vec[1] * (B[1, 0] * ex[0] + B[1, 1] * ex[1]),
        ])
        e = EmissionIntensity(("A", "B"), ("M",), e_vec)
        C = mrio.embodied_emissions(e, B, ex)
        assert_allclose(C[:, 0], expected, rtol=1e-15)

    def test_dimension_mismatch(self):
        e = EmissionIntensity(("A", "B"), ("M",), np.array([0.1, 0.2]))
        with pytest.raises(DimensionMismatch):
            mrio.embodied_emissions(e, np.eye(3), np.ones(3))


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
        rc = table.rows("A")
        ex = mrio.gross_exports(table, "A")
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
            rc = table.rows(c)
            ex = mrio.gross_exports(table, c)
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
            rc = table.rows(c)
            ex = mrio.gross_exports(table, c)
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


class TestGlobalInvariants:
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
                rc = icio.rows(c)
                ex = mrio.gross_exports(icio, c)
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
            rc = icio.rows(c)
            ex = mrio.gross_exports(icio, c)
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
