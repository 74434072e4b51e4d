"""Cross-sectional dependence, descriptives, correlations, rank tables."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gvccarbon import workflow
from gvccarbon.diagnostics import (
    LEVEL_BASIS,
    SHARE_BASIS,
    correlation_matrix,
    descriptive_stats,
    pesaran_cd,
    rank_table,
    two_sided_normal_p,
)
from gvccarbon.errors import DegenerateSeries, DimensionMismatch, MissingValue
from gvccarbon.panel import PanelDataset


class TestNormalTail:
    @pytest.mark.parametrize("z", [0.0, 1e-300, 0.3, -0.5, 1.0, -1.96, 2.5758,
                                   8.0, -20.0, 37.0, -37.0])
    def test_matches_scipy_ndtr_up_to_37(self, z):
        expected = 2.0 * scipy.special.ndtr(-abs(z))
        assert_allclose(two_sided_normal_p(z), expected, rtol=1e-12, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(z=st.floats(-37.0, 37.0))
    def test_matches_scipy_ndtr_property(self, z):
        expected = 2.0 * scipy.special.ndtr(-abs(z))
        assert_allclose(two_sided_normal_p(z), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("z", [37.5, -38.0, 40.0, 1e3, -1e300,
                                   np.inf, -np.inf])
    def test_far_tail_vanishes_with_the_oracle(self, z):
        assert two_sided_normal_p(z) < 1e-290
        assert 2.0 * scipy.special.ndtr(-abs(z)) < 1e-290

    def test_end_points(self):
        assert two_sided_normal_p(0.0) == 1.0
        assert two_sided_normal_p(np.inf) == 0.0 == two_sided_normal_p(-np.inf)
        assert np.isnan(two_sided_normal_p(np.nan))
        assert np.isnan(2.0 * scipy.special.ndtr(-abs(np.nan)))


class TestPesaranCd:
    def test_perfect_dependence_closed_form(self):
        n, t = 5, 12
        series = np.sin(np.arange(t))
        grid = np.tile(series, (n, 1))
        report = pesaran_cd(grid)
        assert_allclose(report.statistic, np.sqrt(t * n * (n - 1) / 2.0),
                        rtol=1e-12)
        assert_allclose(report.avg_abs_correlation, 1.0, rtol=1e-12)
        assert report.p_value < 1e-10

    def test_null_distribution_moments(self):
        rng = np.random.default_rng(100)
        stats = [pesaran_cd(rng.normal(size=(16, 24))).statistic
                 for _ in range(400)]
        stats = np.asarray(stats)
        assert abs(stats.mean()) < 0.15
        assert 0.8 < stats.std() < 1.25

    def test_size_across_seeds(self):
        # Independent units should rarely trip the 5% critical value.
        inside = sum(
            abs(pesaran_cd(
                np.random.default_rng(seed).normal(size=(16, 24))
            ).statistic) < 1.96
            for seed in range(100)
        )
        assert inside >= 93

    def test_degenerate_series_rejected(self):
        grid = np.vstack([np.ones(10), np.random.default_rng(0).normal(size=10)])
        with pytest.raises(DegenerateSeries):
            pesaran_cd(grid)

    def test_too_small_panels_rejected(self):
        with pytest.raises(DimensionMismatch):
            pesaran_cd(np.ones((1, 10)))
        with pytest.raises(DimensionMismatch):
            pesaran_cd(np.ones((3, 2)))

    def test_nan_head_columns_trimmed(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(4, 10))
        grid[:, 0] = np.nan
        report = pesaran_cd(grid)
        direct = pesaran_cd(grid[:, 1:])
        assert_allclose(report.statistic, direct.statistic, rtol=1e-12)

    @given(st.integers(min_value=0, max_value=500),
           st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, seed, slope, shift):
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=(6, 15))
        base = pesaran_cd(grid)
        moved = pesaran_cd(slope * grid + shift)
        assert abs(base.statistic - moved.statistic) < 1e-8

    def test_pairwise_grid_is_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        report = pesaran_cd(rng.normal(size=(5, 20)))
        assert_allclose(report.pairwise, report.pairwise.T)
        assert_allclose(np.diag(report.pairwise), 1.0)
        assert np.all(np.abs(report.pairwise) <= 1.0)


def stats_panel(values):
    values = np.asarray(values, float)
    return PanelDataset(("A",), tuple(range(values.size)),
                        {"v": values[np.newaxis, :]})


class TestDescriptives:
    def test_constant_series(self):
        rows = descriptive_stats(stats_panel([4.0, 4.0, 4.0]), ["v"])
        row = rows[0]
        assert row.std == 0.0
        assert row.minimum == row.maximum == row.mean == 4.0

    def test_hand_arithmetic(self):
        rows = descriptive_stats(stats_panel([1.0, 2.0, 3.0]), ["v"])
        row = rows[0]
        assert row.obs == 3
        assert_allclose([row.mean, row.std, row.minimum, row.maximum],
                        [2.0, 1.0, 1.0, 3.0])

    def test_six_decimal_rendering(self):
        # Mean, std, min and max all print with six decimals.
        grid = np.array([[7.3942190, 7.3942190, 12.5]])
        panel = PanelDataset(("A",), (2000, 2001, 2002), {
            workflow.log_name(var): grid for var, _ in workflow.APPENDIX_VARS})
        table = workflow.stats_table(panel)
        assert table.name == "appendix_stats"
        assert table.rows[0][1:] == ("3", "9.096146", "2.947824",
                                     "7.394219", "12.500000")

    def test_min_le_mean_le_max(self):
        rng = np.random.default_rng(3)
        panel = PanelDataset(
            tuple("abcd"), tuple(range(9)),
            {"v": rng.normal(size=(4, 9)), "w": rng.uniform(size=(4, 9))},
        )
        for row in descriptive_stats(panel, ["v", "w"]):
            assert row.minimum <= row.mean <= row.maximum


class TestCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(4)
        grid = rng.normal(size=(3, 8))
        panel = PanelDataset(("A", "B", "C"), tuple(range(8)),
                             {"v": grid, "w": grid * 2.0})
        corr = correlation_matrix(panel, ["v", "w"])
        assert_allclose(np.diag(corr), 1.0)
        assert_allclose(corr[0, 1], 1.0, rtol=1e-12)

    def test_antilinear_pair(self):
        rng = np.random.default_rng(5)
        grid = rng.normal(size=(2, 6))
        panel = PanelDataset(("A", "B"), tuple(range(6)),
                             {"v": grid, "w": 3.0 - 2.0 * grid})
        corr = correlation_matrix(panel, ["v", "w"])
        assert_allclose(corr[0, 1], -1.0, rtol=1e-12)

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(6)
        panel = PanelDataset(
            ("A", "B"), tuple(range(30)),
            {k: rng.normal(size=(2, 30)) for k in ("a", "b", "c")},
        )
        corr = correlation_matrix(panel, ["a", "b", "c"])
        assert_allclose(corr, corr.T)
        assert np.all(np.abs(corr) <= 1.0)

    def test_degenerate_variable(self):
        panel = PanelDataset(("A",), (1, 2, 3),
                             {"v": np.ones((1, 3)),
                              "w": np.array([[1.0, 2.0, 3.0]])})
        with pytest.raises(DegenerateSeries):
            correlation_matrix(panel, ["v", "w"])


class TestRankTable:
    def test_single_country(self):
        table = rank_table({"A": 5.0}, "stuff", 1995)
        assert table.rows == ((1, "A", 5.0),)

    def test_sort_oracle(self):
        table = rank_table({"A": 5.0, "B": 9.0, "C": 1.0}, "stuff", 2000)
        assert table.ranking() == ("B", "A", "C")
        values = [v for _, _, v in table.rows]
        assert values == sorted(values, reverse=True)

    def test_tie_breaks_lexicographic(self):
        table = rank_table({"B": 2.0, "A": 2.0, "C": 5.0}, "stuff", 2000)
        assert table.ranking() == ("C", "A", "B")

    def test_share_basis(self):
        values = {"A": 10.0, "B": 9.0}
        exports = {"A": 100.0, "B": 10.0}
        level = rank_table(values, "stuff", 2000, basis=LEVEL_BASIS)
        share = rank_table(values, "stuff", 2000, basis=SHARE_BASIS,
                           gross_exports=exports)
        assert level.ranking() == ("A", "B")
        assert share.ranking() == ("B", "A")  # 0.9 beats 0.1

    def test_share_basis_needs_positive_exports(self):
        with pytest.raises(MissingValue):
            rank_table({"A": 1.0}, "stuff", 2000, basis=SHARE_BASIS,
                       gross_exports={"A": 0.0})

    def test_missing_value(self):
        with pytest.raises(MissingValue):
            rank_table({"A": float("nan")}, "stuff", 2000)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.integers(min_value=0, max_value=99))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        values = {f"C{i}": float(v)
                  for i, v in enumerate(rng.uniform(1.0, 100.0, size=6))}
        base = rank_table(values, "stuff", 2000)
        scaled = rank_table({k: c * v for k, v in values.items()},
                            "stuff", 2000)
        assert base.ranking() == scaled.ranking()

    def test_ranks_are_permutation(self):
        rng = np.random.default_rng(7)
        values = {f"C{i}": float(v)
                  for i, v in enumerate(rng.uniform(size=10))}
        table = rank_table(values, "stuff", 2000)
        assert [r for r, _, _ in table.rows] == list(range(1, 11))
