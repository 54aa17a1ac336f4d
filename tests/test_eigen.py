import math
from datetime import date

import numpy as np
import pytest

from oracles import charpoly_eigenvalues
from portlab.eigen import (
    EigenCandidate,
    PCAModel,
    candidate_portfolio,
    fit_pca,
    min_components_for_variance,
    select_best_eigen,
)
from portlab.errors import (
    DegenerateLoadingSum,
    InsufficientObservations,
    NoViableCandidate,
    ZeroVarianceAsset,
)
from portlab.returns_stats import CorrelationMatrix, CovarianceMatrix, ReturnsMatrix, correlation, sample_covariance


def returns_matrix(values, tickers=None):
    values = np.asarray(values, dtype=float)
    if tickers is None:
        tickers = tuple(f"T{i}" for i in range(values.shape[1]))
    dates = tuple(
        date.fromordinal(date(2019, 1, 1).toordinal() + t) for t in range(values.shape[0])
    )
    return ReturnsMatrix(tickers=tuple(tickers), dates=dates, values=values)


def corr_of(returns):
    return correlation(sample_covariance(returns))


def exact_correlation_pair(rho, scale=0.01):
    """Two return columns whose sample correlation is exactly rho."""
    a = np.array([1.0, 1.0, -1.0, -1.0])
    b = np.array([1.0, -1.0, 1.0, -1.0])
    return returns_matrix(scale * np.column_stack([a, rho * a + math.sqrt(1 - rho**2) * b]))


def orthogonal_triple(scale=0.01):
    """Three exactly uncorrelated, equal-variance return columns."""
    a = np.array([1.0, 1.0, -1.0, -1.0])
    b = np.array([1.0, -1.0, 1.0, -1.0])
    c = np.array([1.0, -1.0, -1.0, 1.0])
    return returns_matrix(scale * np.column_stack([a, b, c]))


def model_from(eigenvalues, loadings, tickers=None):
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    return PCAModel(
        tickers=tickers or tuple(f"T{i}" for i in range(len(eigenvalues))),
        eigenvalues=eigenvalues,
        loadings=np.asarray(loadings, dtype=float),
    )


class TestFitPca:
    def test_two_asset_analytic_eigenpair(self):
        model = fit_pca(corr_of(exact_correlation_pair(0.9)))
        assert model.eigenvalues == pytest.approx([1.9, 0.1], abs=1e-12)
        assert model.explained_ratio == pytest.approx([0.95, 0.05], abs=1e-12)
        assert model.loadings[:, 0] == pytest.approx([0.70711, 0.70711], abs=1e-5)

    def test_identity_correlation_isotropic(self):
        model = fit_pca(corr_of(orthogonal_triple()))
        assert model.explained_ratio == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_duplicated_column_zero_smallest_eigenvalue(self, rng):
        base = rng.normal(0, 0.01, size=(40, 3))
        model = fit_pca(corr_of(returns_matrix(np.hstack([base, base[:, :1]]))))
        assert model.eigenvalues[-1] == pytest.approx(0.0, abs=1e-10)
        assert model.eigenvalues.min() >= 0.0

    def test_clamps_negative_roundoff_eigenvalues_to_zero(self):
        base = np.random.default_rng(0).normal(0, 0.01, size=(60, 3))
        combined = np.column_stack([base, base[:, 0] + base[:, 1], base[:, 1] - 2.0 * base[:, 2]])
        corr = corr_of(returns_matrix(combined))
        assert np.linalg.eigvalsh(corr.values).min() < 0.0  # the input reaches the clamp
        model = fit_pca(corr)
        assert model.eigenvalues.min() == 0.0

    def test_reconstruction_and_orthonormality(self, rng):
        returns = returns_matrix(rng.normal(0, 0.02, size=(80, 5)))
        cov = sample_covariance(returns)
        model = fit_pca(cov)
        rebuilt = model.loadings @ np.diag(model.eigenvalues) @ model.loadings.T
        assert np.linalg.norm(rebuilt - cov.values) < 1e-8
        gram = model.loadings.T @ model.loadings
        assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_scale_invariance_when_standardized(self, rng):
        values = rng.normal(0, 0.015, size=(60, 4))
        scaled = values.copy()
        scaled[:, 2] *= 9.0
        base = fit_pca(corr_of(returns_matrix(values)))
        other = fit_pca(corr_of(returns_matrix(scaled)))
        assert np.abs(base.eigenvalues - other.eigenvalues).max() < 1e-9
        assert np.abs(base.loadings - other.loadings).max() < 1e-9

    def test_covariance_pca_not_scale_invariant(self, rng):
        values = rng.normal(0, 0.015, size=(60, 4))
        scaled = values.copy()
        scaled[:, 2] *= 9.0
        base = fit_pca(sample_covariance(returns_matrix(values)))
        other = fit_pca(sample_covariance(returns_matrix(scaled)))
        assert np.abs(base.eigenvalues - other.eigenvalues).max() > 1e-6

    def test_sign_convention_largest_entry_positive(self, rng):
        model = fit_pca(corr_of(returns_matrix(rng.normal(0, 0.01, size=(50, 6)))))
        for k in range(6):
            column = model.loadings[:, k]
            assert column[np.argmax(np.abs(column))] > 0

    def test_eigenvalues_match_characteristic_polynomial(self, rng):
        returns = returns_matrix(rng.normal(0, 0.02, size=(30, 4)))
        cov = sample_covariance(returns)
        model = fit_pca(cov)
        roots = charpoly_eigenvalues(cov.values)
        assert model.eigenvalues == pytest.approx(roots, abs=1e-8)

    # a correlation matrix is not checked for PSD, and a zero covariance has no variance to explain
    @pytest.mark.parametrize(
        "matrix, error, message",
        [
            pytest.param(
                CorrelationMatrix(("A", "B", "C"), [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]),
                ValueError,
                "eigenvalue {} below numerical floor",
                id="below-floor",
            ),
            pytest.param(
                CovarianceMatrix(("A", "B"), np.zeros((2, 2))),
                ZeroVarianceAsset,
                "all assets have zero variance",
                id="zero-variance",
            ),
        ],
    )
    def test_rejects_matrix_it_cannot_decompose(self, matrix, error, message):
        with pytest.raises(error) as caught:
            fit_pca(matrix)
        assert str(caught.value) == message.format(np.linalg.eigh(matrix.values)[0].min())

    def test_insufficient_observations(self):
        with pytest.raises(InsufficientObservations):
            fit_pca(corr_of(returns_matrix([[0.01, 0.02]])))


class TestMinComponents:
    def test_cumulative_crossing(self):
        loadings = np.eye(3)
        model = model_from([0.5, 0.3, 0.2], loadings)
        assert min_components_for_variance(model, 0.8) == 2

    def test_threshold_one_stops_at_last_nonzero(self):
        model = model_from([2.0, 1.0, 1.0, 0.0], np.eye(4))
        assert min_components_for_variance(model, 1.0) == 3

    def test_crossing_short_by_roundoff_counts(self):
        # 0.7 + 0.2 sums to 0.8999999999999999, within 1e-12 of the 0.9 threshold
        model = model_from([7.0, 2.0, 1.0], np.eye(3))
        assert np.cumsum(model.explained_ratio)[1] < 0.9
        assert min_components_for_variance(model, 0.9) == 2

    def test_tiny_threshold(self):
        model = model_from([0.5, 0.3, 0.2], np.eye(3))
        assert min_components_for_variance(model, 0.1) == 1

    def test_threshold_bounds(self):
        model = model_from([0.5, 0.5], np.eye(2))
        with pytest.raises(ValueError):
            min_components_for_variance(model, 0.0)
        with pytest.raises(ValueError):
            min_components_for_variance(model, 1.5)


class TestCandidatePortfolio:
    def test_symmetric_loading(self):
        half = math.sqrt(0.5)
        model = model_from([1.5, 0.5], [[half, half], [half, -half]])
        assert candidate_portfolio(model, 1) == pytest.approx([0.5, 0.5])

    def test_three_four_five_loading(self):
        model = model_from([1.5, 0.5], [[0.8, -0.6], [0.6, 0.8]])
        assert candidate_portfolio(model, 1) == pytest.approx([0.571429, 0.428571], abs=1e-6)

    def test_zero_sum_loading_degenerate(self):
        half = math.sqrt(0.5)
        model = model_from([1.5, 0.5], [[half, half], [half, -half]])
        with pytest.raises(DegenerateLoadingSum):
            candidate_portfolio(model, 2)

    def test_component_index_bounds(self):
        model = model_from([1.0, 1.0], np.eye(2))
        with pytest.raises(ValueError):
            candidate_portfolio(model, 0)
        with pytest.raises(ValueError):
            candidate_portfolio(model, 3)


class TestSelectBestEigen:
    def test_argmax_over_candidates(self, rng):
        values = rng.normal(0.0005, 0.01, size=(120, 6))
        values[:, 3] += 0.5 * values[:, 2]
        returns = returns_matrix(values)
        model = fit_pca(corr_of(returns))
        weights, candidates = select_best_eigen(returns, model, k_max=4)
        best = max(c.in_sample_sharpe for c in candidates)
        assert candidates[0].in_sample_sharpe == best
        assert np.array_equal(weights.weights, candidate_portfolio(model, candidates[0].component_index))
        assert candidates == sorted(
            candidates, key=lambda c: (-c.in_sample_sharpe, c.component_index)
        )
        for c in candidates:
            assert c.gross_leverage == np.abs(candidate_portfolio(model, c.component_index)).sum()

    def test_exact_tie_prefers_lower_component(self):
        # two uncorrelated assets with identical mean and std: identity
        # correlation, loadings are the standard basis, equal Sharpe ratios
        a = np.array([0.011, -0.009, 0.011, -0.009])
        b = np.array([0.011, -0.009, -0.009, 0.011])
        returns = returns_matrix(np.column_stack([a, b]))
        model = fit_pca(corr_of(returns))
        weights, candidates = select_best_eigen(returns, model, k_max=2)
        assert candidates[0].in_sample_sharpe == candidates[1].in_sample_sharpe
        assert candidates[0].component_index == 1
        assert np.array_equal(weights.weights, candidate_portfolio(model, 1))

    def test_single_component_selected_regardless(self, rng):
        returns = returns_matrix(rng.normal(-0.001, 0.01, size=(60, 3)))
        model = fit_pca(corr_of(returns))
        weights, candidates = select_best_eigen(returns, model, k_max=1)
        assert len(candidates) == 1 and candidates[0].component_index == 1
        assert np.array_equal(weights.weights, candidate_portfolio(model, 1))

    def test_weights_sum_to_one_and_allow_shorts(self, rng):
        values = rng.normal(0, 0.01, size=(90, 5))
        returns = returns_matrix(values)
        model = fit_pca(corr_of(returns))
        weights, _ = select_best_eigen(returns, model, k_max=5)
        assert abs(weights.weights.sum() - 1.0) <= 1e-9
        assert weights.method == "EIGEN"

    def test_loading_sum_floor_boundary(self, rng):
        # the reflection H that swaps the all-ones vector and `sums` is orthogonal and symmetric, so its
        # column sums are H @ 1 = `sums`; 5e-7 and 5e-9 lie either side of LOADING_SUM_FLOOR = 1e-8
        sums = np.array([math.sqrt(3.0 - 5e-7**2 - 5e-9**2), 5e-7, 5e-9])
        w = sums - 1.0
        reflection = np.eye(3) - 2.0 * np.outer(w, w) / (w @ w)
        assert reflection.sum(axis=0) == pytest.approx(sums, rel=1e-6)
        returns = returns_matrix(rng.normal(0, 0.01, size=(60, 3)))
        _, candidates = select_best_eigen(returns, model_from([1.5, 1.0, 0.5], reflection), k_max=3)
        assert sorted(c.component_index for c in candidates) == [1, 2]

    def test_constant_candidate_series_skipped(self, rng):
        # candidate 1 holds only the first asset, whose return is a constant power of two, so its
        # mean is exact and its volatility exactly 0
        returns = returns_matrix(np.column_stack([np.full(30, 2.0**-10), rng.normal(0, 0.01, size=30)]))
        _, candidates = select_best_eigen(returns, model_from([1.0, 1.0], np.eye(2)), k_max=2)
        assert [c.component_index for c in candidates] == [2]

    def test_all_candidates_degenerate(self):
        base = np.array([0.01, -0.02, 0.015, -0.01, 0.005])
        returns = returns_matrix(np.column_stack([base, -base]))
        model = fit_pca(corr_of(returns))
        with pytest.raises(NoViableCandidate):
            select_best_eigen(returns, model, k_max=1)

    def test_tickers_must_match(self, rng):
        returns = returns_matrix(rng.normal(0, 0.01, size=(30, 3)))
        model = fit_pca(corr_of(returns))
        renamed = returns_matrix(returns.values, tickers=("X", "Y", "Z"))
        with pytest.raises(ValueError) as caught:
            select_best_eigen(renamed, model, k_max=1)
        assert str(caught.value) == "model tickers do not match returns tickers"

    def test_k_max_validated(self, rng):
        returns = returns_matrix(rng.normal(0, 0.01, size=(30, 3)))
        model = fit_pca(corr_of(returns))
        with pytest.raises(ValueError):
            select_best_eigen(returns, model, k_max=0)

    def test_candidate_tuple_shape(self):
        candidate = EigenCandidate(2, 1.25, 1.4, 0.21)
        assert candidate.component_index == 2
        assert candidate.in_sample_sharpe == 1.25
        assert candidate.gross_leverage == 1.4
        assert candidate.train_annual_volatility == 0.21


class TestPCAModelInvariants:
    def test_rejects_unsorted_eigenvalues(self):
        with pytest.raises(ValueError):
            model_from([0.2, 0.8], np.eye(2))

    def test_rejects_non_unit_loadings(self):
        with pytest.raises(ValueError):
            model_from([0.8, 0.2], [[2.0, 0.0], [0.0, 1.0]])

    def test_rejects_bad_ratio_sum(self):
        # all-zero eigenvalues leave no ratios that sum to 1
        with pytest.raises(ValueError, match="^eigenvalues must have a positive sum$"):
            PCAModel(tickers=("A", "B"), eigenvalues=np.zeros(2), loadings=np.eye(2))

    def test_ratios_follow_eigenvalues(self):
        # ratios are not an input: (1/3, 1/3, 1/3) beside eigenvalues (2, 1, 0) cannot be stated
        model = model_from([2.0, 1.0, 0.0], np.eye(3))
        assert model.explained_ratio.tolist() == [2 / 3, 1 / 3, 0.0]
        assert min_components_for_variance(model, 0.8) == 2
