"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one line; the conftest summary hook also emits a PASS/FAIL
line per criterion at the end of the session.
"""

import json
import math
import time
from datetime import date, timedelta

import numpy as np
import scipy.linalg

from conftest import (
    PUBLISHED_TABLES,
    make_panel,
    panel_from_returns,
    published_report,
    two_block_returns,
)
from oracles import brute_force_ward, charpoly_eigenvalues, closed_form_ivp
from portlab.backtest import report_from_json, report_to_json, summarize
from portlab.cli import EXIT_OK, run_experiment
from portlab.config import load_config
from portlab.eigen import fit_pca, min_components_for_variance, select_best_eigen
from portlab.hrp import (
    DistanceMatrix,
    SeriationOrder,
    build_hrp_portfolio,
    correlation_distance,
    quasi_diagonalize,
    recursive_bisection,
    ward_linkage,
)
from portlab.market_data import PeriodSpec, slice_period
from portlab.returns_stats import (
    CovarianceMatrix,
    ReturnsMatrix,
    annualize_volatility,
    correlation,
    daily_returns,
    sample_covariance,
    sharpe_ratio,
)
from portlab.synthetic import write_fixture


def returns_from(values, tickers=None):
    values = np.asarray(values, dtype=float)
    tickers = tickers or tuple(f"T{i:03d}" for i in range(values.shape[1]))
    dates = tuple(date(2016, 1, 1) + timedelta(days=t) for t in range(values.shape[0]))
    return ReturnsMatrix(tickers=tuple(tickers), dates=dates, values=values)


def test_diagonal_covariance_oracle():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(2, 11))
        variances = rng.uniform(0.05, 20.0, size=n)
        cov = CovarianceMatrix(
            tickers=tuple(f"T{i}" for i in range(n)), values=np.diag(variances)
        )
        order = SeriationOrder(tuple(rng.permutation(n).tolist()))
        weights = recursive_bisection(cov, order)
        expected = closed_form_ivp(variances)
        assert np.abs(weights.weights - expected).max() < 1e-10, f"trial {trial}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"50 diagonal oracles took {elapsed:.3f}s"
    print(f"\ndiagonal-covariance oracle: 50/50 within 1e-10 in {elapsed:.3f}s")


def test_singularity_robustness(monkeypatch):
    rng = np.random.default_rng(2)
    base = rng.normal(0.0002, 0.012, size=(250, 8))
    base[:, 1] += 0.6 * base[:, 0]

    # the pipeline must never invert or solve against the covariance
    def forbidden(*_args, **_kwargs):
        raise AssertionError("covariance inversion attempted")

    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(np.linalg, "pinv", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    monkeypatch.setattr(scipy.linalg, "inv", forbidden)
    monkeypatch.setattr(scipy.linalg, "solve", forbidden)

    for duplicated in range(8):
        values = np.hstack([base, base[:, duplicated : duplicated + 1]])
        returns = returns_from(values)
        cov = sample_covariance(returns)
        assert np.linalg.matrix_rank(cov.values) < 9  # genuinely singular
        result = build_hrp_portfolio(cov, correlation(cov))
        assert abs(result.weights.weights.sum() - 1.0) <= 1e-9
        assert (result.weights.weights > 0.0).all()
    print("\nsingularity robustness: 8/8 duplicated columns produced valid weights")


def test_block_seriation():
    hits = 0
    for seed in range(100):
        values, block_of_position = two_block_returns(seed=seed)
        returns = returns_from(values)
        corr_dist = correlation_distance(correlation(sample_covariance(returns)))
        order = quasi_diagonalize(ward_linkage(corr_dist))
        blocks = block_of_position[list(order.order)]
        if len(set(blocks[:5])) == 1 and len(set(blocks[5:])) == 1:
            hits += 1
    assert hits == 100, f"block-contiguous seriation in {hits}/100 seeds"
    print("\nblock seriation: contiguous in 100/100 seeds")


def test_linkage_oracle():
    rng = np.random.default_rng(3)
    for trial in range(20):
        values = rng.uniform(0.02, 2.0, size=(6, 6))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 0.0)
        dist = DistanceMatrix(tickers=tuple(f"T{i}" for i in range(6)), values=values)
        mine = ward_linkage(dist).rows
        reference = np.array(brute_force_ward(values))
        ids_and_sizes = [0, 1, 3]
        assert np.array_equal(
            mine[:, ids_and_sizes], reference[:, ids_and_sizes]
        ), f"merge sequence diverged on trial {trial}"
        assert mine[:, 2].tobytes() == reference[:, 2].tobytes(), f"heights differ in their bits on trial {trial}"
    print("\nlinkage oracle: 20/20 merge sequences and heights match brute force bit for bit")


def test_pca_oracle():
    rng = np.random.default_rng(4)
    # 8-observation design whose centered columns are exactly orthonormal
    # after scaling, so generated returns hit any target covariance exactly
    hadamard = scipy.linalg.hadamard(8).astype(float)
    base = hadamard[:, 1:5] * math.sqrt(7.0 / 8.0)
    for trial in range(50):
        factor = rng.normal(size=(4, 4))
        target = factor @ factor.T
        returns = returns_from(base @ np.linalg.cholesky(target + 1e-6 * np.eye(4)).T)
        model = fit_pca(sample_covariance(returns))
        realized = sample_covariance(returns).values

        roots = charpoly_eigenvalues(realized)
        assert np.abs(model.eigenvalues - roots).max() < 1e-8, f"trial {trial}"

        geev_values, geev_vectors = scipy.linalg.eig(realized)
        geev_order = np.argsort(geev_values.real)[::-1]
        for k in range(4):
            mine = model.loadings[:, k]
            theirs = geev_vectors[:, geev_order[k]].real
            aligned = theirs if np.dot(mine, theirs) >= 0 else -theirs
            assert np.abs(mine - aligned).max() < 1e-8
            residual = realized @ mine - model.eigenvalues[k] * mine
            assert np.abs(residual).max() < 1e-8

        gram = model.loadings.T @ model.loadings
        assert np.abs(gram - np.eye(4)).max() < 1e-8
        rebuilt = model.loadings @ np.diag(model.eigenvalues) @ model.loadings.T
        assert np.abs(rebuilt - realized).max() < 1e-8
        assert abs(float(model.explained_ratio.sum()) - 1.0) <= 1e-9
    print("\nPCA oracle: 50/50 decompositions match the independent solvers")


def test_metric_arithmetic():
    assert abs(annualize_volatility(0.01) - 0.158114) < 1e-6
    assert annualize_volatility(0.0) == 0.0
    assert abs(annualize_volatility(0.02) - 0.316228) < 1e-6

    half_spread = 0.01 / math.sqrt(2.0)
    series = np.array([0.0004 + half_spread, 0.0004 - half_spread])
    metrics = sharpe_ratio(series, risk_free=0.0)
    assert abs(metrics.annual_volatility - 0.158114) < 1e-6
    assert abs(metrics.annual_return - 0.1) < 1e-9
    assert abs(metrics.sharpe_ratio - 0.632456) < 1e-5
    print("\nmetric arithmetic: annualization and Sharpe match hand-derived values")


def test_report_schema_fixture():
    auto = published_report("auto")
    rebuilt = report_from_json(report_to_json(auto))
    assert rebuilt.cell("EIGEN", "train").annual_volatility == 0.240137
    assert rebuilt.cell("EIGEN", "train").sharpe_ratio == 0.500069
    assert rebuilt.cell("HRP", "train").annual_volatility == 0.226378
    assert rebuilt.cell("HRP", "train").sharpe_ratio == 0.620970
    assert rebuilt.cell("EIGEN", "test").annual_volatility == 0.225286
    assert rebuilt.cell("EIGEN", "test").sharpe_ratio == 1.479449
    assert rebuilt.cell("HRP", "test").annual_volatility == 0.207317
    assert rebuilt.cell("HRP", "test").sharpe_ratio == 1.204434
    for method in ("EIGEN", "HRP"):
        for period in ("train", "test"):
            assert rebuilt.cell(method, period) == auto.cell(method, period)

    summary = summarize([published_report(sector) for sector in PUBLISHED_TABLES])
    assert summary.counts["train"] == {"HRP": 4, "EIGEN": 3}
    assert summary.counts["test"] == {"HRP": 5, "EIGEN": 2}
    print("\nreport schema: bit-exact round-trip; HRP wins 4/7 train and 5/7 test")


def test_end_to_end_determinism_and_scale(tmp_path):
    config_path = write_fixture(tmp_path, n_sectors=7, tickers_per_sector=10, seed=7)
    config = load_config(config_path)

    started = time.perf_counter()
    status, results = run_experiment(config)
    first_elapsed = time.perf_counter() - started
    assert status == EXIT_OK and all(r.failure is None for r in results)
    assert first_elapsed < 10.0, f"7-sector pipeline took {first_elapsed:.2f}s"

    train_days = json.loads(
        (tmp_path / "out" / "sector1" / "report.json").read_text()
    )["metadata"]["periods"]["train"]
    assert train_days["start"] == "2016-01-01" and train_days["end"] == "2020-12-31"

    out = tmp_path / "out"
    first = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert len(first) == 7 * 10 + 1
    run_experiment(config)
    second = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert first == second, "artifacts not byte-identical across reruns"

    rng = np.random.default_rng(8)
    big = returns_from(rng.normal(0.0, 0.012, size=(300, 500)))
    started = time.perf_counter()
    result = build_hrp_portfolio(sample_covariance(big), correlation(sample_covariance(big)))
    big_elapsed = time.perf_counter() - started
    assert big_elapsed < 5.0, f"500-asset HRP build took {big_elapsed:.2f}s"
    assert abs(result.weights.weights.sum() - 1.0) <= 1e-9
    assert (result.weights.weights > 0).all()
    print(
        f"\nend-to-end: 7 sectors in {first_elapsed:.2f}s, byte-identical rerun; "
        f"500-asset HRP in {big_elapsed:.2f}s"
    )


def test_no_look_ahead():
    rng = np.random.default_rng(9)
    total = rng.normal(0.0004, 0.011, size=(320, 6))
    panel = panel_from_returns(total, start=date(2016, 1, 4))
    split = panel.dates[260]
    train_spec = PeriodSpec("train", panel.dates[0], split)

    def build_weights(p):
        train_returns = daily_returns(slice_period(p, train_spec))
        hrp = build_hrp_portfolio(
            sample_covariance(train_returns),
            correlation(sample_covariance(train_returns)),
        ).weights
        model = fit_pca(correlation(sample_covariance(train_returns)))
        eigen, _ = select_best_eigen(
            train_returns, model, min_components_for_variance(model, 0.8)
        )
        return hrp, eigen

    base_hrp, base_eigen = build_weights(panel)

    perturbed = panel.closes.copy()
    test_rows = [i for i, day in enumerate(panel.dates) if day > split]
    perturbed[test_rows, :] *= rng.uniform(0.2, 3.0, size=(len(test_rows), 6))
    shaken = make_panel(perturbed, tickers=panel.tickers, start=panel.dates[0])
    shaken_hrp, shaken_eigen = build_weights(shaken)

    assert np.array_equal(base_hrp.weights, shaken_hrp.weights)
    assert np.array_equal(base_eigen.weights, shaken_eigen.weights)
    assert dict(zip(base_hrp.tickers, base_hrp.weights.tolist())) == dict(
        zip(shaken_hrp.tickers, shaken_hrp.weights.tolist())
    )
    print("\nno look-ahead: perturbing every test-period price left weights bit-identical")
