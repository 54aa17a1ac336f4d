import contextlib
import json
import logging
import logging.handlers
import math
from collections import deque
from datetime import date

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import two_block_returns
from oracles import brute_force_ward, closed_form_ivp, first_malformed_row, ward_centroid_heights
from portlab.config import validate_config
from portlab.errors import ConfigError, MalformedTree, ZeroVarianceAsset
from portlab.hrp import (
    DistanceMatrix,
    LinkageTree,
    SeriationOrder,
    build_hrp_portfolio,
    correlation_distance,
    dendrogram_json,
    quasi_diagonalize,
    recursive_bisection,
    ward_linkage,
)
from portlab.returns_stats import (
    VARIANCE_FLOOR,
    CorrelationMatrix,
    CovarianceMatrix,
    ReturnsMatrix,
    correlation,
    sample_covariance,
)


COMPACT = (",", ":")  # json.dumps separators with no whitespace


def tickers_for(n):
    return tuple(f"T{i:02d}" for i in range(n))


def returns_matrix(values):
    values = np.asarray(values, dtype=float)
    dates = tuple(
        date.fromordinal(date(2019, 1, 1).toordinal() + t) for t in range(values.shape[0])
    )
    return ReturnsMatrix(tickers=tickers_for(values.shape[1]), dates=dates, values=values)


def hrp_of(returns, linkage_method="ward"):
    cov = sample_covariance(returns)
    return build_hrp_portfolio(cov, correlation(cov), linkage_method=linkage_method)


def uniform_distances(rng, n):
    """A symmetric n x n distance matrix, off-diagonal entries uniform on [0.1, 1)."""
    values = rng.uniform(0.1, 1.0, size=(n, n))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    return values


def distance_from(values, labels=None):
    values = np.asarray(values, dtype=float)
    return DistanceMatrix(tickers=labels or tickers_for(values.shape[0]), values=values)


def dendrogram_dict(tree, tickers):
    """Reference for dendrogram_json: the nested {id, height, children} dicts."""
    nodes = [{"id": index, "ticker": ticker, "height": 0.0} for index, ticker in enumerate(tickers)]
    for k, (left, right, height, _) in enumerate(tree.rows.tolist()):
        children = [nodes[int(left)], nodes[int(right)]]
        nodes.append({"id": tree.n_leaves + k, "height": height, "children": children})
    return nodes[-1]


@st.composite
def random_trees(draw):
    """A valid LinkageTree over 1-12 leaves, with tickers that JSON must escape."""
    n = draw(st.integers(1, 12))
    tickers = draw(
        st.lists(st.text(alphabet="aé\",\\\n", min_size=1, max_size=4), min_size=n, max_size=n)
    )
    steps = draw(st.lists(st.floats(0.0, 10.0), min_size=n - 1, max_size=n - 1))
    active, sizes, rows = list(range(n)), {leaf: 1 for leaf in range(n)}, []
    for k, step in enumerate(steps):
        a = active.pop(draw(st.integers(0, len(active) - 1)))
        b = active.pop(draw(st.integers(0, len(active) - 1)))
        left, right = min(a, b), max(a, b)
        height = (rows[-1][2] if rows else 0.0) + step
        rows.append([left, right, height, sizes[left] + sizes[right]])
        sizes[n + k] = rows[-1][3]
        active.append(n + k)
    return LinkageTree(n_leaves=n, rows=np.reshape(rows, (n - 1, 4))), tickers


def chain(n):
    """n leaves merged one at a time: the deepest tree n leaves can make."""
    rows = [[0, 1, 0.0, 2]] + [[k + 1, n + k - 1, float(k), k + 2] for k in range(1, n - 1)]
    return LinkageTree(n_leaves=n, rows=rows)


def correlated_returns(rng, n_obs=260, n_assets=8):
    base = rng.normal(0, 0.012, size=(n_obs, n_assets))
    base[:, 1] += 0.8 * base[:, 0]
    base[:, 4] += 0.6 * base[:, 3]
    return returns_matrix(base)


def full_scan_linkage(values, method="ward"):
    """Reference: one argmin over the compacted, id-ordered matrix per merge.

    This is the plain scan the nearest-neighbour lists in ``ward_linkage``
    replace. It applies the same Lance-Williams expressions to the same
    operands, so the two must agree to the last bit.
    """
    n = values.shape[0]
    d = np.triu(values, 1)
    d += d.T
    np.fill_diagonal(d, np.inf)
    ids = np.arange(n)
    sizes = np.ones(n, dtype=np.int64)
    rows = []
    for step in range(n - 1):
        i, j = divmod(int(d.argmin()), len(ids))
        height = d[i, j]
        merged_size = int(sizes[i] + sizes[j])
        rows.append((int(ids[i]), int(ids[j]), float(height), merged_size))
        k = np.delete(np.arange(len(ids)), (i, j))
        d_ik, d_jk = d[i, k], d[j, k]
        if method == "ward":
            ni, nj, nk = sizes[i], sizes[j], sizes[k]
            numerator = (ni + nk) * d_ik**2 + (nj + nk) * d_jk**2 - nk * (height * height)
            updated = np.sqrt(np.maximum(numerator, 0.0) / (ni + nj + nk))
        elif method == "single":
            updated = np.minimum(d_ik, d_jk)
        elif method == "complete":
            updated = np.maximum(d_ik, d_jk)
        else:
            updated = (sizes[i] * d_ik + sizes[j] * d_jk) / (sizes[i] + sizes[j])
        d[i, k] = updated
        d[k, i] = updated
        keep = np.append(k, i)
        d = d[np.ix_(keep, keep)]
        ids = np.append(ids[k], n + step)
        sizes = np.append(sizes[k], merged_size)
    return rows


def one_factor_distances():
    """Correlation distances of 300 assets over 1250 days that share one common factor."""
    rng = np.random.default_rng(7)
    factor = rng.normal(0.0, 0.01, size=(1250, 1))
    returns = factor * rng.uniform(0.2, 1.0, size=(1, 300))
    returns += rng.normal(0.0, 0.01, size=(1250, 300))
    return correlation_distance(correlation(sample_covariance(returns_matrix(returns))))


def exact_rows(rows):
    """The rows' bit patterns: equal only when every float matches to the last bit, sign of zero included."""
    return np.asarray(rows, dtype=float).view(np.uint64)


class TestCorrelationDistance:
    def corr(self, rho):
        values = np.array([[1.0, rho], [rho, 1.0]])
        return CorrelationMatrix(tickers=("A", "B"), values=values)

    def test_perfect_correlation_is_zero_distance(self):
        assert correlation_distance(self.corr(1.0)).values[0, 1] == 0.0

    def test_perfect_anticorrelation_is_unit_distance(self):
        assert correlation_distance(self.corr(-1.0)).values[0, 1] == 1.0

    def test_half_correlation(self):
        assert correlation_distance(self.corr(0.5)).values[0, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([[1.0, 1.0 - 1e-12], [1.0 - 2e-12, 1.0]], id="asymmetric-within-tolerance"),
            pytest.param([[1.0 - 1e-13, 0.5], [0.5, 1.0]], id="diagonal-within-tolerance"),
        ],
    )
    def test_exactly_symmetric_with_zero_diagonal(self, values):
        # CorrelationMatrix admits both defects up to 1e-12; the square root would raise them to ~1e-6
        distance = correlation_distance(CorrelationMatrix(tickers=("A", "B"), values=np.array(values))).values
        assert np.array_equal(distance, distance.T)
        assert np.array_equal(np.diag(distance), [0.0, 0.0])

    def test_unknown_mode(self):
        # sqrt_half is the only metric; a config naming another one is refused
        raw = {
            "sectors": [{"name": "alpha", "data": "ignored", "tickers": ["A", "B"]}],
            "train": {"start": "2016-01-01", "end": "2020-12-31"},
            "test": {"start": "2021-01-01", "end": "2021-11-01"},
            "hrp": {"distance": "chebyshev"},
        }
        with pytest.raises(ConfigError) as caught:
            validate_config(raw)
        assert any(p.startswith("hrp.distance") for p in caught.value.problems)


class TestWardLinkage:
    def test_two_assets_single_row(self):
        tree = ward_linkage(distance_from([[0.0, 0.3], [0.3, 0.0]]))
        assert np.array_equal(tree.rows, [[0, 1, 0.3, 2]])

    def test_three_asset_hand_computation(self):
        # closest pair (0,2) at 1; then d(merged,1) = sqrt((2*25 + 2*16 - 1)/3) = sqrt(27)
        values = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 4.0], [1.0, 4.0, 0.0]])
        tree = ward_linkage(distance_from(values))
        assert np.array_equal(tree.rows[0], [0, 2, 1.0, 2])
        assert np.array_equal(tree.rows[1, [0, 1, 3]], [1, 3, 3])
        assert tree.rows[1, 2] == pytest.approx(math.sqrt(27.0), abs=1e-12)

    @pytest.mark.parametrize("method", ["ward", "single", "complete", "average"])
    def test_all_zero_distances_tie_break_deterministic(self, method):
        tree = ward_linkage(distance_from(np.zeros((4, 4))), method=method)
        assert np.array_equal(tree.rows[:, :3], [[0, 1, 0.0], [2, 3, 0.0], [4, 5, 0.0]])

    def test_heights_nondecreasing(self, rng):
        for _ in range(10):
            values = rng.uniform(0.1, 2.0, size=(7, 7))
            values = (values + values.T) / 2.0
            np.fill_diagonal(values, 0.0)
            tree = ward_linkage(distance_from(values))
            heights = tree.rows[:, 2]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_matches_brute_force_recomputation(self, rng):
        for _ in range(8):
            values = rng.uniform(0.05, 1.5, size=(6, 6))
            values = (values + values.T) / 2.0
            np.fill_diagonal(values, 0.0)
            mine = ward_linkage(distance_from(values)).rows
            assert np.array_equal(exact_rows(mine), exact_rows(brute_force_ward(values)))

    @settings(deadline=None)
    @given(points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=9))
    def test_matches_brute_force_on_tie_heavy_lattice(self, points):
        # lattice distances rounded to 0.1 tie often, so the (left_id, right_id) rule decides merges
        xy = np.array(points, dtype=float)
        values = np.round(np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)), 1)
        rows = ward_linkage(distance_from(values)).rows
        assert np.array_equal(rows, brute_force_ward(values))

    def test_reads_upper_triangle_of_nearly_symmetric_input(self):
        # DistanceMatrix admits asymmetry up to 1e-12; the linkage reads the upper triangle
        values = np.array([[0.0, 0.5, 0.9], [0.5 - 1e-13, 0.0, 0.7], [0.9, 0.7, 0.0]])
        tree = ward_linkage(distance_from(values), method="single")
        assert np.array_equal(tree.rows, [[0, 1, 0.5, 2], [2, 3, 0.7, 3]])
        upper = np.triu([[0.0, 0.5, 0.9, 0.8], [0.0, 0.0, 0.7, 0.6], [0.0, 0.0, 0.0, 0.4], [0.0] * 4], 1)
        below = np.tril([[0, 0, 0, 0], [1, 0, 0, 0], [-1, 1, 0, 0], [1, -1, 1, 0]], -1) * 1e-13
        for method in ("ward", "single", "complete", "average"):
            nearly = ward_linkage(distance_from(upper + upper.T + below), method=method)
            mirrored = ward_linkage(distance_from(upper + upper.T), method=method)
            assert np.array_equal(nearly.rows, mirrored.rows), method

    def test_matches_scipy_on_euclidean_points(self, rng):
        for _ in range(5):
            points = rng.normal(size=(9, 4))
            diffs = points[:, None, :] - points[None, :, :]
            distances = np.sqrt((diffs**2).sum(axis=2))
            np.fill_diagonal(distances, 0.0)
            distances = (distances + distances.T) / 2.0
            mine = ward_linkage(distance_from(distances))
            theirs = sch.linkage(
                distances[np.triu_indices(9, 1)], method="ward"
            )
            assert np.allclose(mine.rows, theirs, atol=1e-10)

    def test_heights_match_centroid_formula(self, rng):
        points = rng.normal(size=(8, 3))
        diffs = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(distances, 0.0)
        distances = (distances + distances.T) / 2.0
        tree = ward_linkage(distance_from(distances))
        expected = ward_centroid_heights(points, tree.rows.tolist())
        assert tree.rows[:, 2] == pytest.approx(expected, abs=1e-8)

    def test_alternative_methods_monotone(self, rng):
        values = uniform_distances(rng, 6)
        for method in ("single", "complete", "average"):
            tree = ward_linkage(distance_from(values), method=method)
            heights = tree.rows[:, 2]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    def test_alternative_methods_match_scipy(self, rng, method):
        values = rng.uniform(0.1, 2.0, size=(8, 8))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 0.0)
        mine = ward_linkage(distance_from(values), method=method)
        theirs = sch.linkage(values[np.triu_indices(8, 1)], method=method)
        assert np.allclose(mine.rows, theirs, atol=1e-10)

    def test_single_linkage_two_points(self):
        tree = ward_linkage(distance_from([[0.0, 0.7], [0.7, 0.0]]), method="single")
        assert tree.rows[0, 2] == 0.7

    def test_one_asset_rejected(self):
        with pytest.raises(ValueError, match="^linkage needs at least 2 assets$"):
            ward_linkage(distance_from([[0.0]]))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown linkage method 'centroid'"):
            ward_linkage(distance_from([[0.0, 0.7], [0.7, 0.0]]), method="centroid")

    @settings(deadline=None, max_examples=300)
    @given(
        points=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=40),
        method=st.sampled_from(["ward", "single", "complete", "average"]),
    )
    def test_matches_full_scan_on_tie_heavy_lattice(self, points, method):
        # rounded lattice distances tie often, and whole rows of zeros repeat
        xy = np.array(points, dtype=float)
        values = np.round(np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)), 1)
        rows = ward_linkage(distance_from(values), method=method).rows
        assert np.array_equal(exact_rows(rows), exact_rows(full_scan_linkage(values, method)))

    @pytest.mark.parametrize("method", ["ward", "single", "complete", "average"])
    def test_matches_full_scan_on_one_factor_panel(self, method):
        # one common factor puts many assets' nearest neighbour in the same
        # few clusters, so most merges leave neighbour lists to rescan
        dist = one_factor_distances()
        rows = ward_linkage(dist, method=method).rows
        assert np.array_equal(exact_rows(rows), exact_rows(full_scan_linkage(dist.values, method)))

    def test_matches_brute_force_on_one_factor_panel(self):
        # on glibc, pow squares one of these 299 merge heights one ulp off the correctly
        # rounded product, so a height squared with ** moves a later height by an ulp
        dist = one_factor_distances()
        rows = ward_linkage(dist).rows
        assert np.array_equal(exact_rows(rows), exact_rows(brute_force_ward(dist.values)))


class TestQuasiDiagonalize:
    def test_two_leaves(self):
        tree = LinkageTree(n_leaves=2, rows=[[0, 1, 0.5, 2]])
        assert quasi_diagonalize(tree).order == (0, 1)

    def test_three_leaf_expansion(self):
        tree = LinkageTree(n_leaves=3, rows=[[0, 2, 0.1, 2], [1, 3, 0.4, 3]])
        assert quasi_diagonalize(tree).order == (1, 0, 2)

    def test_always_a_permutation(self, rng):
        for n in (2, 5, 9, 16):
            values = uniform_distances(rng, n)
            order = quasi_diagonalize(ward_linkage(distance_from(values)))
            assert sorted(order.order) == list(range(n))

    @given(random_trees())
    @example((ward_linkage(distance_from(uniform_distances(np.random.default_rng(20160101), 10))), ()))
    @example((chain(1000), ()))
    def test_matches_scipy_leaf_order(self, tree_and_tickers):
        tree, _ = tree_and_tickers
        expected = sch.leaves_list(tree.rows).tolist() if tree.n_leaves > 1 else [0]  # scipy needs a row
        assert list(quasi_diagonalize(tree).order) == expected


class TestRecursiveBisection:
    def test_identity_covariance_equal_weights(self):
        cov = CovarianceMatrix(tickers=tickers_for(4), values=np.eye(4))
        weights = recursive_bisection(cov, SeriationOrder((2, 0, 3, 1)))
        assert weights.weights == pytest.approx([0.25] * 4)

    def test_power_scaled_diagonal(self):
        cov = CovarianceMatrix(tickers=tickers_for(4), values=np.diag([1.0, 2.0, 4.0, 8.0]))
        weights = recursive_bisection(cov, SeriationOrder((0, 1, 2, 3)))
        assert weights.weights == pytest.approx([0.533333, 0.266667, 0.133333, 0.066667], abs=1e-6)

    def test_two_assets(self):
        cov = CovarianceMatrix(tickers=("A", "B"), values=np.diag([1.0, 4.0]))
        weights = recursive_bisection(cov, SeriationOrder((0, 1)))
        assert weights.weights == pytest.approx([0.8, 0.2])

    @pytest.mark.parametrize("variance", [4.0, 0.0], ids=["live", "dead"])
    def test_lone_asset_takes_all_weight(self, variance):
        # a lone asset meets no split, so nothing reads its inverse variance; a 1.0 / 0.0 would warn, which fails here
        cov = CovarianceMatrix(tickers=("A",), values=np.array([[variance]]))
        with hrp_warnings() as logged:
            weights = recursive_bisection(cov, SeriationOrder((0,)))
        assert weights.weights.tolist() == [1.0]
        assert logged == []

    def test_diagonal_covariance_equals_closed_form_ivp(self, rng):
        for n in range(2, 11):
            variances = rng.uniform(0.2, 9.0, size=n)
            cov = CovarianceMatrix(tickers=tickers_for(n), values=np.diag(variances))
            order = SeriationOrder(tuple(rng.permutation(n).tolist()))
            weights = recursive_bisection(cov, order)
            assert np.abs(weights.weights - closed_form_ivp(variances)).max() < 1e-10

    def test_weights_positive_and_normalized(self, rng):
        returns = correlated_returns(rng)
        cov = sample_covariance(returns)
        order = quasi_diagonalize(ward_linkage(correlation_distance(correlation(cov))))
        weights = recursive_bisection(cov, order)
        assert (weights.weights > 0).all()
        assert abs(weights.weights.sum() - 1.0) <= 1e-9

    def test_order_must_cover_assets(self):
        cov = CovarianceMatrix(tickers=tickers_for(3), values=np.eye(3))
        with pytest.raises(ValueError):
            recursive_bisection(cov, SeriationOrder((0, 1)))


def index_list_bisection(cov, order):
    """Reference: the breadth-first bisection over index lists that contiguous
    spans of the seriated covariance replace, with the inverse-variance
    formula written out. Returns the weights, the degenerate split count and
    the tickers of every riskless half: one whose split gave the other half
    no weight (alpha exactly 0 or 1)."""
    values = cov.values

    def variance(items):
        variances = values[items, items]
        dead = [cov.tickers[i] for i, v in zip(items, variances) if v <= VARIANCE_FLOOR]
        if dead:
            raise ZeroVarianceAsset(dead)
        inverse = 1.0 / variances
        w = inverse / inverse.sum()
        return float(w @ values[np.ix_(items, items)] @ w)

    weights = np.ones(len(cov.tickers))
    queue = deque([list(order.order)])
    degenerate_splits = 0
    riskless = []
    while queue:
        items = queue.popleft()
        if len(items) < 2:
            continue
        mid = len(items) // 2
        left_items, right_items = items[:mid], items[mid:]
        v_left = max(variance(left_items), 0.0)
        v_right = max(variance(right_items), 0.0)
        total = v_left + v_right
        if total <= VARIANCE_FLOOR:
            alpha = 0.5
            degenerate_splits += 1
        else:
            alpha = 1.0 - v_left / total
        if alpha in (0.0, 1.0):
            riskless.append([cov.tickers[i] for i in (right_items if alpha == 0.0 else left_items)])
        weights[left_items] *= alpha
        weights[right_items] *= 1.0 - alpha
        queue.append(left_items)
        queue.append(right_items)
    return weights, degenerate_splits, riskless


@contextlib.contextmanager
def hrp_warnings():
    """The records ``portlab.hrp`` logs inside the block. A handler of its own, as
    hypothesis rejects the function-scoped caplog fixture."""
    handler = logging.handlers.BufferingHandler(capacity=1 << 30)  # never flushes
    logger = logging.getLogger("portlab.hrp")
    logger.addHandler(handler)
    try:
        yield handler.buffer
    finally:
        logger.removeHandler(handler)


def assert_bisection_matches_reference(cov, order):
    """Bitwise-equal weights and one warning per degenerate split, or the same
    ZeroVarianceAsset payload for a dead asset, or ZeroVarianceAsset naming one
    of the riskless halves."""
    try:
        expected, degenerate_splits, riskless = index_list_bisection(cov, order)
    except ZeroVarianceAsset as dead:
        with pytest.raises(ZeroVarianceAsset) as caught:
            recursive_bisection(cov, order)
        assert caught.value.tickers == dead.tickers
        return None
    if riskless:  # a half of zero or negligible variance took all the mass
        with pytest.raises(ZeroVarianceAsset, match="the other half would get no weight") as caught:
            recursive_bisection(cov, order)
        assert caught.value.tickers in riskless  # the two walks may meet a different one first
        return None
    assert (expected > 0.0).all()
    with hrp_warnings() as logged:
        result = recursive_bisection(cov, order)
    assert result.weights.tobytes() == expected.tobytes()
    assert len(logged) == degenerate_splits
    return result


@st.composite
def seriated_covariances(draw):
    """A PSD covariance scale * F F' (+ a diagonal) and a seriation order. Loadings
    come from a small lattice, so rows repeat or cancel: singular blocks, perfect
    anticorrelation whose inverse-variance variance is 0 (the alpha = 0.5 branch),
    and, at the smallest scales, variances at or under the floor."""
    n = draw(st.integers(2, 24))
    rank = draw(st.integers(1, n))
    lattice = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    size = n * rank
    loadings = np.array(draw(st.lists(lattice, min_size=size, max_size=size))).reshape(n, rank)
    if draw(st.booleans()):  # general position instead
        loadings += np.array(draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))).reshape(n, rank)
    scale = draw(st.sampled_from([1e-17, 1e-16, 1e-14, 1e-8, 1e-4, 1.0, 3.0]))
    values = scale * (loadings @ loadings.T)
    if draw(st.booleans()):
        values += np.diag(draw(st.lists(st.sampled_from([0.0, 1e-16, 1e-9, 1e-4]), min_size=n, max_size=n)))
    values = (values + values.T) / 2.0
    order = SeriationOrder(tuple(draw(st.permutations(range(n)))))
    return CovarianceMatrix(tickers=tickers_for(n), values=values), order


class TestBisectionMatchesIndexLists:
    @settings(deadline=None, max_examples=400)
    @given(case=seriated_covariances())
    def test_random_psd_covariances(self, case):
        assert_bisection_matches_reference(*case)

    def test_wide_sample_covariance(self, rng):
        # a 200-asset block takes other BLAS kernel paths than the property's small ones
        returns = returns_matrix(rng.normal(0, 0.01, size=(300, 200)) + rng.normal(0, 0.01, size=(300, 1)))
        cov = sample_covariance(returns)
        seriated = quasi_diagonalize(ward_linkage(correlation_distance(correlation(cov))))
        for order in (seriated, SeriationOrder(tuple(rng.permutation(200).tolist()))):
            assert assert_bisection_matches_reference(cov, order) is not None

    def test_anticorrelated_pairs_split_evenly(self):
        # each half is a perfectly anticorrelated pair: both half variances are 0
        pair = np.array([[1.0, -1.0], [-1.0, 1.0]])
        cov = CovarianceMatrix(tickers=tickers_for(4), values=1e-6 * np.kron(np.eye(2), pair))
        with hrp_warnings() as logged:
            result = assert_bisection_matches_reference(cov, SeriationOrder((0, 1, 2, 3)))
        assert [record.getMessage() for record in logged] == [
            "both halves of seriation positions 0..3 are riskless; split evenly"
        ]
        assert result.weights.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_riskless_half_named(self):
        # the right half's inverse-variance portfolio offsets exactly: variance 0, so alpha is 0
        loadings = 1e-7 * np.array([2, 2, 2, 2, 2, 2, 2, 2, -0.5])
        cov = CovarianceMatrix(tickers=tickers_for(9), values=np.outer(loadings, loadings))
        with pytest.raises(ZeroVarianceAsset) as caught:
            recursive_bisection(cov, SeriationOrder(tuple(range(9))))
        assert caught.value.tickers == ["T04", "T05", "T06", "T07", "T08"]
        assert str(caught.value) == "riskless cluster T04, T05, T06, T07, T08: the other half would get no weight"
        assert_bisection_matches_reference(cov, SeriationOrder(tuple(range(9))))

    @pytest.mark.parametrize(
        "order, dead",
        [
            pytest.param((5, 0, 3, 1, 4, 2), ["T05", "T03"], id="left-half-first"),
            pytest.param((0, 2, 4, 5, 3, 1), ["T05", "T03", "T01"], id="then-right-half"),
        ],
    )
    def test_zero_variance_payload(self, order, dead):
        cov = CovarianceMatrix(tickers=tickers_for(6), values=np.diag([1.0, 0.0, 1.0, 0.0, 1.0, 1e-16]))
        with pytest.raises(ZeroVarianceAsset) as caught:
            recursive_bisection(cov, SeriationOrder(order))
        assert caught.value.tickers == dead
        assert_bisection_matches_reference(cov, SeriationOrder(order))


class TestBuildHrpPortfolio:
    def test_two_perfectly_correlated_assets(self):
        base = np.array([0.01, -0.02, 0.015, -0.005, 0.02, -0.01])
        returns = returns_matrix(np.column_stack([base, 2.0 * base]))
        result = hrp_of(returns)
        tickers, weights = result.weights.tickers, result.weights.weights
        assert weights[tickers.index("T00")] == pytest.approx(0.8, abs=1e-12)
        assert weights[tickers.index("T01")] == pytest.approx(0.2, abs=1e-12)

    def test_ten_asset_structural_contract(self, rng):
        returns = returns_matrix(rng.normal(0, 0.01, size=(120, 10)))
        result = hrp_of(returns)
        assert len(result.tree.rows) == 9
        assert (result.weights.weights > 0).all()
        assert abs(result.weights.weights.sum() - 1.0) <= 1e-9
        assert result.weights.method == "HRP"

    def test_duplicated_column_singular_covariance(self, rng):
        base = rng.normal(0, 0.01, size=(100, 7))
        doubled = np.hstack([base, base[:, 2:3]])
        result = hrp_of(returns_matrix(doubled))
        assert (result.weights.weights > 0).all()
        assert abs(result.weights.weights.sum() - 1.0) <= 1e-9

    def test_block_structure_seriates_contiguously(self):
        values, block_of_position = two_block_returns(seed=42)
        result = hrp_of(returns_matrix(values))
        blocks_in_order = block_of_position[list(result.order.order)]
        assert len(set(blocks_in_order[:5])) == 1
        assert len(set(blocks_in_order[5:])) == 1

    def test_linkage_method_is_honoured(self, rng):
        returns = correlated_returns(rng)
        result = hrp_of(returns, linkage_method="average")
        cov = sample_covariance(returns)
        tree = ward_linkage(correlation_distance(correlation(cov)), method="average")
        assert np.array_equal(result.tree.rows, tree.rows)
        assert not np.array_equal(result.tree.rows, hrp_of(returns).tree.rows)  # ward merges at other heights
        order = quasi_diagonalize(tree)
        assert result.order == order
        assert np.array_equal(result.weights.weights, recursive_bisection(cov, order).weights)


class TestPermutationBehavior:
    @staticmethod
    def permuted(returns, positions):
        return ReturnsMatrix(
            tickers=tuple(returns.tickers[p] for p in positions),
            dates=returns.dates,
            values=returns.values[:, positions],
        )

    def test_linkage_tree_equivariant_as_ticker_sets(self, rng):
        returns = correlated_returns(rng)
        base = hrp_of(returns)
        for _ in range(6):
            positions = rng.permutation(len(returns.tickers))
            other = hrp_of(self.permuted(returns, positions))
            for mine, theirs in zip(
                self.merge_ticker_sets(base.tree, base.weights.tickers),
                self.merge_ticker_sets(other.tree, other.weights.tickers),
            ):
                assert mine[0] == theirs[0]
                assert mine[1] == pytest.approx(theirs[1], abs=1e-10)

    @staticmethod
    def merge_ticker_sets(tree, tickers):
        members = {i: frozenset([tickers[i]]) for i in range(tree.n_leaves)}
        out = []
        for k, (left, right, height, _) in enumerate(tree.rows.tolist()):
            merged = members[int(left)] | members[int(right)]
            members[tree.n_leaves + k] = merged
            out.append((merged, height))
        return out

    def test_weight_map_invariant_when_leaf_pair_order_preserved(self, rng):
        # relabeling can flip the stored order of two leaves merged together,
        # which legitimately moves a midpoint split; restrict to permutations
        # that keep every bottom-level pair's relative order
        returns = correlated_returns(rng)
        base = hrp_of(returns)
        leaf_pairs = base.tree.rows[base.tree.rows[:, 1] < len(returns.tickers), :2].astype(int)
        base_map = dict(zip(base.weights.tickers, base.weights.weights.tolist()))
        checked = 0
        for _ in range(40):
            positions = rng.permutation(len(returns.tickers))
            new_position = np.argsort(positions)
            if any(new_position[a] > new_position[b] for a, b in leaf_pairs):
                continue
            checked += 1
            other = hrp_of(self.permuted(returns, positions))
            other_map = dict(zip(other.weights.tickers, other.weights.weights.tolist()))
            for ticker, weight in base_map.items():
                assert other_map[ticker] == pytest.approx(weight, abs=1e-12)
        assert checked >= 3


MALFORMED_TREES = [  # each three-leaf tree breaks one rule, at the row the message names
    pytest.param([[0, 1, 0.1, 2]], "expected", id="row-count"),
    pytest.param([[0, 1, 0.1], [2, 3, 0.2]], "expected", id="column-count"),
    pytest.param([[-1, 1, 0.1, 2], [0, 3, 0.2, 3]], r"^row 0\b.*dangling", id="negative-id"),
    pytest.param([[0, 3, 0.1, 2], [1, 4, 0.2, 3]], r"^row 0\b.*dangling", id="id-not-yet-made"),
    pytest.param([[0, 1, 0.1, 2], [2, 4, 0.2, 3]], r"^row 1\b.*dangling", id="id-of-own-row"),
    pytest.param([[0, 5, 0.1, 2], [1, 3, 0.2, 3]], r"^row 0\b.*dangling", id="id-past-root"),
    pytest.param([[0.5, 1, 0.1, 2], [2, 3, 0.2, 3]], r"^row 0\b.*dangling", id="non-integral-id"),
    pytest.param([[0, 1, 0.1, 2], [0, 3, 0.2, 3]], r"^row 1\b.*consumed twice", id="id-reused"),
    pytest.param([[1, 0, 0.1, 2], [2, 3, 0.2, 3]], r"^row 0\b.*not ordered", id="unordered"),
    pytest.param([[0, 1, float("nan"), 2], [2, 3, 0.2, 3]], r"^row 0\b.*not finite", id="nan-height"),
    pytest.param([[0, 1, 0.1, 2], [2, 3, float("inf"), 3]], r"^row 1\b.*not finite", id="inf-height"),
    pytest.param([[0, 1, -0.1, 2], [2, 3, 0.2, 3]], r"^row 0\b.*below previous", id="negative-height"),
    pytest.param([[0, 1, 0.5, 2], [2, 3, 0.2, 3]], r"^row 1\b.*below previous", id="decreasing-height"),
    pytest.param([[0, 1, 0.2, 2], [2, 3, 0.2 - 1e-6, 3]], r"^row 1\b.*below previous", id="dip-past-tolerance"),
    pytest.param([[0, 1, 0.1, 3], [2, 3, 0.2, 4]], r"^row 0\b.*sum of children sizes", id="size"),
    # a root of other than n leaves needs a row whose size is not its children's
    pytest.param([[0, 1, 0.1, 2], [2, 3, 0.2, 2]], r"^row 1\b.*sum of children sizes", id="root-size"),
]


class TestLinkageTreeChecks:
    @pytest.mark.parametrize("rows, message", MALFORMED_TREES)
    def test_rejected(self, rows, message):
        with pytest.raises(MalformedTree, match=message):
            LinkageTree(n_leaves=3, rows=rows)

    def test_height_dip_within_tolerance_accepted(self):
        tree = LinkageTree(n_leaves=3, rows=[[0, 1, 0.2, 2], [2, 3, 0.2 - 1e-10, 3]])
        assert quasi_diagonalize(tree).order == (2, 0, 1)

    @settings(deadline=None, max_examples=300)
    @given(tree_and_tickers=random_trees(), data=st.data())
    def test_matches_row_by_row_checks(self, tree_and_tickers, data):
        # one or two cells of a valid tree take a valid-looking or hostile value
        tree, _ = tree_and_tickers
        n = tree.n_leaves
        assume(n >= 2)
        rows = tree.rows.copy()
        values = st.one_of(
            st.integers(-1, 2 * n).map(float),
            st.sampled_from([0.5, float("nan"), float("inf"), -float("inf")]),
            st.floats(-1.0, 40.0),
        )
        for _ in range(data.draw(st.integers(1, 2))):
            rows[data.draw(st.integers(0, n - 2)), data.draw(st.integers(0, 3))] = data.draw(values)
        fault = first_malformed_row(n, rows.tolist())
        if fault is None:
            assert np.array_equal(LinkageTree(n_leaves=n, rows=rows).rows, rows)
        else:
            k, rule = fault
            with pytest.raises(MalformedTree) as caught:
                LinkageTree(n_leaves=n, rows=rows)
            assert str(caught.value) == f"row {k} {rows[k].tolist()}: {rule}"

    def test_ward_linkage_rows_are_a_scipy_linkage_matrix(self, rng):
        values = uniform_distances(rng, 12)
        rows = ward_linkage(distance_from(values)).rows
        assert rows.shape == (11, 4) and rows.dtype == np.float64 and not rows.flags.writeable
        assert sch.is_valid_linkage(rows, throw=True)


class TestDendrogramExport:
    def test_nested_structure(self):
        tree = LinkageTree(n_leaves=3, rows=[[0, 2, 0.1, 2], [1, 3, 0.4, 3]])
        root = json.loads(dendrogram_json(tree, ("AAA", "BBB", "CCC")))
        assert root["id"] == 4 and root["height"] == 0.4
        left, right = root["children"]
        assert left == {"id": 1, "ticker": "BBB", "height": 0.0}
        assert [child["ticker"] for child in right["children"]] == ["AAA", "CCC"]

    def test_label_count_checked(self):
        tree = LinkageTree(n_leaves=2, rows=[[0, 1, 0.2, 2]])
        with pytest.raises(ValueError):
            dendrogram_json(tree, ("only",))

    @given(random_trees())
    def test_matches_compact_json_dump(self, tree_and_tickers):
        tree, tickers = tree_and_tickers
        expected = json.dumps(dendrogram_dict(tree, tickers), sort_keys=True, separators=COMPACT) + "\n"
        assert dendrogram_json(tree, tickers) == expected

    def test_deep_chain_writes(self):
        # a chain nests one level per merge; json.dumps fails near 500 levels
        small = chain(50)
        expected = json.dumps(dendrogram_dict(small, tickers_for(50)), sort_keys=True, separators=COMPACT)
        assert dendrogram_json(small, tickers_for(50)) == expected + "\n"
        text = dendrogram_json(chain(1000), tickers_for(1000))
        assert text.count('"ticker":') == 1000 and text.count('"children":[') == 999
        before_leaf_0 = text[: text.index('{"height":0.0,"id":0,"ticker":"T00"}')]
        assert before_leaf_0.count("[") - before_leaf_0.count("]") == 999  # leaf 0, 999 levels down
        assert text.endswith('],"height":998.0,"id":1998}\n')
        assert len(text.encode()) < 100_000  # 22 MB when every level was indented
