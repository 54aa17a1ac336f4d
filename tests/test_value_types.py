"""The array contract the value types share.

Every array field is cast to its dtype and frozen at construction; the three
square-matrix types share one shape, finiteness and symmetry check; and a NaN
never slips through a tolerance comparison (``nan > tol`` is False).
"""

from dataclasses import FrozenInstanceError, fields
from datetime import date

import numpy as np
import pytest

from portlab.backtest import ReturnSeries
from portlab.eigen import PCAModel
from portlab.errors import MalformedTree
from portlab.hrp import DistanceMatrix, LinkageTree, Merge
from portlab.market_data import PricePanel, PriceSeries
from portlab.portfolio import PortfolioWeights
from portlab.returns_stats import CorrelationMatrix, CovarianceMatrix, ReturnsMatrix

TICKERS = ("A", "B", "C")
DAYS = (date(2021, 1, 4), date(2021, 1, 5), date(2021, 1, 6))
NAN = float("nan")
EYE = np.eye(3)
THIRDS = np.full(3, 1.0 / 3.0)

VALUE_TYPES = [
    pytest.param(lambda: PriceSeries("A", dates=list(DAYS), closes=[1.0, 2.0, 3.0]), id="PriceSeries"),
    pytest.param(lambda: PricePanel(TICKERS, DAYS, np.ones((3, 3))), id="PricePanel"),
    pytest.param(lambda: ReturnsMatrix(TICKERS, DAYS, np.zeros((3, 3))), id="ReturnsMatrix"),
    pytest.param(lambda: CovarianceMatrix(TICKERS, EYE), id="CovarianceMatrix"),
    pytest.param(lambda: CorrelationMatrix(TICKERS, EYE), id="CorrelationMatrix"),
    pytest.param(lambda: DistanceMatrix(TICKERS, 1.0 - EYE), id="DistanceMatrix"),
    pytest.param(lambda: PCAModel(TICKERS, np.ones(3), EYE, THIRDS, standardized=True), id="PCAModel"),
    pytest.param(lambda: PortfolioWeights(TICKERS, THIRDS, "HRP", DAYS[0]), id="PortfolioWeights"),
    pytest.param(lambda: ReturnSeries(DAYS, np.zeros(3)), id="ReturnSeries"),
]


@pytest.mark.parametrize("build", VALUE_TYPES)
def test_array_fields_are_cast_and_read_only(build):
    instance = build()
    arrays = {f.name: getattr(instance, f.name) for f in fields(instance)}
    arrays = {name: value for name, value in arrays.items() if isinstance(value, np.ndarray)}
    assert arrays
    for name, values in arrays.items():
        assert values.dtype == np.dtype("datetime64[D]" if name == "dates" else float)
        with pytest.raises(ValueError, match="read-only"):
            values.flat[0] = values.flat[-1]
        with pytest.raises(FrozenInstanceError):
            setattr(instance, name, values.copy())


def with_nan(values, index):
    values = np.array(values, dtype=float)
    values[index] = NAN
    return values


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(
            lambda: CorrelationMatrix(TICKERS, np.where(EYE == 1.0, 1.0, NAN)),
            ValueError,
            id="CorrelationMatrix",
        ),
        pytest.param(
            lambda: PCAModel(TICKERS, with_nan(np.ones(3), 1), EYE, THIRDS, standardized=True),
            ValueError,
            id="PCAModel-eigenvalues",
        ),
        pytest.param(
            lambda: PCAModel(TICKERS, np.ones(3), with_nan(EYE, (0, 1)), THIRDS, standardized=True),
            ValueError,
            id="PCAModel-loadings",
        ),
        pytest.param(
            lambda: PCAModel(TICKERS, np.ones(3), EYE, with_nan(THIRDS, 2), standardized=True),
            ValueError,
            id="PCAModel-explained_ratio",
        ),
        pytest.param(lambda: ReturnSeries(DAYS, [0.01, NAN, 0.02]), ValueError, id="ReturnSeries"),
        pytest.param(
            lambda: LinkageTree(3, (Merge(0, 1, NAN, 2), Merge(2, 3, 1.0, 3))),
            MalformedTree,
            id="LinkageTree",
        ),
    ],
)
def test_nan_rejected(build, error):
    with pytest.raises(error, match="finite"):
        build()


SQUARE_TYPES = [
    pytest.param(CovarianceMatrix, "covariance", EYE, id="CovarianceMatrix"),
    pytest.param(CorrelationMatrix, "correlation", EYE, id="CorrelationMatrix"),
    pytest.param(DistanceMatrix, "distance", 1.0 - EYE, id="DistanceMatrix"),
]


@pytest.mark.parametrize("matrix_type, kind, valid", SQUARE_TYPES)
@pytest.mark.parametrize(
    "defect, message",
    [
        pytest.param("shape", "{kind} shape (3, 2) does not match 3 tickers", id="shape"),
        pytest.param("nan", "{kind} contains non-finite values", id="nan"),
        pytest.param("inf", "{kind} contains non-finite values", id="inf"),
        pytest.param("asymmetric", "{kind} not symmetric within 1e-12", id="asymmetric"),
    ],
)
def test_square_matrix_rules(matrix_type, kind, valid, defect, message):
    values = valid.copy()
    if defect == "shape":
        values = values[:, :2]
    elif defect == "asymmetric":
        values[0, 1] += 1e-9
    else:
        values[0, 1] = values[1, 0] = float(defect)
    with pytest.raises(ValueError) as caught:
        matrix_type(TICKERS, values)
    assert str(caught.value) == message.format(kind=kind)
