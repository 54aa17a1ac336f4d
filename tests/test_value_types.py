"""The array contract the value types share.

Every array field is cast to its dtype and frozen at construction; the three
square-matrix types share one shape, finiteness and symmetry check; and a NaN
never slips through a tolerance comparison (``nan > tol`` is False).
"""

from dataclasses import FrozenInstanceError, fields, replace
from datetime import date

import numpy as np
import pytest

from portlab.eigen import PCAModel
from portlab.errors import MalformedTree, NonPositivePrice
from portlab.hrp import DistanceMatrix, LinkageTree, SeriationOrder
from portlab.market_data import PricePanel, PriceSeries, PriceTable
from portlab.portfolio import PortfolioWeights
from portlab.returns_stats import CorrelationMatrix, CovarianceMatrix, ReturnsMatrix

TICKERS = ("A", "B", "C")
DAYS = (date(2021, 1, 4), date(2021, 1, 5), date(2021, 1, 6))
NAN = float("nan")
EYE = np.eye(3)
THIRDS = np.full(3, 1.0 / 3.0)
GAPPED = [[1.0, NAN, 2.0]] * 3  # B has no quote on any day

VALUE_TYPES = [
    pytest.param(lambda: PriceSeries("A", dates=list(DAYS), closes=[1.0, 2.0, 3.0]), id="PriceSeries"),
    pytest.param(lambda: PriceTable(TICKERS, DAYS, GAPPED), id="PriceTable"),
    pytest.param(lambda: PricePanel(TICKERS, DAYS, np.ones((3, 3))), id="PricePanel"),
    pytest.param(lambda: ReturnsMatrix(TICKERS, DAYS, np.zeros((3, 3))), id="ReturnsMatrix"),
    pytest.param(lambda: CovarianceMatrix(TICKERS, EYE), id="CovarianceMatrix"),
    pytest.param(lambda: CorrelationMatrix(TICKERS, EYE), id="CorrelationMatrix"),
    pytest.param(lambda: DistanceMatrix(TICKERS, 1.0 - EYE), id="DistanceMatrix"),
    pytest.param(lambda: LinkageTree(3, [[0, 1, 0.5, 2], [2, 3, 1.0, 3]]), id="LinkageTree"),
    pytest.param(lambda: PCAModel(TICKERS, np.ones(3), EYE), id="PCAModel"),
    pytest.param(lambda: PortfolioWeights(TICKERS, THIRDS, "HRP"), id="PortfolioWeights"),
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
    # the value type takes ownership: an array of its dtype is frozen in place, not copied
    own = {name: values.copy() for name, values in arrays.items()}
    rebuilt = replace(instance, **own)
    assert all(getattr(rebuilt, name) is own[name] and not own[name].flags.writeable for name in own)


@pytest.mark.parametrize("build", VALUE_TYPES)
def test_equality_is_identity(build):
    # an equal copy is another value: == answers False instead of raising on the arrays
    instance, twin = build(), build()
    assert instance == instance
    assert (instance == twin) is False
    assert instance != twin
    assert hash(instance) == hash(instance)


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
            lambda: PCAModel(TICKERS, with_nan(np.ones(3), 1), EYE),
            ValueError,
            id="PCAModel-eigenvalues",
        ),
        pytest.param(
            lambda: PCAModel(TICKERS, np.ones(3), with_nan(EYE, (0, 1))),
            ValueError,
            id="PCAModel-loadings",
        ),
        pytest.param(
            lambda: ReturnsMatrix(TICKERS, DAYS, with_nan(np.zeros((3, 3)), (1, 2))),
            ValueError,
            id="ReturnsMatrix",
        ),
        pytest.param(
            lambda: LinkageTree(3, [[0, 1, NAN, 2], [2, 3, 1.0, 3]]),
            MalformedTree,
            id="LinkageTree",
        ),
    ],
)
def test_nan_rejected(build, error):
    with pytest.raises(error, match="finite"):
        build()


@pytest.mark.parametrize(
    "days",
    [
        pytest.param((DAYS[0], DAYS[0], DAYS[2]), id="duplicate"),
        pytest.param((DAYS[1], DAYS[0], DAYS[2]), id="descending"),
        pytest.param((DAYS[0], DAYS[2], DAYS[1]), id="descending-last"),
        pytest.param((None, DAYS[1], DAYS[2]), id="missing-first"),
        pytest.param((DAYS[0], DAYS[1], None), id="missing-last"),
    ],
)
@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda days: PricePanel(TICKERS, days, np.ones((3, 3))),
            "(3, 3) closes for (3,) ascending days x 3 tickers",
            id="PricePanel",
        ),
        pytest.param(
            lambda days: ReturnsMatrix(TICKERS, days, np.zeros((3, 3))),
            "returns dates not strictly increasing",
            id="ReturnsMatrix",
        ),
        pytest.param(
            lambda days: PriceTable(TICKERS, days, np.ones((3, 3))),
            "(3, 3) closes for (3,) ascending days x 3 tickers",
            id="PriceTable",
        ),
    ],
)
def test_unordered_dates_rejected(build, message, days):
    with pytest.raises(ValueError) as caught:
        build(days)
    assert str(caught.value) == message


SIGNS = "table contains infinite or non-positive closes"
HOLED = with_nan(np.ones((3, 3)), (1, 2))


@pytest.mark.parametrize(
    "grid, closes, error, message",
    [
        pytest.param(
            PriceTable, np.ones((3, 2)), ValueError, "(3, 2) closes for (3,) ascending days x 3 tickers", id="shape"
        ),
        pytest.param(
            PriceTable, np.ones((2, 3)), ValueError, "(2, 3) closes for (3,) ascending days x 3 tickers", id="rows"
        ),
        pytest.param(PriceTable, HOLED * [1.0, 1.0, np.inf], NonPositivePrice, SIGNS, id="inf"),
        pytest.param(PriceTable, HOLED - [0.0, 1.0, 0.0], NonPositivePrice, SIGNS, id="zero"),
        pytest.param(PriceTable, HOLED - [2.0, 0.0, 0.0], NonPositivePrice, SIGNS, id="negative"),
        pytest.param(PricePanel, np.ones((3, 3)) - [2.0, 0.0, 0.0], NonPositivePrice, SIGNS, id="PricePanel-negative"),
        pytest.param(PricePanel, GAPPED, NonPositivePrice, "B: no close on 2021-01-04", id="PricePanel-nan"),
    ],
)
def test_table_rejects_bad_closes(grid, closes, error, message):
    # a NaN cell is a missing quote, which a table takes (GAPPED builds VALUE_TYPES' PriceTable); every
    # quoted cell is finite and positive. A panel is a table with every cell quoted: it breaks the
    # table's rules with the table's errors, and has no NaN
    with pytest.raises(error) as caught:
        grid(TICKERS, DAYS, closes)
    assert str(caught.value) == message


def test_missing_day_rejected_in_one_row_returns():
    # one row has no pair to compare, so only the NaT check catches it
    with pytest.raises(ValueError) as caught:
        ReturnsMatrix(("A",), (None,), np.zeros((1, 1)))
    assert str(caught.value) == "returns dates not strictly increasing"


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: PortfolioWeights(TICKERS, np.full(2, 0.5), "EIGEN"),
            "3 tickers but weight shape (2,)",
            id="weights-shape",
        ),
        pytest.param(
            lambda: PortfolioWeights(TICKERS, with_nan(THIRDS, 1), "EIGEN"),
            "weights contain non-finite values",
            id="weights-nan",
        ),
        pytest.param(
            lambda: PortfolioWeights(TICKERS, np.full(3, 0.5), "EIGEN"),
            "weights sum to 1.5, expected 1 within 1e-09",
            id="weights-sum",
        ),
        # eigen weights may short; HRP weights are long-only
        pytest.param(
            lambda: PortfolioWeights(TICKERS, [1.5, -0.25, -0.25], "HRP"),
            "HRP weights must lie in (0, 1]",
            id="hrp-short",
        ),
        pytest.param(
            lambda: PortfolioWeights(TICKERS, [0.5, 0.5, 0.0], "HRP"), "HRP weights must lie in (0, 1]", id="hrp-zero"
        ),
        pytest.param(
            lambda: PCAModel(TICKERS, np.ones(2), EYE),
            "eigenvalues must have one entry per ticker",
            id="PCAModel-eigenvalue-shape",
        ),
        pytest.param(
            lambda: PCAModel(TICKERS, np.ones(3), np.eye(2)),
            "loadings shape (2, 2) != (3, 3)",
            id="PCAModel-loadings-shape",
        ),
        pytest.param(
            lambda: PCAModel(TICKERS, [1.0, 0.5, -0.5], EYE),
            "eigenvalues must be >= 0 after clamping",
            id="PCAModel-negative-eigenvalue",
        ),
        pytest.param(
            lambda: DistanceMatrix(TICKERS, EYE - 1.0), "distances must be >= 0", id="DistanceMatrix-negative"
        ),
        pytest.param(
            lambda: DistanceMatrix(TICKERS, np.ones((3, 3))),
            "distance diagonal must be exactly 0",
            id="DistanceMatrix-diagonal",
        ),
        pytest.param(
            lambda: SeriationOrder((0, 0, 2)), "not a permutation of 0..2: (0, 0, 2)", id="SeriationOrder-repeat"
        ),
        pytest.param(
            lambda: ReturnsMatrix(TICKERS, DAYS, np.zeros((3, 2))),
            "returns shape (3, 2) does not match dates x tickers",
            id="ReturnsMatrix-shape",
        ),
        pytest.param(
            lambda: ReturnsMatrix(("A", "A", "B"), DAYS, np.zeros((3, 3))),
            "duplicate tickers in returns",
            id="ReturnsMatrix-repeat",
        ),
        pytest.param(
            lambda: CorrelationMatrix(TICKERS, 0.5 * EYE),
            "correlation diagonal must be 1",
            id="CorrelationMatrix-diagonal",
        ),
        pytest.param(
            lambda: CorrelationMatrix(TICKERS, np.where(EYE == 1.0, 1.0, 1.5)),
            "correlation entries must lie in [-1, 1]",
            id="CorrelationMatrix-range",
        ),
    ],
)
def test_type_rejects_what_breaks_its_rule(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


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
        pytest.param("empty", "{kind} needs at least one ticker", id="empty"),
    ],
)
def test_square_matrix_rules(matrix_type, kind, valid, defect, message):
    tickers, values = TICKERS, valid.copy()
    if defect == "empty":
        tickers, values = (), np.zeros((0, 0))
    elif defect == "shape":
        values = values[:, :2]
    elif defect == "asymmetric":
        values[0, 1] += 1e-9
    else:
        values[0, 1] = values[1, 0] = float(defect)
    with pytest.raises(ValueError) as caught:
        matrix_type(tickers, values)
    assert str(caught.value) == message.format(kind=kind)
