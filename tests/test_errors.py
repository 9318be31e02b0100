import pickle
from fractions import Fraction

import pytest

from substoch import errors

CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.SubstochError)
]
WITH_FIELDS = {errors.NegativeEntry, errors.RowSumExceedsOne, errors.ParseError}
SAMPLES = [
    errors.NegativeEntry(1, 2, -3),
    errors.NegativeEntry(1, 2, Fraction(-1, 3)),
    errors.NegativeEntry(1, 2),
    errors.RowSumExceedsOne(2, 5),
    errors.RowSumExceedsOne(2, 1.25),
    errors.RowSumExceedsOne(2),
    errors.ParseError("bad cell", 3, 4),
    errors.ParseError("short row", 3),
    errors.ParseError("no rows"),
    *(c("a message") for c in CLASSES if c not in WITH_FIELDS),
]


def test_samples_cover_every_error_class():
    assert {type(e) for e in SAMPLES} == set(CLASSES)


@pytest.mark.parametrize("exc", SAMPLES, ids=repr)
def test_error_survives_pickle(exc):
    # falsify and simulate ship a worker's error to the parent by pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


@pytest.mark.parametrize(
    "exc, text",
    [
        (errors.NegativeEntry(1, 2, -3), "entry (1,2) = -3 is negative"),
        (errors.RowSumExceedsOne(2, Fraction(5, 4)), "row 2 sums to 5/4 > 1"),
        (errors.RowSumExceedsOne(2), "row 2 sums to None > 1"),
        (errors.ParseError("bad cell", 3, 4), "bad cell (line 3, column 4)"),
        (errors.ParseError("short row", 3), "short row (line 3)"),
        (errors.ParseError("no rows", None, 4), "no rows"),
    ],
)
def test_error_messages(exc, text):
    assert str(exc) == text
