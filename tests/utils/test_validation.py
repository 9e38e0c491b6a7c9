"""Unit tests for argument-validation helpers."""

import pytest

from repro.utils.validation import check_positive


def test_check_positive_accepts_positive_values():
    check_positive("x", 1)
    check_positive("x", 0.001)


@pytest.mark.parametrize("value", [0, -1, -0.5])
def test_check_positive_rejects_non_positive(value):
    with pytest.raises(ValueError, match="x must be > 0"):
        check_positive("x", value)
