from unittest import mock

import pytest

from rangekit import linear_model

# 19-symbol reference example: counts, boundary array, hierarchical array
REF19_COUNTS = [3, 2, 2, 1, 4, 1, 5, 2, 3, 1, 2, 3, 1, 4, 2, 1, 1, 3, 2]
REF19_V = [0, 3, 5, 2, 8, 4, 5, 5, 20, 3, 4, 2, 9, 1, 5, 2, 37, 1, 4, 2]
REF19_HK = [0, 3, 5, 7, 8, 12, 13, 18, 20, 23, 24, 26, 29, 30, 34, 36, 37,
             38, 41, 43]

# 4-symbol walkthrough: counts, boundaries, lookup table before/after
TOY_COUNTS = [3, 2, 1, 4]
TOY_HK = [0, 3, 5, 6, 10]
TOY_TABLE = [0, 0, 0, 1, 1, 2, 3, 3, 3, 3]
TOY_TABLE_AFTER = [0, 0, 0, 1, 1, 1, 2, 3, 3, 3, 3]


@pytest.fixture
def ref19_counts():
    return list(REF19_COUNTS)


@pytest.fixture
def toy_counts():
    return list(TOY_COUNTS)


def forced_storage(storage):
    """Context in which new adaptive LinearModels store ``hk`` as a
    ``"list"`` or an ``"array"`` whatever their alphabet size."""
    floor = {"list": float("inf"), "array": 1}[storage]
    return mock.patch.object(linear_model, "_ARRAY_MIN_K", floor)
