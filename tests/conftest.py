"""Markers that a test's own parametrization does not carry."""

import pytest


def pytest_collection_modifyitems(items):
    """The golden classify cases run a finite-field scan: mark them ``scan``."""
    for item in items:
        if (item.originalname == "test_golden_output"
                and item.callspec.params["argv"][0] == "classify"):
            item.add_marker(pytest.mark.scan)
