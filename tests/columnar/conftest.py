"""Shared fixtures for the columnar suite."""

from __future__ import annotations

import pytest

from repro.columnar import BACKENDS


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    """Every column storage backend (there is one: ``"python"``)."""
    return request.param
