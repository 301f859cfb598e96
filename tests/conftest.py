"""Fixtures shared by every test module."""

import pytest

from ellchain import cli


@pytest.fixture(autouse=True)
def fresh_sweep_certificates():
    """Each test starts with no sweep certificate, so a monkeypatched
    ``construct``, ``count_dimension`` or ``check_stable`` reaches the
    certificate of every k the test sweeps, whatever ran before it."""
    cli._certify.cache_clear()
    yield
    cli._certify.cache_clear()
