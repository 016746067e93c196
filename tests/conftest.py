"""Every test starts with nothing remembered: `certify_optimal` reads
the distance and locality that earlier `min_distance` and
`check_locality` calls proved, so a test would otherwise see the calls
of the tests before it."""

import pytest

import lrcodes.verify as verify_mod


@pytest.fixture(autouse=True)
def _forget_proven_facts():
    verify_mod._KNOWN.clear()
    yield
