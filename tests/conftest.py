"""Shared fixtures for the test suite.

The random matrix generators live in :mod:`minertia.criteria`, so the
acceptance criteria, `minertia check` and every other test draw the same
matrices; the other test modules import them from here.
"""

import random

import pytest

from minertia.criteria import (  # noqa: F401
    rand_hermitian,
    rand_hermitian_generic,
    rand_low_rank,
    rand_psd,
    rand_square,
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
