"""Acceptance suite: every criterion of :mod:`minertia.criteria` at full
budget, one test each (`minertia check` runs the same criteria at a small
budget).

Each test prints one PASS line (visible with `pytest -s`); tolerances are
zero wherever both sides are exact.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import pytest

from minertia.criteria import CRITERIA, Budget


@pytest.fixture(scope="module")
def full_budget():
    # one instance for the module: criteria 11 and 12 share its first falsifier batch
    return Budget(full=True)


def _acceptance_test(criterion):
    number = int(criterion.__name__.split("_")[1])

    def test(full_budget):
        print(f"PASS criterion {number}: {criterion(full_budget)}")

    return test


# One named function per criterion rather than pytest.mark.parametrize, so the
# ids stay test_criterion_<NN>_<name> and `pytest -k criterion_11` selects one.
for _criterion in CRITERIA:
    globals()[f"test_{_criterion.__name__}"] = _acceptance_test(_criterion)
