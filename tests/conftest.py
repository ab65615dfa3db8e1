"""Suite-wide guards."""

import mpmath
import pytest


@pytest.fixture(autouse=True)
def mpmath_precision_unchanged():
    """Fail a test that leaves mpmath's process-global precision changed, so
    it cannot silently alter the precision of the tests after it."""
    before = mpmath.mp.prec
    yield
    after = mpmath.mp.prec
    if after != before:
        mpmath.mp.prec = before
        pytest.fail(f"test left mpmath.mp.prec at {after}, was {before}")
