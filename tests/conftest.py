"""Suite-wide guards, and the time limit of the tests that must not hang."""

import signal
from contextlib import contextmanager

import mpmath
import pytest


class Hang(Exception):
    """A ``time_limit`` block ran past its limit."""


@contextmanager
def time_limit(seconds):
    """Raise ``Hang`` in the block once ``seconds`` have passed."""
    def on_alarm(signum, frame):
        raise Hang(f"no answer within {seconds} s")

    old_handler = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)


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
