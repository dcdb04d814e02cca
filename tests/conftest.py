"""Fixtures shared by the test modules."""

import signal

import pytest


@pytest.fixture
def deadline():
    """Fail the test, rather than hang it, if it runs past 60 seconds."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
