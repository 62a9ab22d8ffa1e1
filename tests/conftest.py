import contextlib
import signal

import pytest


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the body after `seconds` of wall time, so an
    elimination that never ends fails the test instead of hanging it.
    Without SIGALRM the body runs unbounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("no result after %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def time_limit():
    """The context manager `time_limit(seconds)`: a test that eliminates
    wraps its work in it."""
    return _time_limit
