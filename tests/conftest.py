import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Wall-clock limit per test, set-up and tear-down included. The slowest
# test takes a few seconds, so only an engine that never ends reaches it,
# and the test then fails instead of hanging the suite. It uses SIGALRM: a
# test that sets its own real-time timer (perfbench's hostclock) drops it.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past the limit. Not an Exception, so no
    test code or Hypothesis shrinking catches it and runs on."""


def _time_is_up(signum, frame):
    raise TimeLimitExceeded(f"the test ran for more than {TEST_TIME_LIMIT_S} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    previous = signal.signal(signal.SIGALRM, _time_is_up)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
