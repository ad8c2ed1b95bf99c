import os
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis profiles, chosen by SPECSIM_HYPOTHESIS_PROFILE (or pytest's
# --hypothesis-profile):
#   - "tier1" (the default) draws the same examples on every run, seeded
#     from each test, and reads no example database, so a red run is
#     reproduced by running the same commit again;
#   - "deep" draws fresh random examples, DEEP_SCALE times as many per test
#     (see examples()), to explore beyond tier-1's fixed draw.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("deep", derandomize=False)
settings.load_profile(os.environ.get("SPECSIM_HYPOTHESIS_PROFILE", "tier1"))
DEEP_SCALE = 10


def examples(n: int) -> int:
    """A property's example count: n under tier-1, DEEP_SCALE * n under deep."""
    return n * DEEP_SCALE if settings.get_current_profile_name() == "deep" else n


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
