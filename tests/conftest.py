"""A time limit on every tier-1 test.

A scan or ranking loop that never ends would hang the suite until the CI
job's own limit. Here it fails the run instead: after LIMIT_S seconds in
one test, faulthandler prints every thread's traceback, which shows where
the loop spins, and ends the process.
"""

import faulthandler
import os
import sys

import pytest

LIMIT_S = 120

# the real stderr: while a test runs, pytest captures file descriptor 2,
# and what a process that exits writes there is never shown
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
