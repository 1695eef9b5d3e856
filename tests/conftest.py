import faulthandler
import os
import sys
from pathlib import Path

import pytest

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

#: Seconds one test may run before the whole run exits with every thread's
#: stack on stderr.  The slowest test takes about 13 s; a search that stops
#: terminating would otherwise hold the run until the CI job's own timeout.
TEST_TIME_LIMIT = 300

_stderr = sys.__stderr__.fileno()


def pytest_configure(config):
    # Output capture is off while pytest configures, so fd 2 is still the
    # run's own stderr.  Inside a test it is the capture file, which an exit
    # on timeout would discard together with the stack.
    global _stderr
    _stderr = os.dup(_stderr)


@pytest.fixture(autouse=True)
def _time_limit():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
