"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and without per-example deadlines, since the
definitional oracles are exponential by design.

The mutant gate's child runs (``tests/test_mutants.py``) select the
``mutant`` profile: the same, without the shrink phase, since a killed
mutant needs a failing example and not its smallest form.

A hang is a failure: every test runs under a deadline of ``DEADLINE_S``
seconds, after which ``faulthandler`` prints every thread's stack and ends
the run with status 1.  Ten seconds is about five times the slowest test
(2.2 s, acceptance criterion 4), so only a test that stops making progress
reaches it; a mutant whose test hangs (say, a pool child blocked on its
pipe) is then killed within the deadline.  A module whose tests wait on a
run that is itself under this deadline sets its own, longer
``DEADLINE_S``.  The stack goes to the stderr that pytest found at
startup, since the test's own captured output is lost when the process
exits."""

import faulthandler
import os

import pytest
from hypothesis import Phase, settings

settings.register_profile("qmlib", derandomize=True, deadline=None)
settings.register_profile("mutant", settings.get_profile("qmlib"),
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("qmlib")

DEADLINE_S = 10
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while plugins configure
    config.stash[STDERR] = os.dup(2)


@pytest.fixture(autouse=True)
def deadline(request):
    faulthandler.dump_traceback_later(getattr(request.module, "DEADLINE_S", DEADLINE_S),
                                      exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
