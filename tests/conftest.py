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
exits.

The deadline ends the children that a test forked too.  A fork pool child
blocked on its pipe would otherwise outlive the run and keep its stdout
and stderr open, so that a caller reading them through a pipe would never
see their end.  On Linux each child that ``os.fork`` makes asks the kernel
for SIGKILL when the process that forked it ends
(``prctl(PR_SET_PDEATHSIG)``), however that process ends: the deadline's
exit included, and with no signal to any process group."""

import ctypes
import faulthandler
import os
import signal
import sys

import pytest
from hypothesis import Phase, settings

settings.register_profile("qmlib", derandomize=True, deadline=None)
settings.register_profile("mutant", settings.get_profile("qmlib"),
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("qmlib")

DEADLINE_S = 10
STDERR = pytest.StashKey[int]()
PR_SET_PDEATHSIG = 1
# the pid of the process that forks, read back in the child
_forking = [0]


def _before_fork():
    _forking[0] = os.getpid()


def _die_with_the_parent():
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    # a parent that ended before the request took effect sends nothing
    if os.getppid() != _forking[0]:
        os._exit(1)


if sys.platform.startswith("linux"):
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
    _prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    _prctl.restype = ctypes.c_int
    os.register_at_fork(before=_before_fork, after_in_child=_die_with_the_parent)


def pytest_configure(config):
    # output capture is suspended while plugins configure
    config.stash[STDERR] = os.dup(2)


@pytest.fixture(autouse=True)
def deadline(request):
    faulthandler.dump_traceback_later(getattr(request.module, "DEADLINE_S", DEADLINE_S),
                                      exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
