"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared virtual machine the speed of one vCPU drifts by a third or
more over tens of seconds, so raw wall times of the same code disagree
between runs by more than any useful bound.  The benchmark therefore runs
one ``chunk`` of this kernel between consecutive CLI calls and scales each
call's wall time by ``NOMINAL_S / (mean of the chunks on either side)``:
times are reported as seconds on a machine where one chunk takes
``NOMINAL_S``.

The kernel does the kind of work qmlib does (exact ``Fraction``
arithmetic behind a small wrapper class with comparison and addition
dunders, dict and set lookups, list building) and never touches qmlib, so
a change to the program cannot change it.

A workload whose calls run on a pool of w worker processes is scaled by a
``Parallel`` reference instead: w helper processes (this file run as a
script) each run one chunk at the same moment, and the chunk time is the
wall time until the last of them is done.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# Units per chunk and the nominal chunk time.  NOMINAL_S is the median
# chunk time on a 2-vCPU Intel Xeon VM under Python 3.11.7; it only sets
# the scale of the reported times, not their ratio between two versions.
UNITS = 30
NOMINAL_S = 0.1


class _Val:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return self.v < other.v

    def __add__(self, other):
        return _Val(self.v + other.v)


_VALUES = tuple(_Val(Fraction(k % 17, 1 + k % 11)) for k in range(40))


def unit() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    best = {}
    for a in _VALUES:
        for b in _VALUES:
            s = a + b
            key = s.v.denominator
            cur = best.get(key)
            if cur is None or s < cur:
                best[key] = s
    seen = {frozenset((k, k % 7)) for k in best}
    return len(seen) + sum(v.v.numerator for v in best.values())


def chunk() -> float:
    """Wall seconds of UNITS units."""
    start = time.perf_counter()
    for _ in range(UNITS):
        unit()
    return time.perf_counter() - start


class Parallel:
    """``width`` helper processes that run one chunk each, all at once."""

    def __init__(self, width: int):
        self.procs = []
        try:
            for _ in range(width):
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True))
            self.chunk()      # all helpers up and warm
        except BaseException:
            self.close()
            raise

    def chunk(self) -> float:
        """Wall seconds until every helper has run one chunk."""
        start = time.perf_counter()
        for proc in self.procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        for proc in self.procs:
            if not proc.stdout.readline():
                raise RuntimeError("reference helper exited")
        return time.perf_counter() - start

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            proc.stdout.close()
            proc.wait(timeout=60)


def serve() -> int:
    """Helper loop: one chunk per line read on stdin, its time written back."""
    for _ in sys.stdin:
        print(repr(chunk()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
