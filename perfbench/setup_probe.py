"""Time fresh interpreters up to ``import qmlib.cli``, one per request.

Usage: ``python3 setup_probe.py <src dir>``; each line read on stdin starts
one probe interpreter, and the seconds from its start until it reports
``qmlib.cli`` imported are written back as one line ("failed" if it did
not import).  EOF ends the process.

The benchmark keeps one of these running for a whole run and asks for a
sample between CLI calls, so the setup samples are spread over the run.
The probes are reaped here, not by the benchmark, so they stay out of the
benchmark's own RUSAGE_CHILDREN until this process has exited.
"""

import subprocess
import sys
import time

CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import qmlib.cli; "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def probe(src: str):
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", CODE, src],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    return elapsed if proc.returncode == 0 and line.strip() == "ready" else None


def main() -> int:
    src = sys.argv[1]
    for _ in sys.stdin:
        elapsed = probe(src)
        print("failed" if elapsed is None else repr(elapsed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
