"""qmlib benchmark: drives the ``qml`` CLI in-process on one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_n6 --seed 1 --seconds 20 --trace 0

One single-threaded client calls ``qmlib.cli.main(argv)`` in a closed loop
(each call starts when the previous one returns), with ``--out`` pointing
at a scratch file, so argument parsing, loading, JSON emission and exit
codes are measured as users see them.  Inputs are generated from
``--seed`` outside the timed region; every output is checked.  Times are
scaled by the speed of a reference kernel run between the calls (see
reference.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
first calls of the call list untraced, replays them with the layer tracer
installed and reports the per-layer metrics, after checking that the
traced outputs are byte-identical to the untraced ones, that every layer
metric mapped to the workload is nonzero and that every patched binding
is restored.

The last line of standard output is the JSON result; a fuller report (env,
input digest, per-call output sha256, trace overhead) and the span file go
to ``.perfbench_out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import tracer as layer_tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 11
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "items/s", "call_p50_s": "s",
                    "peak_rss_mb": "MiB"}
# Calls replayed under the tracer: a fixed prefix of the call list, so the
# counts repeat exactly for a given seed.
TRACE_CALLS = {"sweep_n6": 3, "sweep_pool2": 3, "audit_n12": 8,
               "check_coprime": 3, "gallery_c100": 4}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_cli():
    """Import qmlib.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "qmlib" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qmlib sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmlib.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "qmlib").resolve():
        raise SystemExit(f"perfbench: qmlib imported from {cli.__file__}, not {SRC}")
    return cli


def env_block() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "qmlib").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "commit": git_commit(),
            "source_sha256": src_digest.hexdigest(),
            "loadavg_start": list(os.getloadavg())}


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def invoke(main, argv) -> int:
    """One CLI call; an exception or SystemExit is a failed call, not a crash."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


class Run:
    """The calls of one run, in order, with their timings and verdicts."""

    def __init__(self, workload: str, seed: int, main):
        self.workload = workload
        self.main = main
        self.stream = workloads.calls(workload, seed)
        self.calls = []       # workloads.Call
        self.seconds = []     # wall time of each call
        self.rcs = []

    def step(self) -> float:
        call = next(self.stream)          # input generation: not timed
        start = time.perf_counter()
        rc = invoke(self.main, call.argv)
        elapsed = time.perf_counter() - start
        self.calls.append(call)
        self.seconds.append(elapsed)
        self.rcs.append(rc)
        return elapsed

    def verdicts(self) -> list:
        """(output sha256, error or None) per call."""
        out = []
        for call, rc in zip(self.calls, self.rcs):
            data = Path(call.out).read_bytes() if Path(call.out).is_file() else b""
            out.append((hashlib.sha256(data).hexdigest(),
                        workloads.check_output(self.workload, call, rc, data)))
        return out

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for call in self.calls:
            h.update(json.dumps(call.argv).encode() + b"\n")
            for path in call.inputs:
                h.update(Path(path).read_bytes())
        return h.hexdigest()


def closed_loop(run: Run, seconds: float, ref, probe) -> list:
    """Call 0 warms up (checked, not timed).  Then reference chunk
    (``ref()``), call, reference chunk, setup probe, call, ... until
    ``seconds`` of wall time have passed and the timed calls make whole
    rotations of the workload.

    Returns the reference chunk times: timed call i (from 1) lies between
    chunks i - 1 and i.
    """
    run.step()
    period = workloads.PERIODS[run.workload]
    refs = [ref()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (len(run.calls) - 1) % period:
        run.step()
        refs.append(ref())
        probe.sample(refs[-1])
    return refs


class SetupProbe:
    """Setup-time samples from a helper process (see setup_probe.py).

    Each sample follows a reference chunk and is scaled by it.  The first
    probe is discarded, so compiled bytecode is in place as it is for any
    user after the first run.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []     # (raw seconds, scaled seconds)
        try:
            self._ask()
        except BaseException:
            self.close()
            raise

    def _ask(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline().strip()
        if line in ("", "failed"):
            raise RuntimeError("setup probe failed to import qmlib.cli")
        return float(line)

    def sample(self, ref: float) -> None:
        """One sample after a reference chunk of ``ref`` seconds, until
        SETUP_REPEATS are taken."""
        if len(self.samples) < SETUP_REPEATS:
            raw = self._ask()
            self.samples.append((raw, raw * reference.NOMINAL_S / ref))

    def top_up(self, ref) -> list:
        while len(self.samples) < SETUP_REPEATS:
            self.sample(ref())
        return self.samples

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children
    (the pool workers), in MiB (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(run: Run, verdicts: list, refs: list, setup: list, rss: float,
               report: dict) -> dict:
    """The end-to-end metrics, with every time scaled to the reference
    speed; the raw wall-clock values go to the report beside them."""
    timed = range(1, len(run.calls))
    ok_items = sum(run.calls[i].items for i in timed if verdicts[i][1] is None)
    scaled = [run.seconds[i] * 2 * reference.NOMINAL_S / (refs[i - 1] + refs[i])
              for i in timed]
    raw = [run.seconds[i] for i in timed]
    report.update(reference_chunk_seconds=refs, scaled_call_seconds=scaled,
                  setup_samples=[s for _, s in setup],
                  raw_setup_samples=[r for r, _ in setup],
                  call_p50_samples=len(timed),
                  raw={"setup_s": statistics.median(r for r, _ in setup),
                       "items_per_s": ok_items / sum(raw),
                       "call_p50_s": statistics.median(raw)})
    values = {"setup_s": statistics.median(s for _, s in setup),
              "items_per_s": ok_items / sum(scaled),
              "call_p50_s": statistics.median(scaled),
              "peak_rss_mb": rss}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def traced(run: Run, verdicts: list, report: dict, span_path: Path):
    """Replay the first TRACE_CALLS calls under the tracer.

    Returns (per-layer metrics, list of self-check failures).
    """
    replay = run.calls[1:TRACE_CALLS[run.workload] + 1]
    before = layer_tracer.bindings()
    tr = layer_tracer.Tracer()
    tr.install()
    try:
        main = tr.wrap("cli.main", run.main)
        traced_seconds = []
        traced_rcs = []
        for call in replay:
            tr.call_id = call.index
            start = time.perf_counter()
            traced_rcs.append(invoke(main, call.with_out(f"traced_{call.out}")))
            traced_seconds.append(time.perf_counter() - start)
    finally:
        tr.restore()
    problems = [f"layer target missing: {name}" for name in tr.missing]
    problems += [f"binding not restored: {name}"
                 for name in layer_tracer.changed_bindings(before)]
    for call, rc in zip(replay, traced_rcs):
        data = Path(f"traced_{call.out}").read_bytes() if rc == 0 else b""
        if hashlib.sha256(data).hexdigest() != verdicts[call.index][0]:
            problems.append(f"call {call.index}: traced output differs from untraced")
    values = tr.metrics()
    for name, (_, _, mapped) in layer_tracer.LAYER_METRICS.items():
        if run.workload in mapped and not values[name]:
            problems.append(f"layer metric {name} is zero on its workload")
    items = sum(c.items for c in replay)
    untraced_ips = items / sum(run.seconds[c.index] for c in replay)
    traced_ips = items / sum(traced_seconds)
    report.update(traced_calls=[c.index for c in replay],
                  traced_seconds=traced_seconds,
                  trace_overhead=traced_ips / untraced_ips,
                  spans=tr.write_spans(span_path),
                  span_file=str(span_path.relative_to(ROOT)))
    units = {name: unit for name, (unit, _, _) in layer_tracer.LAYER_METRICS.items()}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_block()}
    work = WORK_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    os.environ.update(workloads.WORKLOADS[args.workload])
    cwd = os.getcwd()
    os.chdir(work)
    try:
        run = Run(args.workload, args.seed, cli.main)
        if args.trace:
            # the warm-up, then the prefix that is replayed traced
            while len(run.calls) < TRACE_CALLS[args.workload] + 1:
                run.step()
            verdicts = run.verdicts()
            metrics, problems = traced(run, verdicts, report, OUT_DIR / f"{tag}-spans.csv")
        else:
            # pooled calls run on several vCPUs: scale them by as many
            # reference chunks run at once
            workers = int(workloads.WORKLOADS[args.workload]["QML_WORKERS"])
            pool_ref = reference.Parallel(workers) if workers > 1 else None
            try:
                ref = pool_ref.chunk if pool_ref else reference.chunk
                probe = SetupProbe()
                try:
                    refs = closed_loop(run, args.seconds, ref, probe)
                    rss = peak_rss_mb()   # before the probes and helpers are reaped
                    setup = probe.top_up(ref)
                finally:
                    probe.close()
            finally:
                if pool_ref:
                    pool_ref.close()
            verdicts = run.verdicts()
            metrics, problems = end_to_end(run, verdicts, refs, setup, rss, report), []
        report["inputs_sha256"] = run.input_digest()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for _, err in verdicts if err is not None)
    report.update(
        calls=[{"index": c.index, "argv": c.argv, "seconds": s, "rc": rc,
                "output_sha256": sha, "error": err}
               for c, s, rc, (sha, err) in zip(run.calls, run.seconds, run.rcs, verdicts)],
        attempted=len(run.calls), failed=failed,
        failed_ratio=failed / len(run.calls), problems=problems, metrics=metrics)
    report["env"]["loadavg_end"] = list(os.getloadavg())
    report_path = OUT_DIR / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for p in problems:
        print(f"perfbench: {p}")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(run.calls)} calls, "
          f"{failed} failed; report in {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(run.calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
