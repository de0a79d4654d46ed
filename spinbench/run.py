"""Wall-clock benchmark of spinref: one closed-loop caller, one workload per run.

    python3 spinbench/run.py --workload direct --seed 1 --seconds 25 --trace 0

Run from anywhere; it benchmarks the spinref in ``src/`` of the checkout that
holds this file, and exits 2 without a result when there is none.  The
process is single-threaded (BLAS/OpenMP pinned to one thread) and runs one op
at a time.

``--trace 0`` measures set-up (several fresh processes, each timed from spawn
to the end of its first checked op), then runs checked ops for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced ops and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 5
# seconds each HostSpeed kernel part takes on the reference host, an idle
# 2-vCPU Intel Xeon (Python 3.11, numpy 2.4)
REFERENCE_S = 0.010
# ops counted into the exact counters; every run makes at least this many
EXACT_OPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# per workload, the HostSpeed kernel parts that together slow down like it does
KERNELS = {
    "direct": ("numpy",),
    "blocks": ("numpy",),
    "verify": ("interpreter", "numpy"),
    "compile": ("interpreter",),
}

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
    "sim_bits_per_s": "bit/s",
    "cases_per_s": "1/s",
    "steps_per_s": "1/s",
}


def load_spinref():
    """Pin BLAS/OpenMP to one thread, then import spinref from the checkout's
    ``src/``; raise ImportError when it is not there."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import spinref

    if Path(spinref.__file__).resolve().parent.parent != src:
        raise ImportError(f"spinref comes from {spinref.__file__}, not from {src}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_bytes(level):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level):
                size = (index / "size").read_text().strip()
                if size.endswith("K"):
                    return int(size[:-1]) * 1024
                return int(size)
    except (OSError, ValueError):
        pass
    return None


def host_record():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }


class _Shift:
    __slots__ = ("step",)

    def __init__(self, step):
        self.step = step


class _Gate:
    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table


class HostSpeed:
    """Tracks the host's speed with a fixed kernel timed between ops.

    On a shared host, speed drifts by tens of percent within seconds, which is
    more than the changes worth measuring.  So each op's wall time is
    multiplied by the kernel's reference time over its time, averaged over
    the timings just before and just after the op: times read as seconds on
    a host where each kernel part takes REFERENCE_S.  A slow spell slows
    interpreter dispatch more than numpy passes, so the kernel is made of the
    parts whose mix of work is closest to its workload's (KERNELS).  It is the
    benchmark's own code, so no change to spinref moves it.
    """

    def __init__(self, parts):
        import numpy

        self._np = numpy
        self._small = numpy.arange(64, dtype=numpy.uint8)
        self._big = (numpy.arange(1 << 21, dtype=numpy.int64) * 7919) % 1000
        self._cells = numpy.zeros(64, dtype=numpy.uint8)
        self._program = [_Gate((0, 3, 2, 1)) if i % 3 == 0 else _Shift(1) for i in range(42_000)]
        kernels = {"interpreter": self._interpreter, "numpy": self._numpy}
        self._kernels = [kernels[part] for part in parts]

    def _interpreter(self):
        """A tape-machine dispatch loop, like ``machine.execute``."""
        cells, head, n = self._cells, 0, len(self._cells)
        for ins in self._program:
            if isinstance(ins, _Shift):
                head = (head + ins.step) % n
            elif isinstance(ins, _Gate):
                i0, i1 = head, (head + 1) % n
                out = ins.table[(int(cells[i0]) << 1) | int(cells[i1])]
                cells[i0], cells[i1] = (out >> 1) & 1, out & 1

    def _numpy(self):
        """Small numpy calls from a Python loop, then passes over 16 MB."""
        small, total = self._small, 0
        for i in range(1500):
            total += int(small[i % 64]) ^ i
            total += int(small[i % 5 :: 3].sum())
        for _ in range(2):
            total += int((self._big[1::2] > 500).sum())
            total += int(self._np.sort(self._big[: 1 << 15])[-1])

    def scale(self):
        """REFERENCE_S per part over the kernel's time now."""
        start = time.perf_counter()
        for kernel in self._kernels:
            kernel()
        return REFERENCE_S * len(self._kernels) / (time.perf_counter() - start)


def setup_times(workload, seed):
    """Scaled seconds from spawning a fresh process to the end of its first
    checked op, SETUP_RUNS times; and how many of those ops failed.

    The probe times HostSpeed itself after it reports, so the scale comes
    from the same process as the set-up it corrects."""
    times, failed = [], 0
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            scale = proc.stdout.read()
            proc.wait()
        if line.strip() == "ok" and proc.returncode == 0:
            times.append(seconds * float(scale))
        else:
            failed += 1
    return times, failed


@dataclass
class Op:
    wall: float  # seconds
    scale: float  # HostSpeed scale just before the op
    result: object  # workloads.OpResult, None when the op failed
    traced: bool
    seconds: float = 0.0  # wall times the mean scale before and after the op


class Run:
    """The ops of one run, closed loop: each op starts when the last ended."""

    def __init__(self, op, seed, tracer, speed):
        self.op, self.seed, self.tracer, self.speed = op, seed, tracer, speed
        self.ops = []
        self.layers = []  # per traced op: per-layer metrics
        self.splits = []  # per traced op: per-span split
        self.failed = 0

    def _timed_op(self, index):
        start = time.perf_counter()
        try:
            result = self.op(self.seed, index)
        except Exception:  # a raising op is a failed op; keep measuring
            result = None
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
        return time.perf_counter() - start, result

    def _scale(self):
        """Time HostSpeed; it also closes the last op, whose host speed may
        have changed while it ran."""
        scale = self.speed.scale()
        if self.ops:
            last = self.ops[-1]
            last.seconds = last.wall * (last.scale + scale) / 2
        return scale

    def step(self, index, traced):
        scale = self._scale()
        if traced:
            self.tracer.reset()
            with self.tracer:
                wall, result = self._timed_op(index)
            if result is not None:
                self.layers.append(self.tracer.metrics(scale))
                self.splits.append(self.tracer.split(scale))
        else:
            wall, result = self._timed_op(index)
        self.ops.append(Op(wall, scale, result, traced))

    def loop(self, seconds, trace):
        """Op 0 warms up untimed; then ops 1, 2, ... until ``seconds`` have
        passed and at least EXACT_OPS ops ran (odd ops traced when ``trace``)."""
        self.step(0, False)
        start = time.perf_counter()
        index = 1
        while time.perf_counter() - start < seconds or index <= EXACT_OPS:
            self.step(index, trace and index % 2 == 1)
            index += 1
        self._scale()

    def timed(self, traced):
        return [op for op in self.ops[1:] if op.traced == traced and op.result is not None]

    def exact(self):
        """Median exact counters of ops 0 .. EXACT_OPS-1, which every run makes."""
        first = [op.result.exact for op in self.ops[:EXACT_OPS] if op.result is not None]
        return {k: statistics.median(e[k] for e in first) for k in first[0]} if first else {}


def end_to_end(run, setup):
    ops = run.timed(False)
    seconds = [op.seconds for op in ops]
    values = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(seconds),
        "op_s_p90": statistics.quantiles(seconds, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_bits_per_s": statistics.median(op.result.bits / op.seconds for op in ops),
        "cases_per_s": statistics.median(op.result.cases / op.seconds for op in ops),
        "steps_per_s": statistics.median(op.result.steps / op.seconds for op in ops),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(run, units):
    units = dict(units)
    values = {k: statistics.median(layer[k] for layer in run.layers) for k in units}
    exact = run.exact()
    values.update(exact)
    units.update(dict.fromkeys(exact, "count"))
    done = [op.result for op in run.ops if op.result is not None]
    values["cooling.stray_ops_frac"] = sum(r.exact["cooling.stray_ones"] > 0 for r in done) / len(done)
    units["cooling.stray_ops_frac"] = "frac"
    traced = statistics.median(op.seconds for op in run.timed(True))
    plain = statistics.median(op.seconds for op in run.timed(False))
    values["trace.overhead_frac"] = traced / plain - 1.0
    units["trace.overhead_frac"] = "frac"
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=KERNELS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        load_spinref()
    except ImportError as exc:
        print(f"spinbench: cannot import spinref from this checkout: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    print("host", json.dumps(host_record(), sort_keys=True))
    speed = HostSpeed(KERNELS[args.workload])
    setup, setup_failed = ([], 0) if args.trace else setup_times(args.workload, args.seed)
    run = Run(workloads.WORKLOADS[args.workload], args.seed, tracing.Tracer(), speed)
    run.loop(args.seconds, bool(args.trace))

    failed = run.failed + setup_failed
    attempted = len(run.ops) + len(setup) + setup_failed
    untraced = run.timed(False)
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
        f"{len(run.timed(True))} traced timed ops, failed {failed} of {attempted} "
        f"(fail_frac {failed / attempted:.4g})"
    )
    measured = run.layers if args.trace else setup
    if not untraced or not measured:
        metrics = {}  # every op failed: nothing to measure
    elif args.trace:
        metrics = per_layer(run, tracing.UNITS)
        print("split: span, median scaled self ms per op, median calls per op")
        split = tracing.median_split(run.splits)
        for name, (own, calls) in sorted(split.items(), key=lambda kv: -kv[1][0]):
            print(f"  {name:36s} {own:10.3f} {calls:8.0f}")
    else:
        metrics = end_to_end(run, setup)
        print(f"untraced op wall p50 {statistics.median(op.wall for op in untraced):.4f} s")
        print("setup probes (scaled s)", " ".join(f"{t:.4f}" for t in setup))
    print("exact", json.dumps(run.exact(), sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
