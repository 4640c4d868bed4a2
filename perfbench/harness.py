"""Shared pieces of the benchmark: building the program from source,
running its commands under a timer, and turning the timings of one run
into the benchmark's metrics.

Every timed command is one *operation* of some *kind* (a model, a warm
sweep, a daemon request type). A workload's operation mix runs each
kind once per *pass*, so the cost of one pass is the sum over kinds of
that kind's median cost; per-layer figures are summed the same way.
"""

import json
import os
import shutil
import statistics
import subprocess
import tempfile
import threading
import time
from collections import defaultdict

TARGETS = ("canonsim", "canond", "canonctl")

#: A single command that runs longer than this is a hang, not a sample.
COMMAND_TIMEOUT_S = 120

#: A clean build of the three targets takes about a minute on 4 cores.
BUILD_TIMEOUT_S = 840

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: The calibration kernel's cycle count, the CPU seconds it takes on
#: the reference host, and the most time left between two calibrations.
CALIBRATION_CYCLES = "6000"
CALIBRATION_REF_S = 0.040
CALIBRATION_EVERY_S = 0.5

END_TO_END_UNITS = {
    "pass_cpu_s": "s",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "client_self_ms": "ms",
    "sim_ms": "ms",
    "canon_sim_ms": "ms",
    "baselines_ms": "ms",
    "sim_cycles": "count",
    "sim_ns_per_cycle": "ns",
    "cache_probe_ms": "ms",
    "cache_hits": "count",
    "cache_misses": "count",
    "cache_hit_ratio": "ratio",
    "admission_wait_ms": "ms",
    "service_exec_ms": "ms",
    "service_cpu_ms": "ms",
}


class BenchError(Exception):
    """A failure that ends the run without printing a result."""


class Programs:
    """Paths of the built binaries and of the build directory."""

    def __init__(self, out, calib_out):
        self.out = out
        self.canonsim, self.canond, self.canonctl = (
            os.path.join(out, t) for t in TARGETS)
        self.calibrate = os.path.join(calib_out, "calibrate")


def build(root):
    """Configure (once) and build, Release, the benchmarked binaries and
    the benchmark's own calibration kernel."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt in %s: nothing to build" % root)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                       or ".bench_build")
    calib_out = os.path.join(out, "perfbench-calib")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    for src, dst, targets in ((root, out, TARGETS),
                              (os.path.join(root, "perfbench", "calib"),
                               calib_out, ("calibrate",))):
        if not os.path.isfile(os.path.join(dst, "CMakeCache.txt")):
            steps.append(["cmake", "-S", src, "-B", dst,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", dst, "--target", *targets, "-j",
                      jobs])
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                raise BenchError("build step %s exited %d; see %s"
                                 % (cmd[:2], rc, log_path))
    return Programs(out, calib_out)


class Workdir:
    """A scratch directory inside the build directory, removed on exit."""

    def __init__(self, programs, name):
        self.path = os.path.join(programs.out, "perfbench",
                                 "%s-%d" % (name, os.getpid()))

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def run(cmd, cwd):
    """Run @p cmd to completion in @p cwd.

    Returns (CompletedProcess, wall seconds, CPU seconds). The CPU time
    is the process's own user+system time, which on a shared host is
    far steadier than its wall time: time the host gives to other
    guests is counted in the wall time only.
    """
    timed_out = []

    def kill():
        timed_out.append(True)
        proc.kill()

    with tempfile.TemporaryFile("w+", dir=cwd) as out, \
            tempfile.TemporaryFile("w+", dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out:
            raise BenchError("timed out after %ds: %s"
                             % (COMMAND_TIMEOUT_S, " ".join(cmd)))
        out.seek(0)
        err.seek(0)
        return (subprocess.CompletedProcess(cmd, proc.returncode, out.read(),
                                            err.read()),
                wall, usage.ru_utime + usage.ru_stime)


class Book:
    """The operations of one run: per-kind samples and failure count.

    A sample is the operation's wall time, its CPU time and any layer
    times measured inside it, all in seconds, plus its start offset in
    the measured window. Safe to share between client threads.

    The book also keeps the host-speed calibrations of the run: CPU
    seconds of the calibration kernel, taken between operations. A CPU
    time is reported in reference-host seconds, scaled by the speed the
    nearest calibrations measured.
    """

    def __init__(self, programs, workload, seed, trace):
        self.programs = programs
        self.trace_path = os.path.join(
            programs.out, "perfbench",
            "trace-%s-seed%d.json" % (workload, seed)) if trace else None
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failures = []
        self.calibrations = []  # (time, kernel CPU seconds)
        self.start = time.perf_counter()
        self._lock = threading.Lock()

    def begin(self):
        """Start the measured window (after set-up)."""
        self.start = time.perf_counter()

    def calibrate(self, always=True):
        """Time the calibration kernel, unless (with @p always false) the
        last calibration is recent."""
        with self._lock:
            last = self.calibrations[-1][0] if self.calibrations else None
        now = time.perf_counter()
        if not always and last is not None and \
                now - last < CALIBRATION_EVERY_S:
            return
        p, wall, cpu = run([self.programs.calibrate, CALIBRATION_CYCLES],
                           self.programs.out)
        if p.returncode != 0:
            raise BenchError("calibration kernel exited %d" % p.returncode)
        with self._lock:
            self.calibrations.append((now + wall / 2, cpu))

    def speed(self, t0, t1=None):
        """Reference-host seconds per CPU second around [t0, t1]: from the
        calibrations inside it, or else the three nearest to it."""
        t1 = t0 if t1 is None else t1
        inside = [c for t, c in self.calibrations if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (t0 + t1) / 2
            inside = [c for _, c in sorted(
                self.calibrations, key=lambda tc: abs(tc[0] - mid))[:3]]
        return CALIBRATION_REF_S / statistics.median(inside)

    def record(self, kind, wall, error=None, **layers):
        """Count one operation; keep its sample only when it succeeded."""
        now = time.perf_counter()
        with self._lock:
            self.attempted += 1
            if error:
                self.failures.append("%s: %s" % (kind, error))
            else:
                self.samples[kind].append(dict(
                    layers, wall=wall, t=now - wall / 2,
                    at=now - self.start - wall))

    def check(self, what, ok):
        """Count a correctness check made outside any timed operation."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append("check: " + what)

    def per_pass(self, kinds, field="wall"):
        """Sum over @p kinds of the median of @p field."""
        total = 0.0
        for kind in kinds:
            values = [s[field] for s in self.samples.get(kind, ())]
            if values:
                total += statistics.median(values)
        return total

    def write_trace(self):
        """Dump every operation span, with its measured layer times."""
        spans = [dict(s, kind=k) for k, v in self.samples.items() for s in v]
        spans.sort(key=lambda s: s["at"])
        with open(self.trace_path, "w") as f:
            json.dump({"spans": spans, "failures": self.failures}, f,
                      indent=1)


def result(book, metrics, units):
    """The benchmark's one-line JSON result."""
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError("metrics not measured: %s" % sorted(missing))
    if book.trace_path:
        book.write_trace()
    return {
        "correct": not book.failures,
        "attempted": book.attempted,
        "failed": len(book.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def end_to_end(book, setups, shared_cpu=0.0, window=None):
    """The end-to-end metrics: the CPU seconds of one pass and of one
    set-up, in reference-host seconds. @p setups holds (time, CPU s)
    pairs. @p shared_cpu is CPU per pass spent outside the timed
    commands, in a daemon they talk to, during @p window (t0, t1)."""
    for samples in book.samples.values():
        for s in samples:
            s["ref_cpu"] = s["cpu"] * book.speed(s["t"])
    shared = shared_cpu * book.speed(*window) if shared_cpu else 0.0
    return {
        "pass_cpu_s": book.per_pass(list(book.samples), "ref_cpu") + shared,
        "setup_s": statistics.median(c * book.speed(t) for t, c in setups),
    }
