"""The benchmark's workloads. Each one takes the built programs, a seed,
a measuring time and the trace flag, runs, checks every output, and
returns the result dictionary.

- fig14-cold: every Figure-14 model on every architecture, through
  canonsim with no result cache. The simulation itself dominates, so
  this is where the cycle loop, the mapping, the baselines and the
  power model show. The cache is bypassed.
- sweep-warm: a 480-scenario canonsim sweep whose results are already
  in the cache, plus its dry-run plan. Nothing is simulated, so this
  is where the engine, the cache store and the report rendering show.
- canond-mixed: three closed-loop canonctl clients against one canond,
  each repeatedly submitting a warm 48-scenario sweep, a cold
  single-scenario request, a plan and a stats query. This is where
  admission, streaming and the shared engine under contention show.
"""

import json
import os
import random
import re
import signal
import subprocess
import threading
import time

from harness import (CALIBRATION_EVERY_S, END_TO_END_UNITS, PER_LAYER_UNITS,
                     SETUP_REPEATS, BenchError, Book, Workdir, end_to_end,
                     result, run)

ARCHS = ("canon", "systolic", "systolic24", "zed", "cgra")

#: canonsim's model names, each run at its canonical Figure-14 sparsity.
MODELS = ("resnet50", "llama8b-mlp", "llama8b-attn", "mistral7b-mlp",
          "mistral7b-attn", "longformer")

CACHE_LINE = re.compile(r"^cache: (\d+) hits, (\d+) misses, (\d+) stored; "
                        r"simulation jobs executed: (\d+)\n", re.M)
QUEUE_WAIT = re.compile(r"queue-wait (\d+) us")

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

STATS_JSON = "stats.json"
HOST_TIMERS = ["--host-timers", "--stats-json", STATS_JSON]


def split_cache_line(stdout):
    """(stdout without its cache line, (hits, misses, stored, executed))."""
    m = CACHE_LINE.search(stdout)
    if not m:
        return stdout, None
    return (stdout[:m.start()] + stdout[m.end():],
            tuple(int(g) for g in m.groups()))


def arch_rows(stdout):
    """Each architecture's stats-table cells, Cycles through Power."""
    rows = {}
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) >= 8 and cells[0] in ARCHS:
            rows[cells[0]] = cells[1:8]
    return rows


def host_layers(cwd, wall):
    """Layer times (s) and simulated cycles from a --host-timers dump."""
    path = os.path.join(cwd, STATS_JSON)
    with open(path) as f:
        doc = json.load(f)
    os.remove(path)
    us = {"queueWaitUs": 0, "cacheProbeUs": 0, "simUs": 0, "encodeUs": 0,
          "cacheStoreUs": 0}
    cycles = 0
    for scenario in doc["scenarios"]:
        for key in us:
            us[key] += scenario.get("host", {}).get(key, 0)
        cycles += sum(r["cycles"] for r in scenario.get("sim", {})
                      .get("runs", ()))
    # A scenario's queue wait is time spent running the scenarios ahead
    # of it, so it is left out of the split.
    del us["queueWaitUs"]
    return {
        "probe": us["cacheProbeUs"] / 1e6,
        "sim": us["simUs"] / 1e6,
        "self_time": wall - sum(us.values()) / 1e6,
        "cycles": cycles,
    }


def layer_metrics(book, **values):
    """Every per-layer metric; layers a workload does not reach read 0."""
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    metrics.update(values)
    return result(book, metrics, PER_LAYER_UNITS)


# ---------------------------------------------------------------------------
# fig14-cold
# ---------------------------------------------------------------------------

def fig14_cold(programs, seed, seconds, trace):
    rng = random.Random(seed)
    data_seed = str(rng.randrange(1, 2**31))
    book = Book(programs, "fig14-cold", seed, trace)
    # Traced runs also time each model's Canon simulation and its
    # baselines alone, which splits the scenario time by layer.
    splits = [("", "all")]
    if trace:
        splits += [("/canon", "canon"), ("/baselines", ",".join(ARCHS[1:]))]

    with Workdir(programs, "fig14-cold") as wd:
        # Set-up: expand, validate and plan the model list (no simulation).
        setups = []
        book.calibrate()
        for _ in range(SETUP_REPEATS):
            p, wall, cpu = run([programs.canonsim, "--dry-run", "--sweep",
                                "model=" + ",".join(MODELS), "--arch", "all",
                                "--seed", data_seed], wd)
            book.check("dry-run plans every model", p.returncode == 0
                       and p.stdout.count(" uncached") == len(MODELS))
            setups.append((time.perf_counter() - wall / 2, cpu))
        book.calibrate()

        tables = {}
        book.begin()
        while True:
            t_pass = time.perf_counter()
            for model in rng.sample(MODELS, len(MODELS)):
                for suffix, archs in splits:
                    book.calibrate(always=False)
                    cmd = [programs.canonsim, "--model", model, "--arch",
                           archs, "--seed", data_seed]
                    _model_op(book, model, suffix, cmd, wd, trace, tables)
            # Whole passes only: stop when another would overrun.
            pass_wall = time.perf_counter() - t_pass
            if time.perf_counter() - book.start + pass_wall > seconds:
                break
        book.calibrate()

    if not trace:
        return result(book, end_to_end(book, setups), END_TO_END_UNITS)
    whole = list(MODELS)
    canon = [m + "/canon" for m in MODELS]
    canon_sim = book.per_pass(canon, "sim")
    cycles = book.per_pass(canon, "cycles")
    return layer_metrics(
        book,
        client_self_ms=1e3 * book.per_pass(whole, "self_time"),
        sim_ms=1e3 * book.per_pass(whole, "sim"),
        canon_sim_ms=1e3 * canon_sim,
        baselines_ms=1e3 * book.per_pass(
            [m + "/baselines" for m in MODELS], "sim"),
        sim_cycles=cycles,
        sim_ns_per_cycle=1e9 * canon_sim / cycles if cycles else 0,
        cache_probe_ms=1e3 * book.per_pass(whole, "probe"))


def _model_op(book, model, suffix, cmd, cwd, trace, tables):
    """Run one model; its table must match the model's all-arch run."""
    kind = model + suffix
    p, wall, cpu = run(cmd + HOST_TIMERS if trace else cmd, cwd)
    if p.returncode != 0:
        book.record(kind, wall, "exit %d: %s" % (p.returncode,
                                                 p.stderr.strip()[-200:]))
        return
    rows = arch_rows(p.stdout)
    expected = tables.get(model)
    if not suffix and expected is None:
        expected = tables[model] = rows
    error = None
    if expected is None or "canon" not in expected:
        error = "no Canon row in the all-architecture table"
    else:
        want = set(expected)
        if suffix == "/canon":
            want = {"canon"}
        elif suffix == "/baselines":
            want.discard("canon")
        if set(rows) != want or any(rows[a] != expected[a] for a in rows):
            error = "table differs from the model's all-architecture run"
    book.record(kind, wall, error, cpu=cpu,
                **(host_layers(cwd, wall) if trace else {}))


# ---------------------------------------------------------------------------
# sweep-warm
# ---------------------------------------------------------------------------

SWEEP_SEEDS = 80


def sweep_warm(programs, seed, seconds, trace):
    rng = random.Random(seed)
    base = rng.randrange(1, 2**31 - SWEEP_SEEDS)
    scenarios = 2 * 3 * SWEEP_SEEDS
    sweep = [programs.canonsim, "--sweep", "workload=spmm,sddmm",
             "--sweep", "sparsity=0.5,0.7,0.9", "--sweep",
             "seed=" + ",".join(str(base + i) for i in range(SWEEP_SEEDS)),
             "--m", "64", "--k", "64", "--n", "32", "--arch", "all"]
    book = Book(programs, "sweep-warm", seed, trace)

    with Workdir(programs, "sweep-warm") as wd:
        # Set-up: fill a fresh cache by running the sweep cold.
        setups, cold = [], None
        book.calibrate()
        for i in range(SETUP_REPEATS):
            cache = "cache%d" % i
            p, wall, cpu = run(sweep + ["--cache-dir", cache, "--jobs", "2"],
                               wd)
            setups.append((time.perf_counter() - wall / 2, cpu))
            book.calibrate()
            body, stats = split_cache_line(p.stdout)
            cold = cold or body
            book.check("cold fill", p.returncode == 0 and body == cold and
                       stats == (0, scenarios, scenarios, scenarios))
        warm = sweep + ["--cache-dir", cache]
        forecast = ("dry-run forecast: %d hits, 0 misses; simulation jobs "
                    "to execute: 0\n" % scenarios)
        plan = None

        book.begin()
        while time.perf_counter() - book.start < seconds:
            for kind in rng.sample(("warm", "plan"), 2):
                book.calibrate(always=False)
                if kind == "warm":
                    p, wall, cpu = run(warm + HOST_TIMERS if trace else warm,
                                       wd)
                    body, stats = split_cache_line(p.stdout)
                    ok = (p.returncode == 0 and body == cold
                          and stats == (scenarios, 0, 0, 0))
                    layers = host_layers(wd, wall) if trace and ok else {}
                else:
                    p, wall, cpu = run(warm + ["--dry-run"], wd)
                    plan = plan or p.stdout
                    ok = (p.returncode == 0 and p.stdout == plan
                          and p.stdout.endswith(forecast))
                    layers = {}
                book.record(kind, wall, None if ok else
                            "output differs from the cold sweep", cpu=cpu,
                            **layers)
        book.calibrate()

    if not trace:
        return result(book, end_to_end(book, setups), END_TO_END_UNITS)
    return layer_metrics(
        book,
        client_self_ms=1e3 * (book.per_pass(["warm"], "self_time")
                              + book.per_pass(["plan"])),
        sim_ms=1e3 * book.per_pass(["warm"], "sim"),
        cache_probe_ms=1e3 * book.per_pass(["warm"], "probe"),
        cache_hits=scenarios,
        cache_hit_ratio=1.0)


# ---------------------------------------------------------------------------
# canond-mixed
# ---------------------------------------------------------------------------

CLIENTS = 3
WARM_SEEDS = 16
KINDS = ("warm", "cold", "plan", "stats")


class Daemon:
    """One canond on a fresh cache, started and polled until it answers."""

    def __init__(self, programs, cwd, tag):
        self.cwd = cwd
        sock = "d%d.sock" % tag
        self.ctl = [programs.canonctl, "--socket", sock]
        self.cpu = None  # lifetime CPU seconds, once reaped
        self.client_cpu = 0.0  # CPU of the readiness polls
        self._err = open(os.path.join(cwd, "canond%d.err" % tag), "w+")
        self._clean = None
        self.proc = subprocess.Popen(
            [programs.canond, "--socket", sock, "--jobs", "2",
             "--cache-dir", "cache%d" % tag, "--max-active", "2"],
            cwd=cwd, stdout=subprocess.DEVNULL, stderr=self._err)
        deadline = time.perf_counter() + 30
        while not self._answers(sock):
            if self._reap(block=False) or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("canond did not come up")
            time.sleep(0.002)

    def _answers(self, sock):
        if not os.path.exists(os.path.join(self.cwd, sock)):
            return False
        p, _, cpu = run(self.ctl + ["list"], self.cwd)
        self.client_cpu += cpu
        return p.returncode == 0

    def _reap(self, block):
        """Reap the daemon if it has exited; True once it has."""
        if self.proc.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid,
                                          0 if block else os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.cpu = usage.ru_utime + usage.ru_stime
        return self.proc.returncode is not None

    def cpu_now(self):
        """CPU seconds the running daemon has used (clock-tick grain)."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def stop(self):
        """SIGTERM, reap; True when it drained cleanly and exited 0."""
        if self._clean is None:
            if not self._reap(block=False):
                self.proc.send_signal(signal.SIGTERM)
                deadline = time.perf_counter() + 60
                while not self._reap(block=False):
                    if time.perf_counter() > deadline:
                        self.proc.kill()
                        self._reap(block=True)
                    time.sleep(0.005)
            self._err.seek(0)
            self._clean = (self.proc.returncode == 0
                           and "clean shutdown" in self._err.read())
            self._err.close()
        return self._clean

    def request(self, *args):
        """One canonctl call: (process, wall s, CPU s, queue wait s,
        stdout without its cache line, cache stats)."""
        p, wall, cpu = run(self.ctl + list(args), self.cwd)
        m = QUEUE_WAIT.search(p.stderr)
        body, stats = split_cache_line(p.stdout)
        return (p, wall, cpu, int(m.group(1)) / 1e6 if m else 0.0, body,
                stats)


def canond_mixed(programs, seed, seconds, trace):
    rng = random.Random(seed)
    warm_base = rng.randrange(1, 2**31 - WARM_SEEDS)
    warm_spec = ["--opt", "workload=spmm", "--opt", "m=64", "--opt", "k=64",
                 "--opt", "n=32", "--sweep", "sparsity=0.5,0.7,0.9",
                 "--sweep", "seed=" + ",".join(
                     str(warm_base + i) for i in range(WARM_SEEDS)),
                 "--arch", "all"]
    warm_n = 3 * WARM_SEEDS
    forecast = ("plan forecast: %d hits, 0 misses; simulation jobs to "
                "execute: 0\n" % warm_n)
    book = Book(programs, "canond-mixed", seed, trace)

    with Workdir(programs, "canond-mixed") as wd:
        daemon = None
        try:
            # Set-up: start a daemon on an empty cache and warm the sweep.
            # The last one serves the load; the others are stopped, so
            # their whole CPU time is known.
            setups, stream = [], None
            book.calibrate()
            for tag in range(SETUP_REPEATS + 1):
                t0 = time.perf_counter()
                daemon = Daemon(programs, wd, tag)
                p, _, cpu, _, body, stats = daemon.request(
                    "submit", "--client", "setup", *warm_spec)
                stream = stream or body
                book.check("warm-up fill", p.returncode == 0 and
                           body == stream and
                           stats == (0, warm_n, warm_n, warm_n))
                if tag == SETUP_REPEATS:
                    break
                book.check("canond drains cleanly", daemon.stop())
                setups.append(((t0 + time.perf_counter()) / 2,
                               daemon.cpu + daemon.client_cpu + cpu))
                book.calibrate()

            saved = []
            errors = []
            deadline = time.perf_counter() + seconds
            cold_base = rng.randrange(1, 2**31 - 10**6 * CLIENTS)
            threads = [threading.Thread(target=_client, args=(
                daemon, book, "c%d" % c, random.Random(rng.random()),
                cold_base + 10**6 * c, warm_spec, warm_n, stream, forecast,
                deadline, saved, errors)) for c in range(CLIENTS)]
            daemon_cpu = daemon.cpu_now()
            book.begin()
            for t in threads:
                t.start()
            while any(t.is_alive() for t in threads):
                book.calibrate()
                time.sleep(CALIBRATION_EVERY_S)
            for t in threads:
                t.join()
            daemon_cpu = daemon.cpu_now() - daemon_cpu
            window = (book.start, time.perf_counter())
            if errors:
                raise errors[0]

            # Cold results must come back identical once they are cached.
            for spec, body in saved:
                p, _, _, _, again, stats = daemon.request(
                    "submit", "--client", "verify", *spec)
                book.check("cold result replays from the cache",
                           p.returncode == 0 and again == body
                           and stats == (1, 0, 0, 0))
            p = daemon.request("stats")[0]
            book.check("no request rejected", p.returncode == 0 and
                       re.search(r"rejected\.\w+: [1-9]", p.stdout) is None)
        finally:
            if daemon:
                book.check("canond drains cleanly", daemon.stop())

    # Each client runs every kind once per round.
    rounds = sum(len(book.samples[k]) for k in KINDS) / len(KINDS)
    service_cpu = daemon_cpu / max(rounds, 1)
    if not trace:
        return result(book, end_to_end(book, setups, service_cpu, window),
                      END_TO_END_UNITS)
    client = book.per_pass(["stats"])
    submits = ["warm", "cold"]
    return layer_metrics(
        book,
        client_self_ms=1e3 * client,
        admission_wait_ms=1e3 * book.per_pass(submits, "wait"),
        service_exec_ms=1e3 * (book.per_pass(submits, "exec")
                               - len(submits) * client),
        service_cpu_ms=1e3 * service_cpu,
        cache_hits=warm_n,
        cache_misses=1,
        cache_hit_ratio=warm_n / (warm_n + 1))


def _client(daemon, book, name, crng, cold_seed, warm_spec, warm_n, stream,
            forecast, deadline, saved, errors):
    """One closed-loop client: every kind once per round, shuffled."""
    try:
        while time.perf_counter() < deadline:
            for kind in crng.sample(KINDS, len(KINDS)):
                if kind == "warm":
                    p, wall, cpu, wait, body, stats = daemon.request(
                        "submit", "--client", name, *warm_spec)
                    ok = (p.returncode == 0 and body == stream
                          and stats == (warm_n, 0, 0, 0))
                elif kind == "cold":
                    spec = ["--opt", "workload=spmm", "--opt", "m=128",
                            "--opt", "k=128", "--opt", "n=64", "--opt",
                            "seed=%d" % cold_seed, "--arch", "all"]
                    cold_seed += 1
                    p, wall, cpu, wait, body, stats = daemon.request(
                        "submit", "--client", name, *spec)
                    ok = (p.returncode == 0 and stats == (0, 1, 1, 1) and
                          "done: 1 scenarios, 0 failures" in body)
                    if ok and len(saved) < 2 * CLIENTS:
                        saved.append((spec, body))
                elif kind == "plan":
                    p, wall, cpu, wait, body, _ = daemon.request(
                        "plan", *warm_spec)
                    ok = p.returncode == 0 and body.endswith(forecast)
                else:
                    p, wall, cpu, wait, body, _ = daemon.request("stats")
                    ok = (p.returncode == 0 and
                          "service.requests.completed:" in body)
                book.record(kind, wall,
                            None if ok else "unexpected reply (exit %d)"
                            % p.returncode, cpu=cpu, wait=wait,
                            exec=wall - wait)
    except Exception as e:  # re-raised by the main thread
        errors.append(e)


WORKLOADS = {
    "fig14-cold": fig14_cold,
    "sweep-warm": sweep_warm,
    "canond-mixed": canond_mixed,
}
