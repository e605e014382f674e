"""End-to-end benchmark of the serving fabric and the paper registry.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_raft --seed 1 --seconds 10 --trace 0

Workloads: ``sweep_raft``, ``warm_read``, ``paper_registry`` and
``failover`` (README.md says why each exists).
Every run starts the system under test (``sut.py``) in its own process
three times and reports the median set-up time, measures the last one
for ``--seconds``, checks every output outside the timed window, and
prints one JSON object as its last stdout line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits
non-zero without a result when anything fails to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import helpers
from helpers import derive_seed, median, p50_or_zero, ratio, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUPS = 3  # set-ups per run; setup_s is their median
# The load generator and the system under test share one CPU: a process
# whose threads share one interpreter lock loses a varying share of its
# time handing the lock between cores, and on a busy virtual machine
# every wake-up across CPUs waits for the host.
CPU = sorted(os.sched_getaffinity(0))[-1]
RUN_DEADLINE_S = 170  # a hung run fails instead of blocking forever

SWEEP_SCENARIO = "random_game_audit"  # 5 sizes
SWEEP_REPLICATIONS = 40  # x 5 sizes = 200 units per sweep
SWEEP_UNITS = 200
WARM_REPLICATIONS = 2
JOB_POLL_S = 0.005  # fixed, finer than ServiceClient's 50 ms default
IDLE_WINDOW_S = 2.0
# Unit latency p90 spread 0.27 over ten runs on a 2-vCPU VM against
# 0.15 for p50: the two workers queue on one log, and queueing grows
# faster than the host slows.  p75 is the highest percentile expected
# to repeat.
SWEEP_TAIL_Q = 0.75

READ_CONNECTIONS = 2
# Enough uniform reads over N_BLOBS keys to fill the store's 4,096-entry LRU.
WARM_READS = helpers.N_BLOBS
BATCH = 200  # reads per batch for warm_read's sweep_ms_p50
# Off failover, outage_ms is the median over groups of 20 consecutive
# ops of the slowest one: the slowest of a whole sweep or of 200 reads is
# one draw from a heavy tail and moved 8x with the host's load.  In
# failover, sweep_ms_p50 is taken over groups of as many steady writes.
STALL_GROUP = 20

MIN_PASSES = 2  # two registry passes put >= 10 cases beyond p90

RESEND_FOR_S = 10.0
FIRST_KILL_S = 1.0
KILL_PERIOD_S = 1.0
WARM_WRITES = 20

LAYER_FAMILIES = {
    "robustness": "core",
    "scrip": "econ",
    "verify": "verify",
    "dist": "dist",
    "solvers": "solvers",
    "games": "games",
    "mediators": "mediators",
}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "sweep_ms_p50": "ms",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "outage_ms": "ms",
    "cpu_ms_per_op": "ms",
    "rss_peak_mb": "MB",
}

PER_LAYER = {
    "cluster.log.entries_per_unit": "count",
    "cluster.log.appends_per_unit": "count",
    "cluster.log.append_ms_p50": "ms",
    "cluster.log.idle_entries_per_s": "1/s",
    "cluster.replica.submit_ms_p50": "ms",
    "cluster.replica.submits_per_unit": "count",
    "cluster.replica.rpcs_per_unit": "count",
    "cluster.replica.rpc_ms_p50": "ms",
    "cluster.replica.handle_rpc_ms_p50": "ms",
    "cluster.coordinator.commands_per_unit": "count",
    "cluster.coordinator.apply_us_p50": "us",
    "cluster.worker.exec_ms_p50": "ms",
    "cluster.worker.empty_lease_frac": "1",
    "service.client.lease_ms_p50": "ms",
    "service.client.complete_ms_p50": "ms",
    "service.client.requests_per_unit": "count",
    "service.app.handle_us_p50": "us",
    "service.jobs.run_ms_p50": "ms",
    "service.jobs.overhead_ms_p50": "ms",
    "service.store.puts_per_unit": "count",
    "service.store.put_ms_p50": "ms",
    "service.store.get_us_p50": "us",
    "experiments.runner.overhead_ms_per_case": "ms",
    "core.pass_s": "s",
    "econ.pass_s": "s",
    "verify.pass_s": "s",
    "dist.pass_s": "s",
    "solvers.pass_s": "s",
    "games.pass_s": "s",
    "mediators.pass_s": "s",
    "failover.elect_ms_p50": "ms",
    "failover.client_ms_p50": "ms",
    "failover.elections_per_kill": "count",
    "failover.retries_per_kill": "count",
    "failover.redirects_per_kill": "count",
    "failover.catchup_ms_p50": "ms",
    "obs.trace_overhead_frac": "1",
    "failed_frac": "1",
}


class SutError(RuntimeError):
    """The system-under-test process failed or answered with an error."""


class Sut:
    """One system-under-test process and its JSON-lines control channel."""

    def __init__(self, workload: str, workdir: str, seed: int) -> None:
        os.makedirs(workdir)
        self.workdir = workdir
        self.log = open(os.path.join(workdir, "sut.log"), "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sut.py"), workload,
             workdir, str(seed), str(CPU)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=env,
            text=True,
            bufsize=1,
            cwd=ROOT,
        )
        self.ready = self._read()

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise SutError(
                f"system under test exited ({self.proc.poll()}); see "
                f"{os.path.relpath(self.log.name, ROOT)}"
            )
        reply = json.loads(line)
        if not reply.pop("ok"):
            raise SutError(reply["error"])
        return reply

    def call(self, cmd: str, **kwargs) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **kwargs}) + "\n")
        return self._read()

    def close(self) -> None:
        """Ask the process to tear down and exit; kill it if it will not."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write('{"cmd": "exit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.log.close()


def boot(
    workload: str, seed: int, workdir: str, warm: Callable[[Sut, int], Any]
) -> Tuple[Sut, Any, float]:
    """Set the system up SETUPS times; keep the last, return median set-up."""
    times = []
    for i in range(SETUPS):
        os.sync()  # earlier runs' dirty pages must not flush inside a timing
        started = time.monotonic()
        sut = Sut(workload, os.path.join(workdir, f"setup{i}"), seed)
        try:
            context = warm(sut, i)
        except BaseException:
            sut.close()
            raise
        times.append(time.monotonic() - started)
        if i < SETUPS - 1:
            sut.close()
    os.sync()
    return sut, context, median(times)


class Report:
    """Everything one run prints: metrics, counts, and human-readable notes."""

    def __init__(self) -> None:
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


def layer_rows(layers: Dict[str, Dict[str, Any]], ops: int) -> List[str]:
    """The traced run's per-layer table: counts and times per op."""
    lines = [
        f"{'layer call':40s} {'count/op':>9s} {'busy ms/op':>11s} "
        f"{'self ms/op':>11s} {'wait ms/op':>11s}"
    ]
    for name in sorted(layers):
        row = layers[name]
        lines.append(
            f"{name:40s} {row['count'] / ops:9.3f} "
            f"{1e3 * row['busy_s'] / ops:11.4f} "
            f"{1e3 * row['self_s'] / ops:11.4f} "
            f"{1e3 * row['wait_s'] / ops:11.4f}"
        )
    return lines


def fill_layers(
    report: Report,
    layers: Dict[str, Dict[str, Any]],
    units: int,
    replicas: int = 1,
) -> None:
    """Per-layer metrics that come straight from the traced calls.

    ``replicas`` is how many coordinator machines apply every command.
    """
    def get(name):
        return layers.get(name, {"count": 0, "tags": {}})

    def p50(name, scale, key="p50_s"):
        row = get(name)
        return row[key] * scale if row["count"] else 0.0

    m = report.per_layer
    m["cluster.log.appends_per_unit"] = ratio(
        get("cluster.log.append")["count"], units
    )
    m["cluster.log.append_ms_p50"] = p50("cluster.log.append", 1e3)
    m["cluster.replica.submit_ms_p50"] = p50(
        "cluster.replica.submit_command", 1e3
    )
    m["cluster.replica.submits_per_unit"] = ratio(
        get("cluster.replica.submit_command")["count"], units
    )
    m["cluster.replica.rpcs_per_unit"] = ratio(
        get("cluster.replica.raft_rpc")["count"], units
    )
    m["cluster.replica.rpc_ms_p50"] = p50("cluster.replica.raft_rpc", 1e3)
    m["cluster.replica.handle_rpc_ms_p50"] = p50(
        "cluster.replica.handle_rpc", 1e3
    )
    m["cluster.coordinator.commands_per_unit"] = ratio(
        get("cluster.coordinator.apply")["count"] / replicas, units
    )
    m["cluster.coordinator.apply_us_p50"] = p50(
        "cluster.coordinator.apply", 1e6
    )
    m["cluster.worker.exec_ms_p50"] = p50(
        "cluster.worker.run_unit", 1e3, "self_p50_s"
    )
    lease = get("service.client.lease")
    m["cluster.worker.empty_lease_frac"] = ratio(
        lease["tags"].get("empty", 0), lease["count"]
    )
    m["service.client.lease_ms_p50"] = p50("service.client.lease", 1e3)
    m["service.client.complete_ms_p50"] = p50("service.client.complete", 1e3)
    m["service.app.handle_us_p50"] = p50(
        "service.app.handle", 1e6, "self_p50_s"
    )
    m["service.store.puts_per_unit"] = ratio(
        get("service.store.put")["count"], units
    )
    m["service.store.put_ms_p50"] = p50("service.store.put", 1e3)
    m["service.store.get_us_p50"] = p50(
        "service.store.get_bytes_cached", 1e6
    )
    report.notes.extend(layer_rows(layers, max(units, 1)))


# -- sweep_raft ----------------------------------------------------------


class SweepWindow:
    """One timed stretch of back-to-back cold sweeps."""

    def __init__(self) -> None:
        self.sweeps: List[Dict[str, Any]] = []
        self.elapsed = 0.0
        self.cpu_s = 0.0
        self.maxrss_mb = 0.0
        self.units: List[Tuple[float, float]] = []
        self.log_entries = 0
        self.requests = 0
        self.replicas = 0

    @property
    def done_units(self) -> int:
        return sum(len(s["results"]) for s in self.sweeps if s["results"])

    @property
    def ops_per_s(self) -> float:
        return self.done_units / self.elapsed


def run_sweeps(sut: Sut, client, seeds, seconds: float) -> SweepWindow:
    """Submit sweeps one at a time over HTTP until ``seconds`` have passed."""
    from repro.service.client import ServiceError

    window = SweepWindow()
    sut.call("units")
    usage0, counters0 = sut.call("usage"), sut.call("counters")
    requests0 = client.stats()["requests"]
    started = time.monotonic()
    deadline = started + seconds
    while True:
        seed = next(seeds)
        sweep = {"seed": seed, "job": None, "results": None, "error": None}
        t0 = time.monotonic()
        try:
            submitted = client.submit_sweep(
                scenarios=[SWEEP_SCENARIO],
                replications=SWEEP_REPLICATIONS,
                base_seed=seed,
                executor="cluster",
            )
            status = client.wait_for_job(
                submitted["job_id"], timeout=120.0, poll=JOB_POLL_S
            )
            if status["status"] == "done":
                sweep["job"], sweep["results"] = client.results(
                    submitted["job_id"]
                )
            else:
                sweep["job"], sweep["error"] = status, status["error"]
        except (ServiceError, TimeoutError, OSError) as exc:
            sweep["error"] = f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        sweep["start"], sweep["end"] = t0, t1
        window.sweeps.append(sweep)
        if t1 >= deadline:
            break
    window.elapsed = t1 - started
    usage1, counters1 = sut.call("usage"), sut.call("counters")
    window.cpu_s = usage1["cpu_s"] - usage0["cpu_s"]
    window.maxrss_mb = usage1["maxrss_mb"]
    window.units = [tuple(s) for s in sut.call("units")["samples"]]
    window.log_entries = counters1["log_index"] - counters0["log_index"]
    window.replicas = counters1["replicas"]
    window.requests = (
        counters1["requests"] - counters0["requests"]
        + client.stats()["requests"] - requests0
    )
    return window


def check_sweeps(report: Report, windows: List[SweepWindow]) -> None:
    """Each sweep: 200 cold cases, byte-identical to a serial run."""
    from repro.experiments.runner import run_experiments

    for window in windows:
        for sweep in window.sweeps:
            report.attempted += SWEEP_UNITS
            if sweep["error"] is not None:
                report.fail(SWEEP_UNITS, f"sweep {sweep['seed']}: {sweep['error']}")
                continue
            job, results = sweep["job"], sweep["results"]
            if job["cache_misses"] != SWEEP_UNITS or len(results) != SWEEP_UNITS:
                report.fail(
                    SWEEP_UNITS,
                    f"sweep {sweep['seed']}: {len(results)} rows, "
                    f"{job['cache_misses']} cache misses",
                )
                continue
            serial = run_experiments(
                scenarios=[SWEEP_SCENARIO],
                replications=SWEEP_REPLICATIONS,
                base_seed=sweep["seed"],
            )
            wrong = sum(
                a.payload_dict() != b.payload_dict()
                for a, b in zip(results, serial)
            )
            if wrong:
                report.fail(wrong, f"sweep {sweep['seed']}: {wrong} rows differ")


def sweep_metrics(report: Report, window: SweepWindow, setup_s: float) -> None:
    by_end = sorted(window.units, key=lambda unit: unit[1])
    latencies = [1e3 * (end - start) for start, end in by_end]
    units = window.done_units
    report.end_to_end.update(
        setup_s=setup_s,
        ops_per_s=window.ops_per_s,
        sweep_ms_p50=median(
            1e3 * (s["end"] - s["start"]) for s in window.sweeps
        ),
        op_ms_p50=median(latencies),
        op_ms_tail=tail(latencies, SWEEP_TAIL_Q),
        outage_ms=median(
            max(group) for group in helpers.batches(latencies, STALL_GROUP)
        ),
        cpu_ms_per_op=1e3 * window.cpu_s / units,
        rss_peak_mb=window.maxrss_mb,
    )
    report.notes.append(
        f"{len(window.sweeps)} sweeps, {units} units, "
        f"{len(latencies)} unit latencies"
    )


def workload_sweeps(args, report: Report, workdir: str) -> None:
    from repro.service.client import ServiceClient

    def warm(sut: Sut, i: int):
        client = ServiceClient(sut.ready["urls"], timeout=120.0)
        job, results = client.run_sweep(
            scenarios=[SWEEP_SCENARIO],
            replications=WARM_REPLICATIONS,
            base_seed=derive_seed(args.seed, "warm-up", i),
            executor="cluster",
            timeout=120.0,
        )
        if len(results) != 5 * WARM_REPLICATIONS:
            raise SutError(f"warm-up sweep returned {len(results)} rows")
        return client

    sut, client, setup_s = boot(args.workload, args.seed, workdir, warm)
    seeds = iter(helpers.sweep_seeds(args.seed, "sweep", 10_000))
    try:
        if not args.trace:
            window = run_sweeps(sut, client, seeds, args.seconds)
            check_sweeps(report, [window])
            sweep_metrics(report, window, setup_s)
            return
        plain = run_sweeps(sut, client, seeds, args.seconds / 2)
        sut.call("trace_on")
        traced = run_sweeps(sut, client, seeds, args.seconds / 2)
        layers = sut.call("trace_off")["layers"]
        before = sut.call("counters")["log_index"]
        time.sleep(IDLE_WINDOW_S)
        idle = sut.call("counters")["log_index"] - before
    finally:
        sut.close()
    check_sweeps(report, [plain, traced])
    units = traced.done_units
    fill_layers(report, layers, units, max(traced.replicas, 1))
    m = report.per_layer
    m["cluster.log.entries_per_unit"] = ratio(traced.log_entries, units)
    m["cluster.log.idle_entries_per_s"] = idle / IDLE_WINDOW_S
    m["service.client.requests_per_unit"] = ratio(traced.requests, units)
    done = [s for s in traced.sweeps if s["job"] and s["job"]["elapsed"]]
    m["service.jobs.run_ms_p50"] = p50_or_zero(
        [s["job"]["elapsed"] for s in done], 1e3
    )
    m["service.jobs.overhead_ms_p50"] = p50_or_zero(
        [s["end"] - s["start"] - s["job"]["elapsed"] for s in done], 1e3
    )
    m["obs.trace_overhead_frac"] = plain.ops_per_s / traced.ops_per_s - 1.0


# -- warm_read --------------------------------------------------------------


def fill_store(directory: str, seed: int) -> Tuple[List[bytes], List[bytes]]:
    """Store every blob under ``directory``; return their paths and bytes.

    The store is the data the service starts over, like a deployment's
    cache directory, so filling it is not part of the set-up time.
    """
    from repro.service.store import ResultStore, canonical_json

    store = ResultStore(directory)
    paths, bodies = [], []
    for index in range(helpers.N_BLOBS):
        row = helpers.blob_row(seed, index)
        key = store.key_for(
            row["scenario"], row["params"], seed, row["replication"]
        )
        store.put(key, row)
        paths.append(f"/v1/results/{key}".encode("ascii"))
        bodies.append((canonical_json(row) + "\n").encode("utf-8"))
    return paths, bodies


class RawGet:
    """A minimal keep-alive HTTP/1.1 GET client on one socket.

    Lighter than ``http.client`` so that, on a two-core machine, the
    closed loop measures the server rather than the load generator.
    """

    def __init__(self, url: str) -> None:
        host, port = url.split("//", 1)[1].split(":")
        self.sock = socket.create_connection((host, int(port)), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        self.buf = b""

    def get(self, path: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(b"GET " + path + b" HTTP/1.1\r\nHost: bench\r\n\r\n")
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _sep, rest = self.buf.partition(b"\r\n\r\n")
        length = None
        for line in head.split(b"\r\n")[1:]:
            name, _colon, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        if length is None:
            raise OSError("response without Content-Length")
        self.buf = rest
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return int(head[9:12]), body

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise OSError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


def read_loop(url, paths, indices, deadline, out, count=None) -> None:
    """Closed loop of GETs on one keep-alive connection.

    Appends ``(start, end, index, status, body)`` per read to ``out``;
    stops at ``deadline`` or after ``count`` reads.
    """
    conn = RawGet(url)
    try:
        done = 0
        while count is None or done < count:
            index = next(indices)
            start = time.monotonic()
            status, body = conn.get(paths[index])
            end = time.monotonic()
            out.append((start, end, index, status, body))
            done += 1
            if end >= deadline:
                break
    finally:
        conn.close()


def run_reads(sut: Sut, paths, streams, seconds: float, count=None):
    """READ_CONNECTIONS reader threads; returns (reads per connection, elapsed, cpu)."""
    usage0 = sut.call("usage")
    url = sut.ready["urls"][0]
    outs: List[list] = [[] for _ in streams]
    started = time.monotonic()
    deadline = started + seconds
    threads = [
        threading.Thread(
            target=read_loop, args=(url, paths, stream, deadline, out, count)
        )
        for stream, out in zip(streams, outs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(out[-1][1] for out in outs) - started
    usage1 = sut.call("usage")
    return outs, elapsed, usage1["cpu_s"] - usage0["cpu_s"], usage1["maxrss_mb"]


def check_reads(report: Report, outs, bodies) -> None:
    for out in outs:
        report.attempted += len(out)
        bad = sum(
            1 for _s, _e, index, status, body in out
            if status != 200 or body != bodies[index]
        )
        if bad:
            report.fail(bad, f"{bad} reads returned the wrong status or bytes")


def workload_warm_read(args, report: Report, workdir: str) -> None:
    paths, bodies = fill_store(os.path.join(workdir, "store"), args.seed)
    streams = [
        helpers.key_indices(args.seed, c, len(paths))
        for c in range(READ_CONNECTIONS)
    ]

    def warm(sut: Sut, i: int):
        warm_streams = [
            helpers.key_indices(derive_seed(args.seed, "warm-up", i), c, len(paths))
            for c in range(READ_CONNECTIONS)
        ]
        outs, _e, _c, _r = run_reads(
            sut, paths, warm_streams, 60.0, WARM_READS // READ_CONNECTIONS
        )
        checked = Report()
        check_reads(checked, outs, bodies)
        if checked.failed:
            raise SutError(f"warm-up: {'; '.join(checked.problems)}")
        return None

    sut, _ctx, setup_s = boot(args.workload, args.seed, workdir, warm)
    try:
        if args.trace:
            plain = run_reads(sut, paths, streams, args.seconds / 2)
            sut.call("trace_on")
            traced = run_reads(sut, paths, streams, args.seconds / 2)
            layers = sut.call("trace_off")["layers"]
        else:
            plain = run_reads(sut, paths, streams, args.seconds)
    finally:
        sut.close()
    if args.trace:
        check_reads(report, plain[0] + traced[0], bodies)
        reads = sum(len(out) for out in traced[0])
        fill_layers(report, layers, reads)
        report.per_layer["service.client.requests_per_unit"] = 1.0
        report.per_layer["obs.trace_overhead_frac"] = (
            sum(len(o) for o in plain[0]) / plain[1]
        ) / (reads / traced[1]) - 1.0
        return
    outs, elapsed, cpu_s, rss = plain
    check_reads(report, outs, bodies)
    latencies = [1e3 * (e - s) for out in outs for s, e, *_ in out]
    groups = [
        batch for out in outs for batch in helpers.batches(out, BATCH)
    ]
    reads = len(latencies)
    report.end_to_end.update(
        setup_s=setup_s,
        ops_per_s=reads / elapsed,
        sweep_ms_p50=median(1e3 * (b[-1][1] - b[0][0]) for b in groups),
        op_ms_p50=median(latencies),
        op_ms_tail=tail(latencies),
        outage_ms=median(
            max(1e3 * (e - s) for s, e, *_ in group)
            for out in outs
            for group in helpers.batches(out, STALL_GROUP)
        ),
        cpu_ms_per_op=1e3 * cpu_s / reads,
        rss_peak_mb=rss,
    )
    report.notes.append(f"{reads} reads on {READ_CONNECTIONS} connections")


# -- paper_registry ------------------------------------------------------------


def run_passes(sut: Sut, seeds, seconds: float, minimum: int):
    """Whole registry passes until ``seconds`` and ``minimum`` are both met."""
    usage0 = sut.call("usage")
    started = time.monotonic()
    passes = []
    while True:
        seed = next(seeds)
        result = sut.call("pass", base_seed=seed)
        result["seed"] = seed
        passes.append(result)
        if len(passes) >= minimum and time.monotonic() - started >= seconds:
            break
    elapsed = time.monotonic() - started
    usage1 = sut.call("usage")
    return passes, elapsed, usage1["cpu_s"] - usage0["cpu_s"], usage1["maxrss_mb"]


def pass_digest(result: Dict[str, Any]) -> str:
    return hashlib.sha256(
        "\n".join(row[3] for row in result["rows"]).encode("utf-8")
    ).hexdigest()


def check_passes(report: Report, sut: Sut, passes, registry) -> None:
    """Every pass is complete and cold; a re-run reproduces its rows."""
    for result in passes:
        report.attempted += registry["cases"]
        report.notes.append(
            f"pass seed {result['seed']}: {result['cases']} cases, "
            f"digest {pass_digest(result)[:16]}"
        )
        if result["cases"] != registry["cases"] or (
            result["cache_misses"] != result["cases"]
        ):
            report.fail(
                registry["cases"],
                f"pass {result['seed']}: {result['cases']} cases, "
                f"{result['cache_misses']} cold",
            )
    # Determinism: the cheap families of the first pass, run again.
    first = passes[0]
    cheap = ["dist", "games", "mediators", "robustness", "solvers"]
    again = sut.call("pass", base_seed=first["seed"], families=cheap)
    expected = {row[3] for row in first["rows"] if row[0] in cheap}
    wrong = sum(row[3] not in expected for row in again["rows"])
    if wrong or len(again["rows"]) != len(expected):
        report.fail(
            max(wrong, 1), f"re-run of pass {first['seed']}: {wrong} rows differ"
        )


def workload_paper_registry(args, report: Report, workdir: str) -> None:
    sut, _ctx, setup_s = boot(
        args.workload, args.seed, workdir, lambda sut, i: None
    )
    seeds = iter(helpers.sweep_seeds(args.seed, "pass", 1000))
    try:
        registry = sut.call("registry")
        if args.trace:
            plain = run_passes(sut, seeds, 0.0, 1)
            sut.call("trace_on")
            traced = run_passes(sut, seeds, 0.0, 1)
            layers = sut.call("trace_off")["layers"]
            check_passes(report, sut, plain[0] + traced[0], registry)
        else:
            plain = run_passes(sut, seeds, args.seconds, MIN_PASSES)
            check_passes(report, sut, plain[0], registry)
    finally:
        sut.close()
    passes, elapsed, cpu_s, rss = plain
    cases = sum(p["cases"] for p in passes)
    if args.trace:
        every = passes + traced[0]
        fill_layers(report, layers, sum(p["cases"] for p in traced[0]))
        m = report.per_layer
        m["experiments.runner.overhead_ms_per_case"] = median(
            1e3 * (p["wall_s"] - sum(r[2] for r in p["rows"])) / p["cases"]
            for p in every
        )
        for family, layer in LAYER_FAMILIES.items():
            m[f"{layer}.pass_s"] = median(
                sum(r[2] for r in p["rows"] if r[0] == family) for p in every
            )
        traced_rate = sum(p["cases"] for p in traced[0]) / traced[1]
        m["obs.trace_overhead_frac"] = (cases / elapsed) / traced_rate - 1.0
        return
    case_ms = [1e3 * row[2] for p in passes for row in p["rows"]]
    report.end_to_end.update(
        setup_s=setup_s,
        ops_per_s=cases / elapsed,
        sweep_ms_p50=median(1e3 * p["wall_s"] for p in passes),
        op_ms_p50=median(1e3 * p["wall_s"] / p["cases"] for p in passes),
        op_ms_tail=tail(case_ms),
        outage_ms=median(
            max(group) for group in helpers.batches(case_ms, STALL_GROUP)
        ),
        cpu_ms_per_op=1e3 * cpu_s / cases,
        rss_peak_mb=rss,
    )
    report.notes.append(f"{len(passes)} passes, {cases} cases")


# -- failover --------------------------------------------------------------------


class WriteWindow:
    """A closed-loop stretch of back-to-back writes with leader kills.

    Each write is a dict: ``sent``, ``ack`` (None if it raised) and
    ``waited``: it waited on an outage, because it was the first write
    after a kill or needed a client retry, redirect or resend.
    """

    def __init__(self) -> None:
        self.writes: List[Dict[str, Any]] = []
        self.kills: List[Dict[str, Any]] = []
        self.elapsed = 0.0
        self.cpu_s = 0.0
        self.maxrss_mb = 0.0
        self.resends = 0
        self.log_entries = 0
        self.requests = 0

    @property
    def acked(self) -> List[Dict[str, Any]]:
        return [w for w in self.writes if w["ack"] is not None]

    @property
    def steady(self) -> List[Dict[str, Any]]:
        """Acknowledged writes that did not wait on an outage."""
        return [w for w in self.acked if not w["waited"]]

    @property
    def group_service_s(self) -> List[float]:
        """Summed service time of each STALL_GROUP consecutive steady writes."""
        service = [w["ack"] - w["sent"] for w in self.steady]
        return [sum(group) for group in helpers.batches(service, STALL_GROUP)]

    @property
    def ops_per_s(self) -> float:
        """Writes per second between outages.

        The median over groups of steady writes, so that a host stall
        that slows a few writes moves a few groups, not the whole figure.
        """
        return median(STALL_GROUP / s for s in self.group_service_s)


def run_writes(sut: Sut, client, worker_id: str, seconds: float) -> WriteWindow:
    """Re-register ``worker_id`` back to back; kill the leader on schedule.

    A closed loop, like every caller of the fabric: the next write is
    sent when the previous one is acknowledged.  Kills happen between
    writes, so no write is ever in flight on the victim.
    """
    from repro.service.client import ServiceError

    window = WriteWindow()
    usage0, status0 = sut.call("usage"), sut.call("status")
    requests0 = client.stats()["requests"]
    started = time.monotonic()
    end = started + seconds
    # The last kill leaves a whole period for the fabric to recover
    # before the writes stop.
    kill_at = [
        started + FIRST_KILL_S + k * KILL_PERIOD_S
        for k in range(int(seconds / KILL_PERIOD_S) + 1)
        if FIRST_KILL_S + (k + 1) * KILL_PERIOD_S <= seconds
    ]
    while True:
        now = time.monotonic()
        if now >= end:
            break
        write = {"ack": None, "waited": False}
        while kill_at and kill_at[0] <= now:
            kill_at.pop(0)
            stats = client.stats()
            killed = sut.call("kill")
            killed.update(
                retries=stats["retries"], redirects=stats["redirects_followed"]
            )
            window.kills.append(killed)
            write["waited"] = True
        before = client.stats()
        write["sent"] = time.monotonic()
        while True:
            try:
                client.register_worker("bench-writer", worker_id=worker_id)
                write["ack"] = time.monotonic()
                break
            except ServiceError as exc:
                # The client gives up after a few refused connections or
                # leader hints that point at the dead leader; a caller
                # sends the write again.  Anything else is a failure.
                if exc.status not in (0, 421) or (
                    time.monotonic() - write["sent"] > RESEND_FOR_S
                ):
                    break
                window.resends += 1
                write["waited"] = True
        after = client.stats()
        if (
            after["retries"] != before["retries"]
            or after["redirects_followed"] != before["redirects_followed"]
        ):
            write["waited"] = True
        window.writes.append(write)
    window.elapsed = time.monotonic() - started
    usage1, status1 = sut.call("usage"), sut.call("status")
    window.cpu_s = usage1["cpu_s"] - usage0["cpu_s"]
    window.maxrss_mb = usage1["maxrss_mb"]
    window.log_entries = status1.get("last_log_index", 0) - status0["last_log_index"]
    stats = client.stats()
    window.requests = stats["requests"] - requests0
    for kill, following in zip(window.kills, window.kills[1:] + [None]):
        nxt = following or {
            "retries": stats["retries"], "redirects": stats["redirects_followed"]
        }
        kill["retries_after"] = nxt["retries"] - kill["retries"]
        kill["redirects_after"] = nxt["redirects"] - kill["redirects"]
        kill["first_ack"] = min(
            (w["ack"] for w in window.acked if w["ack"] > kill["killed_at"]),
            default=None,
        )
    return window


def check_failover(
    report: Report, sut: Sut, windows: List[WriteWindow], base_index: int
) -> List[Dict[str, Any]]:
    """Writes acknowledged, recoveries complete, replicas agree at the end."""
    records = sut.call("kills")["records"]
    acked = 0
    for window in windows:
        report.attempted += len(window.writes)
        lost = len(window.writes) - len(window.acked)
        if lost:
            report.fail(lost, f"{lost} writes raised")
        acked += len(window.acked)
        for kill in window.kills:
            if kill["first_ack"] is None:
                report.fail(
                    1, f"no write acknowledged after the kill at "
                    f"{kill['killed_at']}"
                )
    for record in records:
        missing = [
            k for k in ("elected_at", "restarted_at", "caught_up_at")
            if k not in record
        ]
        if missing or record.get("error") or not record.get("kept_commits"):
            report.fail(1, f"recovery of replica {record['index']}: {record}")
    final = sut.call("converge", acked=acked, base_index=base_index)
    if not (final["converged"] and final["digests_agree"] and final["writes_kept"]):
        report.fail(1, f"replicas after the run: {final}")
    return records


def workload_failover(args, report: Report, workdir: str) -> None:
    from repro.service.client import ServiceClient

    window_s = args.seconds / 2 if args.trace else args.seconds
    if window_s < FIRST_KILL_S + KILL_PERIOD_S:
        raise ValueError(
            f"failover needs windows of at least "
            f"{FIRST_KILL_S + KILL_PERIOD_S} s to kill a leader"
        )

    def warm(sut: Sut, i: int):
        client = ServiceClient(sut.ready["urls"], timeout=30.0)
        worker_id = client.register_worker("bench-writer")["worker_id"]
        for _ in range(WARM_WRITES):
            client.register_worker("bench-writer", worker_id=worker_id)
        return client, worker_id

    sut, (client, worker_id), setup_s = boot(
        args.workload, args.seed, workdir, warm
    )
    try:
        base_index = sut.call("status")["applied_index"]
        if args.trace:
            plain = run_writes(sut, client, worker_id, args.seconds / 2)
            sut.call("trace_on")
            traced = run_writes(sut, client, worker_id, args.seconds / 2)
            layers = sut.call("trace_off")["layers"]
            windows = [plain, traced]
        else:
            plain = run_writes(sut, client, worker_id, args.seconds)
            windows = [plain]
        records = check_failover(report, sut, windows, base_index)
    finally:
        sut.close()
    by_kill = {r["killed_at"]: r for r in records}
    kills = [k for w in windows for k in w.kills if k["first_ack"] is not None]
    outages = [1e3 * (k["first_ack"] - k["killed_at"]) for k in kills]
    if args.trace:
        writes = len(traced.acked)
        fill_layers(report, layers, writes, replicas=3)
        m = report.per_layer
        elected = [(k, by_kill[k["killed_at"]]) for k in kills]
        elected = [(k, r) for k, r in elected if "elected_at" in r]
        m["failover.elect_ms_p50"] = p50_or_zero(
            [r["elected_at"] - r["killed_at"] for _k, r in elected], 1e3
        )
        m["failover.client_ms_p50"] = p50_or_zero(
            [k["first_ack"] - r["elected_at"] for k, r in elected], 1e3
        )
        m["failover.elections_per_kill"] = ratio(
            sum(r["term_after"] - r["term_before"] for _k, r in elected),
            len(elected),
        )
        m["failover.retries_per_kill"] = ratio(
            sum(k["retries_after"] for k in kills), len(kills)
        )
        m["failover.redirects_per_kill"] = ratio(
            sum(k["redirects_after"] for k in kills), len(kills)
        )
        m["failover.catchup_ms_p50"] = p50_or_zero(
            [
                r["caught_up_at"] - r["restarted_at"]
                for r in records
                if "caught_up_at" in r
            ],
            1e3,
        )
        m["cluster.log.entries_per_unit"] = ratio(traced.log_entries, writes)
        m["service.client.requests_per_unit"] = ratio(traced.requests, writes)
        m["obs.trace_overhead_frac"] = plain.ops_per_s / traced.ops_per_s - 1.0
        return
    steady = [1e3 * (w["ack"] - w["sent"]) for w in plain.steady]
    report.end_to_end.update(
        setup_s=setup_s,
        ops_per_s=plain.ops_per_s,
        sweep_ms_p50=1e3 * median(plain.group_service_s),
        op_ms_p50=median(steady),
        op_ms_tail=tail(steady),
        # A kill's outage falls on the client's 0.1 s retry steps, so a
        # median over kills jumps between steps; the mean does not.
        outage_ms=statistics.mean(outages),
        cpu_ms_per_op=1e3 * plain.cpu_s / len(plain.acked),
        rss_peak_mb=plain.maxrss_mb,
    )
    report.notes.append(
        f"{len(plain.acked)} writes acknowledged, {len(steady)} of them "
        f"without waiting on an outage; {len(kills)} leader kills, "
        f"{plain.resends} writes sent again after the client gave up"
    )
    report.notes.append(
        "per kill, outage ms: " + " ".join(f"{o:.0f}" for o in outages)
    )


WORKLOADS = {
    "sweep_raft": workload_sweeps,
    "warm_read": workload_warm_read,
    "paper_registry": workload_paper_registry,
    "failover": workload_failover,
}


def _deadline(_signum, _frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.obs.logs import set_log_quiet

    set_log_quiet(True)  # the load generator's own client events, not the program's
    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.sched_setaffinity(0, {CPU})
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    report = Report()
    WORKLOADS[args.workload](args, report, workdir)
    signal.alarm(0)
    metrics = report.per_layer if args.trace else report.end_to_end
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        report.notes.append(
            f"failed_frac {ratio(report.failed, report.attempted)} "
            f"({report.failed} of {report.attempted} ops)"
        )
    else:
        metrics["failed_frac"] = ratio(report.failed, report.attempted)
    for line in report.notes + report.problems:
        print(line)
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": report.failed == 0,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
