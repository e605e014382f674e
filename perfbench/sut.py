"""The system under test for one benchmark run, in its own process.

``run.py`` starts ``python3 perfbench/sut.py <workload> <workdir> <seed>
<cpu>`` with ``src`` on ``PYTHONPATH``; the process pins itself (and
every thread it starts) to that CPU.  It builds the
program the way the tests and the CLI do — ``Replica`` +
``start_async_server`` + ``run_worker_thread``
— prints one JSON "ready" line, then answers one JSON command per stdin
line with one JSON reply line.  Replies go to the original stdout;
anything else the program prints (structured logs, stray output) goes
to stderr, which the load generator points at a log file.

Hosting a whole fabric in one process keeps the busy processes at two:
this one and the load generator.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import sys
import threading
import time
import traceback
from collections import Counter
from typing import Any, Dict, List, Optional

from helpers import derive_seed, layer_table
from spans import SpanRecorder, wrap_program

from repro.cluster import run_worker_thread
from repro.cluster.replica import Replica
from repro.experiments.registry import all_scenarios
from repro.experiments.runner import run_experiments
from repro.service.aserver import start_async_server
from repro.service.client import ServiceClient
from repro.service.store import ResultStore

HOST = "127.0.0.1"
# CLI defaults of ``python -m repro.cluster replica`` / ``worker``.
HEARTBEAT_S = 0.08
ELECTION_S = (0.3, 0.6)
WORKER_POLL_S = 0.05
N_WORKERS = 2
N_REPLICAS = 3


def _free_port() -> int:
    """An OS-assigned free TCP port."""
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _wait(predicate, timeout: float, poll: float = 0.005) -> bool:
    """Poll ``predicate`` until truthy or ``timeout``; returns the outcome."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return bool(predicate())


class UnitClock:
    """A worker transport that times each unit from its lease to its ack.

    Delegates to a :class:`ServiceClient`; ``samples`` collects
    ``(lease_start, complete_end)`` monotonic pairs, one per unit.
    """

    def __init__(self, client: ServiceClient) -> None:
        self.client = client
        self.samples: List[tuple] = []
        self._leased_at: Optional[float] = None

    def register_worker(self, name=None, worker_id=None):
        return self.client.register_worker(name, worker_id=worker_id)

    def lease(self, worker_id):
        started = time.monotonic()
        reply = self.client.lease(worker_id)
        if reply.get("unit") is not None:
            self._leased_at = started
        return reply

    def complete(self, worker_id, unit_id, rows):
        reply = self.client.complete(worker_id, unit_id, rows)
        if self._leased_at is not None:
            self.samples.append((self._leased_at, time.monotonic()))
            self._leased_at = None
        return reply

    def push_spans(self, spans=None):
        return self.client.push_spans(spans)


class Host:
    """Base: usage, tracing and teardown shared by every workload."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.recorder: Optional[SpanRecorder] = None
        self.servers: List[Any] = []

    def ready(self) -> Dict[str, Any]:
        return {}

    def cmd_usage(self) -> Dict[str, Any]:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
        }

    def cmd_trace_on(self) -> Dict[str, Any]:
        self.recorder = SpanRecorder()
        wrap_program(self.recorder)
        return {}

    def cmd_trace_off(self) -> Dict[str, Any]:
        """Unwrap, write the spans out, and fold them per layer."""
        spans = self.recorder.unwrap() if self.recorder else []
        self.recorder = None
        path = os.path.join(self.workdir, "spans.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, default=str) + "\n")
        table = {}
        for name, row in layer_table(spans).items():
            durations = sorted(row["durations"])
            selfs = sorted(row["selfs"])
            table[name] = {
                "count": row["count"],
                "busy_s": row["busy_s"],
                "self_s": row["self_s"],
                "wait_s": row["wait_s"],
                "p50_s": durations[len(durations) // 2],
                "self_p50_s": selfs[len(selfs) // 2],
                "tags": Counter(str(tag) for tag in row["tags"]),
            }
        return {"layers": table, "spans_file": path}

    def close(self) -> None:
        for server in self.servers:
            server.shutdown()
            server.server_close()


class SweepHost(Host):
    """A sweep fabric: three replicas plus two workers."""

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.replicas: List[Replica] = []
        self.stop = threading.Event()
        ports = [_free_port() for _ in range(N_REPLICAS)]
        self.urls = [f"http://{HOST}:{port}" for port in ports]
        for i, port in enumerate(ports):
            store = ResultStore(os.path.join(workdir, f"cache{i}"))
            replica = Replica(
                os.path.join(workdir, f"raft{i}"),
                self.urls[i],
                [u for u in self.urls if u != self.urls[i]],
                store=store,
                heartbeat_interval=HEARTBEAT_S,
                election_timeout=ELECTION_S,
            ).start()
            server, _thread = start_async_server(
                host=HOST, port=port, store=store, coordinator=replica
            )
            self.replicas.append(replica)
            self.servers.append(server)
        if not _wait(lambda: self.leader() is not None, 30.0):
            raise RuntimeError("no leader elected")
        self.transports = []
        self.threads = []
        for i in range(N_WORKERS):
            transport = UnitClock(ServiceClient(self.urls))
            _worker, thread = run_worker_thread(
                transport, name=f"w{i}", poll=WORKER_POLL_S, stop=self.stop
            )
            self.transports.append(transport)
            self.threads.append(thread)
        if not _wait(
            lambda: len(self.leader().workers()) == N_WORKERS, 30.0
        ):
            raise RuntimeError("workers did not register")

    def leader(self) -> Optional[Replica]:
        for replica in self.replicas:
            if replica.raft_status()["role"] == "leader":
                return replica
        return None

    def ready(self) -> Dict[str, Any]:
        return {"urls": self.urls}

    def cmd_units(self) -> Dict[str, Any]:
        """Per-unit (lease start, ack) pairs since the last call."""
        samples = []
        for transport in self.transports:
            samples.extend(transport.samples)
            transport.samples = []
        return {"samples": sorted(samples)}

    def cmd_counters(self) -> Dict[str, Any]:
        """Log length on the leader and HTTP requests of the worker clients."""
        leader = self.leader()
        return {
            "log_index": leader.raft_status()["last_log_index"] if leader else 0,
            "requests": sum(
                t.client.stats()["requests"] for t in self.transports
            ),
            "replicas": len(self.replicas),
        }

    def close(self) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=10.0)
        super().close()
        for replica in self.replicas:
            replica.close()


class ReadHost(Host):
    """``repro.service`` over the run's store of N_BLOBS result blobs.

    The load generator fills ``<workdir>/../store`` before the first
    set-up; every set-up starts the service over it.
    """

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        store = ResultStore(os.path.join(os.path.dirname(workdir), "store"))
        server, _thread = start_async_server(host=HOST, store=store)
        self.servers.append(server)
        host, port = server.server_address[:2]
        self.url = f"http://{host}:{port}"

    def ready(self) -> Dict[str, Any]:
        return {"urls": [self.url]}


class PaperHost(Host):
    """The paper registry through the experiments runner, in-process."""

    def __init__(self, workdir: str, seed: int) -> None:
        super().__init__(workdir)
        self.passes = 0
        # Fill lazy caches (first-use imports, memoized game tables):
        # the robustness and agreement families pay them on first call.
        run_experiments(
            families=["robustness", "dist"],
            base_seed=derive_seed(seed, "warm-up"),
        )

    def _store(self) -> ResultStore:
        self.passes += 1
        return ResultStore(os.path.join(self.workdir, f"pass{self.passes}"))

    def cmd_pass(self, base_seed: int, families=None) -> Dict[str, Any]:
        """One cold pass over the registry (or some families of it)."""
        store = self._store()
        started = time.perf_counter()
        results = run_experiments(
            families=families, base_seed=base_seed, store=store
        )
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "cases": len(results),
            "cache_misses": results.cache_misses,
            "rows": [
                [r.family, r.scenario, r.elapsed, json.dumps(
                    r.payload_dict(), sort_keys=True, separators=(",", ":")
                )]
                for r in results
            ],
        }

    def cmd_registry(self) -> Dict[str, Any]:
        return {
            "families": sorted({spec.family for spec in all_scenarios()}),
            "cases": sum(spec.n_cases for spec in all_scenarios()),
        }


class FailoverHost(Host):
    """Three replicas whose leader the load generator kills on a schedule."""

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.ports = [_free_port() for _ in range(N_REPLICAS)]
        self.urls = [f"http://{HOST}:{port}" for port in self.ports]
        self.lock = threading.Lock()
        self.replicas: List[Replica] = []
        self.dead: List[Replica] = []
        self.records: List[Dict[str, Any]] = []
        self.monitors: List[threading.Thread] = []
        self.servers = [None] * N_REPLICAS
        for i in range(N_REPLICAS):
            self.replicas.append(self._boot(i))
        if not _wait(lambda: self._leader() is not None, 30.0):
            raise RuntimeError("no leader elected")

    def _boot(self, i: int) -> Replica:
        """Start (or restart) replica ``i`` on its data directory and port."""
        store = ResultStore(os.path.join(self.workdir, f"cache{i}"))
        replica = Replica(
            os.path.join(self.workdir, f"raft{i}"),
            self.urls[i],
            [u for u in self.urls if u != self.urls[i]],
            store=store,
            heartbeat_interval=HEARTBEAT_S,
            election_timeout=ELECTION_S,
        ).start()
        server, _thread = start_async_server(
            host=HOST, port=self.ports[i], store=store, coordinator=replica
        )
        self.servers[i] = server
        return replica

    def _live(self) -> List[Replica]:
        with self.lock:
            return [r for r in self.replicas if r not in self.dead]

    def _leader(self) -> Optional[Replica]:
        best = None
        for replica in self._live():
            status = replica.raft_status()
            if status["role"] == "leader" and (
                best is None or status["term"] > best[0]
            ):
                best = (status["term"], replica)
        return None if best is None else best[1]

    def _committed(self) -> int:
        leader = self._leader()
        return leader.raft_status()["commit_index"] if leader else 0

    def ready(self) -> Dict[str, Any]:
        return {"urls": self.urls}

    def cmd_kill(self) -> Dict[str, Any]:
        """Hard-stop the leader and its server; a monitor restarts it later."""
        # The previous victim must be back first, or this kill would
        # leave one live replica and no quorum.
        for monitor in self.monitors:
            monitor.join(timeout=15.0)
        leader = self._leader()
        if leader is None:
            raise RuntimeError("no leader to kill")
        status = leader.raft_status()
        index = self.replicas.index(leader)
        killed_at = time.monotonic()
        leader.hard_stop()
        with self.lock:
            self.dead.append(leader)
        self.servers[index].shutdown()
        record = {
            "index": index,
            "killed_at": killed_at,
            "term_before": status["term"],
            "commit_before": status["commit_index"],
        }
        self.records.append(record)
        monitor = threading.Thread(
            target=self._recover, args=(record,), daemon=True
        )
        monitor.start()
        self.monitors.append(monitor)
        return {"killed_at": killed_at}

    def _recover(self, record: Dict[str, Any]) -> None:
        """Time the election, restart the victim, time its catch-up."""
        try:
            if _wait(lambda: self._leader() is not None, 10.0, poll=0.002):
                record["elected_at"] = time.monotonic()
                record["term_after"] = self._leader().raft_status()["term"]
            # Restart once the new leader has committed its term's no-op:
            # the fabric serves writes again.
            _wait(lambda: self._committed() > record["commit_before"], 10.0)
            index = record["index"]
            restarted = self._boot(index)
            record["restarted_at"] = time.monotonic()
            with self.lock:
                self.replicas[index] = restarted
            leader = self._leader()
            target = leader.raft_status()["commit_index"] if leader else 0
            if _wait(
                lambda: restarted.raft_status()["applied_index"] >= target,
                10.0,
                poll=0.002,
            ):
                record["caught_up_at"] = time.monotonic()
            # Committed entries survive the crash: the restarted replica
            # re-applies at least everything committed before the kill.
            record["kept_commits"] = (
                restarted.raft_status()["applied_index"]
                >= record["commit_before"]
            )
        except Exception:  # reported through the record, never fatal
            traceback.print_exc()
            record["error"] = traceback.format_exc(limit=3)

    def cmd_kills(self) -> Dict[str, Any]:
        for monitor in self.monitors:
            monitor.join(timeout=15.0)
        return {"records": self.records}

    def cmd_converge(self, acked: int, base_index: int) -> Dict[str, Any]:
        """Wait for every replica to apply the same prefix; compare digests."""
        def statuses():
            return [r.raft_status() for r in self._live()]

        converged = _wait(
            lambda: len({s["applied_index"] for s in statuses()}) == 1,
            15.0,
        )
        final = statuses()
        digests = {s["state_digest"] for s in final}
        applied = min(s["applied_index"] for s in final)
        return {
            "converged": converged,
            "digests_agree": converged and len(digests) == 1,
            # Every acknowledged write committed at least one entry.
            "writes_kept": applied - base_index >= acked,
            "applied_index": applied,
        }

    def cmd_status(self) -> Dict[str, Any]:
        leader = self._leader()
        return leader.raft_status() if leader else {}

    def close(self) -> None:
        for server in self.servers:
            if server is not None:
                server.shutdown()
                server.server_close()
        for replica in self.replicas + self.dead:
            replica.close()


def build(workload: str, workdir: str, seed: int) -> Host:
    if workload == "sweep_raft":
        return SweepHost(workdir)
    if workload == "warm_read":
        return ReadHost(workdir)
    if workload == "paper_registry":
        return PaperHost(workdir, seed)
    if workload == "failover":
        return FailoverHost(workdir)
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    workload, workdir, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    os.sched_setaffinity(0, {int(sys.argv[4])})
    # Replies own the original stdout; everything else goes to stderr.
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def reply(obj: Dict[str, Any]) -> None:
        proto.write(json.dumps(obj) + "\n")

    try:
        host = build(workload, workdir, seed)
    except Exception as exc:
        traceback.print_exc()
        reply({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
        return 1
    reply({"ok": True, **host.ready()})
    try:
        for line in sys.stdin:
            request = json.loads(line)
            command = request.pop("cmd")
            if command == "exit":
                break
            try:
                result = getattr(host, f"cmd_{command}")(**request)
                reply({"ok": True, **result})
            except Exception as exc:
                traceback.print_exc()
                reply({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        host.close()
        reply({"ok": True, "closed": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
