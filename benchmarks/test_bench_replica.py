"""Replicated control plane benchmarks: failover and consensus overhead.

A real 3-replica fabric (in-process consensus threads, real asyncio
HTTP servers, ephemeral ports) with a real worker. Three rows go to
``BENCH_replica.json``:

* ``failover_new_leader`` — wall clock from hard-killing the leader to
  a surviving replica answering as leader (the fabric's write outage
  window on a crash);
* ``sweep_single_coordinator`` — a 6-case latency-bound sweep against a
  single-coordinator server (a peerless in-memory replica);
* ``sweep_replicated`` — the same sweep against the 3-replica fabric;
  the workload string records the consensus overhead ratio.

Replicas run with ``fsync=False`` so the rows measure the *protocol*
(quorum round-trips, log-ordered application), not the container's
fsync latency — CI disks vary by an order of magnitude, consensus
message costs do not.  The latency-bound case (150 ms wait) mirrors
``test_bench_cluster.py``: worker wall clock dominates, so the
replicated overhead reflects what a real deployment sees, with the
per-command quorum cost visible but not inflated.
"""

import socket
import threading
import time

import numpy as np
import pytest

from conftest import print_table, record_row

from repro.cluster import Replica, run_worker_thread
from repro.experiments.registry import scenario, unregister
from repro.service.aserver import start_async_server
from repro.service.client import ServiceClient
from repro.service.store import ResultStore

CASE_WAIT_S = 0.15
N_CASES = 6
WORKLOAD = (
    f"{N_CASES} latency-bound cases ({1000 * CASE_WAIT_S:.0f} ms wait "
    f"each), 1 worker"
)


@pytest.fixture
def latency_scenario():
    """Register the latency-bound benchmark scenario for this test."""

    @scenario(
        family="_bench_replica",
        name="_bench_replica_case",
        params={"i": list(range(N_CASES))},
    )
    def _bench_replica_case(i: int, seed: int):
        """One latency-bound case: tiny deterministic compute + wait."""
        rng = np.random.default_rng(seed)
        matrix = rng.random((32, 32))
        time.sleep(CASE_WAIT_S)
        return {"i": i, "trace": float(np.trace(matrix @ matrix))}

    try:
        yield "_bench_replica_case"
    finally:
        unregister("_bench_replica_case")


def _free_port() -> int:
    """An OS-assigned free TCP port."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_fabric(tmp_path, store):
    """Three replicas under HTTP servers; returns (urls, replicas, servers)."""
    ports = [_free_port() for _ in range(3)]
    urls = [f"http://127.0.0.1:{p}" for p in ports]
    replicas, servers = [], []
    for i, port in enumerate(ports):
        replica = Replica(
            str(tmp_path / f"r{i}"),
            urls[i],
            [u for u in urls if u != urls[i]],
            store=store,
            lease_ttl=60.0,
            heartbeat_interval=0.04,
            election_timeout=(0.15, 0.3),
            fsync=False,
        ).start()
        server, _thread = start_async_server(
            host="127.0.0.1", port=port, store=store, coordinator=replica
        )
        replicas.append(replica)
        servers.append(server)
    return urls, replicas, servers


def _wait_single_leader(replicas, timeout=15.0):
    """Block until exactly one live replica leads; returns it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        leaders = [
            r
            for r in replicas
            if not r._stop.is_set() and r.raft_status()["role"] == "leader"
        ]
        if len(leaders) == 1:
            return leaders[0]
        time.sleep(0.005)
    raise AssertionError("no single leader emerged")


def _timed_sweep(client, name, base_seed) -> float:
    """One cold cluster sweep end to end; returns wall-clock seconds."""
    start = time.perf_counter()
    job, results = client.run_sweep(
        scenarios=[name], base_seed=base_seed, executor="cluster", timeout=120
    )
    elapsed = time.perf_counter() - start
    assert len(results) == N_CASES
    return elapsed


def test_bench_replica_failover_and_overhead(tmp_path, latency_scenario):
    """Record failover time and replicated-vs-single sweep overhead."""
    stop = threading.Event()
    threads = []
    servers = []
    replicas = []

    # -- single-coordinator reference ----------------------------------
    single_store = ResultStore(str(tmp_path / "single-cache"))
    coordinator = Replica(
        None, "local", store=single_store, lease_ttl=60.0
    ).start()
    single_server, _thread = start_async_server(
        store=single_store, coordinator=coordinator
    )
    servers.append(single_server)
    replicas.append(coordinator)
    host, port = single_server.server_address[:2]
    single_url = f"http://{host}:{port}"
    single_client = ServiceClient(single_url, timeout=120.0)

    # -- 3-replica fabric ----------------------------------------------
    fabric_store = ResultStore(str(tmp_path / "fabric-cache"))
    urls, fabric, fabric_servers = _start_fabric(tmp_path, fabric_store)
    replicas.extend(fabric)
    servers.extend(fabric_servers)
    fabric_client = ServiceClient(",".join(urls), timeout=120.0)
    leader = _wait_single_leader(fabric)

    try:
        _w, t = run_worker_thread(
            ServiceClient(single_url), name="w-single", poll=0.005, stop=stop
        )
        threads.append(t)
        _w, t = run_worker_thread(
            ServiceClient(",".join(urls)), name="w-fabric", poll=0.005, stop=stop
        )
        threads.append(t)

        # Warm both paths (connections, code paths) on throwaway seeds.
        single_client.run_sweep(
            scenarios=[latency_scenario], base_seed=7,
            executor="cluster", timeout=120,
        )
        fabric_client.run_sweep(
            scenarios=[latency_scenario], base_seed=7,
            executor="cluster", timeout=120,
        )

        single_s = _timed_sweep(single_client, latency_scenario, 101)
        replicated_s = _timed_sweep(fabric_client, latency_scenario, 101)

        # -- failover: kill the leader, time the new election ----------
        index = fabric.index(leader)
        start = time.perf_counter()
        leader.hard_stop()
        fabric_servers[index].shutdown()
        survivor = _wait_single_leader(fabric)
        failover_s = time.perf_counter() - start
        assert survivor is not leader
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        for server in servers:
            server.shutdown()
            server.server_close()
        for replica in replicas:
            replica.close()

    overhead = replicated_s / single_s
    record_row("replica", "failover_new_leader", failover_s,
               workload="3 replicas, leader hard-killed, election 150-300 ms")
    record_row("replica", "sweep_single_coordinator", single_s,
               workload=WORKLOAD)
    record_row("replica", "sweep_replicated", replicated_s,
               workload=f"{WORKLOAD}, 3 replicas, {overhead:.2f}x vs single")
    print_table(
        "replicated control plane (3 replicas vs single coordinator)",
        ["row", "ms", "ratio"],
        [
            ["failover_new_leader", f"{1000 * failover_s:.1f}", ""],
            ["sweep_single_coordinator", f"{1000 * single_s:.1f}", ""],
            ["sweep_replicated", f"{1000 * replicated_s:.1f}",
             f"{overhead:.2f}x"],
        ],
    )
    # Consensus must not dominate a worker-bound sweep, and failover
    # must complete within a few election timeouts.
    assert overhead < 3.0, f"replication overhead {overhead:.2f}x"
    assert failover_s < 5.0, f"failover took {failover_s:.2f}s"
