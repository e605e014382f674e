"""Cluster fault-tolerance tests against a live server on an ephemeral port.

Real asyncio server + real :class:`ServiceClient` transports:
thread-hosted workers speak the actual ``/v1/workers`` → ``/v1/lease``
→ ``/v1/complete`` protocol.  Covers the ISSUE-5 acceptance scenarios:
a seeded 3-worker sweep byte-identical to the serial run; a worker that
crashes mid-lease (expiry → reassignment); a ByzantineRandom worker
outvoted by the 3-fold quorum and quarantined; worker-local stores
serving warm keys; and the combined crash+Byzantine run.
"""

import threading
import time

import pytest

from repro.cluster.worker import run_worker_thread
from repro.dist.faults import ByzantineRandomAdversary, CrashAdversary
from repro.experiments.runner import run_experiments
from repro.service.aserver import start_async_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import ResultStore

E1 = "coordination_robustness"


@pytest.fixture
def cluster(tmp_path, peerless):
    """Factory for a live cluster server; tears everything down after."""
    servers = []
    stop = threading.Event()
    threads = []

    def build(server_store="server", **coordinator_kwargs):
        store = (
            ResultStore(str(tmp_path / "server-cache"))
            if server_store == "server"
            else None
        )
        coordinator = peerless(store=store, **coordinator_kwargs)
        server, _thread = start_async_server(
            store=store, coordinator=coordinator
        )
        servers.append(server)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        return coordinator, store, url

    def spawn(url, **worker_kwargs):
        worker, thread = run_worker_thread(
            ServiceClient(url), stop=stop, **worker_kwargs
        )
        threads.append(thread)
        return worker

    yield build, spawn
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    for server in servers:
        server.shutdown()
        server.server_close()


def wait_until(predicate, timeout=15.0, poll=0.01):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached within timeout")


def test_three_worker_sweep_matches_serial_bytes(cluster):
    build, spawn = cluster
    _coordinator, _store, url = build()
    for i in range(3):
        spawn(url, name=f"h{i}")
    client = ServiceClient(url)
    job, results = client.run_sweep(scenarios=[E1], executor="cluster")
    serial = run_experiments(scenarios=[E1])
    assert results.payload_bytes() == serial.payload_bytes()
    assert job["cache_misses"] == 4
    stats = client.cluster()["stats"]
    assert stats["units_completed"] == 4
    assert stats["workers"] == 3


def test_crashed_worker_lease_expires_and_unit_is_reassigned(cluster):
    """3-worker cluster, 1 fail-stop crash: expiry + reassignment finish it."""
    build, spawn = cluster
    coordinator, _store, url = build(lease_ttl=0.4)
    # The crash worker runs alone first so it deterministically
    # completes one unit and then dies holding its second lease.
    crash = spawn(url, name="crash", fault=CrashAdversary({0}, {0: 1}))
    client = ServiceClient(url)
    submitted = client.submit_sweep(scenarios=[E1], executor="cluster")
    wait_until(lambda: crash.crashed)
    assert crash.completed == 1
    # Two replacement workers pick up everything, including the unit
    # whose lease the dead worker still held.
    spawn(url, name="h1")
    spawn(url, name="h2")
    status = client.wait_for_job(submitted["job_id"], timeout=60)
    assert status["status"] == "done"
    _job, results = client.results(submitted["job_id"])
    serial = run_experiments(scenarios=[E1])
    assert results.payload_bytes() == serial.payload_bytes()
    assert coordinator.stats()["leases_expired"] >= 1


def test_byzantine_random_worker_is_outvoted_and_quarantined(cluster):
    """ByzantineRandom (seed 0: first vote corrupt) loses the 3-fold quorum."""
    build, spawn = cluster
    coordinator, store, url = build(redundancy=3, quarantine_after=1)
    byz = spawn(
        url, name="byz", fault=ByzantineRandomAdversary({0}, seed=0)
    )
    client = ServiceClient(url)
    submitted = client.submit_sweep(
        scenarios=[E1], executor="cluster", redundancy=3
    )
    # Let the Byzantine worker cast its (deterministically corrupt)
    # first vote before any honest worker exists.
    wait_until(lambda: coordinator.stats()["votes_received"] >= 1)
    spawn(url, name="h1")
    spawn(url, name="h2")
    status = client.wait_for_job(submitted["job_id"], timeout=60)
    assert status["status"] == "done"
    _job, results = client.results(submitted["job_id"])
    serial = run_experiments(scenarios=[E1])
    assert results.payload_bytes() == serial.payload_bytes()
    registry = {w["name"]: w for w in client.cluster()["workers"]}
    assert registry["byz"]["quarantined"] is True
    assert registry["byz"]["strikes"] >= 1
    assert registry["h1"]["quarantined"] is False
    assert registry["h2"]["quarantined"] is False
    # Every accepted unit went through a replication-verified write.
    assert store.stats()["quorum_puts"] == 4
    # The worker loop itself learns of its quarantine and stops.
    wait_until(lambda: byz.quarantined)


def test_cluster_survives_crash_plus_byzantine_and_matches_serial(cluster):
    """The acceptance run: E1-family sweep, one crash, one Byzantine.

    Three computing workers (two honest, one that fail-stops mid-lease)
    plus a ByzantineRandom adversary, redundancy 3: the sweep completes
    and its deterministic payload is byte-identical to the serial run.
    """
    build, spawn = cluster
    coordinator, _store, url = build(
        redundancy=3, quarantine_after=1, lease_ttl=0.4
    )
    byz = spawn(url, name="byz", fault=ByzantineRandomAdversary({0}, seed=0))
    client = ServiceClient(url)
    submitted = client.submit_sweep(
        scenarios=[E1], replications=3, executor="cluster", redundancy=3
    )
    wait_until(lambda: coordinator.stats()["votes_received"] >= 1)
    crash = spawn(url, name="crash", fault=CrashAdversary({0}, {0: 1}))
    spawn(url, name="h1")
    spawn(url, name="h2")
    status = client.wait_for_job(submitted["job_id"], timeout=120)
    assert status["status"] == "done"
    _job, results = client.results(submitted["job_id"])
    serial = run_experiments(scenarios=[E1], replications=3)
    assert len(results) == 12
    assert results.payload_bytes() == serial.payload_bytes()
    assert coordinator.stats()["units_completed"] == 12
    registry = {w["name"]: w for w in client.cluster()["workers"]}
    assert registry["byz"]["quarantined"] is True
    # The crash worker contributed at most one (honest) completion
    # before fail-stopping; the sweep finished without it.
    assert crash.completed <= 1


def test_worker_local_store_serves_warm_keys(cluster, tmp_path):
    """With no server store, re-running a sweep hits the workers' caches."""
    build, spawn = cluster
    _coordinator, _store, url = build(server_store=None)
    worker_store = ResultStore(str(tmp_path / "worker-cache"))
    spawn(url, name="w1", store=worker_store)
    spawn(url, name="w2", store=worker_store)
    client = ServiceClient(url)
    assert client.health()["store"] is None
    _job1, first = client.run_sweep(scenarios=[E1], executor="cluster")
    misses = worker_store.misses
    assert misses >= 4
    _job2, second = client.run_sweep(scenarios=[E1], executor="cluster")
    # The replay is served from the worker-local content-addressed
    # store: byte-identical rows (original elapsed included), no
    # recomputation.
    assert second.to_json_obj() == first.to_json_obj()
    assert worker_store.hits >= 4
    assert worker_store.misses == misses


def test_cluster_job_deadline_frees_the_job_slot(tmp_path, peerless):
    """A sweep whose quorum can never form errors out instead of wedging."""
    from repro.service.jobs import JobManager

    coordinator = peerless(redundancy=3)
    manager = JobManager(coordinator=coordinator, cluster_timeout=0.4)
    server, _thread = start_async_server(manager=manager)
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        # No workers registered: the quorum can never form.
        submitted = client.submit_sweep(
            scenarios=[E1], executor="cluster", redundancy=3
        )
        status = client.wait_for_job(submitted["job_id"], timeout=30)
        assert status["status"] == "error"
        assert "timed out" in status["error"]
        assert client.health()["manager"]["inflight"] == 0
    finally:
        server.shutdown()
        server.server_close()


def test_cluster_sweep_without_coordinator_fails_clearly(tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    server, _thread = start_async_server(store=store)
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        submitted = client.submit_sweep(scenarios=[E1], executor="cluster")
        status = client.wait_for_job(submitted["job_id"], timeout=30)
        assert status["status"] == "error"
        assert "cluster coordinator" in status["error"]
        with pytest.raises(ServiceError, match="cluster coordinator"):
            client.cluster()
        with pytest.raises(ServiceError, match="cluster coordinator"):
            client.register_worker("w")
    finally:
        server.shutdown()
        server.server_close()


def test_health_reports_cluster_block(cluster):
    build, _spawn = cluster
    coordinator, _store, url = build(redundancy=3)
    payload = ServiceClient(url).health()
    assert payload["cluster"]["redundancy"] == 3
    assert payload["cluster"]["workers"] == 0
    assert coordinator.stats()["open_units"] == 0
