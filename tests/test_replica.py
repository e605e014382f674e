"""Chaos suite for the replicated control plane (ISSUE 8 acceptance).

Three live replicas — real :class:`~repro.cluster.replica.Replica`
consensus threads under real asyncio HTTP servers, talked to by real
workers through :class:`~repro.service.client.ServiceClient` failover —
get killed, partitioned, and restarted while sweeps are in flight:

* the leader is hard-killed (SIGKILL analog) mid-sweep with votes
  already counted: a new leader takes over and the sweep's payload is
  byte-identical to the serial run;
* a follower is partitioned away: the majority keeps committing, and on
  heal the follower converges to the same state digest;
* a replica is crash-restarted from its durable directory (fsync'd log
  + snapshot) and catches back up to the fabric's digest;
* writes sent to a follower bounce with 421 + a leader hint the client
  chases transparently.

Determinism invariant, asserted after every fault: two replicas
reporting the same ``applied_index`` MUST report the same
``state_digest`` — replication is exact or it is broken.
"""

import socket
import threading
import time

import pytest

from repro.cluster.replica import NotLeaderError, Replica
from repro.cluster.worker import run_worker_thread
from repro.experiments.runner import run_experiments
from repro.service.aserver import start_async_server
from repro.service.client import ServiceClient
from repro.service.store import ResultStore

E1 = "coordination_robustness"

# Fast failure-detector settings for tests: elections settle in well
# under a second, heartbeats keep the channel warm.
FAST = {"heartbeat_interval": 0.04, "election_timeout": (0.15, 0.3)}


def _free_port() -> int:
    """An OS-assigned free TCP port (racy but fine for a test)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Fabric:
    """N replicas + HTTP servers + workers, with chaos helpers."""

    def __init__(self, tmp_path, n=3, fsync=False, **replica_kwargs):
        self.tmp_path = tmp_path
        self.store = ResultStore(str(tmp_path / "store"))
        self.ports = [_free_port() for _ in range(n)]
        self.urls = [f"http://127.0.0.1:{p}" for p in self.ports]
        self.replicas = []
        self.servers = []
        self.stop = threading.Event()
        self.worker_threads = []
        kwargs = dict(FAST)
        kwargs.update(replica_kwargs)
        for i in range(n):
            self.replicas.append(
                self._boot(i, fsync=fsync, **kwargs)
            )

    def _boot(self, i, **kwargs):
        """Start (or restart) replica ``i`` and its HTTP server."""
        url = self.urls[i]
        peers = [u for u in self.urls if u != url]
        replica = Replica(
            str(self.tmp_path / f"r{i}"),
            url,
            peers,
            store=self.store,
            **kwargs,
        ).start()
        server, _thread = start_async_server(
            host="127.0.0.1",
            port=self.ports[i],
            store=self.store,
            coordinator=replica,
        )
        self.servers.append(server)
        return replica

    def alive(self):
        """Replicas not (hard-)stopped."""
        return [r for r in self.replicas if not r._stop.is_set()]

    def wait_leader(self, timeout=15.0):
        """Block until exactly one live replica leads; return it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            leaders = [
                r for r in self.alive() if r.raft_status()["role"] == "leader"
            ]
            if len(leaders) == 1:
                return leaders[0]
            time.sleep(0.02)
        raise AssertionError("no single leader emerged within timeout")

    def kill(self, replica):
        """SIGKILL analog: stop threads with no cleanup, stop its HTTP."""
        index = self.replicas.index(replica)
        replica.hard_stop()
        self.servers[index].shutdown()

    def client(self, urls=None, **kwargs):
        """A failover client over all (or the given) endpoints."""
        return ServiceClient(urls or self.urls, **kwargs)

    def spawn_workers(self, n=2):
        """n honest thread-workers with failover transports."""
        workers = []
        for i in range(n):
            worker, thread = run_worker_thread(
                self.client(), name=f"w{i}", stop=self.stop, poll=0.02
            )
            workers.append(worker)
            self.worker_threads.append(thread)
        return workers

    def assert_digests_consistent(self):
        """Same applied_index ⇒ same state digest, across live replicas."""
        by_index = {}
        for replica in self.alive():
            status = replica.raft_status()
            digest = by_index.setdefault(
                status["applied_index"], status["state_digest"]
            )
            assert digest == status["state_digest"], (
                f"replicas diverge at applied_index "
                f"{status['applied_index']}"
            )

    def teardown(self):
        self.stop.set()
        for thread in self.worker_threads:
            thread.join(timeout=10)
        for server in self.servers:
            server.shutdown()
            server.server_close()
        for replica in self.replicas:
            replica.close()


@pytest.fixture
def fabric(tmp_path):
    """Factory for a live replica fabric; tears everything down after."""
    fabrics = []

    def build(n=3, **kwargs):
        built = Fabric(tmp_path, n=n, **kwargs)
        fabrics.append(built)
        return built

    yield build
    for built in fabrics:
        built.teardown()


def wait_until(predicate, timeout=15.0, poll=0.02):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached within timeout")


def test_leader_kill_mid_sweep_preserves_byte_identical_results(fabric):
    """The acceptance run: SIGKILL the leader while a redundancy-3 sweep
    is in flight; the survivors elect, finish, and match the serial run.
    """
    fab = fabric(n=3)
    leader = fab.wait_leader()
    fab.spawn_workers(2)
    client = fab.client(timeout=30.0)
    client.submit_sweep(scenarios=[E1], executor="cluster", redundancy=3)
    # Let real quorum voting start before the kill, so committed work
    # demonstrably survives the crash.
    wait_until(lambda: leader.stats()["votes_received"] >= 2, timeout=60)
    fab.kill(leader)
    survivor = fab.wait_leader()
    assert survivor is not leader
    # The killed server's job manager died with it; resubmission
    # content-hash-attaches to the units the old quorum accepted.
    job, results = client.run_sweep(
        scenarios=[E1], executor="cluster", redundancy=3, timeout=120
    )
    serial = run_experiments(scenarios=[E1])
    assert results.payload_bytes() == serial.payload_bytes()
    fab.assert_digests_consistent()
    # Let the first submission's orphaned units drain (workers keep
    # leasing them from the new leader), then check the books: every
    # unit completed at least once, at worst once per submission (the
    # resubmission re-shards only the cases still cold at submit time,
    # so its overlap with the orphaned units is bounded).
    wait_until(lambda: survivor.stats()["open_units"] == 0, timeout=60)
    completed = survivor.stats()["units_completed"]
    assert len(serial) <= completed <= 2 * len(serial)
    # Everything the fabric accepted is durably in the shared store: a
    # further submission is pure cache hits, no fabric work at all.
    job3, results3 = client.run_sweep(
        scenarios=[E1], executor="cluster", redundancy=3, timeout=120
    )
    assert job3["cache_misses"] == 0
    assert results3.payload_bytes() == serial.payload_bytes()
    assert survivor.stats()["units_completed"] == completed


def test_partitioned_follower_heals_to_the_same_digest(fabric):
    """A partitioned follower misses a sweep, then converges on heal."""
    fab = fabric(n=3)
    leader = fab.wait_leader()
    follower = next(r for r in fab.alive() if r is not leader)
    # Cut every link touching the follower (both directions: its sends
    # and everyone's sends to it).
    follower.drop_traffic = lambda peer: True
    for replica in fab.alive():
        if replica is not follower:
            replica.drop_traffic = (
                lambda peer, target=follower.self_url: peer == target
            )
    fab.spawn_workers(2)
    majority_urls = [u for u in fab.urls if u != follower.self_url]
    client = fab.client(urls=majority_urls, timeout=30.0)
    job, results = client.run_sweep(
        scenarios=[E1], executor="cluster", redundancy=3, timeout=120
    )
    serial = run_experiments(scenarios=[E1])
    assert results.payload_bytes() == serial.payload_bytes()
    behind = follower.raft_status()["applied_index"]
    ahead = leader.raft_status()["applied_index"]
    assert behind < ahead  # the partition really isolated it
    # Heal: the follower (which has been campaigning into the void at
    # ever-higher terms) rejoins; its stale log cannot win an election,
    # and the leader's appends catch it up.
    for replica in fab.alive():
        replica.drop_traffic = None
    healed = fab.wait_leader(timeout=30)
    wait_until(
        lambda: follower.raft_status()["applied_index"]
        >= healed.raft_status()["commit_index"]
        > 0,
        timeout=30,
    )
    fab.assert_digests_consistent()


def test_replica_restarts_from_disk_and_catches_up(fabric, tmp_path):
    """Crash a follower, restart from its fsync'd directory, reconverge.

    Uses a tiny ``snapshot_interval`` so the restart also exercises the
    snapshot + trailing-log load path, and real ``fsync=True`` so the
    bytes on disk are the bytes a power loss would leave.
    """
    fab = fabric(n=3, fsync=True, snapshot_interval=8)
    leader = fab.wait_leader()
    follower = next(r for r in fab.alive() if r is not leader)
    index = fab.replicas.index(follower)
    fab.spawn_workers(2)
    client = fab.client(timeout=30.0)
    client.run_sweep(scenarios=[E1], executor="cluster", timeout=120)
    fab.kill(follower)
    # More committed traffic while the follower is down.
    client2 = fab.client(
        urls=[u for u in fab.urls if u != follower.self_url], timeout=30.0
    )
    client2.run_sweep(
        scenarios=[E1], executor="cluster", base_seed=1, timeout=120
    )
    # Restart from the same durable directory on the same port.
    fab.replicas[index] = fab._boot(
        index, fsync=True, snapshot_interval=8, **FAST
    )
    restarted = fab.replicas[index]
    assert restarted.raft_status()["applied_index"] > 0  # loaded state
    current = fab.wait_leader(timeout=30)
    wait_until(
        lambda: restarted.raft_status()["applied_index"]
        >= current.raft_status()["commit_index"]
        > 0,
        timeout=30,
    )
    fab.assert_digests_consistent()


def test_follower_redirects_writes_and_client_chases_the_hint(fabric):
    """A write to a follower 421s with a hint the client follows."""
    fab = fabric(n=3)
    leader = fab.wait_leader()
    follower = next(r for r in fab.alive() if r is not leader)
    # The follower learns who leads from the first heartbeat; wait for
    # that so the 421 carries a hint rather than a mid-election None.
    wait_until(
        lambda: follower.raft_status()["leader"] == leader.self_url
    )
    with pytest.raises(NotLeaderError) as excinfo:
        follower.register_worker(name="direct")
    assert excinfo.value.leader_url == leader.self_url
    # A client configured with ONLY the follower's URL still lands the
    # write: the 421 hint teaches it the leader endpoint.
    client = fab.client(urls=[follower.self_url], timeout=30.0)
    reply = client.register_worker(name="via-hint")
    assert reply["worker_id"]
    assert leader.self_url in client.endpoints
    assert client.base_url == leader.self_url


def test_single_replica_fabric_is_a_working_degenerate_case(fabric):
    """n=1 elects itself and behaves like a plain coordinator."""
    fab = fabric(n=1)
    leader = fab.wait_leader()
    fab.spawn_workers(1)
    client = fab.client(timeout=30.0)
    job, results = client.run_sweep(
        scenarios=[E1], executor="cluster", timeout=120
    )
    serial = run_experiments(scenarios=[E1])
    assert results.payload_bytes() == serial.payload_bytes()
    assert leader.raft_status()["role"] == "leader"


def test_tick_commands_expire_leases_identically_on_all_replicas(fabric):
    """Lease expiry is log-ordered: every replica expires the same lease.

    A worker registers, leases a unit, and dies (never completes).  The
    leader's replicated ``tick`` commands expire the lease at one log
    position; afterwards every replica agrees another worker can take
    the unit, and their digests still match.
    """
    # unit_size larger than the sweep makes the whole sweep ONE unit:
    # the only way the heir can get work is the doomed lease expiring.
    fab = fabric(n=3, lease_ttl=0.3, tick_interval=0.1, unit_size=64)
    fab.wait_leader()
    client = fab.client(timeout=30.0)
    worker_id = client.register_worker(name="doomed")["worker_id"]
    submitted = client.submit_sweep(
        scenarios=[E1], executor="cluster"
    )
    lease = client.lease(worker_id)
    assert lease["unit"] is not None  # leased, never completed
    # The replicated clock ticks the lease out; the unit becomes
    # leasable again on whatever replica answers.
    second_id = client.register_worker(name="heir")["worker_id"]
    wait_until(
        lambda: client.lease(second_id).get("unit") is not None, timeout=30
    )
    fab.assert_digests_consistent()
    # Drain: let real workers finish the sweep so teardown is clean.
    fab.spawn_workers(2)
    status = client.wait_for_job(submitted["job_id"], timeout=120)
    assert status["status"] == "done"


def _log_index(replica):
    """The replica's last appended log index."""
    return replica.raft_status()["last_log_index"]


def test_r1_sweep_commits_about_one_entry_per_unit(fabric):
    """``complete`` carries the next lease, so a busy worker's ``lease``
    is a leader read: an N-unit r=1 sweep costs N completes plus a
    fixed handful of entries (submit, purge, each worker's first
    lease, an empty lease racing an unapplied entry).  A large
    ``tick_interval`` keeps lease-expiry ticks out of the count.
    """
    fab = fabric(n=3, tick_interval=60.0)
    leader = fab.wait_leader()
    fab.spawn_workers(2)
    wait_until(lambda: len(leader.workers()) == 2)
    client = fab.client(timeout=30.0)
    before = _log_index(leader)
    job, results = client.run_sweep(
        scenarios=[E1], replications=5, executor="cluster", timeout=120
    )
    units = len(results)
    assert units == job["cache_misses"] == 20
    spent = _log_index(leader) - before
    assert units <= spent <= units + 10, spent
    assert leader.stats()["units_completed"] == units
    fab.assert_digests_consistent()


def test_idle_workers_add_no_log_entries(fabric):
    """Polling workers with nothing to lease never write the log."""
    fab = fabric(n=3)
    leader = fab.wait_leader()
    fab.spawn_workers(2)
    client = fab.client(timeout=30.0)
    client.run_sweep(scenarios=[E1], executor="cluster", timeout=120)
    time.sleep(0.2)  # let the last in-flight request land
    before = _log_index(leader)
    time.sleep(1.0)  # ~50 empty polls per worker at poll=0.02
    assert _log_index(leader) == before
    assert leader.raft_status()["role"] == "leader"
