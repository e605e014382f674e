"""Direct (no-HTTP) tests of the cluster coordinator's scheduling core.

The coordinator is a peerless in-memory ``Replica`` (the ``peerless``
fixture), driven synchronously from the test thread — register,
lease, complete — while the blocking ``execute_cases`` call runs on a
helper thread, so every quorum/strike/expiry decision happens in a
deterministic order: content-address sharding, majority-quorum
acceptance, ByzantineRandom corruption being outvoted and quarantined,
lease expiry and reassignment, stale-vote verification, and the runner's
pluggable-executor integration with a content-addressed store in front.
"""

import threading
import time

import pytest

from repro.cluster.coordinator import (
    ClusterError,
    CoordinatorMachine,
    case_refs,
    sweep_id_for,
    unit_digest,
)
from repro.cluster.worker import Worker, corrupt_rows, run_worker_thread
from repro.dist.faults import (
    ByzantineRandomAdversary,
    NoFaultAdversary,
)
from repro.experiments.registry import get_scenario
from repro.obs.trace import activate, new_trace
from repro.experiments.runner import (
    _collect_cases,
    _execute_cases,
    run_experiments,
)
from repro.service.store import ResultStore, result_key

E1 = "coordination_robustness"


def e1_cases(base_seed=0, replications=1):
    """The E1 sweep's runner Case tuples (what a sweep submits)."""
    return _collect_cases([E1], None, base_seed, None, replications)


def serial_results(base_seed=0, replications=1):
    """The serial reference run the cluster must agree with byte-for-byte."""
    return run_experiments(
        scenarios=[E1], base_seed=base_seed, replications=replications
    )


def honest_rows(unit):
    """Compute a leased unit's rows exactly as an honest worker would."""
    cases = [
        (
            ref["scenario"],
            ref["family"],
            get_scenario(ref["scenario"]).fn,
            ref["params"],
            ref["seed"],
            ref["replication"],
        )
        for ref in unit["cases"]
    ]
    results = _execute_cases(cases, base_seed=unit["base_seed"])
    return [r.to_dict() for r in results]


def submit_async(coordinator, cases, base_seed=0, redundancy=None, timeout=30.0):
    """Run ``execute_cases`` on a helper thread; returns (holder, thread)."""
    holder = {}

    def run():
        """Capture the sweep's results or error for the test thread."""
        try:
            holder["results"] = coordinator.execute_cases(
                cases, base_seed=base_seed, redundancy=redundancy, timeout=timeout
            )
        except Exception as exc:  # noqa: BLE001 - surfaced via holder
            holder["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while coordinator.stats()["open_units"] == 0:
        if "error" in holder or time.monotonic() > deadline:
            break
        time.sleep(0.005)
    return holder, thread


def drain(coordinator, worker_id, corrupt=None):
    """Lease-and-complete until no unit is leasable to ``worker_id``."""
    completed = 0
    while True:
        reply = coordinator.lease(worker_id)
        if reply["unit"] is None:
            return completed
        rows = honest_rows(reply["unit"])
        if corrupt is not None:
            rows = corrupt(rows)
        coordinator.complete(worker_id, reply["unit"]["unit_id"], rows)
        completed += 1


def test_sharding_is_sorted_by_content_address_key():
    refs = case_refs(e1_cases())
    machine = CoordinatorMachine(unit_size=1)
    sweep_id = sweep_id_for(refs, 0, 1)
    units = machine._shard_refs(refs, 0, 1, sweep_id)
    keys = [
        result_key(unit["cases"][0]["scenario"], unit["cases"][0]["params"], 0, 0)
        for unit in units
    ]
    assert keys == sorted(keys)
    assert sorted(ref["index"] for unit in units for ref in unit["cases"]) == [
        0,
        1,
        2,
        3,
    ]
    # Sharding twice yields the same assignment, unit ids included —
    # sweep identity is a content hash, so a resubmit regenerates them.
    again = machine._shard_refs(refs, 0, 1, sweep_id_for(refs, 0, 1))
    assert [u["cases"] for u in again] == [u["cases"] for u in units]
    assert [u["unit_id"] for u in again] == [u["unit_id"] for u in units]


def test_single_worker_matches_serial_bytes(peerless):
    coordinator = peerless()
    worker_id = coordinator.register_worker("solo")["worker_id"]
    holder, thread = submit_async(coordinator, e1_cases())
    assert drain(coordinator, worker_id) == 4
    thread.join(timeout=10)
    assert "error" not in holder
    results = holder["results"]
    serial = serial_results()
    assert [r.payload_dict() for r in results] == [
        r.payload_dict() for r in serial
    ]


def test_byzantine_random_worker_outvoted_and_quarantined(peerless):
    """ByzantineRandom corruption loses the 3-fold quorum and is quarantined.

    Driven in a fixed order: the Byzantine worker votes first on the
    first unit (seed 0's first roll corrupts deterministically), then
    two honest workers supply the majority.
    """
    coordinator = peerless(redundancy=3, quarantine_after=1)
    byz = coordinator.register_worker("byz")["worker_id"]
    h1 = coordinator.register_worker("h1")["worker_id"]
    h2 = coordinator.register_worker("h2")["worker_id"]
    adversary = ByzantineRandomAdversary({0}, seed=0)

    holder, thread = submit_async(coordinator, e1_cases(), redundancy=3)

    lease_byz = coordinator.lease(byz)
    unit = lease_byz["unit"]
    assert unit is not None
    bad = corrupt_rows(adversary, 0, honest_rows(unit))
    assert unit_digest(bad) != unit_digest(honest_rows(unit))
    reply = coordinator.complete(byz, unit["unit_id"], bad)
    assert reply["status"] == "pending"

    # Two honest votes form the majority; the Byzantine vote loses.
    lease_h1 = coordinator.lease(h1)
    assert lease_h1["unit"]["unit_id"] == unit["unit_id"]
    assert coordinator.complete(
        h1, unit["unit_id"], honest_rows(unit)
    )["status"] == "pending"
    lease_h2 = coordinator.lease(h2)
    assert lease_h2["unit"]["unit_id"] == unit["unit_id"]
    assert coordinator.complete(
        h2, unit["unit_id"], honest_rows(unit)
    )["status"] == "accepted"

    workers = {w["name"]: w for w in coordinator.workers()}
    assert workers["byz"]["strikes"] == 1
    assert workers["byz"]["quarantined"] is True
    assert coordinator.lease(byz) == {
        "unit": None,
        "open": 3,
        "quarantined": True,
    }

    # The two honest workers finish the sweep between them.
    while drain(coordinator, h1) + drain(coordinator, h2) > 0:
        pass
    thread.join(timeout=10)
    assert "error" not in holder
    assert [r.payload_dict() for r in holder["results"]] == [
        r.payload_dict() for r in serial_results()
    ]


def test_quarantined_worker_votes_are_ignored(peerless):
    coordinator = peerless(redundancy=3, quarantine_after=1)
    byz = coordinator.register_worker("byz")["worker_id"]
    h1 = coordinator.register_worker("h1")["worker_id"]
    h2 = coordinator.register_worker("h2")["worker_id"]
    holder, thread = submit_async(coordinator, e1_cases()[:2], redundancy=3)
    first = coordinator.lease(byz)["unit"]
    coordinator.complete(byz, first["unit_id"], [{"garbage": 1}])
    assert coordinator.complete(
        h1, first["unit_id"], honest_rows(first)
    )["status"] == "pending"
    # Resolution strikes and quarantines byz.
    assert coordinator.complete(
        h2, first["unit_id"], honest_rows(first)
    )["status"] == "accepted"
    # The second unit is still open: a quarantined worker's vote on it
    # is acknowledged but never counted toward the quorum.
    second = coordinator.lease(h1)["unit"]
    assert second is not None
    reply = coordinator.complete(byz, second["unit_id"], [{"garbage": 2}])
    assert reply == {
        "status": "quarantined",
        "accepted": False,
        "quarantined": True,
    }
    assert coordinator.complete(
        h1, second["unit_id"], honest_rows(second)
    )["status"] == "pending"
    assert coordinator.complete(
        h2, second["unit_id"], honest_rows(second)
    )["status"] == "accepted"
    thread.join(timeout=10)
    assert "error" not in holder
    assert len(holder["results"]) == 2


def test_lease_expiry_reassigns_crashed_workers_unit(peerless):
    coordinator = peerless(lease_ttl=0.15)
    dead = coordinator.register_worker("dead")["worker_id"]
    live = coordinator.register_worker("live")["worker_id"]
    holder, thread = submit_async(coordinator, e1_cases())
    crashed_unit = coordinator.lease(dead)["unit"]
    assert crashed_unit is not None  # ... and 'dead' never completes it.
    time.sleep(0.2)
    seen = set()
    while True:
        reply = coordinator.lease(live)
        if reply["unit"] is None:
            break
        seen.add(reply["unit"]["unit_id"])
        coordinator.complete(
            live, reply["unit"]["unit_id"], honest_rows(reply["unit"])
        )
    assert crashed_unit["unit_id"] in seen
    assert coordinator.stats()["leases_expired"] >= 1
    thread.join(timeout=10)
    assert "error" not in holder
    assert [r.payload_dict() for r in holder["results"]] == [
        r.payload_dict() for r in serial_results()
    ]


def test_stale_completion_after_acceptance_is_verified(peerless):
    coordinator = peerless(lease_ttl=0.1, quarantine_after=2)
    slow = coordinator.register_worker("slow")["worker_id"]
    fast = coordinator.register_worker("fast")["worker_id"]
    holder, thread = submit_async(coordinator, e1_cases()[:2])
    unit = coordinator.lease(slow)["unit"]
    time.sleep(0.15)  # the straggler's lease expires...
    reassigned = coordinator.lease(fast)["unit"]
    assert reassigned["unit_id"] == unit["unit_id"]
    coordinator.complete(fast, unit["unit_id"], honest_rows(unit))

    # The sweep's second unit is still open, so the resolved unit is
    # queryable.  Agreeing late vote: no strike.  Contradicting: strike.
    assert coordinator.complete(
        slow, unit["unit_id"], honest_rows(unit)
    )["status"] == "stale"
    assert {w["name"]: w for w in coordinator.workers()}["slow"]["strikes"] == 0
    assert coordinator.complete(
        slow, unit["unit_id"], [{"garbage": True}]
    )["status"] == "stale"
    assert {w["name"]: w for w in coordinator.workers()}["slow"]["strikes"] == 1

    while drain(coordinator, fast) + drain(coordinator, slow) > 0:
        pass
    thread.join(timeout=10)
    assert "error" not in holder


def test_no_quorum_among_max_votes_fails_the_sweep(peerless):
    """Seven pairwise-disagreeing voters exhaust max_votes: sweep fails loudly."""
    coordinator = peerless(quarantine_after=99)
    workers = [
        coordinator.register_worker(f"b{i}")["worker_id"] for i in range(7)
    ]
    # redundancy=3 -> threshold 2, max_votes 2*3+1 = 7.
    holder, thread = submit_async(coordinator, e1_cases()[:1], redundancy=3)
    unit_id = None
    for i, worker_id in enumerate(workers):
        reply = coordinator.lease(worker_id)
        if reply["unit"] is not None:
            unit_id = reply["unit"]["unit_id"]
        assert unit_id is not None
        coordinator.complete(worker_id, unit_id, [{"junk": i}])
    thread.join(timeout=10)
    assert isinstance(holder.get("error"), ClusterError)
    assert "quorum" in str(holder["error"])
    assert coordinator.stats()["units_failed"] == 1


def test_execute_cases_timeout_raises(peerless):
    coordinator = peerless()
    with pytest.raises(ClusterError, match="timed out"):
        coordinator.execute_cases(e1_cases(), timeout=0.2)


def test_units_accepted_before_a_timeout_stay_durable(tmp_path, peerless):
    """A timed-out sweep still flushes its quorum-accepted units."""
    store = ResultStore(str(tmp_path / "cache"))
    coordinator = peerless(store=store)
    worker_id = coordinator.register_worker("slowpoke")["worker_id"]
    holder, thread = submit_async(
        coordinator, e1_cases()[:2], timeout=0.6
    )
    unit = coordinator.lease(worker_id)["unit"]
    coordinator.complete(worker_id, unit["unit_id"], honest_rows(unit))
    thread.join(timeout=10)  # ... and the second unit never completes.
    assert isinstance(holder.get("error"), ClusterError)
    assert store.quorum_puts == 1
    key = store.key_for(
        unit["cases"][0]["scenario"],
        unit["cases"][0]["params"],
        unit["base_seed"],
        unit["cases"][0]["replication"],
    )
    assert store.get(key) is not None


def test_unknown_ids_raise_key_errors(peerless):
    coordinator = peerless()
    with pytest.raises(KeyError, match="unknown worker"):
        coordinator.lease("w999")
    worker_id = coordinator.register_worker()["worker_id"]
    with pytest.raises(KeyError, match="unknown work unit"):
        coordinator.complete(worker_id, "u999", [])


def test_corrupt_rows_is_identity_for_honest_workers():
    rows = [{"metrics": {"a": 1}}, {"metrics": {"b": 2}}]
    assert corrupt_rows(NoFaultAdversary(), 0, rows) == rows


def test_runner_executor_plugin_and_store_short_circuit(tmp_path, peerless):
    """run_experiments(executor=coordinator) + store: warm runs skip the fabric."""
    store = ResultStore(str(tmp_path / "cache"))
    coordinator = peerless(store=store)
    stop = threading.Event()
    worker, thread = run_worker_thread(coordinator, name="w", stop=stop)
    try:
        live_progress = []
        cold = run_experiments(
            scenarios=[E1],
            store=store,
            executor=coordinator,
            progress=live_progress.append,
        )
        # Progress fired once per case (live from the fabric, no double
        # reporting from the runner's finish pass).
        assert len(live_progress) == 4
        assert coordinator.stats()["units_completed"] == 4
        # The store was written exactly once per case, via the
        # quorum-verified path — the runner skipped its duplicate put.
        assert store.quorum_puts == 4
        assert store.puts == 4
        warm = run_experiments(scenarios=[E1], store=store, executor=coordinator)
        # Fully cached: the coordinator never saw a second sweep.
        assert coordinator.stats()["units_completed"] == 4
        assert warm.cache_hits == len(warm) == 4
        assert warm.to_json_obj() == cold.to_json_obj()
        assert warm.payload_bytes() == serial_results().payload_bytes()
    finally:
        stop.set()
        thread.join(timeout=5)


def test_worker_thread_with_in_process_transport_matches_serial(peerless):
    coordinator = peerless(redundancy=1)
    stop = threading.Event()
    workers = [
        run_worker_thread(coordinator, name=f"w{i}", stop=stop)
        for i in range(3)
    ]
    try:
        results = coordinator.execute_cases(e1_cases(), timeout=30)
        assert [r.payload_dict() for r in results] == [
            r.payload_dict() for r in serial_results()
        ]
    finally:
        stop.set()
        for _worker, thread in workers:
            thread.join(timeout=5)
    assert sum(w.completed for w, _t in workers) == 4


class _ErrorTransport:
    """Transport whose lease always fails with a configurable error."""

    def __init__(self, error):
        self.error = error
        self.registrations = 0

    def register_worker(self, name, worker_id=None):
        """Pretend registration succeeded before the coordinator died."""
        self.registrations += 1
        return {"worker_id": worker_id or "w1", "name": name or "w1"}

    def lease(self, worker_id):
        """Fail every lease with the configured error."""
        raise self.error

    def complete(self, worker_id, unit_id, rows):  # pragma: no cover
        """Unreachable: leases never succeed."""
        raise AssertionError("never reached")


def test_worker_idle_timeout_covers_transient_transport_errors():
    """A worker whose coordinator is unreachable drains off on idle_timeout."""
    from repro.service.client import ServiceError

    transport = _ErrorTransport(ServiceError(0, "cannot reach coordinator"))
    worker = Worker(transport, name="orphan", poll=0.01)
    start = time.monotonic()
    summary = worker.run(idle_timeout=0.15)
    assert time.monotonic() - start < 5.0
    assert summary["completed"] == 0
    assert summary["transport_errors"] >= 2  # kept retrying until idle
    assert "cannot reach" in summary["last_error"]


def test_worker_stops_immediately_on_permanent_server_errors():
    """An HTTP 404 with no coordinator attached stops the loop at once."""
    from repro.service.client import ServiceError

    transport = _ErrorTransport(
        ServiceError(404, "server is running without a cluster coordinator")
    )
    worker = Worker(transport, name="hopeless", poll=0.01)
    summary = worker.run(idle_timeout=None)  # would spin forever if transient
    assert summary["transport_errors"] == 1
    assert "without a cluster coordinator" in summary["last_error"]


def test_worker_reregisters_once_on_unknown_worker_then_stops():
    """"unknown worker" triggers one idempotent re-register, not a spin.

    The transport here keeps answering "unknown worker" even after the
    re-registration succeeds, so the worker must conclude its identity
    cannot be re-established and stop — after exactly one retry.
    """
    from repro.service.client import ServiceError

    for error in (
        KeyError("unknown worker 'w1'; register first"),
        ServiceError(404, "unknown worker 'w1'; register first"),
    ):
        transport = _ErrorTransport(error)
        worker = Worker(transport, name="forgotten", poll=0.01)
        summary = worker.run(idle_timeout=None)
        assert summary["transport_errors"] == 2
        assert "unknown worker" in summary["last_error"]
        assert transport.registrations == 2  # initial + one failover retry
        assert summary["worker_id"] == "w1"  # identity preserved across both


def test_worker_reregistration_recovers_a_restarted_coordinator(peerless):
    """A coordinator that lost its registry is rejoined under the same id."""
    coordinator = peerless()
    worker = Worker(coordinator, name="phoenix", poll=0.01)
    worker.register()
    original_id = worker.worker_id
    # Simulate a restart that wiped the worker registry.
    fresh = peerless()
    worker.transport = fresh
    summary = worker.run(idle_timeout=0.05)
    assert summary["last_error"] is None
    assert worker.worker_id == original_id
    assert any(
        w["worker_id"] == original_id for w in fresh.workers()
    )


def test_worker_fails_loudly_on_unknown_scenario(peerless):
    coordinator = peerless()
    worker = Worker(coordinator, name="stale-code")
    worker.register()
    unit = {
        "unit_id": "u1",
        "base_seed": 0,
        "cases": [
            {
                "scenario": "_no_such_scenario",
                "family": "x",
                "params": {},
                "seed": 1,
                "replication": 0,
            }
        ],
    }
    with pytest.raises(KeyError, match="_no_such_scenario"):
        worker.run_unit(unit)


def test_worker_summary_and_register_roundtrip(peerless):
    coordinator = peerless()
    worker = Worker(coordinator, name="summary")
    assert worker.register().startswith("w")
    summary = worker.run(max_units=0)
    assert summary["worker_id"] == worker.worker_id
    assert summary["completed"] == 0
    assert summary["crashed"] is False


# -- one log entry per unit: complete grants, lease reads ----------------


def machine_with_sweep(n_cases=2, redundancy=1, lease_ttl=10.0):
    """A machine holding one ``n_cases``-unit sweep; returns (machine, ids)."""
    machine = CoordinatorMachine(
        redundancy=redundancy, lease_ttl=lease_ttl, quarantine_after=1
    )
    reply = machine.apply(
        {
            "op": "submit",
            "cases": case_refs(e1_cases()[:n_cases]),
            "base_seed": 0,
            "redundancy": redundancy,
            "now": 0.0,
        }
    )
    return machine, reply["unit_ids"]


def register(machine, name):
    """Register one worker at logical time 0; returns its id."""
    return machine.apply({"op": "register", "name": name, "now": 0.0})[
        "worker_id"
    ]


def lease(machine, worker_id, now):
    """Apply one ``lease`` command; returns the leased unit (or None)."""
    return machine.apply({"op": "lease", "worker_id": worker_id, "now": now})[
        "unit"
    ]


def complete(machine, worker_id, unit, rows=None, now=1.0):
    """Apply one ``complete`` command with honest (or the given) rows."""
    return machine.apply(
        {
            "op": "complete",
            "worker_id": worker_id,
            "unit_id": unit["unit_id"],
            "rows": honest_rows(unit) if rows is None else rows,
            "now": now,
        }
    )


def test_machine_complete_grants_the_next_lease():
    machine, unit_ids = machine_with_sweep(n_cases=3)
    w = register(machine, "w")
    first = lease(machine, w, now=0.0)
    assert first["unit_id"] == unit_ids[0]
    assert complete(machine, w, first)["status"] == "accepted"
    # The same command granted the next unit; the accepted one left the
    # queue, which now holds only unresolved units.
    assert w in machine.s["units"][unit_ids[1]]["leases"]
    assert machine.s["queue"] == unit_ids[1:]
    assert machine.stats()["leases_granted"] == 2
    held = machine.peek_lease(w, now=1.0, settled=True)
    assert held["unit"]["unit_id"] == unit_ids[1]
    # The lease command agrees with the read and grants nothing new.
    assert lease(machine, w, now=1.0)["unit_id"] == unit_ids[1]
    assert machine.stats()["leases_granted"] == 2


def test_machine_lease_returns_the_held_unexpired_lease():
    machine, unit_ids = machine_with_sweep(n_cases=2)
    w = register(machine, "w")
    assert lease(machine, w, now=0.0)["unit_id"] == unit_ids[0]
    assert lease(machine, w, now=5.0)["unit_id"] == unit_ids[0]
    assert machine.stats()["leases_granted"] == 1
    assert machine.s["units"][unit_ids[1]]["leases"] == {}


def test_machine_expired_held_lease_is_not_returned():
    machine, unit_ids = machine_with_sweep(n_cases=2, lease_ttl=10.0)
    w = register(machine, "w")
    assert lease(machine, w, now=0.0)["unit_id"] == unit_ids[0]
    # Past its deadline the held lease is not a read: only a command
    # may reap it, and that command grants a fresh lease.
    assert machine.peek_lease(w, now=11.0, settled=True) is None
    regranted = lease(machine, w, now=11.0)
    assert regranted["unit_id"] == unit_ids[0]
    stats = machine.stats()
    assert (stats["leases_expired"], stats["leases_granted"]) == (1, 2)
    assert machine.s["units"][unit_ids[0]]["leases"] == {w: 21.0}


def test_machine_quarantined_worker_gets_nothing():
    machine, unit_ids = machine_with_sweep(n_cases=2, redundancy=3)
    byz = register(machine, "byz")
    h1 = register(machine, "h1")
    h2 = register(machine, "h2")
    unit = lease(machine, byz, now=0.0)
    complete(machine, byz, unit, rows=[{"garbage": 1}])
    # Still trusted after its (pending) vote: granted the second unit.
    assert byz in machine.s["units"][unit_ids[1]]["leases"]
    complete(machine, h1, unit)
    assert complete(machine, h2, unit)["status"] == "accepted"
    # Outvoted and quarantined: its lease is released, a further
    # completion grants nothing, and its lease is never a read.
    assert machine.workers_view()[0]["quarantined"] is True
    second = machine.s["units"][unit_ids[1]]
    assert byz not in second["leases"]
    reply = complete(machine, byz, machine._lease_payload(second))
    assert reply["status"] == "quarantined"
    assert byz not in second["leases"]
    assert machine.peek_lease(byz, now=2.0, settled=True) is None
    assert machine.apply({"op": "lease", "worker_id": byz, "now": 2.0}) == {
        "unit": None,
        "open": 1,
        "quarantined": True,
    }


def test_machine_peek_lease_empty_only_when_settled_and_nothing_expired():
    machine, unit_ids = machine_with_sweep(n_cases=1, lease_ttl=10.0)
    a = register(machine, "a")
    b = register(machine, "b")
    assert lease(machine, a, now=0.0)["unit_id"] == unit_ids[0]
    idle = {"unit": None, "open": 1, "quarantined": False}
    assert machine.peek_lease(b, now=1.0, settled=True) == idle
    # An unapplied entry (a submit in flight) may hold work: no read.
    assert machine.peek_lease(b, now=1.0, settled=False) is None
    # An expired lease must be reaped by a command first.
    assert machine.peek_lease(b, now=10.0, settled=True) is None


def test_machine_restore_rebuilds_the_lease_index():
    machine, unit_ids = machine_with_sweep(n_cases=2, lease_ttl=10.0)
    w = register(machine, "w")
    lease(machine, w, now=0.0)
    twin = CoordinatorMachine(lease_ttl=10.0, quarantine_after=1)
    twin.restore(machine.snapshot())
    for replica in (machine, twin):
        replica.apply({"op": "tick", "now": 11.0})
        assert replica.stats()["leases_expired"] == 1
    assert twin.state_digest() == machine.state_digest()


class _SpanCountingTransport:
    """An in-process transport that records every span batch pushed."""

    def __init__(self, coordinator):
        self.coordinator = coordinator
        self.batches = []

    def register_worker(self, name, worker_id=None):
        """Forward to the coordinator."""
        return self.coordinator.register_worker(name, worker_id=worker_id)

    def lease(self, worker_id):
        """Forward to the coordinator."""
        return self.coordinator.lease(worker_id)

    def complete(self, worker_id, unit_id, rows):
        """Forward to the coordinator."""
        return self.coordinator.complete(worker_id, unit_id, rows)

    def push_spans(self, spans):
        """Record one pushed batch."""
        self.batches.append(list(spans))


def test_worker_batches_span_pushes_without_losing_any(peerless):
    """A busy worker ships its spans when idle, not once per unit."""
    coordinator = peerless()
    transport = _SpanCountingTransport(coordinator)
    stop = threading.Event()
    worker, thread = run_worker_thread(transport, name="w", stop=stop)
    try:
        with activate(new_trace()) as ctx:
            coordinator.execute_cases(e1_cases(replications=3), timeout=30)
        wait_until_pushed = time.monotonic() + 10.0
        while (
            sum(len(b) for b in transport.batches) < 12
            and time.monotonic() < wait_until_pushed
        ):
            time.sleep(0.01)
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    spans = [s for batch in transport.batches for s in batch]
    assert worker.completed == 12
    assert len(spans) == 12
    assert {s["name"] for s in spans} == {"worker.run_unit"}
    assert {s["trace_id"] for s in spans} == {ctx.trace_id}
    # Leases never come back empty mid-sweep (each complete grants the
    # next unit), so the twelve spans travel in at most two pushes.
    assert len(transport.batches) <= 2


def test_worker_pushes_spans_before_its_buffer_wraps(monkeypatch, peerless):
    """A full span buffer is shipped before a further span could evict one."""
    import repro.cluster.worker as worker_module

    monkeypatch.setattr(worker_module, "_SPAN_CAPACITY", 4)
    coordinator = peerless()
    transport = _SpanCountingTransport(coordinator)
    worker = Worker(transport, name="w", poll=0.01)

    def traced_sweep():
        """Submit under a trace, so every unit's span is recorded."""
        with activate(new_trace()):
            coordinator.execute_cases(e1_cases(replications=3), timeout=30)

    thread = threading.Thread(target=traced_sweep, daemon=True)
    thread.start()
    worker.run(max_units=12)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [len(batch) for batch in transport.batches] == [4, 4, 4]


# -- the single-process coordinator: a peerless replica -------------------


def test_peerless_replica_leads_when_start_returns(peerless):
    coordinator = peerless()
    status = coordinator.raft_status()
    assert status["role"] == "leader"
    assert status["leader"] == "local"
    assert status["peers"] == []
    # Serves writes at once: no election timeout to wait out.
    assert coordinator.register_worker("w")["worker_id"] == "w1"


def test_peerless_replica_compacts_its_memory_log(peerless):
    """The in-memory log stays bounded by ``snapshot_interval``."""
    coordinator = peerless(snapshot_interval=8)
    bare = CoordinatorMachine()
    for i in range(40):
        command = {"op": "register", "name": f"w{i}", "now": float(i)}
        coordinator.submit_command(dict(command))
        bare.apply(command)
    status = coordinator.raft_status()
    assert status["base_index"] > 0
    assert status["last_log_index"] - status["base_index"] < 8
    assert status["state_digest"] == bare.state_digest()
