"""Fault-tolerant multi-worker compute fabric with quorum-verified results.

The reproduction eats its own cooking: Halpern's PODC'08 program is
about solution concepts that survive faulty and Byzantine participants,
and this package runs the experiment sweeps on a compute fabric built to
the same standard.  A coordinator — a :class:`~repro.cluster.replica.Replica`
driving the :class:`~repro.cluster.coordinator.CoordinatorMachine` —
shards a sweep's cases by content-address key into work units and leases
them to registered :class:`~repro.cluster.worker.Worker` processes over
the :mod:`repro.service` HTTP API (``POST /v1/workers``, ``/v1/lease``,
``/v1/complete``):

* **crash/straggler tolerance** — an uncompleted lease expires after
  ``lease_ttl`` seconds and the unit is reassigned;
* **Byzantine tolerance** — with ``redundancy = r``, a unit is accepted
  only when ``⌊r/2⌋ + 1`` distinct workers return byte-identical
  canonical-JSON payloads; losing voters are struck and quarantined;
* **determinism** — seeds ship inside the units and votes hash the
  rows' deterministic payload, so serial == process-pool == cluster
  byte-for-byte under fixed seeds;
* **caching** — workers execute through the shared runner path with a
  local content-addressed store in front, so warm keys are never
  recomputed, and quorum-accepted rows are written through the server's
  store via :meth:`~repro.service.store.ResultStore.put_quorum`.

Fault injection reuses the :mod:`repro.dist.faults` adversary hierarchy
(NoFault/Crash/ByzantineRandom/Scripted) wrapped around the worker loop.

The coordinator need not be a single point of failure: the same
:class:`~repro.cluster.replica.Replica` runs as 3+ processes behind a
majority-quorum consensus log (:class:`~repro.cluster.log.DurableLog`
on disk, :class:`~repro.cluster.replica.RaftCore` for the pure
consensus rules).  A single-process coordinator is one peerless
``Replica(None, url)`` over an in-memory
:class:`~repro.cluster.replica.MemoryLog`.  Followers bounce writes with HTTP 421 plus a leader
hint (:class:`~repro.cluster.errors.NotLeaderError`); workers and
clients take every replica URL and fail over automatically, so sweeps
finish byte-identically through a leader ``SIGKILL``.

``python -m repro.cluster`` drives it from the shell::

    python -m repro.cluster coordinator --port 8642 --cache-dir .cache
    python -m repro.cluster worker --url http://127.0.0.1:8642
    python -m repro.cluster worker --url ... --fault byzantine
    python -m repro.cluster submit --family robustness --redundancy 3 --wait

or, replicated (one ``replica`` process per data directory)::

    python -m repro.cluster replica --port 8651 --data-dir r1 \\
        --peers http://127.0.0.1:8652,http://127.0.0.1:8653
    python -m repro.cluster worker \\
        --url http://127.0.0.1:8651,http://127.0.0.1:8652,http://127.0.0.1:8653
"""

from repro.cluster.coordinator import (
    ClusterError,
    ClusterExecutor,
    CoordinatorMachine,
    unit_digest,
)
from repro.cluster.errors import NotLeaderError
from repro.cluster.log import DurableLog, LogEntry
from repro.cluster.replica import MemoryLog, RaftCore, Replica
from repro.cluster.worker import Worker, corrupt_rows, run_worker_thread

__all__ = [
    "ClusterError",
    "ClusterExecutor",
    "CoordinatorMachine",
    "DurableLog",
    "LogEntry",
    "MemoryLog",
    "NotLeaderError",
    "RaftCore",
    "Replica",
    "Worker",
    "corrupt_rows",
    "run_worker_thread",
    "unit_digest",
]
