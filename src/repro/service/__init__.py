"""Serving layer: content-addressed result cache + experiment/solver API.

PR 2 made every experiment case a pure function of
``(scenario, params, base_seed, replication)``; this package exploits
that purity to turn the batch reproduction into a queryable system:

* :mod:`repro.service.store` — :class:`~repro.service.store.ResultStore`,
  a content-addressed result cache (sha256 keys over canonical JSON,
  disk blobs behind an in-process LRU, atomic temp-file/rename writes).
* :mod:`repro.service.jobs` — :class:`~repro.service.jobs.JobManager`,
  asynchronous sweep jobs with single-flight dedup of identical
  in-flight requests and a persistent process pool for the misses.
* :mod:`repro.service.app` — the transport-agnostic
  :class:`~repro.service.app.ServiceAPI` JSON routing core (scenarios,
  sweep submit/poll/fetch, cached-blob fetch by key with ETag/304, an
  NDJSON ``/v1/results:batch``, and a synchronous ``/v1/solve`` for
  small normal-form games).
* :mod:`repro.service.aserver` — the asyncio server: one event loop
  multiplexing thousands of pipelined keep-alive connections, zero-copy
  blob responses, graceful SIGTERM drain.
* :mod:`repro.service.client` — a keep-alive
  :class:`~repro.service.client.ServiceClient` mirroring the endpoints,
  with multi-endpoint failover for replicated deployments.
* :mod:`repro.service.solve` — the JSON game-solving dispatch shared by
  the server and any embedding caller.

With a :class:`repro.cluster.replica.Replica` attached — a peerless
one (``python -m repro.cluster coordinator``) or one member of a
replicated control plane (``python -m repro.cluster replica``) — the
same server also speaks the compute-fabric protocol: worker
registration, work-unit leases, quorum-voted completions, and the
``/v1/raft/*`` consensus channel (see :mod:`repro.cluster`).

``python -m repro.service`` drives it from the shell::

    python -m repro.service serve --port 8642 --cache-dir .repro-cache
    python -m repro.service submit --family robustness --wait
    python -m repro.service status job-1
    python -m repro.service fetch <sha256-key>
"""

from repro.service.aserver import aserve_forever, start_async_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager, SweepRequest
from repro.service.solve import solve_request
from repro.service.store import ResultStore, canonical_json, result_key

__all__ = [
    "Job",
    "JobManager",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "SweepRequest",
    "aserve_forever",
    "canonical_json",
    "result_key",
    "solve_request",
    "start_async_server",
]
