"""HTTP JSON API over the job manager and result store.

The route handlers live in :class:`ServiceAPI`, a transport-agnostic
core: one method per endpoint, each returning an :class:`ApiResponse`
value (status, body bytes or a blob file reference, content type,
ETag).  The transport is :mod:`repro.service.aserver`, the asyncio
event-loop server that multiplexes thousands of keep-alive connections
on one core.

====== ============================ ==========================================
Method Path                         Meaning
====== ============================ ==========================================
GET    ``/v1/health``               liveness + store/job-manager counters
GET    ``/v1/scenarios``            the scenario registry listing
POST   ``/v1/sweeps``               submit a sweep; returns the job id
GET    ``/v1/jobs``                 all jobs, oldest first
GET    ``/v1/jobs/<id>``            one job's status/progress payload
GET    ``/v1/jobs/<id>/results``    finished job's results (409 until done)
GET    ``/v1/results/<key>``        one cached blob (ETag = content address)
POST   ``/v1/results:batch``        N cached blobs, newline-delimited JSON
GET    ``/v1/store/stats``          store counters (hits/misses/disk bytes)
POST   ``/v1/solve``                synchronous small-game solving
POST   ``/v1/workers``              register a cluster worker
POST   ``/v1/lease``                lease one work unit to a worker
POST   ``/v1/complete``             post a unit's result rows (quorum vote)
GET    ``/v1/cluster``              cluster scheduler counters + workers
POST   ``/v1/raft/rpc``             one replica-to-replica consensus message
GET    ``/v1/raft/status``          this replica's consensus-level status
GET    ``/v1/metrics``              this process's metrics (Prometheus text)
GET    ``/v1/trace/<trace_id>``     retained spans of one trace, as JSON
POST   ``/v1/trace``                span ingest (workers/clients push here)
GET    ``/v1/events``               recent structured log events
====== ============================ ==========================================

``HEAD`` is supported on every GET route (same headers, no body).
Because results are content-addressed, ``/v1/results/<key>`` carries a
perfect ``ETag`` — the key itself — and honours ``If-None-Match`` with
a body-less 304, so warm clients pay zero body bytes per revalidation.

Sweep submission replies immediately (HTTP 202) with the job id; heavy
work happens on the manager's worker threads and process pool.  The
``/v1/results/<key>`` fetch serves the store's canonical bytes, so a
warm client read is byte-identical to what the cold computation wrote.
The cluster endpoints (``/v1/workers``, ``/v1/lease``,
``/v1/complete``) forward their JSON bodies verbatim into the attached
coordinator — a :class:`~repro.cluster.replica.Replica`, either a
peerless single-process one or one member of the replicated control
plane (404 when the server runs without one).

Writes sent to a follower replica answer **421
Misdirected Request** with the best-known leader URL in the body
(``{"error": "not the leader", "leader": ...}``);
:class:`~repro.service.client.ServiceClient` follows the hint
transparently, so callers never see the redirect.  The ``/v1/raft/*``
routes carry the consensus traffic itself: peers POST one message per
RPC and the reply message rides back in the response body.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from urllib.parse import parse_qsl

from repro.cluster.errors import NotLeaderError
from repro.obs.logs import events_since, log_event, recent_events
from repro.obs.metrics import default_registry, render_prometheus
from repro.obs.trace import current_context, default_recorder
from repro.service.jobs import JobManager, SweepRequest, TooManyJobsError
from repro.service.solve import solve_request
from repro.service.store import ResultStore

__all__ = [
    "ApiError",
    "ApiResponse",
    "ServiceAPI",
    "build_manager",
    "etag_matches",
]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_BATCH_KEYS = 10_000
_MAX_TRACE_BODY_BYTES = 512 * 1024
_MAX_TRACE_SPANS = 2048
# Blobs at or above this size are handed to the transport as a file
# reference (``ApiResponse.blob_path``) for sendfile/streamed serving;
# smaller ones ride in memory through the store's LRU.
_SENDFILE_MIN_BYTES = 64 * 1024


class ApiError(Exception):
    """An HTTP-visible request failure: status code plus message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def etag_matches(header: Optional[str], etag: str) -> bool:
    """Does an ``If-None-Match`` header value match a strong ``etag``?

    Accepts ``*``, a single tag, or a comma-separated list; weak
    validators (``W/"..."``) compare by opaque tag, which is correct
    here because a content address can never collide weakly.
    """
    if not header:
        return False
    header = header.strip()
    if header == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def _parse_query(raw_path: str) -> Dict[str, str]:
    """The request's query parameters (last value wins per key)."""
    if "?" not in raw_path:
        return {}
    return dict(parse_qsl(raw_path.split("?", 1)[1]))


@dataclass
class ApiResponse:
    """One endpoint's transport-agnostic result.

    Exactly one of ``body`` or ``blob_path`` is set (``body`` may be
    empty for 304s).  ``chunks`` optionally carries a pre-split body
    for transports that stream (the NDJSON batch endpoint); when set,
    ``body`` is their concatenation for transports that don't.
    """

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    etag: Optional[str] = None
    blob_path: Optional[str] = None
    blob_size: int = 0
    chunks: Optional[List[bytes]] = field(default=None, repr=False)

    @property
    def content_length(self) -> int:
        """Declared body length (the blob size for file responses)."""
        if self.blob_path is not None:
            return self.blob_size
        return len(self.body)


class ServiceAPI:
    """The route table and handlers, independent of any HTTP transport.

    A transport parses the request line, headers, and body off its
    connection and calls :meth:`handle`; everything after that —
    routing, validation, the JSON error envelope, ETag revalidation —
    happens here, so the threaded and asyncio servers cannot drift
    apart behaviourally.
    """

    def __init__(
        self,
        manager: JobManager,
        registry=None,
        recorder=None,
        watchdog=None,
    ) -> None:
        self.manager = manager
        self.registry = registry if registry is not None else default_registry()
        self.recorder = recorder if recorder is not None else default_recorder()
        self.watchdog = watchdog
        self._trace_rejected = self.registry.counter(
            "repro_trace_ingest_rejected_total",
            "Span-ingest requests rejected for exceeding size bounds.",
        )

    # -- dispatch ------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        if_none_match: Optional[str] = None,
    ) -> ApiResponse:
        """Serve one request; failures become the JSON error envelope."""
        try:
            handler, args = self._route(method, path)
            return handler(
                *args,
                body=body,
                if_none_match=if_none_match,
                query=_parse_query(path),
            )
        except ApiError as exc:
            return self._json(exc.status, {"error": exc.message})
        except NotLeaderError as exc:
            # A write reached a follower replica: 421 plus the leader
            # hint, which the client follows transparently.
            log_event(
                "redirect.421",
                "service",
                path=path,
                leader=exc.leader_url,
            )
            return self._json(
                421, {"error": "not the leader", "leader": exc.leader_url}
            )
        except TooManyJobsError as exc:
            return self._json(503, {"error": str(exc)})
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            status = 404 if isinstance(exc, KeyError) else 400
            return self._json(status, {"error": str(message)})
        except Exception as exc:  # pragma: no cover - defensive 500
            return self._json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _route(self, method: str, raw_path: str) -> Tuple[Any, tuple]:
        """Resolve (handler, args) for the request path."""
        path = raw_path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]
        if method == "HEAD":
            method = "GET"  # identical routing; transports drop the body
        if method == "GET":
            if parts == ["v1", "health"]:
                return self._get_health, ()
            if parts == ["v1", "scenarios"]:
                return self._get_scenarios, ()
            if parts == ["v1", "jobs"]:
                return self._get_jobs, ()
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                return self._get_job, (parts[2],)
            if (
                len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "results"
            ):
                return self._get_job_results, (parts[2],)
            if len(parts) == 3 and parts[:2] == ["v1", "results"]:
                return self._get_result_blob, (parts[2],)
            if parts == ["v1", "store", "stats"]:
                return self._get_store_stats, ()
            if parts == ["v1", "cluster"]:
                return self._get_cluster, ()
            if parts == ["v1", "raft", "status"]:
                return self._get_raft_status, ()
            if parts == ["v1", "metrics"]:
                return self._get_metrics, ()
            if len(parts) == 3 and parts[:2] == ["v1", "trace"]:
                return self._get_trace, (parts[2],)
            if parts == ["v1", "events"]:
                return self._get_events, ()
            if parts == ["v1", "watch", "status"]:
                return self._get_watch_status, ()
            if parts == ["v1", "watch", "query"]:
                return self._get_watch_query, ()
            if parts == ["v1", "watch", "dash"]:
                return self._get_watch_dash, ()
        if method == "POST":
            if parts == ["v1", "sweeps"]:
                return self._post_sweep, ()
            if parts == ["v1", "results:batch"]:
                return self._post_results_batch, ()
            if parts == ["v1", "solve"]:
                return self._post_solve, ()
            if parts == ["v1", "workers"]:
                return self._post_register_worker, ()
            if parts == ["v1", "lease"]:
                return self._post_lease, ()
            if parts == ["v1", "complete"]:
                return self._post_complete, ()
            if parts == ["v1", "raft", "rpc"]:
                return self._post_raft_rpc, ()
            if parts == ["v1", "trace"]:
                return self._post_trace, ()
        raise ApiError(404, f"no route for {method} {raw_path}")

    # -- response/body helpers -----------------------------------------

    @staticmethod
    def _json(status: int, payload: Any) -> ApiResponse:
        """One compact JSON response (the C encoder; CLIs pretty-print)."""
        body = (
            json.dumps(payload, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        return ApiResponse(status, body)

    @staticmethod
    def _parse_json_body(body: bytes) -> Dict[str, Any]:
        """Parse a request body as a JSON object (ApiError on garbage)."""
        if not body:
            return {}
        try:
            obj = json.loads(body)
        except ValueError as exc:
            raise ApiError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(obj, dict):
            raise ApiError(400, "JSON body must be an object")
        return obj

    def _store(self) -> ResultStore:
        """The attached result store (404 when absent)."""
        store = self.manager.store
        if store is None:
            raise ApiError(404, "server is running without a result store")
        return store

    def _coordinator(self):
        """The attached cluster coordinator (404 when absent)."""
        coordinator = self.manager.coordinator
        if coordinator is None:
            raise ApiError(
                404, "server is running without a cluster coordinator"
            )
        return coordinator

    # -- endpoints -----------------------------------------------------

    def _get_health(self, **_ignored) -> ApiResponse:
        """Liveness plus store, manager, and cluster counters."""
        store = self.manager.store
        coordinator = self.manager.coordinator
        return self._json(
            200,
            {
                "status": "ok",
                "store": None if store is None else store.stats(),
                "manager": self.manager.stats(),
                "cluster": None
                if coordinator is None
                else coordinator.stats(),
            },
        )

    def _get_store_stats(self, **_ignored) -> ApiResponse:
        """The result store's counters (hits/misses, blob count, bytes)."""
        return self._json(200, self._store().stats())

    def _get_cluster(self, **_ignored) -> ApiResponse:
        """Cluster scheduler counters plus the per-worker registry."""
        coordinator = self._coordinator()
        return self._json(
            200,
            {"stats": coordinator.stats(), "workers": coordinator.workers()},
        )

    def _get_raft_status(self, **_ignored) -> ApiResponse:
        """This replica's consensus-level status (role/term/log/digest)."""
        return self._json(200, self._coordinator().raft_status())

    def _get_metrics(self, **_ignored) -> ApiResponse:
        """This process's metrics, Prometheus text exposition format."""
        body = render_prometheus(self.registry).encode("utf-8")
        return ApiResponse(
            200, body, content_type="text/plain; version=0.0.4; charset=utf-8"
        )

    def _get_trace(self, trace_id: str, **_ignored) -> ApiResponse:
        """Retained spans of one trace, ordered by start time."""
        return self._json(
            200,
            {"trace_id": trace_id, "spans": self.recorder.export(trace_id)},
        )

    def _post_trace(self, body=b"", **_ignored) -> ApiResponse:
        """Ingest spans pushed by workers/clients (deduplicated).

        Bodies past ``_MAX_TRACE_BODY_BYTES`` or span lists past
        ``_MAX_TRACE_SPANS`` are rejected with 413 (and counted) before
        any JSON parsing touches them — the recorder ring is bounded,
        so an oversized push could only evict useful spans.
        """
        if len(body) > _MAX_TRACE_BODY_BYTES:
            self._trace_rejected.inc()
            raise ApiError(
                413,
                f"trace body {len(body)} bytes exceeds "
                f"{_MAX_TRACE_BODY_BYTES}",
            )
        parsed = self._parse_json_body(body)
        spans = parsed.get("spans")
        if not isinstance(spans, list):
            raise ApiError(400, "trace push needs spans: [obj, ...]")
        if len(spans) > _MAX_TRACE_SPANS:
            self._trace_rejected.inc()
            raise ApiError(
                413, f"trace push of {len(spans)} spans exceeds "
                f"{_MAX_TRACE_SPANS}",
            )
        return self._json(200, {"ingested": self.recorder.ingest(spans)})

    def _get_events(self, query=None, **_ignored) -> ApiResponse:
        """Recent structured log events retained by this process.

        With ``?since=<seq>`` this is a cursor read: only events newer
        than the sequence number return, along with ``next_since`` (the
        cursor for the next poll) and ``dropped`` (events lost to ring
        wrap since the cursor) — so followers neither re-read nor
        silently miss events.
        """
        query = query or {}
        limit = int(query.get("limit", 200))
        if limit <= 0 or limit > 2000:
            raise ApiError(400, "limit must be in 1..2000")
        if "since" in query:
            try:
                since = int(query["since"])
            except ValueError:
                raise ApiError(400, "since must be an integer") from None
            events, next_since, dropped = events_since(since, limit)
            return self._json(
                200,
                {
                    "events": events,
                    "next_since": next_since,
                    "dropped": dropped,
                },
            )
        return self._json(200, {"events": recent_events(limit=limit)})

    def _watchdog(self):
        """The serving watchdog: attached here or on the coordinator.

        A replica embeds its watchdog after construction
        (``attach_watchdog``), so the lookup is dynamic rather than
        captured at ``ServiceAPI.__init__`` time.
        """
        watchdog = self.watchdog
        coordinator = self.manager.coordinator
        if watchdog is None and coordinator is not None:
            watchdog = coordinator.watchdog
        if watchdog is None:
            raise ApiError(404, "server is running without a watchdog")
        return watchdog

    def _get_watch_status(self, **_ignored) -> ApiResponse:
        """The watchdog's endpoint health, alert states, and TSDB stats."""
        return self._json(200, self._watchdog().status())

    def _get_watch_query(self, query=None, **_ignored) -> ApiResponse:
        """Range-query the watchdog TSDB (see ``query_from_params``)."""
        return self._json(200, self._watchdog().query_from_params(query or {}))

    def _get_watch_dash(self, **_ignored) -> ApiResponse:
        """The self-contained HTML dashboard."""
        from repro.obs.dash import render_dash

        body = render_dash(self._watchdog()).encode("utf-8")
        return ApiResponse(
            200, body, content_type="text/html; charset=utf-8"
        )

    def _post_raft_rpc(self, body=b"", **_ignored) -> ApiResponse:
        """One peer consensus message; the reply message rides back."""
        message = self._parse_json_body(body)
        return self._json(200, self._coordinator().handle_rpc(message))

    def _post_register_worker(self, body=b"", **_ignored) -> ApiResponse:
        """Register a cluster worker; returns its assigned id.

        An explicit ``worker_id`` in the body makes registration
        idempotent — a worker re-registering after failing over to a
        new leader keeps its identity and strike history.
        """
        parsed = self._parse_json_body(body)
        return self._json(
            200,
            self._coordinator().register_worker(
                parsed.get("name"), worker_id=parsed.get("worker_id")
            ),
        )

    def _post_lease(self, body=b"", **_ignored) -> ApiResponse:
        """Lease the next eligible work unit to the requesting worker."""
        parsed = self._parse_json_body(body)
        worker_id = parsed.get("worker_id")
        if not worker_id:
            raise ApiError(400, "lease request needs a worker_id")
        return self._json(200, self._coordinator().lease(worker_id))

    def _post_complete(self, body=b"", **_ignored) -> ApiResponse:
        """Record a worker's result rows for a unit as a quorum vote."""
        parsed = self._parse_json_body(body)
        worker_id = parsed.get("worker_id")
        unit_id = parsed.get("unit_id")
        rows = parsed.get("rows")
        if not worker_id or not unit_id or not isinstance(rows, list):
            raise ApiError(
                400, "complete request needs worker_id, unit_id, and rows"
            )
        return self._json(
            200, self._coordinator().complete(worker_id, unit_id, rows)
        )

    def _get_scenarios(self, **_ignored) -> ApiResponse:
        """The scenario registry listing."""
        return self._json(
            200, {"scenarios": self.manager.scenario_listing()}
        )

    def _get_jobs(self, **_ignored) -> ApiResponse:
        """Status payloads for every job, oldest first."""
        return self._json(
            200, {"jobs": [job.to_json_obj() for job in self.manager.jobs()]}
        )

    def _get_job(self, job_id: str, **_ignored) -> ApiResponse:
        """One job's status payload."""
        return self._json(200, self.manager.get(job_id).to_json_obj())

    def _get_job_results(self, job_id: str, **_ignored) -> ApiResponse:
        """A finished job's results (409 while running, 502 on error)."""
        job = self.manager.get(job_id)
        if job.status in ("queued", "running"):
            raise ApiError(
                409, f"job {job_id} is {job.status}; poll until done"
            )
        if job.status == "error" or job.results is None:
            raise ApiError(502, f"job {job_id} failed: {job.error}")
        # ``cached`` is transport metadata, not part of the result rows
        # (rows must serialize byte-identically warm or cold), so it
        # rides alongside as a parallel array.
        return self._json(
            200,
            {
                "job": job.to_json_obj(),
                "results": job.results.to_json_obj(),
                "cached": [r.cached for r in job.results],
            },
        )

    def _get_result_blob(
        self, key: str, if_none_match: Optional[str] = None, **_ignored
    ) -> ApiResponse:
        """One cached case: canonical store bytes, content-address ETag.

        The content address *is* the representation's identity, so the
        ETag is simply the quoted key and an ``If-None-Match`` hit is a
        body-less 304 — the cheapest possible warm read.  Blobs past
        ``_SENDFILE_MIN_BYTES`` are returned as a file reference so the
        async transport can ``sendfile`` them without copying through
        Python.
        """
        store = self._store()
        try:
            path = store.path_for(key)
        except ValueError as exc:
            raise ApiError(400, str(exc)) from None
        etag = f'"{key}"'
        size: Optional[int]
        try:
            size = os.stat(path).st_size
        except OSError:
            size = None
        if size is None:
            # Rare: memory-only entry (file raced away); serve the LRU.
            data = store.get_bytes_cached(key)
            if data is None:
                raise ApiError(404, f"no cached result under key {key}")
            if etag_matches(if_none_match, etag):
                return ApiResponse(304, b"", etag=etag)
            return ApiResponse(200, data, etag=etag)
        if etag_matches(if_none_match, etag):
            return ApiResponse(304, b"", etag=etag)
        if size >= _SENDFILE_MIN_BYTES:
            return ApiResponse(
                200, b"", etag=etag, blob_path=path, blob_size=size
            )
        data = store.get_bytes_cached(key)
        if data is None:
            raise ApiError(404, f"no cached result under key {key}")
        return ApiResponse(200, data, etag=etag)

    def _post_results_batch(self, body=b"", **_ignored) -> ApiResponse:
        """N cached blobs in one round trip, as newline-delimited JSON.

        Request: ``{"keys": ["<sha256>", ...]}``.  Response: one JSON
        object per line, in request order —
        ``{"key": ..., "found": true, "result": <blob>}`` or
        ``{"key": ..., "found": false}`` — so a client can stream-parse
        results as they arrive instead of buffering one giant array.
        """
        parsed = self._parse_json_body(body)
        keys = parsed.get("keys")
        if not isinstance(keys, list) or not all(
            isinstance(k, str) for k in keys
        ):
            raise ApiError(400, "batch request needs keys: [str, ...]")
        if len(keys) > _MAX_BATCH_KEYS:
            raise ApiError(
                413, f"at most {_MAX_BATCH_KEYS} keys per batch request"
            )
        store = self._store()
        chunks: List[bytes] = []
        for key in keys:
            try:
                data = store.get_bytes_cached(key)
            except ValueError:
                data = None  # malformed key: reported as not found
            key_json = json.dumps(key).encode("utf-8")
            if data is None:
                chunks.append(b'{"key":%s,"found":false}\n' % key_json)
            else:
                chunks.append(
                    b'{"key":%s,"found":true,"result":%s}\n'
                    % (key_json, data.strip())
                )
        return ApiResponse(
            200,
            b"".join(chunks),
            content_type="application/x-ndjson",
            chunks=chunks,
        )

    def _post_sweep(self, body=b"", **_ignored) -> ApiResponse:
        """Submit (or single-flight join) a sweep; 202 with the job id."""
        request = SweepRequest.from_json_obj(self._parse_json_body(body))
        coordinator = self.manager.coordinator
        if request.executor == "cluster" and coordinator is not None:
            # Fail fast on a follower replica (421 + leader hint) so the
            # job slot is never burned on a doomed submission.  A server
            # with no coordinator at all still accepts the job — it
            # errors out with a clear message when it runs.
            coordinator.require_leader()
        ctx = current_context()
        job = self.manager.submit(
            request, trace_id=None if ctx is None else ctx.trace_id
        )
        return self._json(
            202,
            {
                "job_id": job.job_id,
                "status": job.status,
                "submissions": job.submissions,
            },
        )

    def _post_solve(self, body=b"", **_ignored) -> ApiResponse:
        """Synchronously solve one small normal-form game."""
        return self._json(200, solve_request(self._parse_json_body(body)))


def build_manager(
    manager: Optional[JobManager] = None,
    store: Optional[ResultStore] = None,
    max_workers: Optional[int] = None,
    coordinator: Optional[Any] = None,
) -> JobManager:
    """The manager both transports build their server around.

    Returns ``manager`` unchanged when given one; otherwise constructs
    a fresh :class:`JobManager` from the parts.
    """
    if manager is not None:
        return manager
    return JobManager(
        store=store, max_workers=max_workers, coordinator=coordinator
    )
