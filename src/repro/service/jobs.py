"""Job manager: sweep requests, single-flight dedup, shared process pool.

A *job* is one sweep request (scenarios/families/smoke + seed knobs)
executed asynchronously on a worker thread, with its cases consulted
against the content-addressed :class:`~repro.service.store.ResultStore`
first and the misses sharded across one *persistent*
``ProcessPoolExecutor`` shared by every job — the pool's workers warm up
once and then serve the whole server lifetime.

Identical requests are *single-flighted*: while a job for a request
signature is still running, further submissions of the same signature
attach to it instead of spawning duplicate computation.  Combined with
the store this gives the two cache layers of the service: in-flight
dedup for concurrent identical traffic, content addressing for repeat
traffic over time.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.registry import all_scenarios
from repro.experiments.results import ExperimentResult, ResultSet
from repro.experiments.runner import (
    _collect_cases,
    _execute_cases,
    _smoke_case_list,
)
from repro.obs.metrics import default_registry
from repro.obs.trace import span_for_trace_id
from repro.service.store import ResultStore, canonical_json

__all__ = ["SweepRequest", "Job", "JobManager", "TooManyJobsError"]


class TooManyJobsError(RuntimeError):
    """Raised when a submit would exceed the concurrent-job limit."""


@dataclass(frozen=True)
class SweepRequest:
    """A normalized sweep request (the unit of single-flight dedup).

    ``executor`` selects where cache-miss cases compute: ``"local"``
    (the job thread / shared process pool) or ``"cluster"`` (the
    server's coordinator :class:`~repro.cluster.replica.Replica`,
    which leases units to registered workers); ``redundancy`` is the
    cluster's r-fold replication level with majority-quorum acceptance.
    """

    scenarios: tuple = ()
    families: tuple = ()
    smoke: bool = False
    base_seed: int = 0
    limit_per_scenario: Optional[int] = None
    replications: int = 1
    executor: str = "local"
    redundancy: int = 1

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "SweepRequest":
        """Build a request from a JSON body, rejecting unknown fields."""
        known = {
            "scenarios",
            "families",
            "smoke",
            "base_seed",
            "limit_per_scenario",
            "replications",
            "executor",
            "redundancy",
        }
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown sweep request fields: {sorted(extra)}")
        replications = int(obj.get("replications", 1))
        if replications < 1:
            raise ValueError("replications must be >= 1")
        executor = str(obj.get("executor", "local"))
        if executor not in ("local", "cluster"):
            raise ValueError(
                f"executor must be 'local' or 'cluster', got {executor!r}"
            )
        redundancy = int(obj.get("redundancy", 1))
        if redundancy < 1:
            raise ValueError("redundancy must be >= 1")
        limit = obj.get("limit_per_scenario")
        return cls(
            scenarios=tuple(obj.get("scenarios") or ()),
            families=tuple(obj.get("families") or ()),
            smoke=bool(obj.get("smoke", False)),
            base_seed=int(obj.get("base_seed", 0)),
            limit_per_scenario=None if limit is None else int(limit),
            replications=replications,
            executor=executor,
            redundancy=redundancy,
        )

    def signature(self) -> str:
        """Canonical-JSON identity used for single-flight deduplication."""
        return canonical_json(
            {
                "scenarios": sorted(self.scenarios),
                "families": sorted(self.families),
                "smoke": self.smoke,
                "base_seed": self.base_seed,
                "limit_per_scenario": self.limit_per_scenario,
                "replications": self.replications,
                "executor": self.executor,
                "redundancy": self.redundancy,
            }
        )

    def to_json_obj(self) -> Dict[str, Any]:
        """JSON-ready rendering (echoed back in job status payloads)."""
        return {
            "scenarios": list(self.scenarios),
            "families": list(self.families),
            "smoke": self.smoke,
            "base_seed": self.base_seed,
            "limit_per_scenario": self.limit_per_scenario,
            "replications": self.replications,
            "executor": self.executor,
            "redundancy": self.redundancy,
        }


@dataclass
class Job:
    """One submitted sweep: status, progress counters, and results.

    ``status`` walks ``queued -> running -> done | error``.  Progress
    counters are updated case-by-case from the job's worker thread, so
    polling clients see live completion fractions and cache hit/miss
    splits; ``elapsed`` is the wall-clock of the whole job, which is
    what the warm/cold benchmark rows compare.
    """

    job_id: str
    request: SweepRequest
    status: str = "queued"
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    total_cases: int = 0
    completed_cases: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    submissions: int = 1
    error: Optional[str] = None
    trace_id: Optional[str] = None
    results: Optional[ResultSet] = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def elapsed(self) -> Optional[float]:
        """Wall-clock seconds from start to finish (None until finished)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True unless the wait timed out."""
        return self._done.wait(timeout)

    async def wait_async(self, timeout: Optional[float] = None) -> bool:
        """Await job completion without blocking the calling event loop.

        The job runs on a worker thread, so the underlying signal is a
        ``threading.Event``; this bridges it through ``run_in_executor``
        so an asyncio caller (e.g. the :mod:`repro.service.aserver`
        event loop) can await it cooperatively.
        """
        if self._done.is_set():
            return True
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._done.wait, timeout)

    def to_json_obj(self) -> Dict[str, Any]:
        """Status payload served by ``GET /v1/jobs/<id>``."""
        return {
            "job_id": self.job_id,
            "request": self.request.to_json_obj(),
            "status": self.status,
            "total_cases": self.total_cases,
            "completed_cases": self.completed_cases,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "submissions": self.submissions,
            "elapsed": self.elapsed,
            "error": self.error,
            "trace_id": self.trace_id,
        }


class JobManager:
    """Owns the job table, the single-flight index, and the process pool.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore` consulted before any computation
        and populated afterwards.
    max_workers:
        Pool size for sharding cases.  ``None`` or ``1`` computes cases
        inline on the job's worker thread (best for the small built-in
        grids); larger values lazily start one ``ProcessPoolExecutor``
        that is then reused by every subsequent job.
    max_concurrent_jobs:
        Cap on simultaneously running jobs (each runs on its own worker
        thread); further *distinct* submissions raise
        :class:`TooManyJobsError` (HTTP 503).  Identical submissions
        always join their in-flight job and never hit the cap.
    max_finished_jobs:
        Retention bound: only this many finished jobs (and their result
        sets) are kept for later status/results queries — the oldest are
        evicted first, so a long-lived server's memory stays bounded no
        matter how many sweeps it has served.
    coordinator:
        Optional coordinator :class:`~repro.cluster.replica.Replica`.
        Sweeps submitted with ``executor="cluster"`` fan their cache
        misses out to its registered workers instead of computing
        locally; without one, such sweeps fail with a clear error.
    cluster_timeout:
        Server-side deadline (seconds) for one cluster-executed sweep.
        A sweep whose quorum can never form — no workers, all
        quarantined — then errors its job and frees the in-flight slot
        instead of wedging it forever.  ``None`` waits without bound.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        max_workers: Optional[int] = None,
        max_concurrent_jobs: int = 32,
        max_finished_jobs: int = 256,
        coordinator: Optional[Any] = None,
        cluster_timeout: Optional[float] = 3600.0,
    ) -> None:
        self.store = store
        self.max_workers = max_workers
        self.max_concurrent_jobs = int(max_concurrent_jobs)
        self.max_finished_jobs = int(max_finished_jobs)
        self.coordinator = coordinator
        self.cluster_timeout = cluster_timeout
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False
        self._ids = itertools.count(1)
        self.computations = 0
        registry = default_registry()
        self._m_jobs = registry.counter(
            "repro_jobs_submitted_total", "Sweep jobs created (post-dedup)."
        )
        self._m_cases = registry.counter(
            "repro_job_cases_completed_total",
            "Sweep cases finished across all jobs.",
        )
        self._m_hits = registry.counter(
            "repro_job_cache_hits_total", "Sweep cases served from the store."
        )
        self._m_misses = registry.counter(
            "repro_job_cache_misses_total", "Sweep cases that were computed."
        )

    # -- submission ----------------------------------------------------

    def submit(
        self, request: SweepRequest, trace_id: Optional[str] = None
    ) -> Job:
        """Submit a sweep; identical in-flight requests share one job.

        The single-flight check and job creation happen under one lock,
        so N concurrent submissions of the same signature observe
        exactly one ``queued``/``running`` job between them and only the
        first starts a worker thread.  The first submitter's ``trace_id``
        (if any) becomes the job's trace; joiners never overwrite it.
        """
        signature = request.signature()
        with self._lock:
            existing = self._inflight.get(signature)
            if existing is not None:
                existing.submissions += 1
                return existing
            if len(self._inflight) >= self.max_concurrent_jobs:
                raise TooManyJobsError(
                    f"{len(self._inflight)} jobs already running "
                    f"(limit {self.max_concurrent_jobs}); retry later"
                )
            job = Job(
                job_id=f"job-{next(self._ids)}",
                request=request,
                trace_id=trace_id,
            )
            self._jobs[job.job_id] = job
            self._inflight[signature] = job
        self._m_jobs.inc()
        thread = threading.Thread(
            target=self._run_job, args=(job, signature), daemon=True
        )
        thread.start()
        return job

    def _run_job(self, job: Job, signature: str) -> None:
        """Worker-thread body: collect cases, execute, publish, unflight."""
        job.started_at = time.time()
        job.status = "running"
        try:
            request = job.request
            if request.smoke:
                cases = _smoke_case_list(request.base_seed)
            else:
                cases = _collect_cases(
                    list(request.scenarios) or None,
                    list(request.families) or None,
                    request.base_seed,
                    request.limit_per_scenario,
                    request.replications,
                )
            job.total_cases = len(cases)

            def progress(result: ExperimentResult) -> None:
                """Fold one finished case into the job's live counters."""
                job.completed_cases += 1
                self._m_cases.inc()
                if result.cached:
                    job.cache_hits += 1
                    self._m_hits.inc()
                else:
                    job.cache_misses += 1
                    self._m_misses.inc()

            with self._lock:
                self.computations += 1
            executor = None
            if request.executor == "cluster":
                if self.coordinator is None:
                    raise ValueError(
                        "sweep requested executor='cluster' but this server "
                        "has no cluster coordinator (start one with "
                        "'python -m repro.cluster coordinator')"
                    )
                executor = self.coordinator.executor(
                    request.redundancy, timeout=self.cluster_timeout
                )
            # Reactivate the submitting request's trace on this worker
            # thread, so the execution (and, for cluster sweeps, the
            # replicated submit command) joins the same stitched trace.
            with span_for_trace_id(
                "job.run",
                "service",
                job.trace_id,
                attrs={"job_id": job.job_id, "cases": len(cases)},
            ):
                job.results = _execute_cases(
                    cases,
                    base_seed=request.base_seed,
                    executor=executor,
                    # Factory, not a pool: sized on the post-cache miss
                    # count, so a fully-cached job never spawns workers.
                    # Ignored when the cluster executor is set above.
                    executor_factory=self._pool_for,
                    store=self.store,
                    progress=progress,
                )
            job.status = "done"
        except Exception as exc:  # surfaced via the status payload
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = "error"
        finally:
            job.finished_at = time.time()
            with self._lock:
                if self._inflight.get(signature) is job:
                    del self._inflight[signature]
                self._evict_finished_locked()
            job._done.set()

    def _evict_finished_locked(self) -> None:
        """Drop the oldest finished jobs past the retention bound.

        Called with the manager lock held.  In-flight jobs are never
        evicted, so a job id returned by :meth:`submit` stays queryable
        at least until it finishes.
        """
        finished = [
            job
            for job in sorted(self._jobs.values(), key=lambda j: j.created_at)
            if job.finished_at is not None
        ]
        for job in finished[: max(0, len(finished) - self.max_finished_jobs)]:
            del self._jobs[job.job_id]

    def _pool_for(self, n_pending: int) -> Optional[ProcessPoolExecutor]:
        """The shared pool, lazily started (None means run inline).

        ``n_pending`` is the number of cases that actually need
        computing (cache hits excluded) — one or zero pending cases
        never warrants process-pool overhead.
        """
        if self.max_workers is None or self.max_workers <= 1 or n_pending <= 1:
            return None
        with self._lock:
            if self._closed:
                return None
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            return self._executor

    # -- queries -------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """Look up one job by id (KeyError lists known ids).

        Snapshot taken under the lock: handler threads query while
        worker threads evict finished jobs, and an unguarded dict walk
        could observe a mid-eviction resize.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            known = ", ".join(sorted(self._jobs)) or "<none>"
        raise KeyError(f"unknown job {job_id!r}; known: {known}")

    def jobs(self) -> List[Job]:
        """Every retained job, oldest first (lock-guarded snapshot)."""
        with self._lock:
            snapshot = list(self._jobs.values())
        return sorted(snapshot, key=lambda j: j.created_at)

    def scenario_listing(self) -> List[Dict[str, Any]]:
        """Registry summary served by ``GET /v1/scenarios``."""
        return [
            {
                "name": spec.name,
                "family": spec.family,
                "n_cases": spec.n_cases,
                "description": spec.description,
            }
            for spec in all_scenarios()
        ]

    def stats(self) -> Dict[str, Any]:
        """Manager counters for the health endpoint."""
        with self._lock:
            return {
                "jobs": len(self._jobs),
                "inflight": len(self._inflight),
                "computations": self.computations,
                "max_workers": self.max_workers,
                "pool_started": self._executor is not None,
            }

    def shutdown(self) -> None:
        """Stop the shared pool (running jobs finish their inline work).

        Idempotent, and terminal: once closed, no later job can lazily
        restart the pool, so a stopped server never leaks worker
        processes (``serve`` calls this from its SIGTERM/close path).
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
