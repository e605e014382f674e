"""Worker: pull leases, compute via the shared runner path, report back.

A :class:`Worker` is one compute process (or thread) in the fabric.  Its
loop is deliberately tiny: register once, then repeatedly lease a work
unit, rebuild the unit's JSON case refs into real runner ``Case`` tuples
(resolving each scenario from the registry), execute them through the
**same** :func:`repro.experiments.runner._execute_cases` path the serial
runner and the service use, and post the result rows back as a quorum
vote.  A local content-addressed
:class:`~repro.service.store.ResultStore` slots straight into that path,
so a warm key is served from disk and never recomputed — redundant
executions of a unit the worker has already seen cost one JSON parse.

The ``transport`` is anything with ``register_worker`` / ``lease`` /
``complete`` — a :class:`~repro.service.client.ServiceClient` for a real
multi-process cluster over HTTP, or a
:class:`~repro.cluster.replica.Replica` directly for in-process use,
since the HTTP layer forwards bodies verbatim.

Fault injection reuses the :mod:`repro.dist.faults` adversary hierarchy,
wrapped around the loop exactly where the synchronous simulator wraps it
around a node's outbox — each result row rides as the payload of one
:class:`~repro.dist.simulator.Message` and the adversary rewrites the
batch before it is posted:

* :class:`~repro.dist.faults.NoFaultAdversary` — honest worker;
* :class:`~repro.dist.faults.CrashAdversary` — the worker dies (stops
  mid-lease, never completing) once its completion tick reaches its
  crash round, which is what lease expiry and reassignment tolerate;
* :class:`~repro.dist.faults.ByzantineRandomAdversary` /
  :class:`~repro.dist.faults.ScriptedAdversary` — result payloads are
  garbled, replaced, or dropped before posting; the quorum outvotes and
  quarantines the worker.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.dist.faults import Adversary, CrashAdversary, NoFaultAdversary
from repro.dist.simulator import Message
from repro.experiments.registry import get_scenario
from repro.experiments.runner import _execute_cases
from repro.obs.metrics import default_registry
from repro.obs.trace import SpanRecorder, default_recorder, span_for_trace_id
from repro.service.client import ServiceError

__all__ = ["Worker", "corrupt_rows", "run_worker_thread"]

# The worker models itself as node 0 of a 1-node network when it feeds
# its outgoing rows through a dist-layer adversary.
_NODE_ID = 0

# Finished ``worker.run_unit`` spans buffered between pushes; the buffer
# is pushed before it could wrap, so no span is ever dropped.
_SPAN_CAPACITY = 256


def corrupt_rows(
    adversary: Adversary, tick: int, rows: Sequence[Any]
) -> List[Any]:
    """Run result rows through a dist-layer adversary's outbox rewrite.

    Each row becomes the payload of one message from node 0; the
    adversary keeps, garbles, replaces, or drops messages exactly as it
    would in the round-based simulator, and whatever payloads survive
    are the rows actually posted.  For an honest worker this is the
    identity.
    """
    outbox = [
        Message(sender=_NODE_ID, recipient=i, payload=row)
        for i, row in enumerate(rows)
    ]
    corrupted = adversary.corrupt_outbox(_NODE_ID, tick, outbox, 1)
    return [message.payload for message in corrupted]


class Worker:
    """One compute-fabric worker: lease, execute, vote, repeat.

    Parameters
    ----------
    transport:
        Object with ``register_worker(name)``, ``lease(worker_id)`` and
        ``complete(worker_id, unit_id, rows)`` — a
        :class:`~repro.service.client.ServiceClient` or a
        :class:`~repro.cluster.replica.Replica`.
    name:
        Human-readable worker name (defaults to the assigned id).
    store:
        Optional local :class:`~repro.service.store.ResultStore`; warm
        keys are served from it instead of being recomputed.
    fault:
        A :mod:`repro.dist.faults` adversary controlling node 0, or
        ``None`` for an honest worker.
    poll:
        Sleep between lease attempts when no unit is available.
    """

    def __init__(
        self,
        transport: Any,
        name: Optional[str] = None,
        store: Optional[Any] = None,
        fault: Optional[Adversary] = None,
        poll: float = 0.05,
        registry: Optional[Any] = None,
    ) -> None:
        self.transport = transport
        self.name = name
        self.store = store
        self.fault = fault or NoFaultAdversary()
        self.poll = float(poll)
        self.worker_id: Optional[str] = None
        self.completed = 0
        self.crashed = False
        self.quarantined = False
        self.transport_errors = 0
        self.last_error: Optional[str] = None
        self._recorder = SpanRecorder(capacity=_SPAN_CAPACITY)
        registry = default_registry() if registry is None else registry
        self._m_unit_seconds = registry.histogram(
            "repro_worker_unit_seconds",
            "Wall time executing one leased work unit's cases.",
        )
        self._m_units = registry.counter(
            "repro_worker_units_total",
            "Leased units this worker finished executing.",
        )

    def register(self) -> str:
        """Register with the coordinator; returns the assigned worker id.

        Passing the previously assigned ``worker_id`` back makes the
        call idempotent: after a coordinator restart (or a failover to
        a replica that already replicated this registration) the worker
        re-adopts the same identity, keeping its completion and strike
        history instead of appearing as a fresh node.
        """
        reply = self.transport.register_worker(
            self.name, worker_id=self.worker_id
        )
        self.worker_id = reply["worker_id"]
        if self.name is None:
            self.name = reply.get("name", self.worker_id)
        return self.worker_id

    def _crash_due(self, tick: int) -> bool:
        """Whether a crash-fault worker is dead at this completion tick."""
        fault = self.fault
        if isinstance(fault, CrashAdversary) and fault.is_faulty(_NODE_ID):
            return tick >= fault.crash_round.get(_NODE_ID, 0)
        return False

    def run_unit(self, unit: Dict[str, Any]) -> bool:
        """Execute one leased unit and post its rows; False if we died.

        The cases are rebuilt from their JSON refs — scenario function
        resolved from the registry, seed taken verbatim from the unit so
        no worker ever re-derives randomness — and executed through the
        shared runner path with this worker's local store in front.
        """
        cases = []
        for ref in unit["cases"]:
            # A missing scenario is a misconfigured worker (wrong code
            # version, unregistered user module) — fail loudly rather
            # than silently re-leasing the same unit forever.
            spec = get_scenario(ref["scenario"])
            cases.append(
                (
                    ref["scenario"],
                    ref["family"],
                    spec.fn,
                    ref["params"],
                    int(ref["seed"]),
                    int(ref["replication"]),
                )
            )
        with span_for_trace_id(
            "worker.run_unit",
            "worker",
            unit.get("trace_id"),
            recorder=self._recorder,
            attrs={
                "unit_id": unit["unit_id"],
                "worker_id": self.worker_id,
                "cases": len(cases),
            },
        ):
            started = time.monotonic()
            results = _execute_cases(
                cases, base_seed=int(unit["base_seed"]), store=self.store
            )
            self._m_unit_seconds.observe(time.monotonic() - started)
            self._m_units.inc()
            if self._crash_due(self.completed):
                # Die holding the lease: the classic fail-stop fault.
                # The coordinator only finds out when the lease expires.
                self.crashed = True
                return False
            rows = corrupt_rows(
                self.fault, self.completed, [r.to_dict() for r in results]
            )
            try:
                reply = self.transport.complete(
                    self.worker_id, unit["unit_id"], rows
                )
            except (ServiceError, KeyError):
                # The lease expired under us and the unit was resolved
                # or purged; nothing to do but move on.
                self.transport_errors += 1
                return True
            self.quarantined = bool(reply.get("quarantined", False))
            self.completed += 1
        if len(self._recorder) >= _SPAN_CAPACITY:
            self._ship_spans()
        return True

    def _ship_spans(self) -> None:
        """Ship buffered spans upstream in one batch.

        The HTTP transport carries them to ``POST /v1/trace``; any other
        transport hands them to the process-default recorder so
        in-process fleets still see them.  :meth:`run` pushes whenever
        a lease comes back empty and when it exits; :meth:`run_unit`
        pushes when the buffer is full.
        """
        spans = self._recorder.drain()
        if not spans:
            return
        push = getattr(self.transport, "push_spans", None)
        if push is not None:
            push(spans)
        else:
            default_recorder().ingest(spans)

    def run(
        self,
        max_units: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        stop: Optional[threading.Event] = None,
    ) -> Dict[str, Any]:
        """Pull-and-compute until crashed, quarantined, idle, or stopped.

        ``idle_timeout`` bounds how long the worker keeps polling
        without obtaining a work unit — whether because none is
        leasable or because the coordinator is transiently unreachable
        — so a worker whose coordinator died drains off instead of
        spinning forever (``None`` polls forever on those).  An
        "unknown worker" answer (the coordinator restarted from scratch,
        or a failover landed on state from before our registration)
        triggers **one** idempotent re-registration under the same
        worker id; only if the identity cannot be re-established does
        the loop stop.  Other permanent server answers (HTTP 4xx/5xx:
        no coordinator attached) stop the loop immediately, with the
        reason in the summary's ``last_error``.  ``max_units`` bounds
        the number of completed units; ``stop`` is an external kill
        switch for thread-hosted workers.  Returns a summary dict.
        """
        if self.worker_id is None:
            self.register()
        idle_since: Optional[float] = None
        just_reregistered = False

        def idled_out() -> bool:
            """Tick the idle timer; True once idle_timeout is exceeded."""
            nonlocal idle_since
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            return idle_timeout is not None and now - idle_since >= idle_timeout

        def try_reregister() -> bool:
            """One idempotent re-registration; False if it failed too."""
            nonlocal just_reregistered
            if just_reregistered:
                return False  # identity re-established and lost again
            try:
                self.register()
            except (ServiceError, KeyError) as exc:
                self.last_error = str(exc)
                return False
            just_reregistered = True
            return True

        try:
            while not (stop is not None and stop.is_set()):
                if max_units is not None and self.completed >= max_units:
                    break
                try:
                    reply = self.transport.lease(self.worker_id)
                except ServiceError as exc:
                    self.transport_errors += 1
                    if exc.status != 0:
                        # A real server answer.  "unknown worker" means
                        # the control plane lost our registration
                        # (restart or failover): re-adopt the same
                        # identity once before declaring the fabric
                        # down.  Anything else (no coordinator attached)
                        # is permanent: stop loudly instead of spinning.
                        if "unknown worker" in str(exc) and try_reregister():
                            continue
                        self.last_error = self.last_error or str(exc)
                        break
                    # Status 0 is a transport blip (connection refused/
                    # reset): keep polling until the idle timeout
                    # drains us.
                    if idled_out():
                        self.last_error = str(exc)
                        break
                    time.sleep(self.poll)
                    continue
                except KeyError as exc:
                    # In-process transport's unknown-worker error: same
                    # one-shot re-registration as over HTTP.
                    self.transport_errors += 1
                    if "unknown worker" in str(exc) and try_reregister():
                        continue
                    self.last_error = self.last_error or str(exc)
                    break
                just_reregistered = False
                if reply.get("quarantined"):
                    self.quarantined = True
                    break
                unit = reply.get("unit")
                if unit is None:
                    self._ship_spans()  # idle: a good moment to ship
                    if idled_out():
                        break
                    time.sleep(self.poll)
                    continue
                idle_since = None
                if not self.run_unit(unit):
                    break
        finally:
            self._ship_spans()
        return self.summary()

    def summary(self) -> Dict[str, Any]:
        """Final state of this worker's run (printed by the CLI)."""
        return {
            "worker_id": self.worker_id,
            "name": self.name,
            "completed": self.completed,
            "crashed": self.crashed,
            "quarantined": self.quarantined,
            "transport_errors": self.transport_errors,
            "last_error": self.last_error,
        }


def run_worker_thread(
    transport: Any,
    name: Optional[str] = None,
    store: Optional[Any] = None,
    fault: Optional[Adversary] = None,
    poll: float = 0.01,
    idle_timeout: Optional[float] = None,
    stop: Optional[threading.Event] = None,
) -> "tuple[Worker, threading.Thread]":
    """Start a daemon-thread worker; returns ``(worker, thread)``.

    The in-process deployment used by tests, examples, and benchmarks:
    several thread workers against one live server exercise the full
    HTTP protocol without process management.
    """
    worker = Worker(
        transport, name=name, store=store, fault=fault, poll=poll
    )
    thread = threading.Thread(
        target=worker.run,
        kwargs={"idle_timeout": idle_timeout, "stop": stop},
        daemon=True,
        name=f"cluster-worker-{name or 'anon'}",
    )
    thread.start()
    return worker, thread
