"""In-memory span recording around the program's public calls.

Used only by traced runs, inside the system-under-test process: each
wrapped method records ``(id, parent, name, start, end, cpu, tag)``
where the parent is the innermost wrapped call still open on the same
thread (the call that caused this one).  Spans stay in a list until the
run ends; nothing is written while measuring.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from helpers import Span

TagFn = Callable[[tuple, Any], object]


class SpanRecorder:
    """Wraps class methods with span recording; :meth:`unwrap` restores them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[type, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, cls: type, attr: str, name: str, tag: Optional[TagFn] = None
    ) -> None:
        """Record a span named ``name`` around every ``cls.attr`` call.

        ``tag(args, result)`` may attach one value per call (an empty
        lease, an append's entry count); a call that raises gets the tag
        ``"error"``.
        """
        original = cls.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            mark = "error"
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                mark = None if tag is None else tag(args, result)
                return result
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, name, start, end, cpu, mark)
                )

        setattr(cls, attr, traced)
        self._patched.append((cls, attr, original))

    def unwrap(self) -> List[Span]:
        """Restore every wrapped method; returns (and forgets) the spans."""
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched = []
        spans, self.spans = self.spans, []
        return spans


def empty_lease_tag(_args: tuple, result: Any) -> object:
    """Tag a lease reply: ``"empty"`` when it granted no unit."""
    return "empty" if result.get("unit") is None else "unit"


def entries_tag(args: tuple, _result: Any) -> object:
    """Tag a log append with the number of entries it wrote."""
    return len(args[1])


def wrap_program(recorder: SpanRecorder) -> None:
    """Wrap every public call the per-layer table names.

    Imported lazily so this module loads without the program.
    """
    from repro.cluster.coordinator import CoordinatorMachine
    from repro.cluster.log import DurableLog
    from repro.cluster.replica import Replica
    from repro.cluster.worker import Worker
    from repro.service.app import ServiceAPI
    from repro.service.client import ServiceClient
    from repro.service.store import ResultStore

    recorder.wrap(DurableLog, "append", "cluster.log.append", entries_tag)
    recorder.wrap(Replica, "submit_command", "cluster.replica.submit_command")
    recorder.wrap(Replica, "handle_rpc", "cluster.replica.handle_rpc")
    recorder.wrap(ServiceClient, "raft_rpc", "cluster.replica.raft_rpc")
    recorder.wrap(CoordinatorMachine, "apply", "cluster.coordinator.apply")
    recorder.wrap(Worker, "run_unit", "cluster.worker.run_unit")
    recorder.wrap(
        ServiceClient, "lease", "service.client.lease", empty_lease_tag
    )
    recorder.wrap(ServiceClient, "complete", "service.client.complete")
    recorder.wrap(ServiceClient, "push_spans", "service.client.push_spans")
    recorder.wrap(ServiceAPI, "handle", "service.app.handle")
    recorder.wrap(ResultStore, "put", "service.store.put")
    recorder.wrap(
        ResultStore, "get_bytes_cached", "service.store.get_bytes_cached"
    )
