"""The fleet watchdog: scrape loop, failure detector, alerting, forensics.

:class:`Watchdog` polls every configured endpoint's ``/v1/metrics`` (plus
``/v1/raft/status``, ``/v1/cluster``, and the ``/v1/events`` cursor) on a
fixed interval, feeds samples into a bounded :class:`repro.obs.tsdb.TSDB`,
and evaluates the :mod:`repro.obs.rules` catalog every tick.  Three jobs
hang off that loop:

* **failure detection** — an endpoint that misses ``suspect_after``
  consecutive scrapes is marked down (``watch.endpoint_down`` event) and
  excluded from invariant evaluation until it answers again.  This is the
  classic timeout-based eventually-perfect detector: wrong while the
  timeout is too short, accurate once the fleet is stable.
* **alerting** — rule violations walk ``pending → firing → resolved``
  through :class:`repro.obs.rules.AlertManager`; every transition is a
  structured ``watch.alert`` event.
* **flight recording** — the pending→firing edge snapshots a forensic
  bundle (recent TSDB window, fleet event tail, raft status digests,
  active spans, the full alert log) to ``forensics_dir`` so the state
  that *preceded* the violation survives the incident.

The watchdog runs embedded (a :class:`~repro.cluster.replica.Replica`
process serves ``/v1/watch/*`` from its own API) or standalone
(``python -m repro.obs watch --endpoints ...``), where
:func:`serve_watch_http` serves the same routes from the service's
asyncio server.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .logs import log_event
from .metrics import MetricsRegistry, parse_prometheus
from .rules import Alert, AlertManager, Rule, RuleContext, default_rules
from .trace import default_recorder
from .tsdb import TSDB

__all__ = ["Watchdog", "serve_watch_http"]

_FORENSICS_WINDOW = 120.0  # seconds of raw TSDB history per bundle
_EVENT_RING_CAPACITY = 4096


def _fetch_json(url: str, timeout: float) -> Tuple[int, Any]:
    """GET ``url`` and parse the JSON body; returns ``(status, payload)``.

    4xx/5xx responses come back as their status code with the parsed
    body when possible (``None`` otherwise) instead of raising, so the
    caller can distinguish "follower said 421" from "process is gone".
    Network-level failures still raise.
    """
    request = urllib.request.Request(url, headers={"Accept": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except Exception:
            payload = None
        return exc.code, payload


def _fetch_text(url: str, timeout: float) -> str:
    """GET ``url`` and return the body text; raises on any failure."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        if response.status != 200:
            raise urllib.error.HTTPError(
                url, response.status, "bad status", response.headers, None
            )
        return response.read().decode("utf-8")


class _EndpointState:
    """Per-endpoint scrape bookkeeping (health + cursors + last samples)."""

    __slots__ = (
        "consecutive_failures",
        "down",
        "event_cursor",
        "events_dropped",
        "last_error",
        "last_scrape_ts",
        "previous_samples",
        "samples",
    )

    def __init__(self) -> None:
        """Start healthy: no failures, cursor at the ring's origin."""
        self.consecutive_failures = 0
        self.down = False
        self.event_cursor = 0
        self.events_dropped = 0
        self.last_error = ""
        self.last_scrape_ts = 0.0
        self.previous_samples: Dict[Any, float] = {}
        self.samples: Dict[Any, float] = {}


class Watchdog:
    """Scrapes a fleet, keeps history, evaluates rules, records forensics.

    ``endpoints`` are base URLs (``http://host:port``).  ``tick()`` runs
    one scrape+evaluate round synchronously (tests drive it directly);
    ``start()``/``stop()`` run it on a daemon thread every ``interval``
    seconds; ``run(duration)`` loops inline for the CLI.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        interval: float = 1.0,
        tsdb: Optional[TSDB] = None,
        rules: Optional[List[Rule]] = None,
        forensics_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        timeout: float = 2.0,
        suspect_after: int = 3,
    ) -> None:
        """Wire the TSDB, rule catalog, self-metrics, and per-endpoint state."""
        self.endpoints = [e.rstrip("/") for e in endpoints]
        self.interval = float(interval)
        self.timeout = float(timeout)
        self.suspect_after = int(suspect_after)
        self.forensics_dir = forensics_dir
        self.tsdb = tsdb if tsdb is not None else TSDB()
        self.alerts = AlertManager(
            rules if rules is not None else default_rules(interval=self.interval),
            on_firing=self._record_flight,
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._states: Dict[str, _EndpointState] = {
            endpoint: _EndpointState() for endpoint in self.endpoints
        }
        self._statuses: Dict[str, Dict[str, Any]] = {}
        self._workers: Dict[str, List[Dict[str, Any]]] = {}
        self._events: deque = deque(maxlen=_EVENT_RING_CAPACITY)
        self._bundles: List[str] = []
        self.ticks = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

        self._scrapes = self.registry.counter(
            "repro_watch_scrapes_total", "Fleet metric scrapes attempted."
        )
        self._scrape_errors = self.registry.counter(
            "repro_watch_scrape_errors_total", "Fleet metric scrapes that failed."
        )
        self._forensics_written = self.registry.counter(
            "repro_watch_forensics_total", "Forensic bundles written."
        )
        self.registry.gauge(
            "repro_watch_ticks", "Watchdog evaluation rounds completed."
        ).set_fn(lambda: float(self.ticks))
        self.registry.gauge(
            "repro_watch_alerts_firing",
            "Rules currently in the firing state.",
        ).set_fn(lambda: float(len(self.alerts.firing())))
        self.registry.gauge(
            "repro_watch_series",
            "Live time series retained by the watchdog TSDB.",
        ).set_fn(lambda: float(self.tsdb.series_count()))
        self.registry.gauge(
            "repro_watch_endpoints_healthy",
            "Endpoints answering their last scrape.",
        ).set_fn(lambda: float(len(self.healthy())))

    # -- scraping ------------------------------------------------------

    def healthy(self) -> List[str]:
        """Endpoints not currently marked down by the failure detector."""
        return [e for e in self.endpoints if not self._states[e].down]

    def fresh(self) -> List[str]:
        """Endpoints whose *latest* scrape succeeded.

        Rule evaluation uses this stricter set: a just-killed endpoint
        would otherwise keep contributing its stale samples (e.g. a
        dead leader's ``is_leader=1``) for the ``suspect_after`` grace
        ticks and mask the very violation the kill caused.
        """
        return [
            e
            for e in self.endpoints
            if self._states[e].consecutive_failures == 0
            and self._states[e].last_scrape_ts > 0.0
        ]

    def _scrape_endpoint(self, endpoint: str, now: float) -> bool:
        """One endpoint's full scrape; returns True when metrics landed."""
        state = self._states[endpoint]
        self._scrapes.inc()
        try:
            text = _fetch_text(f"{endpoint}/v1/metrics", self.timeout)
            samples = parse_prometheus(text)
        except Exception as exc:
            self._scrape_errors.inc()
            state.consecutive_failures += 1
            state.last_error = f"{type(exc).__name__}: {exc}"
            if (
                not state.down
                and state.consecutive_failures >= self.suspect_after
            ):
                state.down = True
                log_event(
                    "watch.endpoint_down",
                    "watch",
                    endpoint=endpoint,
                    failures=state.consecutive_failures,
                    error=state.last_error,
                )
            return False

        if state.down:
            log_event("watch.endpoint_up", "watch", endpoint=endpoint)
        state.down = False
        state.consecutive_failures = 0
        state.last_error = ""
        state.previous_samples = state.samples
        state.samples = samples
        state.last_scrape_ts = now
        self.tsdb.record_scrape(endpoint, samples, now)

        status_code, status = _fetch_json_quiet(
            f"{endpoint}/v1/raft/status", self.timeout
        )
        if status_code == 200 and isinstance(status, dict):
            self._statuses[endpoint] = status

        cluster_code, cluster = _fetch_json_quiet(
            f"{endpoint}/v1/cluster", self.timeout
        )
        if cluster_code == 200 and isinstance(cluster, dict):
            workers = cluster.get("workers")
            if isinstance(workers, list):
                self._workers[endpoint] = workers

        self._pull_events(endpoint, state)
        return True

    def _pull_events(self, endpoint: str, state: _EndpointState) -> None:
        """Advance the endpoint's ``/v1/events`` cursor into the ring."""
        code, payload = _fetch_json_quiet(
            f"{endpoint}/v1/events?since={state.event_cursor}&limit=200",
            self.timeout,
        )
        if code != 200 or not isinstance(payload, dict):
            return
        events = payload.get("events", [])
        with self._lock:
            for event in events:
                if isinstance(event, dict):
                    tagged = dict(event)
                    tagged["endpoint"] = endpoint
                    self._events.append(tagged)
        next_since = payload.get("next_since")
        if isinstance(next_since, (int, float)):
            state.event_cursor = int(next_since)
        dropped = payload.get("dropped", 0)
        if dropped:
            state.events_dropped += int(dropped)

    def _restarted(self, state: _EndpointState) -> bool:
        """Whether any counter went backwards since the previous scrape.

        A monotone counter can only decrease when the process restarted;
        one tick of grace suppresses the monotonicity invariants so a
        deliberate replica restart is not a false alarm.
        """
        previous = state.previous_samples
        if not previous:
            return False
        for key, value in state.samples.items():
            if not key[0].endswith("_total"):
                continue
            before = previous.get(key)
            if before is not None and value < before - 1e-9:
                return True
        return False

    def tick(self, now: Optional[float] = None) -> List[Alert]:
        """One scrape + rule-evaluation round; returns changed alerts."""
        now = time.time() if now is None else now
        for endpoint in self.endpoints:
            self._scrape_endpoint(endpoint, now)
        ctx = RuleContext(
            tsdb=self.tsdb,
            now=now,
            interval=self.interval,
            healthy=self.fresh(),
            samples={e: self._states[e].samples for e in self.endpoints},
            previous={
                e: self._states[e].previous_samples for e in self.endpoints
            },
            statuses=dict(self._statuses),
            workers=dict(self._workers),
            restarted={
                e: self._restarted(self._states[e]) for e in self.endpoints
            },
        )
        changed = self.alerts.evaluate(ctx)
        self.ticks += 1
        return changed

    # -- loop control --------------------------------------------------

    def start(self) -> None:
        """Run the scrape loop on a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background loop and join the thread."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=self.timeout + self.interval + 5.0)
        self._thread = None

    def _loop(self) -> None:
        """The background scrape loop body."""
        while not self._stop.is_set():
            started = time.time()
            try:
                self.tick(started)
            except Exception as exc:  # the loop must survive anything
                log_event(
                    "watch.tick_error",
                    "watch",
                    error=f"{type(exc).__name__}: {exc}",
                )
            elapsed = time.time() - started
            self._stop.wait(max(0.0, self.interval - elapsed))

    def run(self, duration: float) -> None:
        """Loop inline for ``duration`` seconds (the CLI entry point)."""
        deadline = time.time() + duration
        while time.time() < deadline:
            started = time.time()
            self.tick(started)
            remaining = deadline - time.time()
            if remaining <= 0:
                break
            time.sleep(min(max(0.0, self.interval - (time.time() - started)), remaining))

    # -- forensics -----------------------------------------------------

    def _record_flight(self, alert: Alert, ctx: RuleContext) -> None:
        """Snapshot a forensic bundle on the pending→firing edge."""
        if self.forensics_dir is None:
            return
        bundle = self.build_bundle(alert, ctx.now)
        os.makedirs(self.forensics_dir, exist_ok=True)
        slug = alert.rule.replace(".", "-")
        path = os.path.join(
            self.forensics_dir, f"bundle-{slug}-{int(ctx.now * 1000)}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=2, sort_keys=True)
        self._bundles.append(path)
        self._forensics_written.inc()
        log_event(
            "watch.forensics", "watch", rule=alert.rule, bundle=path
        )

    def build_bundle(self, alert: Optional[Alert], now: float) -> Dict[str, Any]:
        """The forensic snapshot as a JSON-ready dict."""
        with self._lock:
            events = list(self._events)
        return {
            "version": 1,
            "created_ts": now,
            "alert": None if alert is None else alert.to_json_obj(),
            "alerts": self.alerts.snapshot(),
            "alert_log": self.alerts.log_snapshot(),
            "endpoints": self.endpoint_health(),
            "raft": dict(self._statuses),
            "tsdb": self.tsdb.export_window(_FORENSICS_WINDOW, now),
            "events": events[-1000:],
            "spans": default_recorder().export()[-200:],
        }

    def bundles(self) -> List[str]:
        """Paths of every forensic bundle written this run."""
        return list(self._bundles)

    # -- read surfaces -------------------------------------------------

    def endpoint_health(self) -> Dict[str, Dict[str, Any]]:
        """Per-endpoint failure-detector state."""
        out: Dict[str, Dict[str, Any]] = {}
        for endpoint in self.endpoints:
            state = self._states[endpoint]
            out[endpoint] = {
                "down": state.down,
                "consecutive_failures": state.consecutive_failures,
                "last_scrape_ts": state.last_scrape_ts,
                "last_error": state.last_error,
                "events_dropped": state.events_dropped,
            }
        return out

    def fleet_events(self, limit: int = 200) -> List[Dict[str, Any]]:
        """The newest fleet events pulled through the cursors."""
        with self._lock:
            events = list(self._events)
        return events[-limit:]

    def status(self) -> Dict[str, Any]:
        """The ``/v1/watch/status`` payload."""
        return {
            "endpoints": self.endpoint_health(),
            "alerts": self.alerts.snapshot(),
            "alert_log": self.alerts.log_snapshot()[-100:],
            "ticks": self.ticks,
            "interval": self.interval,
            "tsdb": {
                "series": self.tsdb.series_count(),
                "points": self.tsdb.point_count(),
                "dropped_series": self.tsdb.dropped_series,
            },
            "bundles": self.bundles(),
        }

    def query_from_params(self, params: Dict[str, str]) -> Dict[str, Any]:
        """Answer ``/v1/watch/query`` from parsed query parameters.

        Recognised parameters: ``metric`` (required), ``endpoint``,
        ``tier`` (bucket width, 0 = raw), ``agg``, ``window`` (trailing
        seconds), ``start``/``end`` (absolute unix seconds), plus any
        number of ``label.<name>=<value>`` filters.
        """
        metric = params.get("metric")
        if not metric:
            raise ValueError("query requires a 'metric' parameter")
        labels = {
            key[len("label."):]: value
            for key, value in params.items()
            if key.startswith("label.")
        }
        now = time.time()
        start = float(params["start"]) if "start" in params else None
        end = float(params["end"]) if "end" in params else None
        if "window" in params:
            start = now - float(params["window"])
        series = self.tsdb.query(
            metric,
            endpoint=params.get("endpoint") or None,
            labels=labels or None,
            start=start,
            end=end,
            tier=float(params.get("tier", 0.0)),
            agg=params.get("agg", "last"),
        )
        return {"now": now, "series": series}


def _fetch_json_quiet(url: str, timeout: float) -> Tuple[int, Any]:
    """:func:`_fetch_json` that swallows network errors as ``(0, None)``."""
    try:
        return _fetch_json(url, timeout)
    except (OSError, socket.timeout, ValueError):
        return 0, None


# -- standalone HTTP surface -------------------------------------------


def serve_watch_http(
    watchdog: Watchdog,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> Any:
    """Serve ``/v1/watch/{status,query,dash}`` for a standalone watchdog.

    Starts the service's asyncio server with the watchdog attached and
    its registry as ``/v1/metrics``, and returns that server's handle:
    ``handle.server_address[1]`` is the bound port and
    ``handle.shutdown()`` stops it.  An embedded watchdog is served by
    its replica's own server instead.
    """
    from repro.service.aserver import start_async_server

    handle, _thread = start_async_server(
        host=host,
        port=port,
        quiet=quiet,
        watchdog=watchdog,
        registry=watchdog.registry,
    )
    return handle
