"""Observability suite: metrics units, trace stitching, reason codes.

Covers the repro.obs acceptance scenarios: histogram bucket/percentile
math in seconds, the Prometheus exposition round-trip (render → parse,
in-process and over a live ``/v1/metrics``), the no-op registry's
zero-cost contract, end-to-end trace propagation — client span →
``X-Repro-Trace`` header → service job span → worker execution span →
quorum-accept span, stitched from ``GET /v1/trace/<id>`` after one real
HTTP sweep — structured quarantine reason codes on coordinator strikes,
the client's transport-stats snapshot, and the election counter
incrementing exactly once when a replicated fabric's leader is killed.
"""

import threading
import time
import urllib.request

import pytest

from repro.cluster.coordinator import unit_digest
from repro.cluster.worker import corrupt_rows, run_worker_thread
from repro.dist.faults import ByzantineRandomAdversary
from repro.obs.logs import log_event, recent_events, set_log_quiet
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    _log_spaced_buckets,
    default_registry,
    null_registry,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.trace import (
    HEADER,
    SpanRecorder,
    activate,
    current_context,
    default_recorder,
    format_header,
    new_trace,
    parse_header,
    span,
)
from repro.service.aserver import start_async_server
from repro.service.client import ServiceClient
from repro.service.store import ResultStore

from test_cluster import drain, e1_cases, honest_rows, submit_async
from test_replica import Fabric, wait_until

E1 = "coordination_robustness"


# -- metrics core -------------------------------------------------------


def test_log_spaced_buckets_are_monotonic_and_span_the_range():
    bounds = _log_spaced_buckets(1e-4, 64.0, per_decade=4)
    assert bounds == DEFAULT_BUCKETS
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert bounds[0] <= 1e-4 * 1.0001
    # The ladder tops out within one log step of the requested ceiling.
    assert bounds[-1] >= 64.0 / 10.0 ** (1.0 / 4)


def test_histogram_percentiles_are_in_seconds():
    registry = MetricsRegistry()
    hist = registry.histogram("repro_test_seconds", "test")
    for _ in range(50):
        hist.observe(0.001)
    for _ in range(45):
        hist.observe(0.010)
    for _ in range(5):
        hist.observe(0.100)
    p50, p95, p99 = hist.percentiles((0.5, 0.95, 0.99))
    # Bucketed percentiles: the answer lands in the right bucket, so
    # it is within one log-spaced bucket's width of the true value.
    assert 0.0005 < p50 < 0.002
    assert 0.005 < p95 < 0.02
    assert 0.05 < p99 < 0.2
    assert hist.count == 100
    assert hist.sum == pytest.approx(50 * 0.001 + 45 * 0.010 + 5 * 0.100)


def test_counter_gauge_and_labelled_children():
    registry = MetricsRegistry()
    requests = registry.counter(
        "repro_test_requests_total", "test", labels=("route", "status")
    )
    requests.labels("/v1/health", "200").inc()
    requests.labels("/v1/health", "200").inc(2)
    requests.labels("/v1/jobs/{id}", "404").inc()
    children = dict(requests.children())
    assert children[("/v1/health", "200")].value == 3
    assert children[("/v1/jobs/{id}", "404")].value == 1
    gauge = registry.gauge("repro_test_gauge", "test")
    gauge.set(4.0)
    gauge.inc()
    gauge.dec(2.0)
    assert gauge.value == 3.0
    gauge.set_fn(lambda: 7.5)
    assert gauge.value == 7.5


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("repro_test_conflict", "test")
    with pytest.raises(ValueError):
        registry.gauge("repro_test_conflict", "test")


def test_null_registry_is_free():
    """Disabled observability costs nothing: one shared no-op object."""
    registry = null_registry()
    assert registry.enabled is False
    counter = registry.counter("repro_x_total", "x")
    hist = registry.histogram("repro_x_seconds", "x")
    gauge = registry.gauge("repro_x", "x", labels=("a",))
    # Every family, every kind, every labels() call: the same no-op
    # singleton — no allocation, no state, nothing retained.
    assert counter is hist is gauge is gauge.labels("anything")
    counter.inc()
    hist.observe(1.0)
    gauge.set(5.0)
    assert counter.value == 0
    assert hist.count == 0
    assert registry.families() == []
    assert render_prometheus(registry) == ""


def test_exposition_round_trip():
    registry = MetricsRegistry()
    registry.counter("repro_rt_total", "round trip").inc(3)
    registry.gauge("repro_rt_gauge", "round trip").set(2.5)
    hist = registry.histogram("repro_rt_seconds", "round trip")
    hist.observe(0.002)
    hist.observe(0.030)
    text = render_prometheus(registry)
    assert "# TYPE repro_rt_total counter" in text
    assert "# TYPE repro_rt_seconds histogram" in text
    samples = parse_prometheus(text)
    assert samples[("repro_rt_total", ())] == 3
    assert samples[("repro_rt_gauge", ())] == 2.5
    assert samples[("repro_rt_seconds_count", ())] == 2
    assert samples[("repro_rt_seconds_sum", ())] == pytest.approx(0.032)
    # Cumulative buckets: the +Inf bucket equals the count.
    assert samples[("repro_rt_seconds_bucket", (("le", "+Inf"),))] == 2


# -- trace core ---------------------------------------------------------


def test_trace_header_round_trip():
    ctx = new_trace()
    assert len(ctx.trace_id) == 32
    assert len(ctx.span_id) == 16
    parsed = parse_header(format_header(ctx))
    assert parsed == ctx
    assert parse_header("not-a-trace") is None
    assert parse_header("") is None
    assert HEADER == "X-Repro-Trace"


def test_spans_nest_and_record_parentage():
    recorder = SpanRecorder()
    root = new_trace()
    with activate(root):
        with span("outer", "test", recorder=recorder) as outer_ctx:
            assert current_context() == outer_ctx
            with span("inner", "test", recorder=recorder):
                time.sleep(0.002)
    assert current_context() is None
    spans = {s["name"]: s for s in recorder.export(root.trace_id)}
    assert spans["outer"]["parent_id"] == root.span_id
    assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
    assert spans["inner"]["duration"] >= 0.002
    # Outside any trace, span() is a free no-op.
    with span("untraced", "test", recorder=recorder) as ctx:
        assert ctx is None
    assert len(recorder) == 2


def test_span_recorder_ingest_dedups_and_bounds():
    recorder = SpanRecorder(capacity=4)
    root = new_trace()
    with activate(root):
        with span("once", "test", recorder=recorder):
            pass
    exported = recorder.export(root.trace_id)
    assert recorder.ingest(exported) == 0  # already seen
    assert len(recorder) == 1
    for i in range(10):
        with activate(new_trace()):
            with span(f"s{i}", "test", recorder=recorder):
                pass
    assert len(recorder) == 4  # bounded ring


def test_structured_log_ring_and_filters():
    set_log_quiet(True)
    try:
        root = new_trace()
        with activate(root):
            log_event("obs.test_event", "test", detail=42)
        events = recent_events(event="obs.test_event")
        assert events
        last = events[-1]
        assert last["component"] == "test"
        assert last["detail"] == 42
        assert last["trace_id"] == root.trace_id
        assert "ts" in last and "mono" in last
    finally:
        set_log_quiet(False)


# -- live HTTP surface --------------------------------------------------


@pytest.fixture
def live_server(tmp_path, peerless):
    """One async server over a peerless coordinator, plus teardown."""
    store = ResultStore(str(tmp_path / "store"))
    coordinator = peerless(store=store)
    server, _thread = start_async_server(store=store, coordinator=coordinator)
    host, port = server.server_address[:2]
    stop = threading.Event()
    threads = []

    def spawn(n=2):
        workers = []
        for i in range(n):
            worker, thread = run_worker_thread(
                ServiceClient(f"http://{host}:{port}"),
                name=f"w{i}",
                stop=stop,
                poll=0.02,
            )
            workers.append(worker)
            threads.append(thread)
        return workers

    yield f"http://{host}:{port}", spawn
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    server.shutdown()
    server.server_close()


def test_metrics_endpoint_serves_prometheus_text(live_server):
    url, _spawn = live_server
    client = ServiceClient(url)
    client.health()
    with urllib.request.urlopen(f"{url}/v1/metrics", timeout=10) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    samples = parse_prometheus(text)
    hits = [
        value
        for (name, labels), value in samples.items()
        if name == "repro_http_requests_total"
        and ("route", "/v1/health") in labels
    ]
    assert hits and hits[0] >= 1
    assert any(
        name == "repro_cluster_workers" for name, _ in samples
    )


def test_trace_ingest_and_fetch_round_trip(live_server):
    url, _spawn = live_server
    client = ServiceClient(url)
    recorder = SpanRecorder()
    root = new_trace()
    with activate(root):
        with span("external.step", "client", recorder=recorder):
            pass
    assert client.push_spans(recorder.drain()) == 1
    fetched = client.trace(root.trace_id)
    assert fetched["trace_id"] == root.trace_id
    names = [s["name"] for s in fetched["spans"]]
    assert "external.step" in names


def test_sweep_trace_stitches_client_service_worker_quorum(live_server):
    """One HTTP sweep yields one trace spanning every fabric layer."""
    url, spawn = live_server
    spawn(2)
    client = ServiceClient(url)
    _job, results = client.run_sweep(scenarios=[E1], executor="cluster")
    assert len(results) == 4
    trace_id = client.stats()["last_trace_id"]
    assert trace_id and len(trace_id) == 32

    def components():
        spans = client.trace(trace_id)["spans"]
        return {s["component"] for s in spans}

    # Worker spans arrive via their own POST /v1/trace push, so poll
    # briefly rather than assume ordering against run_sweep's return.
    wait_until(
        lambda: {"client", "service", "worker", "cluster"} <= components()
    )
    spans = client.trace(trace_id)["spans"]
    assert all(s["trace_id"] == trace_id for s in spans)
    by_name = {}
    for item in spans:
        by_name.setdefault(item["name"], item)
    assert "client.run_sweep" in by_name
    assert "job.run" in by_name
    assert "worker.run_unit" in by_name
    assert "quorum.accept" in by_name
    http_spans = [s for s in spans if s["name"].startswith("http ")]
    assert any("/v1/sweeps" in s["name"] for s in http_spans)


def test_events_endpoint_surfaces_redirect_log(live_server):
    url, _spawn = live_server
    client = ServiceClient(url)
    client.health()
    set_log_quiet(True)
    try:
        log_event("obs.http_probe", "test")
    finally:
        set_log_quiet(False)
    events = client.events()["events"]
    assert any(e["event"] == "obs.http_probe" for e in events)


def test_client_stats_snapshot(live_server):
    url, _spawn = live_server
    client = ServiceClient(url)
    client.health()
    client.health()
    stats = client.stats()
    assert stats["requests"] >= 2
    for key in (
        "retries",
        "replays",
        "redirects_followed",
        "etag_hits",
        "last_trace_id",
    ):
        assert key in stats


# -- quarantine reason codes -------------------------------------------


def test_outvoted_strike_carries_lost_quorum_reason(peerless):
    coordinator = peerless(redundancy=3, quarantine_after=1)
    byz = coordinator.register_worker("byz")["worker_id"]
    h1 = coordinator.register_worker("h1")["worker_id"]
    h2 = coordinator.register_worker("h2")["worker_id"]
    adversary = ByzantineRandomAdversary({0}, seed=0)
    holder, thread = submit_async(coordinator, e1_cases(), redundancy=3)
    unit = coordinator.lease(byz)["unit"]
    bad = corrupt_rows(adversary, 0, honest_rows(unit))
    assert unit_digest(bad) != unit_digest(honest_rows(unit))
    coordinator.complete(byz, unit["unit_id"], bad)
    coordinator.complete(h1, unit["unit_id"], honest_rows(unit))
    coordinator.complete(h2, unit["unit_id"], honest_rows(unit))
    workers = {w["name"]: w for w in coordinator.workers()}
    assert workers["byz"]["strike_reasons"] == ["lost-quorum"]
    assert workers["byz"]["quarantine_reason"] == "lost-quorum"
    assert workers["h1"]["strike_reasons"] == []
    assert workers["h1"]["quarantine_reason"] is None
    # Drain so the submit thread finishes cleanly.
    while drain(coordinator, h1) + drain(coordinator, h2) > 0:
        pass
    thread.join(timeout=10)
    assert "error" not in holder


def test_stale_contradicting_vote_carries_stale_vote_reason(peerless):
    coordinator = peerless(
        quarantine_after=99, lease_ttl=0.1
    )
    slow = coordinator.register_worker("slow")["worker_id"]
    fast = coordinator.register_worker("fast")["worker_id"]
    holder, thread = submit_async(coordinator, e1_cases()[:2])
    unit = coordinator.lease(slow)["unit"]
    time.sleep(0.15)  # the straggler's lease expires...
    reassigned = coordinator.lease(fast)["unit"]
    assert reassigned["unit_id"] == unit["unit_id"]
    coordinator.complete(fast, unit["unit_id"], honest_rows(unit))
    # ...and its late, contradicting completion earns the reason code.
    reply = coordinator.complete(slow, unit["unit_id"], [{"garbage": 1}])
    assert reply["status"] == "stale"
    workers = {w["name"]: w for w in coordinator.workers()}
    assert workers["slow"]["strike_reasons"] == ["stale-vote"]
    assert workers["slow"]["quarantine_reason"] is None
    while drain(coordinator, fast) + drain(coordinator, slow) > 0:
        pass
    thread.join(timeout=10)
    assert "error" not in holder


def test_colluding_quorum_on_invalid_payload_carries_contradiction(peerless):
    coordinator = peerless(redundancy=3, quarantine_after=1)
    a = coordinator.register_worker("a")["worker_id"]
    b = coordinator.register_worker("b")["worker_id"]
    holder, thread = submit_async(
        coordinator, e1_cases()[:1], redundancy=3, timeout=5.0
    )
    unit = coordinator.lease(a)["unit"]
    garbage = [{"not": "a result"}]
    coordinator.complete(a, unit["unit_id"], garbage)
    coordinator.complete(b, unit["unit_id"], garbage)
    workers = {w["name"]: w for w in coordinator.workers()}
    assert workers["a"]["strike_reasons"] == ["contradiction"]
    assert workers["b"]["strike_reasons"] == ["contradiction"]
    assert workers["a"]["quarantined"] is True
    thread.join(timeout=10)
    assert "error" in holder  # the sweep fails loudly, never trusts it


# -- replicated fabric: election counter + fleet gauges -----------------


class ObsFabric(Fabric):
    """A chaos fabric with one private MetricsRegistry per replica."""

    def __init__(self, tmp_path, n=3, **kwargs):
        self.registries = [MetricsRegistry() for _ in range(n)]
        super().__init__(tmp_path, n=n, **kwargs)

    def _boot(self, i, **kwargs):
        kwargs.setdefault("registry", self.registries[i])
        return super()._boot(i, **kwargs)


def _counter_value(registry, name):
    samples = parse_prometheus(render_prometheus(registry))
    return samples.get((name, ()), 0.0)


def _gauge_value(registry, name):
    samples = parse_prometheus(render_prometheus(registry))
    return samples.get((name, ()))


def test_election_counter_increments_exactly_once_per_leader_kill(tmp_path):
    fabric = ObsFabric(tmp_path, n=3, **{"fsync": False})
    try:
        leader = fabric.wait_leader()
        survivors = [r for r in fabric.replicas if r is not leader]
        # Every live replica agrees on the term; exactly one leads.
        term = leader.raft_status()["term"]
        for replica, registry in zip(fabric.replicas, fabric.registries):
            assert _gauge_value(registry, "repro_raft_term") == term
        leaders = [
            _gauge_value(registry, "repro_raft_is_leader")
            for registry in fabric.registries
        ]
        assert sum(leaders) == 1
        heartbeats = _counter_value(
            fabric.registries[fabric.replicas.index(leader)],
            "repro_raft_heartbeats_total",
        )
        assert heartbeats >= 1
        # Disjoint election timeouts make the succession deterministic:
        # the first survivor always fires (and wins) before the second
        # survivor's alarm, so exactly one election is started.
        survivors[0].election_timeout = (0.2, 0.3)
        survivors[1].election_timeout = (2.5, 3.0)
        time.sleep(0.3)  # let heartbeats re-arm both alarms
        baseline = sum(
            _counter_value(
                fabric.registries[fabric.replicas.index(r)],
                "repro_raft_elections_total",
            )
            for r in survivors
        )
        fabric.kill(leader)
        wait_until(
            lambda: any(
                r.raft_status()["role"] == "leader" for r in survivors
            )
        )
        time.sleep(0.3)  # would catch a spurious second election
        after = sum(
            _counter_value(
                fabric.registries[fabric.replicas.index(r)],
                "repro_raft_elections_total",
            )
            for r in survivors
        )
        assert after - baseline == 1
        # fsync histogram saw the log appends that carried the election.
        for r in survivors:
            registry = fabric.registries[fabric.replicas.index(r)]
            assert (
                _counter_value(registry, "repro_log_fsync_seconds_count") >= 1
            )
    finally:
        fabric.teardown()


def test_follower_exports_the_scheduler_gauges(tmp_path):
    """Every replica, not only the leader, renders ``repro_cluster_*``."""
    fabric = ObsFabric(tmp_path, n=3, **{"fsync": False})
    try:
        leader = fabric.wait_leader()
        index = next(
            i for i, r in enumerate(fabric.replicas) if r is not leader
        )
        follower, registry = fabric.replicas[index], fabric.registries[index]
        assert _gauge_value(registry, "repro_cluster_open_units") == 0
        leader.register_worker("w")
        # The gauge reads the follower's own applied state.
        wait_until(lambda: len(follower.workers()) == 1)
        assert _gauge_value(registry, "repro_cluster_workers") == 1
    finally:
        fabric.teardown()
