"""Service benchmarks: cold sweep latency and warm-cache request rates.

Everything runs against the real in-process asyncio server on an
ephemeral port, exactly as a remote client would see it.  Three rows go
to ``BENCH_service.json``:

* ``sweep_cold`` — submit+poll+fetch latency of the E1 robustness sweep
  against an empty cache (every case computed).
* ``sweep_warm`` — the same sweep re-run, fully content-addressed (warm
  best-of-3); the cold/warm pair is the ISSUE-4 speedup evidence.
* ``warm_fetch`` — per-request latency of ``GET /v1/results/<key>``
  over many sequential fetches (the workload string records req/s).

Timed by hand (``record_row``) rather than pytest-benchmark: the cold
row is only cold once per fresh cache directory.
"""

import time

import pytest

from conftest import print_table, record_row

from repro.service.aserver import start_async_server
from repro.service.client import ServiceClient
from repro.service.store import ResultStore

SWEEP = ["coordination_robustness"]


@pytest.fixture
def service(tmp_path):
    """A live server + client pair over a fresh cache directory."""
    store = ResultStore(str(tmp_path / "cache"))
    server, _thread = start_async_server(store=store)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=60.0)
    try:
        yield client, store
    finally:
        server.shutdown()
        server.server_close()
        server.manager.shutdown()


def _timed_sweep(client):
    """One submit+wait+fetch round trip; returns (seconds, job, results)."""
    start = time.perf_counter()
    job, results = client.run_sweep(scenarios=SWEEP)
    return time.perf_counter() - start, job, results


def test_bench_cold_vs_warm_sweep(service):
    """Record the cold/warm latency pair of the E1 sweep via the service."""
    client, _store = service
    cold_s, cold_job, cold_results = _timed_sweep(client)
    assert cold_job["cache_misses"] == len(cold_results) > 0

    warm_s = float("inf")
    for _ in range(3):
        s, warm_job, warm_results = _timed_sweep(client)
        warm_s = min(warm_s, s)
        assert warm_job["cache_hits"] == len(warm_results)
    assert warm_results.to_json_obj() == cold_results.to_json_obj()

    workload = f"{len(cold_results)} cases of {SWEEP[0]} over HTTP"
    record_row("service", "sweep_cold", cold_s, workload=workload)
    record_row("service", "sweep_warm", warm_s, workload=workload + ", cached")
    print_table(
        "service sweep latency (cold vs warm cache)",
        ["row", "ms", "speedup"],
        [
            ["sweep_cold", f"{1000 * cold_s:.1f}", ""],
            ["sweep_warm", f"{1000 * warm_s:.1f}", f"{cold_s / warm_s:.1f}x"],
        ],
    )


def test_bench_warm_fetch_rate(service):
    """Record per-request latency of content-addressed result fetches."""
    client, store = service
    client.run_sweep(scenarios=SWEEP)
    keys = list(store.keys())
    assert keys
    requests = 200
    start = time.perf_counter()
    for i in range(requests):
        client.fetch_bytes(keys[i % len(keys)])
    elapsed = time.perf_counter() - start
    per_request = elapsed / requests
    rate = requests / elapsed
    record_row(
        "service",
        "warm_fetch",
        per_request,
        workload=f"{requests} GET /v1/results/<key>, {rate:.0f} req/s",
    )
    print_table(
        "warm-cache fetch rate",
        ["requests", "total s", "ms/req", "req/s"],
        [[requests, f"{elapsed:.3f}", f"{1000 * per_request:.2f}", f"{rate:.0f}"]],
    )
