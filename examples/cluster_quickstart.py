"""Cluster quickstart: a fault-tolerant sweep with a Byzantine worker.

Starts the experiment server with a single-process coordinator (a
peerless in-memory :class:`Replica`) on an ephemeral port, attaches
three workers over the real HTTP protocol — two honest, one wrapped in
the ``repro.dist.faults`` ByzantineRandom adversary — and submits the
paper's E1 robustness sweep with 3-fold redundancy.  The Byzantine
worker's corrupt payloads lose the majority quorum, it gets
quarantined, and the accepted results are byte-identical
(deterministic payload) to a plain serial run.  A warm re-run is then a
full content-addressed cache hit that never touches the fabric.

Run with::

    python examples/cluster_quickstart.py
"""

import tempfile
import threading
import time

from repro.cluster import Replica, run_worker_thread
from repro.dist.faults import ByzantineRandomAdversary
from repro.experiments.results import format_table
from repro.experiments.runner import run_experiments
from repro.service import ResultStore, ServiceClient, start_async_server

SWEEP = "coordination_robustness"


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro-cluster-")
    store = ResultStore(cache_dir)
    coordinator = Replica(
        None, "local", store=store, redundancy=3, unit_size=1,
        quarantine_after=1,
    ).start()
    server, _thread = start_async_server(store=store, coordinator=coordinator)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    client = ServiceClient(url)
    print(f"## coordinator at {url} (cache: {cache_dir})")

    print()
    print("## 1. Three workers join: two honest, one Byzantine")
    stop = threading.Event()
    workers = [
        run_worker_thread(
            ServiceClient(url),
            name="byzantine",
            fault=ByzantineRandomAdversary({0}, seed=0),
            stop=stop,
        ),
    ]

    print()
    print("## 2. The E1 sweep, 3-fold redundant with majority quorum")
    start = time.perf_counter()
    submitted = client.submit_sweep(
        scenarios=[SWEEP], executor="cluster", redundancy=3
    )
    # Let the Byzantine worker cast its (corrupt) first vote, then let
    # the honest majority take over.
    while coordinator.stats()["votes_received"] < 1:
        time.sleep(0.01)
    workers += [
        run_worker_thread(ServiceClient(url), name="honest-1", stop=stop),
        run_worker_thread(ServiceClient(url), name="honest-2", stop=stop),
    ]
    status = client.wait_for_job(submitted["job_id"], timeout=120)
    assert status["status"] == "done", status
    job, results = client.results(submitted["job_id"])
    cold_s = time.perf_counter() - start
    serial = run_experiments(scenarios=[SWEEP])
    identical = results.payload_bytes() == serial.payload_bytes()
    print(
        f"job {job['job_id']}: {len(results)} cases in {cold_s * 1000:.0f} ms; "
        f"cluster payload == serial payload: {identical}"
    )
    assert identical, "quorum-accepted results must match the serial run"

    print()
    print("## 3. The Byzantine worker was outvoted and quarantined")
    print(
        format_table(
            "worker registry",
            ["worker", "completed", "strikes", "quarantined"],
            [
                [w["name"], w["completed"], w["strikes"], w["quarantined"]]
                for w in client.cluster()["workers"]
            ],
        )
    )
    registry = {w["name"]: w for w in client.cluster()["workers"]}
    assert registry["byzantine"]["quarantined"], "expected a quarantine"
    stats = client.store_stats()
    print(
        f"store: {stats['quorum_puts']} quorum-verified writes, "
        f"{stats['disk_entries']} blobs, {stats['disk_bytes']} bytes"
    )

    print()
    print("## 4. Warm re-run: pure cache, the fabric is never consulted")
    start = time.perf_counter()
    job2, warm = client.run_sweep(
        scenarios=[SWEEP], executor="cluster", redundancy=3, timeout=120
    )
    warm_s = time.perf_counter() - start
    print(
        f"job {job2['job_id']}: {job2['cache_hits']}/{len(warm)} cache hits, "
        f"{warm_s * 1000:.1f} ms ({cold_s / warm_s:.0f}x faster than cold)"
    )
    assert job2["cache_hits"] == len(warm)

    stop.set()
    for _worker, thread in workers:
        thread.join(timeout=10)
    server.shutdown()
    server.server_close()
    coordinator.close()
    print()
    print("cluster stopped.")


if __name__ == "__main__":
    main()
