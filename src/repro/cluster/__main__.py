"""Command-line entry point: ``python -m repro.cluster``.

Subcommands::

    coordinator  run the HTTP service with the cluster scheduler enabled
    replica      run one consensus replica of the replicated control plane
    worker       run one worker process against a coordinator URL
    submit       submit a cluster-executed sweep and optionally wait

Examples::

    python -m repro.cluster coordinator --port 8642 --cache-dir .cache
    python -m repro.cluster replica --port 8651 --data-dir .r1 \\
        --peers http://127.0.0.1:8652,http://127.0.0.1:8653
    python -m repro.cluster worker --url http://127.0.0.1:8642 \\
        --cache-dir .worker-cache --idle-timeout 120
    python -m repro.cluster worker \\
        --url http://127.0.0.1:8651,http://127.0.0.1:8652,http://127.0.0.1:8653
    python -m repro.cluster worker --url http://127.0.0.1:8642 \\
        --fault byzantine --fault-seed 0
    python -m repro.cluster submit --scenario coordination_robustness \\
        --redundancy 3 --wait

``worker`` and ``submit`` accept a comma-separated ``--url`` list; the
client fails over between endpoints and chases leader hints, so a sweep
keeps running while individual replicas crash.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cluster.replica import Replica
from repro.cluster.worker import Worker
from repro.dist.faults import ByzantineRandomAdversary, CrashAdversary
from repro.experiments.results import format_table
from repro.service.aserver import aserve_forever
from repro.service.client import ServiceClient
from repro.service.store import ResultStore


def _add_url(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--url`` option of the client subcommands."""
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help=(
            "coordinator base URL, or a comma-separated replica list "
            "(default: http://127.0.0.1:8642)"
        ),
    )


def _add_watch(parser: argparse.ArgumentParser) -> None:
    """Attach the embedded-watchdog options shared by server commands."""
    parser.add_argument(
        "--watch",
        action="store_true",
        help="embed the fleet watchdog (serves /v1/watch/* from this process)",
    )
    parser.add_argument(
        "--watch-interval",
        type=float,
        default=1.0,
        help="watchdog scrape interval in seconds",
    )
    parser.add_argument(
        "--watch-endpoints",
        default=None,
        help=(
            "comma-separated base URLs to scrape "
            "(default: this process plus its peers)"
        ),
    )
    parser.add_argument(
        "--watch-forensics-dir",
        default=None,
        help="write forensic bundles here when an alert fires",
    )


def _build_watchdog(args: argparse.Namespace, default_endpoints: List[str]):
    """The embedded watchdog an ``--watch`` server command asked for."""
    from repro.obs.watch import Watchdog

    endpoints = default_endpoints
    if args.watch_endpoints:
        endpoints = [
            url.strip()
            for url in args.watch_endpoints.split(",")
            if url.strip()
        ]
    return Watchdog(
        endpoints,
        interval=args.watch_interval,
        forensics_dir=args.watch_forensics_dir,
    )


def _cmd_coordinator(args: argparse.Namespace) -> int:
    """Run the HTTP service over a peerless, in-memory replica."""
    store = None if args.cache_dir is None else ResultStore(args.cache_dir)
    coordinator = Replica(
        None,
        f"http://{args.host}:{args.port}",
        store=store,
        redundancy=args.redundancy,
        unit_size=args.unit_size,
        lease_ttl=args.lease_ttl,
        quarantine_after=args.quarantine_after,
    )
    return _serve(args, coordinator, store)


def _cmd_replica(args: argparse.Namespace) -> int:
    """Run one consensus replica: raft node + full service API."""
    store = None if args.cache_dir is None else ResultStore(args.cache_dir)
    self_url = args.self_url or f"http://{args.host}:{args.port}"
    peers = [url.strip() for url in args.peers.split(",") if url.strip()]
    replica = Replica(
        data_dir=args.data_dir,
        self_url=self_url,
        peer_urls=peers,
        store=store,
        redundancy=args.redundancy,
        unit_size=args.unit_size,
        lease_ttl=args.lease_ttl,
        quarantine_after=args.quarantine_after,
        heartbeat_interval=args.heartbeat_interval,
        election_timeout=(args.election_min, args.election_max),
        fsync=not args.no_fsync,
    )
    return _serve(args, replica, store)


def _serve(
    args: argparse.Namespace, replica: Replica, store: Optional[ResultStore]
) -> int:
    """Start ``replica`` (and its watchdog) and serve the API until stopped."""
    if args.watch:
        watchdog = _build_watchdog(args, replica.watch_endpoints())
        replica.attach_watchdog(watchdog)
        watchdog.start()
    replica.start()
    try:
        aserve_forever(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            store=store,
            coordinator=replica,
        )
    finally:
        replica.close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one worker loop against a coordinator until idle or dead."""
    fault = None
    if args.fault == "byzantine":
        fault = ByzantineRandomAdversary({0}, seed=args.fault_seed)
    elif args.fault == "crash":
        fault = CrashAdversary({0}, crash_round={0: args.crash_after})
    store = None if args.cache_dir is None else ResultStore(args.cache_dir)
    client = ServiceClient(args.url)
    client.wait_until_up(timeout=args.connect_timeout)
    worker = Worker(
        client, name=args.name, store=store, fault=fault, poll=args.poll
    )
    summary = worker.run(
        max_units=args.max_units, idle_timeout=args.idle_timeout
    )
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a cluster-executed sweep; optionally wait and print tables."""
    client = ServiceClient(args.url)
    client.wait_until_up(timeout=args.connect_timeout)
    submitted = client.submit_sweep(
        scenarios=args.scenario or None,
        families=args.family or None,
        smoke=args.smoke,
        base_seed=args.seed,
        limit_per_scenario=args.limit,
        replications=args.replications,
        executor="cluster",
        redundancy=args.redundancy,
    )
    print(json.dumps(submitted, indent=2))
    if not args.wait:
        return 0
    status = client.wait_for_job(submitted["job_id"], timeout=args.timeout)
    print(json.dumps(status, indent=2))
    if status["status"] != "done":
        return 1
    _job, results = client.results(status["job_id"])
    print(
        format_table(
            "wall time by scenario",
            ["scenario", "cases", "cache hits", "total s", "mean ms"],
            results.timing_summary(),
        )
    )
    print(
        f"{len(results)} cases: {status['cache_hits']} cache hits, "
        f"{status['cache_misses']} misses."
    )
    if args.json:
        results.to_json(args.json)
        print(f"JSON written to {args.json}")
    if args.require_cached and status["cache_misses"] > 0:
        print(
            f"error: expected a full cache hit but {status['cache_misses']} "
            "cases were recomputed",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Fault-tolerant multi-worker experiment execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coord = sub.add_parser(
        "coordinator", help="serve HTTP with the cluster scheduler enabled"
    )
    coord.add_argument("--host", default="127.0.0.1")
    coord.add_argument("--port", type=int, default=8642)
    coord.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (recommended)",
    )
    coord.add_argument(
        "--redundancy",
        type=int,
        default=1,
        help="default r-fold replication per work unit (majority quorum)",
    )
    coord.add_argument(
        "--unit-size", type=int, default=1, help="cases per work unit"
    )
    coord.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds before an uncompleted lease is reassigned",
    )
    coord.add_argument(
        "--quarantine-after",
        type=int,
        default=1,
        help="strikes before a worker stops receiving leases",
    )
    _add_watch(coord)
    coord.set_defaults(fn=_cmd_coordinator)

    replica = sub.add_parser(
        "replica", help="run one replica of the replicated control plane"
    )
    replica.add_argument("--host", default="127.0.0.1")
    replica.add_argument("--port", type=int, default=8642)
    replica.add_argument(
        "--data-dir",
        required=True,
        help="durable consensus state directory owned by this replica",
    )
    replica.add_argument(
        "--self-url",
        default=None,
        help="URL peers reach this replica at (default: http://host:port)",
    )
    replica.add_argument(
        "--peers",
        default="",
        help="comma-separated URLs of the other replicas",
    )
    replica.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (recommended)",
    )
    replica.add_argument(
        "--redundancy",
        type=int,
        default=1,
        help="default r-fold replication per work unit (majority quorum)",
    )
    replica.add_argument(
        "--unit-size", type=int, default=1, help="cases per work unit"
    )
    replica.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="logical-clock seconds before a lease is reassigned",
    )
    replica.add_argument(
        "--quarantine-after",
        type=int,
        default=1,
        help="strikes before a worker stops receiving leases",
    )
    replica.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.08,
        help="leader heartbeat period in seconds",
    )
    replica.add_argument(
        "--election-min",
        type=float,
        default=0.3,
        help="lower bound of the randomized election timeout",
    )
    replica.add_argument(
        "--election-max",
        type=float,
        default=0.6,
        help="upper bound of the randomized election timeout",
    )
    replica.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on the consensus log (tests/CI only)",
    )
    _add_watch(replica)
    replica.set_defaults(fn=_cmd_replica)

    worker = sub.add_parser("worker", help="run one worker process")
    _add_url(worker)
    worker.add_argument("--name", default=None)
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="worker-local result cache (warm keys are never recomputed)",
    )
    worker.add_argument("--poll", type=float, default=0.05)
    worker.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: poll forever)",
    )
    worker.add_argument("--max-units", type=int, default=None)
    worker.add_argument(
        "--fault",
        choices=["none", "byzantine", "crash"],
        default="none",
        help="inject a repro.dist.faults adversary around the loop",
    )
    worker.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the ByzantineRandom adversary stream",
    )
    worker.add_argument(
        "--crash-after",
        type=int,
        default=1,
        help="completions before a crash-fault worker dies mid-lease",
    )
    worker.add_argument(
        "--connect-timeout",
        type=float,
        default=15.0,
        help="seconds to wait for the coordinator to come up",
    )
    worker.set_defaults(fn=_cmd_worker)

    submit = sub.add_parser("submit", help="submit a cluster-executed sweep")
    _add_url(submit)
    submit.add_argument("--scenario", action="append", default=[])
    submit.add_argument("--family", action="append", default=[])
    submit.add_argument(
        "--smoke",
        action="store_true",
        help="one representative case per family",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--limit", type=int, default=None)
    submit.add_argument("--replications", type=int, default=1)
    submit.add_argument(
        "--redundancy",
        type=int,
        default=1,
        help="r-fold replication with majority-quorum acceptance",
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until done and print results"
    )
    submit.add_argument("--timeout", type=float, default=600.0)
    submit.add_argument(
        "--connect-timeout",
        type=float,
        default=15.0,
        help="seconds to wait for the server to come up",
    )
    submit.add_argument("--json", default=None, help="write results JSON here")
    submit.add_argument(
        "--require-cached",
        action="store_true",
        help="exit nonzero unless every case was a cache hit (CI gate)",
    )
    submit.set_defaults(fn=_cmd_submit)

    args = parser.parse_args(argv)
    if args.command == "submit" and args.require_cached and not args.wait:
        parser.error("--require-cached needs --wait")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
