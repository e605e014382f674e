"""Command-line entry point: ``python -m repro.obs``.

Subcommands::

    scrape     fetch /v1/metrics from every URL and print an aggregate
               table (or, with --trace, stitch one trace from the fleet)
    tail       follow the fleet's /v1/events with the ?since= cursor and
               print new structured log lines exactly once
    watch      run the standalone fleet watchdog: TSDB history,
               invariant/SLO alerting, flight-recorder forensics, and
               (with --serve-port) the live HTML dashboard
    forensics  pretty-print one forensic bundle's timeline

Examples::

    python -m repro.obs scrape \\
        --url http://127.0.0.1:8661,http://127.0.0.1:8662,http://127.0.0.1:8663
    python -m repro.obs scrape --url ... --trace 4f2a...c9 --json
    python -m repro.obs tail --url http://127.0.0.1:8661 --interval 1.0
    python -m repro.obs watch \\
        --endpoints http://127.0.0.1:8661,http://127.0.0.1:8662 \\
        --forensics-dir .watch --serve-port 9090
    python -m repro.obs watch --endpoints ... --duration 30 \\
        --fail-on-alert invariant
    python -m repro.obs forensics .watch/bundle-raft-one_leader-....json

``scrape`` exits nonzero if any endpoint is unreachable unless
``--allow-down`` is passed, and ``watch --fail-on-alert`` exits nonzero
when any alert of the given kind (or ``all``) went pending/firing — so
CI can assert both that the fleet answers and that it is invariant-clean.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import parse_prometheus

_Sample = Tuple[str, Tuple[Tuple[str, str], ...]]


def _fetch(url: str, timeout: float) -> bytes:
    """GET one URL, returning the raw body (raises on HTTP/socket error)."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def _split_urls(raw: str) -> List[str]:
    """Parse the comma-separated ``--url`` list into clean base URLs."""
    return [u.strip().rstrip("/") for u in raw.split(",") if u.strip()]


def _scrape_metrics(
    urls: List[str], timeout: float, allow_down: bool
) -> Tuple[Dict[str, Dict[_Sample, float]], List[str]]:
    """Fetch and parse ``/v1/metrics`` from every URL.

    Returns per-endpoint parsed samples plus the list of endpoints that
    did not answer (fatal unless ``allow_down``).
    """
    per_endpoint: Dict[str, Dict[_Sample, float]] = {}
    down: List[str] = []
    for url in urls:
        try:
            body = _fetch(f"{url}/v1/metrics", timeout)
        except (OSError, urllib.error.URLError) as exc:
            down.append(url)
            print(f"# {url}: DOWN ({exc})", file=sys.stderr)
            continue
        per_endpoint[url] = parse_prometheus(body.decode("utf-8", "replace"))
    if down and not allow_down:
        raise SystemExit(f"unreachable endpoints: {', '.join(down)}")
    return per_endpoint, down


def _cmd_scrape(args: argparse.Namespace) -> int:
    """Aggregate fleet metrics, or stitch one trace with ``--trace``."""
    urls = _split_urls(args.url)
    if args.trace:
        return _scrape_trace(urls, args.trace, args.timeout, args.json)
    per_endpoint, _down = _scrape_metrics(urls, args.timeout, args.allow_down)
    if args.json:
        payload = {
            url: {
                _render_key(key): value for key, value in sorted(samples.items())
            }
            for url, samples in per_endpoint.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    names: Dict[_Sample, Dict[str, float]] = {}
    for url, samples in per_endpoint.items():
        for key, value in samples.items():
            names.setdefault(key, {})[url] = value
    width = max((len(_render_key(k)) for k in names), default=10)
    header = "  ".join(f"{url.split('//')[-1]:>21}" for url in per_endpoint)
    print(f"{'metric':<{width}}  {header}")
    for key in sorted(names):
        if key[0].endswith("_bucket"):
            continue  # bucket-level samples would swamp the table
        row = "  ".join(
            f"{names[key].get(url, float('nan')):>21.6g}" for url in per_endpoint
        )
        print(f"{_render_key(key):<{width}}  {row}")
    return 0


def _render_key(key: _Sample) -> str:
    """One parsed sample key as ``name{a=b,...}`` for display."""
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def _scrape_trace(
    urls: List[str], trace_id: str, timeout: float, as_json: bool
) -> int:
    """Stitch one trace from every endpoint's ``/v1/trace/<id>``."""
    spans: Dict[str, Dict[str, Any]] = {}
    for url in urls:
        try:
            body = _fetch(f"{url}/v1/trace/{trace_id}", timeout)
        except (OSError, urllib.error.URLError):
            continue
        try:
            payload = json.loads(body)
        except ValueError:
            continue
        for obj in payload.get("spans", []):
            span_id = str(obj.get("span_id"))
            spans.setdefault(span_id, obj)
    ordered = sorted(spans.values(), key=lambda s: s.get("start_wall", 0.0))
    if as_json:
        print(json.dumps({"trace_id": trace_id, "spans": ordered}, indent=2))
        return 0 if ordered else 1
    if not ordered:
        print(f"no spans found for trace {trace_id}", file=sys.stderr)
        return 1
    t0 = ordered[0].get("start_wall", 0.0)
    print(f"trace {trace_id}: {len(ordered)} spans")
    for obj in ordered:
        offset = (obj.get("start_wall", 0.0) - t0) * 1000.0
        duration = obj.get("duration", 0.0) * 1000.0
        print(
            f"  +{offset:9.2f}ms  {duration:9.2f}ms  "
            f"{obj.get('component', '?'):<12} {obj.get('name', '?')}"
        )
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    """Poll ``/v1/events`` on every URL and print new lines forever.

    Uses the ``?since=<seq>`` cursor, so an event is printed exactly
    once per endpoint and ring wrap shows up as an explicit warning
    line instead of a silent gap.
    """
    urls = _split_urls(args.url)
    cursors: Dict[str, int] = {url: 0 for url in urls}
    deadline = None if args.duration is None else time.monotonic() + args.duration
    while True:
        for url in urls:
            try:
                body = _fetch(
                    f"{url}/v1/events?since={cursors[url]}&limit={args.limit}",
                    args.timeout,
                )
                payload = json.loads(body)
            except (OSError, ValueError, urllib.error.URLError):
                continue
            dropped = payload.get("dropped", 0)
            if dropped:
                print(
                    f"# {url}: {dropped} events dropped (ring wrapped "
                    "faster than the poll interval)",
                    file=sys.stderr,
                )
            for record in payload.get("events", []):
                record["endpoint"] = url
                print(json.dumps(record, default=str), flush=True)
            next_since = payload.get("next_since")
            if isinstance(next_since, int):
                cursors[url] = next_since
        if deadline is not None and time.monotonic() >= deadline:
            return 0
        time.sleep(args.interval)


def _cmd_watch(args: argparse.Namespace) -> int:
    """Run the standalone fleet watchdog against live endpoints."""
    from repro.obs.rules import default_rules
    from repro.obs.watch import Watchdog, serve_watch_http

    urls = _split_urls(args.endpoints)
    rules = None
    if args.invariant_dwell is not None:
        # CI chaos runs shrink the dwell so even a sub-second
        # leaderless window (a fast re-election) still walks the full
        # pending -> firing -> resolved lifecycle instead of clearing
        # from pending before the default two-tick dwell elapses.
        rules = default_rules(interval=args.interval)
        for rule in rules:
            if rule.kind == "invariant":
                rule.for_seconds = args.invariant_dwell
    watchdog = Watchdog(
        urls,
        interval=args.interval,
        rules=rules,
        forensics_dir=args.forensics_dir,
        timeout=args.timeout,
        suspect_after=args.suspect_after,
    )
    server = None
    if args.serve_port is not None:
        server = serve_watch_http(watchdog, port=args.serve_port, quiet=False)
        host, port = server.server_address[:2]
        print(f"# watch dashboard: http://{host}:{port}/v1/watch/dash",
              file=sys.stderr)
    try:
        if args.duration is not None:
            watchdog.run(args.duration)
        else:
            watchdog.start()
            while True:
                time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        watchdog.stop()
        if server is not None:
            server.server_close()
    status = watchdog.status()
    if args.status_out:
        with open(args.status_out, "w", encoding="utf-8") as handle:
            json.dump(status, handle, indent=2, sort_keys=True)
    print(json.dumps(status, indent=2, sort_keys=True))
    if args.fail_on_alert:
        noisy = [
            entry
            for entry in watchdog.alerts.log_snapshot()
            if entry["state"] in ("pending", "firing")
            and (args.fail_on_alert == "all" or entry["kind"] == args.fail_on_alert)
        ]
        if noisy:
            print(
                f"error: {len(noisy)} alert transitions on a run that "
                "expected none",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    """Pretty-print one forensic bundle's timeline."""
    with open(args.bundle, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    alert = bundle.get("alert") or {}
    print(
        f"bundle v{bundle.get('version')}  rule={alert.get('rule')}  "
        f"state={alert.get('state')}  created={bundle.get('created_ts')}"
    )
    print(f"  message: {alert.get('message', '')}")
    print("endpoints:")
    for endpoint, info in sorted(bundle.get("endpoints", {}).items()):
        state = "DOWN" if info.get("down") else "up"
        print(
            f"  {endpoint:<28} {state:<5} "
            f"failures={info.get('consecutive_failures', 0)}"
        )
    print("raft:")
    for endpoint, status in sorted(bundle.get("raft", {}).items()):
        print(
            f"  {endpoint:<28} role={status.get('role'):<9} "
            f"term={status.get('term')} commit={status.get('commit_index')}"
        )
    timeline: List[Tuple[float, str]] = []
    for entry in bundle.get("alert_log", []):
        timeline.append(
            (
                float(entry.get("ts", 0.0)),
                f"ALERT {entry.get('rule')} -> {entry.get('state')} "
                f"{entry.get('message', '')}",
            )
        )
    for event in bundle.get("events", []):
        detail = {
            k: v
            for k, v in event.items()
            if k not in ("ts", "mono", "seq", "trace_id")
        }
        timeline.append(
            (float(event.get("ts", 0.0)), f"EVENT {json.dumps(detail, default=str)}")
        )
    timeline.sort(key=lambda item: item[0])
    print(f"timeline ({len(timeline)} entries):")
    t0 = timeline[0][0] if timeline else 0.0
    for ts, line in timeline[-args.limit:]:
        print(f"  +{ts - t0:9.3f}s  {line}")
    term_series = [
        s for s in bundle.get("tsdb", []) if s.get("metric") == "repro_raft_term"
    ]
    if term_series:
        print("term history:")
        for series in term_series:
            points = series.get("points", [])
            values = " ".join(f"{v:g}" for _ts, v in points[-20:])
            print(f"  {series.get('endpoint', '?'):<28} {values}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Fleet-wide metrics scraping and trace stitching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scrape = sub.add_parser(
        "scrape", help="aggregate /v1/metrics (or stitch one trace)"
    )
    scrape.add_argument(
        "--url",
        required=True,
        help="comma-separated list of server base URLs",
    )
    scrape.add_argument(
        "--trace",
        default=None,
        help="stitch this trace id from every endpoint instead of metrics",
    )
    scrape.add_argument("--timeout", type=float, default=5.0)
    scrape.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    scrape.add_argument(
        "--allow-down",
        action="store_true",
        help="tolerate unreachable endpoints instead of exiting nonzero",
    )
    scrape.set_defaults(fn=_cmd_scrape)

    tail = sub.add_parser("tail", help="follow the fleet's structured events")
    tail.add_argument(
        "--url",
        required=True,
        help="comma-separated list of server base URLs",
    )
    tail.add_argument("--interval", type=float, default=1.0)
    tail.add_argument("--limit", type=int, default=200)
    tail.add_argument("--timeout", type=float, default=5.0)
    tail.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop after this many seconds (default: run forever)",
    )
    tail.set_defaults(fn=_cmd_tail)

    watch = sub.add_parser(
        "watch", help="run the standalone fleet watchdog"
    )
    watch.add_argument(
        "--endpoints",
        required=True,
        help="comma-separated base URLs of the fleet to monitor",
    )
    watch.add_argument("--interval", type=float, default=1.0)
    watch.add_argument("--timeout", type=float, default=2.0)
    watch.add_argument(
        "--suspect-after",
        type=int,
        default=3,
        help="consecutive scrape failures before an endpoint is down",
    )
    watch.add_argument(
        "--duration",
        type=float,
        default=None,
        help="run this many seconds then print status (default: forever)",
    )
    watch.add_argument(
        "--forensics-dir",
        default=None,
        help="write forensic bundles here when an alert fires",
    )
    watch.add_argument(
        "--serve-port",
        type=int,
        default=None,
        help="serve /v1/watch/{dash,query,status} on this port",
    )
    watch.add_argument(
        "--status-out",
        default=None,
        help="also write the final status JSON to this file",
    )
    watch.add_argument(
        "--invariant-dwell",
        type=float,
        default=None,
        help="override every invariant rule's pending dwell (seconds); "
        "0 fires on the first breached scrape",
    )
    watch.add_argument(
        "--fail-on-alert",
        choices=["invariant", "slo", "all"],
        default=None,
        help="exit nonzero if any alert of this kind went pending/firing",
    )
    watch.set_defaults(fn=_cmd_watch)

    forensics = sub.add_parser(
        "forensics", help="pretty-print one forensic bundle"
    )
    forensics.add_argument("bundle", help="path to a bundle-*.json file")
    forensics.add_argument(
        "--limit",
        type=int,
        default=200,
        help="newest timeline entries to print",
    )
    forensics.set_defaults(fn=_cmd_forensics)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
