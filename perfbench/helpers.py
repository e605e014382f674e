"""Pure helpers shared by the load generator (run.py) and the system under test.

Standard library only, so the self-tests run without the program and
both processes derive identical inputs from one workload seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

# The tail percentile every timing reports (fixed here, documented in
# README.md), and how many samples must lie beyond a percentile before
# it is reported at all.
TAIL_Q = 0.90
MIN_BEYOND = 10
# Stored blobs in the warm-read store: twice ResultStore's default LRU.
N_BLOBS = 8192

# Span tuples recorded in the system-under-test process:
# (span_id, parent_id, name, start_s, end_s, cpu_s, tag).  parent_id 0
# means a root span.
Span = Tuple[int, int, str, float, float, float, object]


def derive_seed(seed: int, *labels: object) -> int:
    """A 62-bit seed for one input, stable across processes and runs."""
    payload = json.dumps([int(seed), [str(label) for label in labels]])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 2


def sweep_seeds(seed: int, purpose: str, count: int) -> List[int]:
    """Fresh base seeds, one per sweep or pass, for one purpose.

    Different purposes (set-up warm-up, timed sweeps, traced sweeps)
    never share a seed, so no sweep is ever a cache hit on earlier work
    and content-hash deduplication never attaches it to another sweep.
    """
    return [derive_seed(seed, purpose, i) for i in range(count)]


def key_indices(seed: int, connection: int, n_keys: int) -> Iterator[int]:
    """Endless uniform draw of key indices for one read connection."""
    rng = random.Random(derive_seed(seed, "reads", connection))
    while True:
        yield rng.randrange(n_keys)


def blob_row(seed: int, index: int) -> Dict[str, object]:
    """The result row stored under key ``index`` for the warm-read store.

    Shaped like a ``random_game_audit`` row so blob sizes match what a
    sweep writes; derived from the seed so the load generator can check every
    response byte for byte.
    """
    rng = random.Random(derive_seed(seed, "blob", index))
    size = (2, 3, 4, 6, 8)[index % 5]
    return {
        "scenario": "random_game_audit",
        "family": "games",
        "params": {"size": size},
        "seed": derive_seed(seed, "case", index),
        "replication": index,
        "metrics": {
            "size": size,
            "pure_equilibria": rng.randrange(4),
            "dominated_rows": rng.randrange(size),
            "dominated_cols": rng.randrange(size),
            "max_payoff": round(rng.random(), 12),
            "min_payoff": round(rng.random(), 12),
        },
        "elapsed": round(rng.random() / 1000.0, 9),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def tail(values: Sequence[float], q: float = TAIL_Q) -> float:
    """The ``q`` percentile, only when at least MIN_BEYOND samples lie beyond.

    Raises ValueError otherwise: a percentile with fewer samples beyond
    it is one or two observations, not a tail.
    """
    if beyond(len(values), q) < MIN_BEYOND:
        raise ValueError(
            f"p{round(100 * q)} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples give {max(beyond(len(values), q), 0)}"
        )
    return percentile(values, q)


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The steadiness statistic: quartiles from
    ``statistics.quantiles(values, n=4)``.
    """
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, Tuple[float, float]]:
    """Per span id: (self wall time, self CPU time).

    Self time is the span's duration minus the part of its interval its
    child spans cover; self CPU subtracts the children's CPU the same
    way.  Children that ran on other threads would overlap freely, so
    coverage is the union of the children's intervals.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span[1]:
            children.setdefault(span[1], []).append(span)
    out = {}
    for span in spans:
        kids = children.get(span[0], [])
        covered = _covered([(k[3], k[4]) for k in kids], span[3], span[4])
        kid_cpu = sum(k[5] for k in kids)
        out[span[0]] = (
            (span[4] - span[3]) - covered,
            max(span[5] - kid_cpu, 0.0),
        )
    return out


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, object]]:
    """Fold spans into one row per span name.

    Each row: ``count``, ``busy_s`` (summed duration), ``self_s``
    (summed self time), ``wait_s`` (self time the thread spent off CPU:
    blocked on a lock, a socket, fsync or the interpreter lock), and the
    raw per-call ``durations`` / ``selfs`` in seconds plus the ``tags``
    the wrappers attached.
    """
    selfs = self_times(spans)
    rows: Dict[str, Dict[str, object]] = {}
    for span in spans:
        row = rows.setdefault(
            span[2],
            {
                "count": 0,
                "busy_s": 0.0,
                "self_s": 0.0,
                "wait_s": 0.0,
                "durations": [],
                "selfs": [],
                "tags": [],
            },
        )
        wall_self, cpu_self = selfs[span[0]]
        row["count"] += 1
        row["busy_s"] += span[4] - span[3]
        row["self_s"] += wall_self
        row["wait_s"] += max(wall_self - cpu_self, 0.0)
        row["durations"].append(span[4] - span[3])
        row["selfs"].append(wall_self)
        row["tags"].append(span[6])
    return rows


def p50_or_zero(values: Sequence[float], scale: float = 1.0) -> float:
    """Median times ``scale``, or 0.0 for a layer the workload never calls."""
    return statistics.median(values) * scale if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def batches(values: Sequence[float], size: int) -> List[Sequence[float]]:
    """Consecutive full batches of ``size`` values (a ragged tail is dropped)."""
    return [
        values[i : i + size] for i in range(0, len(values) - size + 1, size)
    ]
