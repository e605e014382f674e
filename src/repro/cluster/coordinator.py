"""Coordinator: the deterministic scheduling state machine of the fabric.

* :class:`CoordinatorMachine` — a **pure, deterministic, replicated-log
  -ready state machine**.  Its entire state is one JSON-serializable
  dict and every transition is ``apply(command) -> reply`` where
  ``command`` is a JSON command dict (``register`` / ``lease`` /
  ``complete`` / ``submit`` / ``purge`` / ``tick`` / ``noop``).  Nothing
  inside reads the wall clock, allocates ids non-deterministically, or
  touches the disk: time arrives as an explicit ``now`` field on every
  command (the machine's logical clock is the running maximum), worker
  and unit ids are derived from counters and content hashes held in the
  state, and quorum-accepted rows are emitted as *effects* for the
  caller to flush.  Two machines that apply the same command sequence
  hold byte-identical state — :meth:`CoordinatorMachine.state_digest`
  is the sha256 the replicated control plane's anti-entropy probes
  compare.

* :func:`flush_effects` and :class:`ClusterExecutor` — the machine's
  side-effect flusher and the runner-pluggable executor adapter.

One shell drives the machine: :class:`repro.cluster.replica.Replica`,
which stamps ``now`` from the wall clock, appends every command to a
majority-quorum log, and flushes store effects outside its lock.  The
single-process coordinator is a peerless ``Replica`` over an in-memory
log, so it runs the same write path as a replicated deployment.

Scheduling semantics:

* cases are sharded **by content-address key** (the same sha256 the
  result store uses) into work units, so the sharding is a pure
  function of the sweep, independent of submit order and wall clock;
* a worker that crashes or stalls simply never completes its lease; the
  lease expires after ``lease_ttl`` seconds and the unit is reassigned;
* a worker holds at most one lease, and each ``complete`` grants the
  worker's next one in the same command, so the replicated fabric
  spends one log entry per unit (``lease`` becomes a leader read);
* with ``redundancy = r > 1`` every unit must be executed by *distinct*
  workers until ``⌊r/2⌋ + 1`` of them return byte-identical canonical
  JSON payloads — a Byzantine worker returning corrupt rows is outvoted
  by the honest majority, struck, and quarantined (no further leases);
* scheduling is lazy: leases are only extended while
  ``active leases + best matching votes < threshold``, so the happy
  path costs the majority threshold in executions, not the full ``r``.

Votes are digests over the rows' *deterministic payload* — the result
dict minus wall-clock ``elapsed`` (see
:meth:`repro.experiments.results.ExperimentResult.payload_dict`) —
which is why serial, process-pool, and cluster execution agree
byte-for-byte under fixed seeds even though their timings differ.

Sweeps are **idempotent by content**: a sweep's id is the sha256 of its
case refs, base seed, and redundancy, and resubmitting an in-flight or
finished sweep attaches to the existing one instead of duplicating
work.  This is what makes client failover safe — a sweep resubmitted
to a freshly elected leader reuses every unit the old leader's quorum
already accepted.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.results import ExperimentResult
from repro.obs.logs import log_event
from repro.obs.trace import span_for_trace_id
from repro.service.store import canonical_json, result_key

__all__ = [
    "ClusterError",
    "ClusterExecutor",
    "CoordinatorMachine",
    "case_refs",
    "sweep_id_for",
    "unit_digest",
]


class ClusterError(RuntimeError):
    """A sweep-fatal cluster failure (quorum exhausted, timeout, ...)."""


def _strip_elapsed(row: Any) -> Any:
    """A row's deterministic payload: the dict minus wall-clock ``elapsed``."""
    if isinstance(row, dict):
        return {k: v for k, v in row.items() if k != "elapsed"}
    return row


def unit_digest(rows: Sequence[Any]) -> str:
    """Vote identity of one completion: sha256 over canonical payload JSON.

    Any structurally-parseable completion gets a digest — malformed or
    corrupt rows simply hash to something no honest worker will ever
    produce, so the quorum machinery (not ad-hoc validation) is what
    rejects them.  ``elapsed`` is stripped first: it is wall-clock
    metadata, never part of the deterministic result.
    """
    payload = canonical_json([_strip_elapsed(r) for r in rows])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def case_refs(cases: Sequence[tuple]) -> List[Dict[str, Any]]:
    """JSON-shippable refs for runner ``Case`` tuples (original order).

    A ref carries everything a worker needs to rebuild the case —
    scenario name (function resolved from the registry), family,
    params, the pre-derived seed, and the replication index — plus the
    case's position in the submitted sweep so results can be reordered.
    """
    return [
        {
            "index": index,
            "scenario": case[0],
            "family": case[1],
            "params": case[3],
            "seed": int(case[4]),
            "replication": int(case[5]),
        }
        for index, case in enumerate(cases)
    ]


def sweep_id_for(
    refs: Sequence[Dict[str, Any]], base_seed: int, redundancy: int
) -> str:
    """Content-derived sweep identity (the unit of submit idempotency)."""
    payload = canonical_json(
        {"cases": list(refs), "base_seed": int(base_seed), "redundancy": int(redundancy)}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _ref_key(ref: Dict[str, Any], base_seed: int) -> str:
    """The content-address key the sharder sorts one case ref by."""
    return result_key(
        ref["scenario"], ref["params"], base_seed, ref["replication"]
    )


class CoordinatorMachine:
    """The coordinator as a pure ``(command, state) -> (reply, state')`` map.

    Parameters mirror the historical coordinator knobs; they are part
    of the machine's state (and therefore of its digest), so replicas
    must be configured identically.

    Commands are dicts with an ``op`` field and, for every op that can
    advance time, an explicit ``now`` — wall-clock decisions like lease
    expiry are functions of the *logical* clock (the running max of
    every ``now`` seen), never of the machine's host.  Replies are JSON
    dicts; errors are ``{"error": message}`` replies, not exceptions,
    so a replicated apply can never diverge on exception semantics.

    Accepted units are appended to an internal *effects* list (the
    quorum-verified rows to flush into a result store).  Effects are
    **not** part of the hashed state: every host applying the log
    drains them via :meth:`take_effects` and performs the (idempotent,
    content-addressed) store writes itself.
    """

    def __init__(
        self,
        redundancy: int = 1,
        unit_size: int = 1,
        lease_ttl: float = 30.0,
        quarantine_after: int = 1,
    ) -> None:
        if redundancy < 1:
            raise ValueError("redundancy must be >= 1")
        if unit_size < 1:
            raise ValueError("unit_size must be >= 1")
        self.s: Dict[str, Any] = {
            "config": {
                "redundancy": int(redundancy),
                "unit_size": int(unit_size),
                "lease_ttl": float(lease_ttl),
                "quarantine_after": int(quarantine_after),
            },
            "clock": 0.0,
            "next_worker": 1,
            "workers": {},  # worker_id -> registry entry
            "units": {},  # unit_id -> unit record
            "queue": [],  # unresolved unit_ids in lease-priority order
            "sweeps": {},  # sweep_id -> sweep record
            "counters": {
                "leases_granted": 0,
                "leases_expired": 0,
                "units_completed": 0,
                "units_failed": 0,
                "votes_received": 0,
                "strikes_issued": 0,
            },
        }
        self._effects: List[Dict[str, Any]] = []
        # Derived index over ``s``: ids of the units that hold at least
        # one lease, so expiry never walks the whole queue.  Not hashed;
        # rebuilt by :meth:`restore`.
        self._leased: Dict[str, None] = {}

    # -- identity and snapshots ----------------------------------------

    def state_digest(self) -> str:
        """sha256 over the canonical-JSON state (anti-entropy identity)."""
        payload = canonical_json(self.s)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def snapshot(self) -> Dict[str, Any]:
        """A deep, JSON-clean copy of the state (for log compaction)."""
        return copy.deepcopy(self.s)

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace the state wholesale (installing a snapshot)."""
        self.s = copy.deepcopy(state)
        self._effects = []
        self._leased = {
            uid: None
            for uid, unit in self.s["units"].items()
            if unit["leases"]
        }

    def take_effects(self) -> List[Dict[str, Any]]:
        """Drain the pending store-write effects (accepted unit records)."""
        effects, self._effects = self._effects, []
        return effects

    # -- the transition function ---------------------------------------

    def apply(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one command; returns its reply (never raises on bad input)."""
        op = command.get("op")
        now = float(command.get("now", self.s["clock"]))
        if now > self.s["clock"]:
            self.s["clock"] = now
        if op == "register":
            return self._register(command)
        if op == "lease":
            return self._lease(command)
        if op == "complete":
            return self._complete(command)
        if op == "submit":
            return self._submit(command)
        if op == "purge":
            return self._purge(command)
        if op == "tick":
            self._expire_leases()
            return {"clock": self.s["clock"]}
        if op == "noop":
            return {}
        return {"error": f"unknown coordinator command {op!r}"}

    # -- worker-facing ops ---------------------------------------------

    def _register(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Register a worker (idempotent when an explicit id is given)."""
        workers = self.s["workers"]
        worker_id = command.get("worker_id")
        if worker_id is not None:
            existing = workers.get(worker_id)
            if existing is not None:
                # Idempotent re-registration after a failover: same id,
                # same registry entry, strikes and quarantine preserved.
                return {
                    "worker_id": worker_id,
                    "name": existing["name"],
                }
            # Re-adopt an id this machine has never seen (a worker that
            # outlived a total state loss): keep the sequence ahead of
            # it so fresh assignments can never collide.
            digits = worker_id[1:] if worker_id.startswith("w") else ""
            if digits.isdigit():
                self.s["next_worker"] = max(
                    self.s["next_worker"], int(digits) + 1
                )
        else:
            worker_id = f"w{self.s['next_worker']}"
            self.s["next_worker"] += 1
        name = command.get("name") or worker_id
        workers[worker_id] = {
            "worker_id": worker_id,
            "name": name,
            "registered_at": self.s["clock"],
            "completed": 0,
            "votes_cast": 0,
            "strikes": 0,
            "strike_reasons": [],
            "quarantined": False,
            "quarantine_reason": None,
        }
        return {"worker_id": worker_id, "name": name}

    def _lease(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Grant the worker its next unit: the one it holds, else a new one.

        Expired leases are reaped first, so a crashed worker's units are
        reassignable by the very next lease request.  The reply always
        carries ``open`` (unresolved unit count) and ``quarantined`` so
        a worker loop can decide to idle or exit.
        """
        worker = self.s["workers"].get(command.get("worker_id"))
        if worker is None:
            return {
                "error": f"unknown worker {command.get('worker_id')!r}; "
                "register first"
            }
        self._expire_leases()
        if worker["quarantined"]:
            return self._lease_reply(None, quarantined=True)
        return self._lease_reply(self._grant(worker))

    def _grant(self, worker: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Lease a unit to a live, unquarantined worker (leases reaped).

        A worker holds at most one lease: its own unexpired lease is
        returned before any new unit is granted.  The queue holds only
        unresolved units and leased units cluster at its head, so the
        scan for a leasable unit stops after a few entries.
        """
        unit = self._held_unit(worker["worker_id"])
        if unit is not None:
            return unit
        units = self.s["units"]
        for uid in self.s["queue"]:
            unit = units[uid]
            if self._leasable_by(unit, worker):
                unit["leases"][worker["worker_id"]] = (
                    self.s["clock"] + self.s["config"]["lease_ttl"]
                )
                self._leased[uid] = None
                self.s["counters"]["leases_granted"] += 1
                return unit
        return None

    def _lease_reply(
        self, unit: Optional[Dict[str, Any]], quarantined: bool = False
    ) -> Dict[str, Any]:
        """A lease reply: the unit's payload (or None) plus queue status."""
        return {
            "unit": None if unit is None else self._lease_payload(unit),
            "open": len(self.s["queue"]),
            "quarantined": quarantined,
        }

    def _complete(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Record one worker's result rows as a vote; lease its next unit.

        Every completion that does not error, from a worker that is not
        quarantined afterwards, also grants that worker's next lease in
        the same command — so a busy worker's ``lease`` call finds the
        unit already held and the replicated fabric answers it without
        a log entry (:meth:`peek_lease`).  The reply is the vote's
        outcome only; the lease is fetched by the worker's next
        ``lease`` call.
        """
        worker = self.s["workers"].get(command.get("worker_id"))
        if worker is None:
            return {
                "error": f"unknown worker {command.get('worker_id')!r}; "
                "register first"
            }
        unit = self.s["units"].get(command.get("unit_id"))
        if unit is None:
            return {"error": f"unknown work unit {command.get('unit_id')!r}"}
        status = self._vote(worker, unit, command.get("rows") or [])
        self._expire_leases()
        if not worker["quarantined"]:
            self._grant(worker)
        return {
            "status": status,
            "accepted": status == "accepted" or (
                status == "stale" and unit["status"] == "done"
            ),
            "quarantined": worker["quarantined"],
        }

    def _vote(
        self, worker: Dict[str, Any], unit: Dict[str, Any], rows: List[Any]
    ) -> str:
        """Count one completion as a quorum vote; returns its status.

        Every structurally-parseable completion counts as a vote for
        the digest of its payload bytes; acceptance happens when
        ``threshold`` distinct workers agree.  Votes that lose the
        quorum — and late completions that contradict an already
        accepted digest — earn the worker a strike.
        """
        worker_id = worker["worker_id"]
        self._release(unit, worker_id)
        digest = unit_digest(rows)
        if unit["status"] != "open":
            # Late completion: free verification against the accepted
            # payload — agreement is fine, contradiction is a strike.
            if unit["status"] == "done" and digest != unit["winning_digest"]:
                self._strike(worker, "stale-vote")
            return "stale"
        if worker["quarantined"]:
            # A quarantined worker may still finish an in-flight lease;
            # its result must never count toward a quorum.
            return "quarantined"
        if worker_id in unit["votes"]:
            return "duplicate"
        unit["votes"][worker_id] = digest
        unit["rows_by_digest"].setdefault(digest, list(rows))
        worker["votes_cast"] += 1
        worker["completed"] += 1
        self.s["counters"]["votes_received"] += 1
        best_digest, best_votes = self._tally(unit)
        if best_votes >= unit["threshold"]:
            self._accept(unit, best_digest)
            if unit["status"] == "failed":
                return "failed"  # quorum payload was structurally invalid
            return "accepted" if digest == best_digest else "outvoted"
        if len(unit["votes"]) >= unit["max_votes"]:
            self._fail(
                unit,
                f"unit {unit['unit_id']}: no {unit['threshold']}-quorum "
                f"among {len(unit['votes'])} votes (too many faulty "
                "workers?)",
            )
            return "failed"
        return "pending"

    # -- sweep-facing ops ----------------------------------------------

    def _submit(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Open (or attach to) a sweep; enqueue its work units.

        The sweep id is a content hash of the refs + seed + redundancy,
        so identical submissions — concurrent duplicates, or a client
        resubmitting after a leader failover — share one sweep and its
        already-accepted units.  ``waiters`` counts attached callers;
        the sweep is purged when the last one detaches.
        """
        refs = command.get("cases") or []
        base_seed = int(command.get("base_seed", 0))
        redundancy = int(
            command.get("redundancy") or self.s["config"]["redundancy"]
        )
        if redundancy < 1:
            return {"error": "redundancy must be >= 1"}
        sweep_id = sweep_id_for(refs, base_seed, redundancy)
        sweep = self.s["sweeps"].get(sweep_id)
        if sweep is not None:
            sweep["waiters"] += 1
            return {
                "sweep_id": sweep_id,
                "unit_ids": list(sweep["unit_ids"]),
                "attached": True,
            }
        units = self._shard_refs(
            refs, base_seed, redundancy, sweep_id, command.get("trace")
        )
        self.s["sweeps"][sweep_id] = {
            "sweep_id": sweep_id,
            "n_cases": len(refs),
            "unit_ids": [u["unit_id"] for u in units],
            "open_units": len(units),
            "slots": [None] * len(refs),
            "error": None,
            "waiters": 1,
            "base_seed": base_seed,
            "redundancy": redundancy,
        }
        for unit in units:
            self.s["units"][unit["unit_id"]] = unit
            self.s["queue"].append(unit["unit_id"])
        return {
            "sweep_id": sweep_id,
            "unit_ids": [u["unit_id"] for u in units],
            "attached": False,
        }

    def _purge(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Detach one waiter; drop the sweep and its units on the last.

        A straggler completing a purged unit gets a clean "unknown work
        unit" reply and moves on — exactly the pre-replication
        behavior, now expressed as a log command so every replica
        prunes its tables at the same point in the log.
        """
        sweep = self.s["sweeps"].get(command.get("sweep_id"))
        if sweep is None:
            return {"purged": False}
        sweep["waiters"] -= 1
        if sweep["waiters"] > 0:
            return {"purged": False}
        del self.s["sweeps"][sweep["sweep_id"]]
        for uid in sweep["unit_ids"]:
            self.s["units"].pop(uid, None)
            self._leased.pop(uid, None)
        if sweep["open_units"]:
            # Only an abandoned sweep still has units in the queue.
            drop = set(sweep["unit_ids"])
            self.s["queue"] = [u for u in self.s["queue"] if u not in drop]
        return {"purged": True}

    # -- introspection (read-only, no commands needed) ------------------

    def sweep_view(self, sweep_id: str) -> Optional[Dict[str, Any]]:
        """A caller-facing snapshot of one sweep's progress (or None)."""
        sweep = self.s["sweeps"].get(sweep_id)
        if sweep is None:
            return None
        units = self.s["units"]
        pending = [
            uid
            for uid in sweep["unit_ids"]
            if units.get(uid, {}).get("status") == "open"
        ]
        return {
            "sweep_id": sweep_id,
            "error": sweep["error"],
            "open_units": sweep["open_units"],
            "slots": sweep["slots"],
            "pending_units": pending,
            "n_cases": sweep["n_cases"],
        }

    def sweep_progress(
        self, sweep_id: str
    ) -> Optional[Tuple[int, Optional[str]]]:
        """``(open_units, error)`` of one sweep, or None once it is gone.

        A constant-time probe: a waiter rebuilds the full
        :meth:`sweep_view` only when this pair changes.
        """
        sweep = self.s["sweeps"].get(sweep_id)
        if sweep is None:
            return None
        return sweep["open_units"], sweep["error"]

    def peek_lease(
        self, worker_id: str, now: float, settled: bool
    ) -> Optional[Dict[str, Any]]:
        """The reply to a ``lease`` command that would change nothing.

        Two cases qualify, both judged at ``max(clock, now)``:

        * the worker holds an unexpired lease — the reply returns it;
        * ``settled`` (the caller has applied everything it appended),
          no lease has expired, and nothing is leasable to the worker —
          the reply is empty.

        Anything else (an unknown or quarantined worker, an expired
        lease to reap, a unit to grant) returns None: that lease must
        be applied as a command.
        """
        worker = self.s["workers"].get(worker_id)
        if worker is None or worker["quarantined"]:
            return None
        now = max(self.s["clock"], float(now))
        unit = self._held_unit(worker_id)
        if unit is not None:
            if unit["leases"][worker_id] <= now:
                return None
        elif not settled:
            return None
        else:
            units = self.s["units"]
            for uid in self._leased:
                if any(t <= now for t in units[uid]["leases"].values()):
                    return None
            for uid in self.s["queue"]:
                if self._leasable_by(units[uid], worker):
                    return None
        return self._lease_reply(unit)

    def busy(self) -> bool:
        """Whether any sweep is unresolved (drives replicated ticks)."""
        return any(
            sweep["open_units"] > 0 for sweep in self.s["sweeps"].values()
        )

    def workers_view(self) -> List[Dict[str, Any]]:
        """Per-worker registry snapshot (id, throughput, strikes, trust)."""
        snapshot = sorted(
            self.s["workers"].values(), key=lambda w: w["worker_id"]
        )
        return [
            {
                "worker_id": w["worker_id"],
                "name": w["name"],
                "completed": w["completed"],
                "votes_cast": w["votes_cast"],
                "strikes": w["strikes"],
                "strike_reasons": list(w.get("strike_reasons", ())),
                "quarantined": w["quarantined"],
                "quarantine_reason": w.get("quarantine_reason"),
            }
            for w in snapshot
        ]

    def stats(self) -> Dict[str, Any]:
        """Scheduler counters for the health endpoint and tests."""
        config = self.s["config"]
        out = {
            "workers": len(self.s["workers"]),
            "quarantined": sum(
                1 for w in self.s["workers"].values() if w["quarantined"]
            ),
            "open_units": len(self.s["queue"]),
            "redundancy": config["redundancy"],
            "unit_size": config["unit_size"],
            "lease_ttl": config["lease_ttl"],
        }
        out.update(self.s["counters"])
        return out

    # -- internals ------------------------------------------------------

    def _lease_payload(self, unit: Dict[str, Any]) -> Dict[str, Any]:
        """The lease payload a worker receives (JSON-shippable case refs)."""
        return {
            "unit_id": unit["unit_id"],
            "base_seed": unit["base_seed"],
            "trace_id": unit.get("trace_id"),
            "cases": [
                {
                    "scenario": ref["scenario"],
                    "family": ref["family"],
                    "params": ref["params"],
                    "seed": ref["seed"],
                    "replication": ref["replication"],
                }
                for ref in unit["cases"]
            ],
            "lease_ttl": self.s["config"]["lease_ttl"],
        }

    @staticmethod
    def _tally(unit: Dict[str, Any]) -> Tuple[Optional[str], int]:
        """The leading digest and its vote count (``(None, 0)`` if empty)."""
        if not unit["votes"]:
            return None, 0
        counts: Dict[str, int] = {}
        for digest in unit["votes"].values():
            counts[digest] = counts.get(digest, 0) + 1
        best = max(counts, key=lambda d: counts[d])
        return best, counts[best]

    def _leasable_by(
        self, unit: Dict[str, Any], worker: Dict[str, Any]
    ) -> bool:
        """Whether granting ``worker`` a lease can still help this unit.

        Lazy redundancy: no new lease once active leases plus the best
        agreeing vote block already reach the acceptance threshold —
        outstanding honest work is assumed to agree until proven
        otherwise, so the happy path runs ``threshold`` executions, not
        the full ``redundancy``.
        """
        if unit["status"] != "open" or worker["quarantined"]:
            return False
        worker_id = worker["worker_id"]
        if worker_id in unit["votes"] or worker_id in unit["leases"]:
            return False
        _best, best_count = self._tally(unit)
        if len(unit["leases"]) + best_count >= unit["threshold"]:
            return False
        return len(unit["votes"]) + len(unit["leases"]) < unit["max_votes"]

    def _shard_refs(
        self,
        refs: Sequence[Dict[str, Any]],
        base_seed: int,
        redundancy: int,
        sweep_id: str,
        trace_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Shard case refs into unit records ordered by content-address key.

        Sorting by the result store's sha256 key makes the sharding a
        pure function of the cases themselves — independent of submit
        order, worker count, and wall clock — so any two coordinators
        given the same sweep produce the same units in the same order.
        Unit ids are derived from the sweep id, so a resubmitted sweep
        regenerates the very same ids.
        """
        keyed = sorted(refs, key=lambda ref: _ref_key(ref, base_seed))
        unit_size = self.s["config"]["unit_size"]
        max_votes = 2 * redundancy + 1
        units = []
        for k, start in enumerate(range(0, len(keyed), unit_size)):
            chunk = keyed[start : start + unit_size]
            units.append(
                {
                    "unit_id": f"u{sweep_id}.{k}",
                    "sweep_id": sweep_id,
                    "trace_id": trace_id,
                    "cases": list(chunk),
                    "base_seed": base_seed,
                    "redundancy": redundancy,
                    "threshold": redundancy // 2 + 1,
                    "max_votes": max_votes,
                    "status": "open",  # open -> done | failed
                    "leases": {},  # worker_id -> logical-clock deadline
                    "votes": {},  # worker_id -> digest
                    "rows_by_digest": {},
                    "winning_digest": None,
                    "winning_votes": 0,
                    "accepted_rows": [],
                }
            )
        return units

    def _held_unit(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """The unit ``worker_id`` holds a lease on (a worker holds one)."""
        units = self.s["units"]
        for uid in self._leased:
            if worker_id in units[uid]["leases"]:
                return units[uid]
        return None

    def _release(self, unit: Dict[str, Any], worker_id: str) -> None:
        """Drop one worker's lease on a unit, keeping the index in step."""
        unit["leases"].pop(worker_id, None)
        if not unit["leases"]:
            self._leased.pop(unit["unit_id"], None)

    def _resolve(self, unit: Dict[str, Any], status: str) -> None:
        """Take a unit out of play: drop its leases, dequeue it."""
        unit["status"] = status
        unit["leases"] = {}
        self._leased.pop(unit["unit_id"], None)
        self.s["queue"].remove(unit["unit_id"])

    def _expire_leases(self) -> None:
        """Reap leases past their deadline so units become reassignable.

        Visits only the units in the lease index, never the queue.
        """
        now = self.s["clock"]
        units = self.s["units"]
        for uid in list(self._leased):
            unit = units[uid]
            expired = [w for w, t in unit["leases"].items() if t <= now]
            for worker_id in expired:
                self._release(unit, worker_id)
                self.s["counters"]["leases_expired"] += 1
                self._effects.append(
                    {
                        "kind": "event",
                        "event": "lease.expired",
                        "unit_id": uid,
                        "worker_id": worker_id,
                    }
                )

    def _strike(self, worker: Dict[str, Any], reason: str) -> None:
        """Record one strike with its reason; quarantine past the threshold.

        ``reason`` is one of the structured codes surfaced by
        ``workers_view`` and the event log: ``stale-vote`` (a late
        completion contradicted the accepted digest), ``lost-quorum``
        (outvoted by the accepting quorum) or ``contradiction`` (voted
        for a structurally invalid accepted payload).  Quarantine
        releases every lease the worker still holds, so its in-flight
        units go straight back to the honest pool.
        """
        worker["strikes"] += 1
        worker.setdefault("strike_reasons", []).append(reason)
        self.s["counters"]["strikes_issued"] += 1
        self._effects.append(
            {
                "kind": "event",
                "event": "worker.strike",
                "worker_id": worker["worker_id"],
                "reason": reason,
                "strikes": worker["strikes"],
            }
        )
        quarantine_after = self.s["config"]["quarantine_after"]
        if not worker["quarantined"] and worker["strikes"] >= quarantine_after:
            worker["quarantined"] = True
            worker["quarantine_reason"] = reason
            units = self.s["units"]
            for uid in list(self._leased):
                self._release(units[uid], worker["worker_id"])
            self._effects.append(
                {
                    "kind": "event",
                    "event": "worker.quarantined",
                    "worker_id": worker["worker_id"],
                    "reason": reason,
                    "strikes": worker["strikes"],
                }
            )

    def _accept(self, unit: Dict[str, Any], digest: str) -> None:
        """Publish a quorum-accepted unit and strike the outvoted voters.

        Deliberately does **no** disk I/O: the accepted rows ride out
        as an effect record, flushed by whichever host applied the
        command — outside any scheduler lock, idempotently, on every
        replica.
        """
        rows = unit["rows_by_digest"][digest]
        votes = sum(1 for d in unit["votes"].values() if d == digest)
        try:
            normalized = [
                ExperimentResult.from_dict(row).to_dict() for row in rows
            ]
            if len(normalized) != len(unit["cases"]):
                raise ValueError(
                    f"{len(normalized)} rows for {len(unit['cases'])} cases"
                )
        except Exception as exc:
            # Only reachable if a full quorum of workers colluded on a
            # malformed payload; fail loudly rather than trust it, and
            # strike every voter that endorsed the invalid digest.
            for worker_id, vote in unit["votes"].items():
                if vote == digest:
                    self._strike(
                        self.s["workers"][worker_id], "contradiction"
                    )
            self._fail(
                unit,
                f"unit {unit['unit_id']}: accepted payload is invalid: {exc}",
            )
            return
        self._resolve(unit, "done")
        unit["winning_digest"] = digest
        unit["winning_votes"] = votes
        unit["accepted_rows"] = normalized
        for worker_id, vote in unit["votes"].items():
            if vote != digest:
                self._strike(self.s["workers"][worker_id], "lost-quorum")
        self.s["counters"]["units_completed"] += 1
        sweep = self.s["sweeps"].get(unit["sweep_id"])
        if sweep is not None:
            for ref, row in zip(unit["cases"], normalized):
                sweep["slots"][ref["index"]] = row
            sweep["open_units"] -= 1
        self._effects.append(
            {
                "kind": "accepted_unit",
                "unit_id": unit["unit_id"],
                "base_seed": unit["base_seed"],
                "trace_id": unit.get("trace_id"),
                "cases": list(unit["cases"]),
                "rows": normalized,
                "votes": votes,
                "threshold": unit["threshold"],
            }
        )

    def _fail(self, unit: Dict[str, Any], message: str) -> None:
        """Mark a unit unresolvable and poison its sweep."""
        self._resolve(unit, "failed")
        self.s["counters"]["units_failed"] += 1
        sweep = self.s["sweeps"].get(unit["sweep_id"])
        if sweep is not None and sweep["error"] is None:
            sweep["error"] = message


def flush_effects(store: Optional[Any], effects: List[Dict[str, Any]]) -> None:
    """Flush machine effects: store writes, events, and trace spans.

    ``accepted_unit`` effects write every row via
    :meth:`~repro.service.store.ResultStore.put_quorum` under its
    content-address key.  The write is idempotent (content-addressed,
    atomic rename), so replicas replaying a log after a crash can
    re-flush the same effects safely.  When a unit carries a trace id,
    the flush records ``quorum.accept`` and ``store.write`` spans so
    the sweep's trace covers acceptance end to end.  ``event`` effects
    become structured log lines — side channels only, never part of
    the hashed machine state.
    """
    for effect in effects:
        kind = effect.get("kind")
        if kind == "event":
            fields = {
                k: v
                for k, v in effect.items()
                if k not in ("kind", "event")
            }
            log_event(effect["event"], "cluster", **fields)
            continue
        if kind != "accepted_unit":
            continue
        trace_id = effect.get("trace_id")
        with span_for_trace_id(
            "quorum.accept",
            "cluster",
            trace_id,
            attrs={
                "unit_id": effect["unit_id"],
                "votes": effect["votes"],
                "threshold": effect["threshold"],
            },
        ):
            if store is None:
                continue
            with span_for_trace_id(
                "store.write",
                "cluster",
                trace_id,
                attrs={
                    "unit_id": effect["unit_id"],
                    "rows": len(effect["rows"]),
                },
            ):
                for ref, row in zip(effect["cases"], effect["rows"]):
                    key = store.key_for(
                        ref["scenario"],
                        ref["params"],
                        effect["base_seed"],
                        ref["replication"],
                    )
                    store.put_quorum(
                        key,
                        row,
                        votes=effect["votes"],
                        threshold=effect["threshold"],
                    )


class ClusterExecutor:
    """Adapter binding a coordinator to one sweep's redundancy + deadline.

    The experiment runner treats any object with an ``execute_cases``
    attribute as a pluggable case executor; this is the object to pass
    — ``run_experiments(..., executor=coordinator.executor(redundancy=3))``
    — when the per-sweep redundancy differs from the coordinator
    default.  ``timeout`` bounds the blocking wait (the job manager
    sets one so a quorum that can never form fails the job instead of
    wedging its slot forever).  ``coordinator`` is a
    :class:`~repro.cluster.replica.Replica`, peerless or replicated.
    """

    def __init__(
        self,
        coordinator: Any,
        redundancy: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.coordinator = coordinator
        self.redundancy = redundancy
        self.timeout = timeout

    @property
    def store(self) -> Optional[Any]:
        """The coordinator's store (lets the runner skip duplicate puts)."""
        return self.coordinator.store

    def execute_cases(
        self,
        cases: Sequence[tuple],
        base_seed: int = 0,
        progress: Optional[Any] = None,
    ) -> List[ExperimentResult]:
        """Delegate to the coordinator under this executor's binding."""
        return self.coordinator.execute_cases(
            cases,
            base_seed=base_seed,
            redundancy=self.redundancy,
            timeout=self.timeout,
            progress=progress,
        )
