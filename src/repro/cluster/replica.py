"""Replicated control plane: the coordinator behind a majority-quorum log.

This module removes the fabric's last single point of failure.  The
scheduling brain (:class:`~repro.cluster.coordinator.CoordinatorMachine`)
is already a pure, deterministic state machine; here it is replicated
across 3+ :class:`Replica` processes with a minimal Raft-style
consensus log:

* **monotonic terms + majority elections** — at most one leader per
  term (votes are durable before they are sent, so a crash cannot
  double-vote);
* **majority-quorum commit** — a command is applied (and its reply
  released to the client) only after a majority of replicas hold it
  durably, so an accepted quorum decision survives any minority of
  crashes;
* **leader-append, follower-redirect** — the leader serializes all
  writes into the log; followers answer reads (``/v1/cluster``,
  ``/v1/raft/status``) locally and bounce writes with HTTP 421 plus a
  leader hint (:class:`NotLeaderError`);
* **durable log + snapshot** — every replica persists through
  :class:`~repro.cluster.log.DurableLog` and compacts the applied
  prefix into snapshots; a replica restarted from disk catches up from
  its own log, or from a leader-shipped snapshot when it fell behind
  the leader's compaction horizon.

The consensus rules live in :class:`RaftCore`, a **pure, I/O-free**
message-in/messages-out object — the very same class the bounded model
checker (:mod:`repro.verify.consensus`) explores exhaustively for
election-safety and commit-durability violations, so the code that is
model-checked is the code that runs.  :class:`Replica` wraps one core
with threads, HTTP, and a wall clock:

* an RPC is **synchronous**: the sender POSTs one message to the
  peer's ``/v1/raft/rpc`` and the peer's reply message rides back in
  the HTTP response body — no separate reply delivery, no reordering
  within a channel;
* per-peer sender threads double as heartbeat timers;
* wall-clock lease expiry becomes log-ordered ``tick`` commands
  appended by the leader, so every replica expires the same leases at
  the same log position — replicas applying the same prefix hold
  byte-identical machine state (compare :meth:`Replica.raft_status`
  ``state_digest`` fields to audit).

Deployment::

    python -m repro.cluster replica --port 8651 --data-dir r1 \\
        --peers http://127.0.0.1:8652,http://127.0.0.1:8653 ...

Workers and clients take all replica URLs
(``--url http://…:8651,http://…:8652,…``) and fail over automatically.

The single-process coordinator is the degenerate case of the same
protocol: ``Replica(None, url).start()`` keeps its log in a
:class:`MemoryLog`, has no peers, and leads as soon as ``start``
returns (a one-node majority is itself).  ``python -m repro.cluster
coordinator`` serves exactly that.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.coordinator import (
    ClusterError,
    ClusterExecutor,
    CoordinatorMachine,
    case_refs,
    flush_effects,
)
from repro.cluster.errors import NotLeaderError
from repro.cluster.log import DurableLog, LogEntry
from repro.experiments.results import ExperimentResult
from repro.obs.logs import log_event
from repro.obs.metrics import default_registry
from repro.obs.trace import current_context
from repro.service.client import ServiceClient, ServiceError

__all__ = ["MemoryLog", "NotLeaderError", "RaftCore", "Replica"]


class MemoryLog:
    """A :class:`~repro.cluster.log.DurableLog` look-alike in memory.

    Same interface, no disk: this is what the model checker plugs into
    :class:`RaftCore` so consensus transitions stay pure, and what a
    peerless single-process :class:`Replica` logs to.  "Durability"
    here means surviving a *modeled* crash — the checker keeps the
    MemoryLog and discards the volatile core, exactly mirroring what a
    real crash preserves.
    """

    def __init__(self) -> None:
        self.term = 0
        self.voted_for: Optional[str] = None
        self.entries: List[LogEntry] = []
        self.base_index = 0
        self.base_term = 0
        self.snapshot_state: Optional[Dict[str, Any]] = None

    # The index arithmetic is identical to DurableLog's; both views are
    # kept in lock-step by construction (global, 1-based indices).

    @property
    def last_index(self) -> int:
        """Global index of the last entry (snapshot frontier if empty)."""
        return self.base_index + len(self.entries)

    def term_at(self, index: int) -> Optional[int]:
        """The term of global ``index`` (0 for the origin, None if gone)."""
        if index == 0:
            return 0
        if index == self.base_index:
            return self.base_term
        offset = index - self.base_index - 1
        if 0 <= offset < len(self.entries):
            return self.entries[offset].term
        return None

    def entry_at(self, index: int) -> Optional[LogEntry]:
        """The entry at global ``index`` (None if snapshotted away/absent)."""
        offset = index - self.base_index - 1
        if 0 <= offset < len(self.entries):
            return self.entries[offset]
        return None

    def slice_from(self, index: int) -> List[LogEntry]:
        """Entries with global index >= ``index`` (for AppendEntries)."""
        offset = max(index - self.base_index - 1, 0)
        return self.entries[offset:]

    def set_term(self, term: int, voted_for: Optional[str]) -> None:
        """Record (term, vote) — the modeled durable write."""
        self.term = int(term)
        self.voted_for = voted_for

    def append(self, new_entries: List[LogEntry]) -> None:
        """Append entries (modeled as instantly durable)."""
        self.entries.extend(new_entries)

    def truncate_from(self, index: int) -> None:
        """Discard entries with global index >= ``index``."""
        offset = max(index - self.base_index - 1, 0)
        if offset < len(self.entries):
            self.entries = self.entries[:offset]

    def install_snapshot(
        self,
        last_included_index: int,
        last_included_term: int,
        machine_state: Dict[str, Any],
    ) -> None:
        """Replace everything with a leader-shipped snapshot."""
        self.base_index = int(last_included_index)
        self.base_term = int(last_included_term)
        self.snapshot_state = machine_state
        self.entries = []

    def compact(
        self, upto_index: int, machine_state: Dict[str, Any]
    ) -> None:
        """Fold the prefix through ``upto_index`` into a snapshot."""
        term = self.term_at(upto_index)
        if term is None or upto_index <= self.base_index:
            return
        self.entries = self.entries[upto_index - self.base_index :]
        self.base_index = int(upto_index)
        self.base_term = term
        self.snapshot_state = machine_state

    def close(self) -> None:
        """Nothing to release: the log lives and dies with the process."""

    def clone(self) -> "MemoryLog":
        """An independent copy (the checker forks states)."""
        other = MemoryLog()
        other.term = self.term
        other.voted_for = self.voted_for
        other.entries = [LogEntry(e.term, e.cmd) for e in self.entries]
        other.base_index = self.base_index
        other.base_term = self.base_term
        other.snapshot_state = self.snapshot_state
        return other


class RaftCore:
    """The pure consensus rules: one node's message-in/messages-out map.

    Every method either inspects state or returns a list of message
    dicts to transport — no sockets, no threads, no clock.  Durability
    ordering is inherited from the ``log`` collaborator: terms, votes,
    and entries are written through it *before* any message that
    depends on them is returned, so a caller that transports the
    returned messages after the call automatically satisfies the
    "persist before you promise" rule on both real disks
    (:class:`~repro.cluster.log.DurableLog`) and modeled ones
    (:class:`MemoryLog`).

    Message shapes (all JSON dicts, ``from``/``to`` are node ids)::

        vote_req:     term, last_log_index, last_log_term
        vote_reply:   term, granted
        append_req:   term, prev_index, prev_term, entries, commit
                      [, snapshot {last_included_index/_term, machine}]
        append_reply: term, success, match_index, conflict_index

    ``commit_index`` is volatile on purpose: a restarted replica
    recomputes it from the next leader contact (commit never regresses
    *globally* — a majority still holds every committed entry).
    """

    def __init__(self, node_id: str, peers: Sequence[str], log: Any) -> None:
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.log = log
        self.role = "follower"  # follower | candidate | leader
        self.leader_id: Optional[str] = None
        self.commit_index = int(log.base_index)
        self.votes: set = set()
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}

    # -- derived views ---------------------------------------------------

    @property
    def term(self) -> int:
        """The current (durable) term."""
        return self.log.term

    @property
    def voted_for(self) -> Optional[str]:
        """Who this node (durably) voted for in the current term."""
        return self.log.voted_for

    def quorum(self) -> int:
        """Majority size over the full replica set (self included)."""
        return (len(self.peers) + 1) // 2 + 1

    # -- elections -------------------------------------------------------

    def start_election(self) -> List[Dict[str, Any]]:
        """Become a candidate in the next term; returns the vote requests.

        The (term, self-vote) pair is durably recorded by ``log`` before
        the requests are handed back, so even a crash right after this
        call cannot lead to a second vote in the new term.  A
        single-node cluster wins immediately.
        """
        self.log.set_term(self.term + 1, self.node_id)
        self.role = "candidate"
        self.leader_id = None
        self.votes = {self.node_id}
        if len(self.votes) >= self.quorum():
            return self._become_leader()
        return [
            {
                "type": "vote_req",
                "from": self.node_id,
                "to": peer,
                "term": self.term,
                "last_log_index": self.log.last_index,
                "last_log_term": self.log.term_at(self.log.last_index),
            }
            for peer in self.peers
        ]

    def _become_leader(self) -> List[Dict[str, Any]]:
        """Take leadership: init follower cursors, append the term noop.

        The no-op lets this term commit immediately (a leader may only
        count replication quorums for entries of its *own* term), which
        in turn releases every prior-term entry beneath it.
        """
        self.role = "leader"
        self.leader_id = self.node_id
        last = self.log.last_index
        self.next_index = {peer: last + 1 for peer in self.peers}
        self.match_index = {peer: 0 for peer in self.peers}
        self.log.append([LogEntry(self.term, {"op": "noop", "now": 0.0})])
        self._advance_commit()
        return [self.make_append(peer) for peer in self.peers]

    def _step_down(self, term: int) -> None:
        """Adopt a higher term as a clean follower (vote not yet cast)."""
        self.log.set_term(term, None)
        self.role = "follower"
        self.leader_id = None
        self.votes = set()

    # -- message handling ------------------------------------------------

    def on_message(self, message: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Process one incoming message; returns the messages it provokes."""
        kind = message.get("type")
        if kind == "vote_req":
            return self._on_vote_req(message)
        if kind == "vote_reply":
            return self._on_vote_reply(message)
        if kind == "append_req":
            return self._on_append_req(message)
        if kind == "append_reply":
            return self._on_append_reply(message)
        return []

    def _on_vote_req(self, m: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Grant at most one vote per term, only to up-to-date logs.

        The up-to-date check — candidate's (last term, last index) must
        be >= ours — is the leader-completeness half of Raft's safety
        argument: a candidate missing committed entries cannot collect
        a majority, because some member of the committing quorum still
        holds them and refuses.
        """
        if m["term"] > self.term:
            self._step_down(m["term"])
        granted = False
        if m["term"] == self.term and self.voted_for in (None, m["from"]):
            my_last = self.log.last_index
            my_term = self.log.term_at(my_last) or 0
            theirs = (m["last_log_term"] or 0, m["last_log_index"])
            if theirs >= (my_term, my_last):
                self.log.set_term(self.term, m["from"])  # durable grant
                granted = True
        return [
            {
                "type": "vote_reply",
                "from": self.node_id,
                "to": m["from"],
                "term": self.term,
                "granted": granted,
            }
        ]

    def _on_vote_reply(self, m: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Count a vote; a majority converts the candidacy to leadership."""
        if m["term"] > self.term:
            self._step_down(m["term"])
            return []
        if (
            self.role != "candidate"
            or m["term"] != self.term
            or not m["granted"]
        ):
            return []
        self.votes.add(m["from"])
        if len(self.votes) >= self.quorum():
            return self._become_leader()
        return []

    def make_append(self, peer: str) -> Dict[str, Any]:
        """Build the AppendEntries (or snapshot-install) for one follower.

        When the follower's cursor has fallen behind this log's
        compaction horizon the message piggybacks the snapshot; the
        follower installs it and the entries ride on top.
        """
        ni = self.next_index.get(peer, self.log.last_index + 1)
        message: Dict[str, Any] = {
            "type": "append_req",
            "from": self.node_id,
            "to": peer,
            "term": self.term,
            "commit": self.commit_index,
        }
        if ni <= self.log.base_index and self.log.snapshot_state is not None:
            message["snapshot"] = {
                "last_included_index": self.log.base_index,
                "last_included_term": self.log.base_term,
                "machine": self.log.snapshot_state,
            }
            ni = self.log.base_index + 1
        message["prev_index"] = ni - 1
        message["prev_term"] = self.log.term_at(ni - 1) or 0
        message["entries"] = [e.to_dict() for e in self.log.slice_from(ni)]
        return message

    def _on_append_req(self, m: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Follow the leader: install snapshot, reconcile log, advance commit.

        Entries are appended durably *before* the success reply leaves,
        so the leader's quorum arithmetic only ever counts entries that
        would survive this node crashing.
        """
        if m["term"] > self.term:
            self._step_down(m["term"])
        reply: Dict[str, Any] = {
            "type": "append_reply",
            "from": self.node_id,
            "to": m["from"],
            "term": self.term,
            "success": False,
            "match_index": 0,
            "conflict_index": None,
        }
        if m["term"] < self.term:
            return [reply]
        # A valid append from the current term's leader: anyone still
        # campaigning in this term concedes.
        self.role = "follower"
        self.leader_id = m["from"]
        snapshot = m.get("snapshot")
        if (
            snapshot is not None
            and snapshot["last_included_index"] > self.log.base_index
        ):
            self.log.install_snapshot(
                snapshot["last_included_index"],
                snapshot["last_included_term"],
                snapshot["machine"],
            )
            self.commit_index = max(
                self.commit_index, self.log.base_index
            )
        prev = m["prev_index"]
        prev_term = self.log.term_at(prev)
        if prev_term is None or prev_term != m["prev_term"]:
            # Mismatch hint: retry from just past our end (hole) or from
            # the conflicting index (divergent suffix).
            if prev > self.log.last_index:
                reply["conflict_index"] = self.log.last_index + 1
            else:
                reply["conflict_index"] = max(prev, self.log.base_index + 1)
            return [reply]
        entries = [LogEntry.from_dict(e) for e in m["entries"]]
        insert_at = None
        for i, entry in enumerate(entries):
            index = prev + 1 + i
            existing = self.log.term_at(index)
            if existing is None:
                insert_at = i
                break
            if existing != entry.term:
                # A conflicting suffix is uncommitted by construction;
                # the leader's log wins.
                self.log.truncate_from(index)
                insert_at = i
                break
        if insert_at is not None:
            self.log.append(entries[insert_at:])
        match = prev + len(entries)
        self.commit_index = max(self.commit_index, min(m["commit"], match))
        reply["success"] = True
        reply["match_index"] = match
        return [reply]

    def _on_append_reply(self, m: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Advance (or rewind) one follower's cursor; maybe commit."""
        if m["term"] > self.term:
            self._step_down(m["term"])
            return []
        if self.role != "leader" or m["term"] != self.term:
            return []
        peer = m["from"]
        if m["success"]:
            self.match_index[peer] = max(
                self.match_index.get(peer, 0), m["match_index"]
            )
            self.next_index[peer] = self.match_index[peer] + 1
            self._advance_commit()
            if self.next_index[peer] <= self.log.last_index:
                return [self.make_append(peer)]  # keep streaming backlog
            return []
        conflict = m.get("conflict_index")
        fallback = max(self.next_index.get(peer, 2) - 1, 1)
        self.next_index[peer] = (
            max(min(fallback, conflict), 1) if conflict else fallback
        )
        return [self.make_append(peer)]

    def _advance_commit(self) -> None:
        """Commit the highest majority-replicated index of the current term.

        Only current-term entries are counted directly (the classic
        figure-8 rule); earlier-term entries commit transitively once a
        current-term entry above them does.
        """
        for n in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(n) != self.term:
                break
            replicas = 1 + sum(
                1
                for peer in self.peers
                if self.match_index.get(peer, 0) >= n
            )
            if replicas >= self.quorum():
                self.commit_index = n
                return

    def client_append(self, cmd: Dict[str, Any]) -> int:
        """Leader-only: append a client command; returns its log index."""
        self.log.append([LogEntry(self.term, cmd)])
        index = self.log.last_index
        self._advance_commit()  # a single-node cluster commits instantly
        return index


class Replica:
    """One member of the replicated control plane.

    Wraps a :class:`RaftCore` + :class:`~repro.cluster.log.DurableLog`
    + :class:`~repro.cluster.coordinator.CoordinatorMachine` with the
    threads and HTTP channels a live deployment needs.  The service
    layer (:mod:`repro.service.app`), the job manager and in-process
    :class:`~repro.cluster.worker.Worker` transports call
    ``register_worker`` / ``lease`` / ``complete`` / ``execute_cases``
    / ``stats`` on it directly.  Writes raise :class:`NotLeaderError`
    on followers (→ HTTP 421 + leader hint); reads serve from local
    applied state.

    ``Replica(None, url).start()`` is the single-process coordinator:
    an in-memory :class:`MemoryLog`, no peers, leader on return.

    Parameters
    ----------
    data_dir:
        This replica's private durable directory (log + snapshot), or
        None to keep the log in memory (nothing survives a restart).
    self_url:
        The URL peers reach *this* replica on; doubles as its node id.
    peer_urls:
        The other replicas' URLs.  Empty list = single-node: it elects
        itself inside :meth:`start`.
    store:
        Optional result store; quorum-accepted rows are flushed on
        every replica (writes are content-addressed and idempotent).
    redundancy, unit_size, lease_ttl, quarantine_after:
        Scheduling knobs, forwarded to the machine — **must match
        across replicas** (they are part of the replicated state's
        digest).
    heartbeat_interval, election_timeout:
        Failure-detector timing: followers call an election after a
        uniform draw from ``election_timeout`` seconds without leader
        contact; leaders heartbeat every ``heartbeat_interval``.
    tick_interval:
        How often a leader appends a ``tick`` command while sweeps are
        in flight (log-ordered lease expiry).
    snapshot_interval:
        Applied entries between snapshot compactions.
    fsync:
        Forwarded to :class:`~repro.cluster.log.DurableLog`; tests
        disable it for speed.
    """

    def __init__(
        self,
        data_dir: Optional[str],
        self_url: str,
        peer_urls: Sequence[str] = (),
        store: Optional[Any] = None,
        redundancy: int = 1,
        unit_size: int = 1,
        lease_ttl: float = 30.0,
        quarantine_after: int = 1,
        heartbeat_interval: float = 0.08,
        election_timeout: Tuple[float, float] = (0.3, 0.6),
        tick_interval: float = 0.25,
        snapshot_interval: int = 512,
        rpc_timeout: float = 2.0,
        fsync: bool = True,
        registry: Optional[Any] = None,
    ) -> None:
        self.store = store
        self.redundancy = int(redundancy)
        self.unit_size = int(unit_size)
        self.lease_ttl = float(lease_ttl)
        self.quarantine_after = int(quarantine_after)
        self.self_url = self_url.rstrip("/")
        self.peer_urls = [p.rstrip("/") for p in peer_urls]
        self.heartbeat_interval = float(heartbeat_interval)
        self.election_timeout = (
            float(election_timeout[0]),
            float(election_timeout[1]),
        )
        self.tick_interval = float(tick_interval)
        self.snapshot_interval = int(snapshot_interval)
        self.rpc_timeout = float(rpc_timeout)

        self.watchdog: Optional[Any] = None
        self.registry = default_registry() if registry is None else registry
        self._log: Any = (
            MemoryLog()
            if data_dir is None
            else DurableLog(data_dir, fsync=fsync, registry=self.registry)
        )
        self._core = RaftCore(self.self_url, self.peer_urls, self._log)
        self._machine = CoordinatorMachine(
            redundancy=redundancy,
            unit_size=unit_size,
            lease_ttl=lease_ttl,
            quarantine_after=quarantine_after,
        )
        self._applied = 0
        if self._log.snapshot_state is not None:
            self._machine.restore(self._log.snapshot_state)
            self._applied = self._log.base_index
        # Entries beyond the snapshot re-apply only once re-committed
        # (commit_index is volatile by design) — the next leader contact
        # restores it within one heartbeat.

        self._cond = threading.Condition()
        self._flushing = 0
        self._waiting: Dict[int, Optional[Tuple[int, Dict[str, Any]]]] = {}
        self._outbox: Dict[str, List[Dict[str, Any]]] = {
            peer: [] for peer in self.peer_urls
        }
        self._events = {peer: threading.Event() for peer in self.peer_urls}
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._rng = random.Random()
        self._election_deadline = (
            time.monotonic() + self._rng.uniform(*self.election_timeout)
        )
        self._next_tick = 0.0
        # Test hook: callable(peer_url) -> True to drop all traffic to
        # that peer (simulated partition).  None = deliver everything.
        self.drop_traffic = None

        self._last_role = self._core.role
        self._m_elections = self.registry.counter(
            "repro_raft_elections_total",
            "Elections this node has started (timeout fired, became "
            "candidate).",
        )
        self._m_heartbeats = self.registry.counter(
            "repro_raft_heartbeats_total",
            "AppendEntries messages sent while leading (empty ones are "
            "the heartbeat).",
        )
        if self.registry.enabled:
            # Consensus pull-gauges: ints read without the lock — each
            # scrape sees some recent consistent-enough value.
            self.registry.gauge(
                "repro_raft_term",
                "Current consensus term on this node.",
            ).set_fn(lambda: float(self._core.term))
            self.registry.gauge(
                "repro_raft_commit_index",
                "Highest log index known committed on this node.",
            ).set_fn(lambda: float(self._core.commit_index))
            self.registry.gauge(
                "repro_raft_applied_index",
                "Highest log index applied to the coordinator machine.",
            ).set_fn(lambda: float(self._applied))
            self.registry.gauge(
                "repro_raft_is_leader",
                "1 when this node believes it leads, else 0.",
            ).set_fn(lambda: 1.0 if self._core.role == "leader" else 0.0)
            # Scheduler pull-gauges: each scrape snapshots the applied
            # machine's counters under the replica lock.
            for field in (
                "workers",
                "quarantined",
                "open_units",
                "leases_granted",
                "leases_expired",
                "units_completed",
                "units_failed",
                "votes_received",
                "strikes_issued",
            ):
                self.registry.gauge(
                    f"repro_cluster_{field}",
                    f"Coordinator scheduler counter {field!r}, "
                    "snapshotted at scrape time.",
                ).set_fn(lambda f=field: float(self.stats().get(f, 0)))

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Replica":
        """Spawn the ticker and per-peer channel threads; returns self.

        A peerless replica is its own majority: it wins an election
        here, so it leads (and serves writes) when this returns.
        """
        if not self.peer_urls:
            with self._cond:
                self._core.start_election()
                self._m_elections.inc()
                effects = self._advance_locked()
            self._observe_role()
            self._flush(effects)
        ticker = threading.Thread(
            target=self._ticker_loop, name="replica-ticker", daemon=True
        )
        ticker.start()
        self._threads.append(ticker)
        for peer in self.peer_urls:
            thread = threading.Thread(
                target=self._channel_loop,
                args=(peer,),
                name=f"replica-channel-{peer}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        """Stop all threads and release the durable log handle."""
        self._stop.set()
        if self.watchdog is not None:
            try:
                self.watchdog.stop()
            except Exception:
                pass
        for event in self._events.values():
            event.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads = []
        self._log.close()

    # -- watchdog embedding ----------------------------------------------

    def watch_endpoints(self) -> List[str]:
        """The fleet base URLs an embedded watchdog should scrape."""
        return [self.self_url] + list(self.peer_urls)

    def attach_watchdog(self, watchdog: Any) -> Any:
        """Embed a running fleet watchdog in this replica process.

        The service API discovers it dynamically (``/v1/watch/*``
        routes start answering), and :meth:`close` stops its scrape
        loop with the replica's own threads.
        """
        self.watchdog = watchdog
        return watchdog

    def hard_stop(self) -> None:
        """Halt without any cleanup — the in-process analog of SIGKILL.

        Chaos tests use this to model a leader crash: threads are
        abandoned mid-flight (they exit on the stop flag at their next
        wakeup) and the durable directory is left exactly as a real
        kill would leave it.
        """
        self._stop.set()

    # -- consensus plumbing ----------------------------------------------

    def _observe_role(self) -> None:
        """Log a structured line when the consensus role changed.

        Called outside the lock from the ticker and RPC paths; role
        reads race benignly (a missed intermediate role shows up on
        the next call).
        """
        role = self._core.role
        if role != self._last_role:
            previous, self._last_role = self._last_role, role
            log_event(
                "raft.role_change",
                "cluster",
                node=self.self_url,
                previous=previous,
                role=role,
                term=self._core.term,
            )

    def _reset_election_deadline(self) -> None:
        """Push the election alarm one randomized timeout into the future."""
        self._election_deadline = (
            time.monotonic() + self._rng.uniform(*self.election_timeout)
        )

    def _route_locked(self, messages: List[Dict[str, Any]]) -> None:
        """Drop outbound messages into per-peer outboxes and wake senders."""
        for message in messages:
            peer = message["to"]
            if peer in self._outbox:
                self._outbox[peer].append(message)
                self._events[peer].set()

    def _signal_channels(self) -> None:
        """Wake every sender thread (fresh entries or a new commit)."""
        for event in self._events.values():
            event.set()

    def _advance_locked(self) -> List[Dict[str, Any]]:
        """Apply newly committed entries to the machine (lock held).

        Returns the effects drained from the machine; the caller MUST
        pass them to :meth:`_flush` after releasing the lock.  Also
        resolves waiting ``submit_command`` calls and compacts the log
        every ``snapshot_interval`` applied entries.
        """
        if self._applied < self._log.base_index:
            # A leader-shipped snapshot superseded our local prefix.
            assert self._log.snapshot_state is not None
            log_event(
                "raft.snapshot_catchup",
                "cluster",
                node=self.self_url,
                from_applied=self._applied,
                to_applied=self._log.base_index,
            )
            self._machine.restore(self._log.snapshot_state)
            self._applied = self._log.base_index
        while self._applied < self._core.commit_index:
            entry = self._log.entry_at(self._applied + 1)
            if entry is None:  # pragma: no cover - defensive
                break
            reply = self._machine.apply(entry.cmd)
            self._applied += 1
            if self._applied in self._waiting:
                self._waiting[self._applied] = (entry.term, reply)
        effects = self._machine.take_effects()
        if effects:
            self._flushing += 1
        if self._applied - self._log.base_index >= self.snapshot_interval:
            self._log.compact(self._applied, self._machine.snapshot())
        return effects

    def _flush(self, effects: List[Dict[str, Any]]) -> None:
        """Write drained effects through the store (outside the lock)."""
        if not effects:
            return
        try:
            flush_effects(self.store, effects)
        finally:
            with self._cond:
                self._flushing -= 1
                self._cond.notify_all()

    def _drain_flushes(self, timeout: float = 10.0) -> None:
        """Block until in-flight effect flushes have hit the store."""
        with self._cond:
            self._cond.wait_for(
                lambda: self._flushing == 0, timeout=timeout
            )

    def handle_rpc(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Process one peer consensus message; returns the reply message.

        This is the body of ``POST /v1/raft/rpc``.  The synchronous
        model means exactly one reply (possibly ``{}``) rides back in
        the HTTP response; any *other* messages the step provokes are
        routed to their own channels.
        """
        kind = message.get("type")
        with self._cond:
            out = self._core.on_message(message)
            if kind == "append_req" and message["term"] >= self._core.term:
                self._reset_election_deadline()
            effects = self._advance_locked()
            self._cond.notify_all()
            reply: Dict[str, Any] = {}
            extra: List[Dict[str, Any]] = []
            for msg in out:
                if not reply and msg["to"] == message.get("from"):
                    reply = msg
                else:
                    extra.append(msg)
            if kind == "vote_req" and reply.get("granted"):
                self._reset_election_deadline()
            self._route_locked(extra)
        self._flush(effects)
        return reply

    def _deliver_reply(self, reply: Dict[str, Any]) -> None:
        """Feed a synchronous RPC reply back into the core (sender side)."""
        if not reply or "type" not in reply:
            return
        with self._cond:
            out = self._core.on_message(reply)
            effects = self._advance_locked()
            self._cond.notify_all()
            self._route_locked(out)
        self._flush(effects)

    def _channel_loop(self, peer: str) -> None:
        """Sender thread for one peer: heartbeats, appends, vote requests.

        Wakes on demand (fresh outbox, new entries) or every heartbeat
        interval; a leader iteration always sends an AppendEntries —
        empty ones double as the heartbeat.  Transport errors are
        swallowed: an unreachable peer is retried on the next beat,
        which is precisely the crash-recovery path.
        """
        client = ServiceClient(peer, timeout=self.rpc_timeout, retries=0)
        event = self._events[peer]
        try:
            while not self._stop.is_set():
                event.wait(timeout=self.heartbeat_interval)
                if self._stop.is_set():
                    return
                with self._cond:
                    # Cleared under the lock every append holds: the
                    # message built below carries each entry whose
                    # wake-up this drops.
                    event.clear()
                    messages = list(self._outbox[peer])
                    self._outbox[peer].clear()
                    if self._core.role == "leader":
                        messages.append(self._core.make_append(peer))
                        self._m_heartbeats.inc()
                while messages and not self._stop.is_set():
                    message = messages.pop(0)
                    drop = self.drop_traffic
                    if drop is not None and drop(peer):
                        continue
                    try:
                        reply = client.raft_rpc(message)
                    except (ServiceError, OSError):
                        break  # peer unreachable; retry next heartbeat
                    if not reply or "type" not in reply:
                        continue
                    with self._cond:
                        out = self._core.on_message(reply)
                        effects = self._advance_locked()
                        self._cond.notify_all()
                        follow_up = []
                        for msg in out:
                            if msg["to"] == peer:
                                follow_up.append(msg)
                            else:
                                self._outbox[msg["to"]].append(msg)
                                self._events[msg["to"]].set()
                        if follow_up and not self._outbox[peer]:
                            # The follow-up carries every entry appended
                            # so far; an empty append after it is waste.
                            event.clear()
                        messages.extend(follow_up)
                    self._flush(effects)
        finally:
            client.close()

    def _ticker_loop(self) -> None:
        """Failure detector + logical-clock driver.

        Followers: call an election when the leader has been silent for
        a full randomized timeout.  Leaders: append log-ordered
        ``tick`` commands while sweeps are in flight so lease expiry is
        a replicated decision, not a local clock read.
        """
        while not self._stop.is_set():
            time.sleep(0.02)
            if self._stop.is_set():
                return
            now = time.monotonic()
            effects: List[Dict[str, Any]] = []
            election_term = None
            with self._cond:
                if self._core.role == "leader":
                    if not self._machine.busy():
                        # The first tick comes a full interval after a
                        # sweep opens: a short sweep needs none.
                        self._next_tick = now + self.tick_interval
                    elif now >= self._next_tick:
                        self._next_tick = now + self.tick_interval
                        self._core.client_append(
                            {"op": "tick", "now": time.time()}
                        )
                        effects = self._advance_locked()
                        self._signal_channels()
                elif now >= self._election_deadline:
                    out = self._core.start_election()
                    self._m_elections.inc()
                    election_term = self._core.term
                    self._reset_election_deadline()
                    if self._core.role == "leader":  # single-node win
                        effects = self._advance_locked()
                    self._route_locked(out)
                    self._cond.notify_all()
            if election_term is not None:
                log_event(
                    "raft.election",
                    "cluster",
                    node=self.self_url,
                    term=election_term,
                )
            self._observe_role()
            self._flush(effects)

    # -- replicated writes -----------------------------------------------

    def submit_command(
        self, cmd: Dict[str, Any], timeout: float = 30.0
    ) -> Dict[str, Any]:
        """Append one command through the log; block until it applies.

        Leader only (:class:`NotLeaderError` otherwise, with the
        current hint).  The reply is released only after the entry is
        majority-committed *and* applied locally — the linearizable
        write path every coordinator mutation rides on.  If leadership
        is lost before commit and the entry gets overwritten by the new
        leader's log, the caller sees :class:`NotLeaderError` and
        retries against the hint — commands are idempotent
        (re-register keeps the id, re-submit attaches by content hash,
        duplicate completes are votes already counted).
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            if self._core.role != "leader":
                raise NotLeaderError(self.leader_url())
            index = self._core.client_append(cmd)
            term = self._core.term
            self._waiting[index] = None
            effects = self._advance_locked()  # single-node commits inline
            self._signal_channels()
            try:
                while self._waiting[index] is None:
                    if self._log.term_at(index) != term:
                        raise NotLeaderError(self.leader_url())
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ClusterError(
                            f"replicated {cmd.get('op')!r} command timed "
                            f"out after {timeout}s (no commit quorum — "
                            "majority of replicas unreachable?)"
                        )
                    self._cond.wait(timeout=min(remaining, 0.1))
                stored = self._waiting[index]
                if stored[0] != term:
                    # A new leader's entry landed at our index instead.
                    raise NotLeaderError(self.leader_url())
            finally:
                self._waiting.pop(index, None)
        self._flush(effects)
        reply = stored[1]
        if "error" in reply:
            raise KeyError(reply["error"])
        return reply

    # -- the coordinator-compatible surface --------------------------------

    def require_leader(self) -> None:
        """Raise :class:`NotLeaderError` unless this replica leads now."""
        with self._cond:
            if self._core.role != "leader":
                raise NotLeaderError(self.leader_url())

    def leader_url(self) -> Optional[str]:
        """Best-known leader URL (self when leading, None mid-election)."""
        return self._core.leader_id

    def register_worker(
        self, name: Optional[str] = None, worker_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Register a worker through the log (idempotent with an id)."""
        return self.submit_command(
            {
                "op": "register",
                "name": name,
                "worker_id": worker_id,
                "now": time.time(),
            }
        )

    def lease(self, worker_id: str) -> Dict[str, Any]:
        """The worker's next unit: a leader read when nothing would change.

        A lease that would change nothing is answered from the leader's
        applied state with no log write
        (:meth:`~repro.cluster.coordinator.CoordinatorMachine.peek_lease`):
        the unit the worker already holds — granted by its last
        ``complete`` and so already committed — or "nothing leasable".
        The empty answer is given only when every appended entry is
        applied: a ``submit`` still in flight must not read as an empty
        queue.  Anything else (a unit to grant, an expired lease to
        reap) goes through the log.

        A deposed leader that has not yet heard of its successor may
        answer from stale state, which is harmless: "nothing" only
        costs the worker another poll, and a stale held unit is
        executed and its completion verified like any straggler's vote.
        """
        with self._cond:
            if self._core.role != "leader":
                raise NotLeaderError(self.leader_url())
            reply = self._machine.peek_lease(
                worker_id,
                time.time(),
                settled=self._applied == self._log.last_index,
            )
        if reply is not None:
            return reply
        return self.submit_command(
            {"op": "lease", "worker_id": worker_id, "now": time.time()}
        )

    def complete(
        self, worker_id: str, unit_id: str, rows: Sequence[Any]
    ) -> Dict[str, Any]:
        """Record a completion vote through the log.

        The same entry grants the worker's next lease, which its next
        :meth:`lease` call then reads without a log write.
        """
        return self.submit_command(
            {
                "op": "complete",
                "worker_id": worker_id,
                "unit_id": unit_id,
                "rows": list(rows),
                "now": time.time(),
            }
        )

    def execute_cases(
        self,
        cases: Sequence[tuple],
        base_seed: int = 0,
        redundancy: Optional[int] = None,
        timeout: Optional[float] = None,
        progress: Optional[Any] = None,
    ) -> List[ExperimentResult]:
        """Run a sweep on the replicated fabric; block until done.

        The submit rides the log (leader only); progress is then
        observed on **local applied state**, which keeps working even
        if this replica loses leadership mid-sweep — completions
        committed by the new leader replicate here and the sweep view
        fills in regardless of who leads.  Results are byte-identical
        to a serial run of the same cases.
        """
        if not cases:
            return []
        r = self.redundancy if redundancy is None else int(redundancy)
        if r < 1:
            raise ValueError("redundancy must be >= 1")
        refs = case_refs(cases)
        ctx = current_context()
        submitted = self.submit_command(
            {
                "op": "submit",
                "cases": refs,
                "base_seed": int(base_seed),
                "redundancy": r,
                "trace": None if ctx is None else ctx.trace_id,
                "now": time.time(),
            }
        )
        sweep_id = submitted["sweep_id"]
        deadline = None if timeout is None else time.monotonic() + timeout
        reported: set = set()
        try:
            while True:
                with self._cond:
                    view = self._machine.sweep_view(sweep_id)
                    if view is None:
                        raise ClusterError(
                            f"sweep {sweep_id} vanished from the replicated "
                            "state (purged by another waiter?)"
                        )
                    if view["error"] is not None:
                        raise ClusterError(view["error"])
                    finished = view["open_units"] == 0
                    fresh = [
                        (i, row)
                        for i, row in enumerate(view["slots"])
                        if row is not None and i not in reported
                    ]
                    if not finished and not fresh:
                        now = time.monotonic()
                        if deadline is not None and now >= deadline:
                            pending = view["pending_units"]
                            raise ClusterError(
                                f"cluster sweep timed out after {timeout}s "
                                f"with {len(pending)} unresolved units: "
                                f"{pending[:5]}"
                            )
                        wait = 0.1
                        if deadline is not None:
                            wait = min(wait, max(deadline - now, 0.0))
                        # Every applied entry wakes this thread; rebuild
                        # the view only once the sweep's progress moved.
                        progress_now = (view["open_units"], None)
                        self._cond.wait_for(
                            lambda: self._machine.sweep_progress(sweep_id)
                            != progress_now,
                            timeout=wait,
                        )
                        continue
                    if finished:
                        rows = list(view["slots"])
                for i, row in fresh:
                    reported.add(i)
                    if progress is not None:
                        progress(ExperimentResult.from_dict(row))
                if finished:
                    return [ExperimentResult.from_dict(row) for row in rows]
        finally:
            try:
                self.submit_command(
                    {
                        "op": "purge",
                        "sweep_id": sweep_id,
                        "now": time.time(),
                    },
                    timeout=5.0,
                )
            except (NotLeaderError, ClusterError, KeyError):
                # Leadership moved mid-sweep: the sweep record stays on
                # the new leader until its own waiters detach.  Workers
                # completing its units is harmless (idempotent store
                # writes); memory is reclaimed with the sweep's last
                # waiter there.
                pass
            self._drain_flushes()

    def executor(
        self,
        redundancy: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> ClusterExecutor:
        """A runner-pluggable executor bound to a redundancy + deadline."""
        return ClusterExecutor(self, redundancy=redundancy, timeout=timeout)

    # -- local reads -------------------------------------------------------

    def workers(self) -> List[Dict[str, Any]]:
        """Worker registry snapshot from local applied state."""
        with self._cond:
            return self._machine.workers_view()

    def stats(self) -> Dict[str, Any]:
        """Scheduler counters from local applied state."""
        with self._cond:
            return self._machine.stats()

    def state_digest(self) -> str:
        """sha256 of local applied machine state (anti-entropy probe)."""
        with self._cond:
            return self._machine.state_digest()

    def raft_status(self) -> Dict[str, Any]:
        """Consensus-level introspection (``GET /v1/raft/status``).

        ``state_digest`` is over the *applied* machine state: two
        replicas reporting the same ``applied_index`` MUST report the
        same digest — anything else is a determinism bug, and the chaos
        suite asserts exactly that after every fault it injects.
        """
        with self._cond:
            return {
                "node_id": self.self_url,
                "role": self._core.role,
                "term": self._core.term,
                "leader": self._core.leader_id,
                "commit_index": self._core.commit_index,
                "applied_index": self._applied,
                "last_log_index": self._log.last_index,
                "base_index": self._log.base_index,
                "state_digest": self._machine.state_digest(),
                "peers": list(self.peer_urls),
            }
