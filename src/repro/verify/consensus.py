"""Bounded model checking of the replicated control plane's consensus.

The object under test is :class:`repro.cluster.replica.RaftCore` — the
*same* pure message-in/messages-out class a live
:class:`~repro.cluster.replica.Replica` runs — plugged into
:class:`~repro.cluster.replica.MemoryLog` so durability is modeled
exactly: a crash discards the volatile core (role, vote tally, follower
cursors, volatile ``commit_index``) and keeps the log (term, vote,
entries), mirroring what a real ``SIGKILL`` preserves on disk.

The checker enumerates every interleaving of a small action alphabet —
election timeouts, message deliveries, leader heartbeats, client
appends, crashes and restarts — up to a depth bound, as a model on
:func:`repro.verify.kernel.search` with states deduplicated by
canonical-JSON sha256, and checks two safety invariants in every
reached state:

* ``election_safety`` — no term ever elects two leaders (tracked as
  history: once two distinct nodes have *ever* led the same term, the
  run is condemned even if one has since stepped down);
* ``committed_entries_never_lost`` — once any node's ``commit_index``
  covers a log index, that (index, term) binding is permanent: no node
  may later commit a different entry there, and no leader may hold a
  log that contradicts or misses it.

Violations come back as a 1-minimized
(:func:`repro.verify.kernel.shrink`), replayable
:class:`ConsensusTrace` — the exact action list re-executes through
fresh cores (:meth:`ConsensusTrace.replay`) and must reproduce the
violation, so a reported bug is never an artifact of the search.

The model is *bounded and finite* on purpose: at most ``crashes`` crash
events, ``appends`` client commands, and ``depth`` actions per
execution.  The in-flight network mirrors the real transport
(synchronous per-peer HTTP channels): messages between one ordered
pair of nodes deliver in FIFO order and duplicate in-flight sends
merge; *cross*-channel interleaving is fully explored, and message
loss is modeled by crashing the destination (a delivery into a crash
vanishes).  Within those bounds the search is exhaustive.

Quickstart::

    from repro.verify.consensus import check_consensus

    result = check_consensus(replicas=3, crashes=1, depth=8)
    assert result.ok, result.counterexample.describe()

CLI (the acceptance gate CI runs)::

    python -m repro.verify --protocol replica --replicas 3 --crashes 1
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.cluster.replica import MemoryLog, RaftCore
from repro.verify.kernel import CheckResult, Successor, TraceFile, search
from repro.verify.kernel import shrink as kernel_shrink

__all__ = [
    "COMMIT_SAFETY",
    "CONSENSUS_INVARIANTS",
    "ELECTION_SAFETY",
    "ConsensusAction",
    "ConsensusTrace",
    "check_consensus",
]

ELECTION_SAFETY = "election_safety"
COMMIT_SAFETY = "committed_entries_never_lost"
CONSENSUS_INVARIANTS: Tuple[str, ...] = (ELECTION_SAFETY, COMMIT_SAFETY)

CoreFactory = Callable[[str, List[str], Any], Any]


# Canonical JSON (sorted keys, compact) — the dedup currency.  One
# shared encoder: ``json.dumps`` with these options builds a new
# encoder on every call, and the checker encodes every in-flight
# message of every explored state.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class ConsensusAction:
    """One scheduler choice in the modeled execution.

    ``kind`` is one of ``timeout`` / ``heartbeat`` / ``append`` /
    ``crash`` / ``restart`` (all taking ``node``) or ``deliver``
    (taking the full ``message`` dict, so a shrunk trace still names
    *which* message it meant even after earlier sends were deleted).
    """

    kind: str
    node: Optional[int] = None
    message: Optional[Mapping[str, Any]] = None

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``deliver vote_req n0->n1``."""
        if self.kind == "deliver":
            m = self.message or {}
            return (
                f"deliver {m.get('type')} {m.get('from')}->{m.get('to')} "
                f"term={m.get('term')}"
            )
        return f"{self.kind} n{self.node}"

    def to_json_obj(self) -> Dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_json_obj`)."""
        obj: Dict[str, Any] = {"kind": self.kind}
        if self.node is not None:
            obj["node"] = self.node
        if self.message is not None:
            obj["message"] = dict(self.message)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "ConsensusAction":
        """Rebuild an action from its :meth:`to_json_obj` form."""
        node = obj.get("node")
        return cls(
            kind=str(obj["kind"]),
            node=None if node is None else int(node),
            message=obj.get("message"),
        )


class _ModelState:
    """One explored world: cores + durable logs + network + monitors.

    ``cores[i] is None`` means node *i* is crashed — its volatile state
    is gone but ``logs[i]`` (the modeled disk) survives for restart.
    The two safety monitors (``leaders_by_term``, ``committed``) are
    *history* accumulated along the path; they ride inside the dedup
    digest so two worlds with identical node state but different
    obligations are never conflated.  ``path`` is the action list that
    reached this world (the checker sets it; replay ignores it).
    """

    def __init__(self, replicas: int, core_factory: CoreFactory) -> None:
        self.ids = [f"n{i}" for i in range(replicas)]
        self.core_factory = core_factory
        self.logs = [MemoryLog() for _ in self.ids]
        self.cores: List[Optional[Any]] = [
            core_factory(self.ids[i], self.ids, self.logs[i])
            for i in range(replicas)
        ]
        self.network: List[Dict[str, Any]] = []
        self.appends_done = 0
        self.crashes_done = 0
        self.leaders_by_term: Dict[int, set] = {}
        # index -> (entry term, lowest term any observer committed it in)
        self.committed: Dict[int, Tuple[int, int]] = {}
        self.path: Tuple[ConsensusAction, ...] = ()

    def clone(self) -> "_ModelState":
        """An independent copy (the checker forks before each action)."""
        other = _ModelState.__new__(_ModelState)
        other.ids = self.ids
        other.core_factory = self.core_factory
        other.logs = [log.clone() for log in self.logs]
        other.cores = []
        for i, core in enumerate(self.cores):
            if core is None:
                other.cores.append(None)
                continue
            copy = self.core_factory(self.ids[i], self.ids, other.logs[i])
            copy.role = core.role
            copy.leader_id = core.leader_id
            copy.commit_index = core.commit_index
            copy.votes = set(core.votes)
            copy.next_index = dict(core.next_index)
            copy.match_index = dict(core.match_index)
            other.cores.append(copy)
        other.network = [dict(m) for m in self.network]
        other.appends_done = self.appends_done
        other.crashes_done = self.crashes_done
        other.leaders_by_term = {
            term: set(nodes) for term, nodes in self.leaders_by_term.items()
        }
        other.committed = dict(self.committed)
        other.path = self.path
        return other

    def digest(self) -> bytes:
        """sha256 over the canonical state (dedup identity)."""
        nodes = []
        for i, core in enumerate(self.cores):
            log = self.logs[i]
            node: Dict[str, Any] = {
                "term": log.term,
                "vote": log.voted_for,
                "entries": [[e.term, e.cmd] for e in log.entries],
            }
            if core is None:
                node["crashed"] = True
            else:
                node.update(
                    role=core.role,
                    leader=core.leader_id,
                    commit=core.commit_index,
                    votes=sorted(core.votes),
                    ni=sorted(core.next_index.items()),
                    mi=sorted(core.match_index.items()),
                )
            nodes.append(node)
        channels: Dict[str, List[str]] = {}
        for message in self.network:  # list order == send order
            key = f"{message.get('from')}>{message.get('to')}"
            channels.setdefault(key, []).append(_canonical(message))
        payload = _canonical(
            {
                "nodes": nodes,
                "net": channels,
                "appends": self.appends_done,
                "crashes": self.crashes_done,
                "leaders": {
                    str(t): sorted(v)
                    for t, v in self.leaders_by_term.items()
                },
                "committed": {
                    str(i): t for i, t in self.committed.items()
                },
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).digest()

    # -- transition relation -------------------------------------------

    def _send(self, messages: List[Dict[str, Any]]) -> None:
        """Merge provoked messages into the in-flight set."""
        have = {_canonical(m) for m in self.network}
        for message in messages:
            key = _canonical(message)
            if key not in have:
                have.add(key)
                self.network.append(message)

    def _heads(self) -> List[Dict[str, Any]]:
        """The deliverable messages: one FIFO head per (from, to) channel."""
        heads: Dict[Tuple[Any, Any], Dict[str, Any]] = {}
        for message in self.network:  # list order == send order
            channel = (message.get("from"), message.get("to"))
            heads.setdefault(channel, message)
        return [heads[key] for key in sorted(heads)]

    def enabled(self, crashes: int, appends: int) -> List[ConsensusAction]:
        """Every action the scheduler may take next, in canonical order."""
        actions: List[ConsensusAction] = []
        for message in self._heads():
            actions.append(ConsensusAction("deliver", message=message))
        for i, core in enumerate(self.cores):
            if core is None:
                actions.append(ConsensusAction("restart", node=i))
                continue
            if core.role == "leader":
                actions.append(ConsensusAction("heartbeat", node=i))
                if self.appends_done < appends:
                    actions.append(ConsensusAction("append", node=i))
            else:
                actions.append(ConsensusAction("timeout", node=i))
            if self.crashes_done < crashes:
                actions.append(ConsensusAction("crash", node=i))
        return actions

    def apply(self, action: ConsensusAction) -> None:
        """Mutate this state by one action (no-op if now inapplicable).

        The no-op tolerance is what makes shrinking sound: deleting an
        earlier action may disable a later one, and the later one must
        then do nothing rather than raise.
        """
        if action.kind == "deliver":
            # Deliver only if this exact message is currently the FIFO
            # head of its channel (shrinking can invalidate either).
            key = _canonical(action.message)
            wanted = (
                (action.message or {}).get("from"),
                (action.message or {}).get("to"),
            )
            index = next(
                (
                    k
                    for k, m in enumerate(self.network)
                    if (m.get("from"), m.get("to")) == wanted
                ),
                None,
            )
            if index is None or _canonical(self.network[index]) != key:
                return
            message = self.network.pop(index)
            try:
                target = self.ids.index(message.get("to"))
            except ValueError:
                return
            core = self.cores[target]
            if core is None:
                return  # delivered into a crash: the message is lost
            self._send(core.on_message(message))
            return
        if action.node is None:
            return
        i = action.node
        if not 0 <= i < len(self.cores):
            return
        core = self.cores[i]
        if action.kind == "timeout" and core is not None:
            if core.role != "leader":
                self._send(core.start_election())
        elif action.kind == "heartbeat" and core is not None:
            if core.role == "leader":
                self._send(
                    [core.make_append(peer) for peer in core.peers]
                )
        elif action.kind == "append" and core is not None:
            if core.role == "leader":
                core.client_append({"op": "cmd", "k": self.appends_done})
                self.appends_done += 1
        elif action.kind == "crash" and core is not None:
            self.cores[i] = None
            self.crashes_done += 1
        elif action.kind == "restart" and core is None:
            self.cores[i] = self.core_factory(
                self.ids[i], self.ids, self.logs[i]
            )

    # -- safety monitors -----------------------------------------------

    def violation(self) -> Optional[Tuple[str, str]]:
        """Update the monitors; returns (invariant, detail) on violation."""
        for core in self.cores:
            if core is None or core.role != "leader":
                continue
            holders = self.leaders_by_term.setdefault(core.term, set())
            holders.add(core.node_id)
            if len(holders) > 1:
                return (
                    ELECTION_SAFETY,
                    f"term {core.term} elected {sorted(holders)}",
                )
        for i, core in enumerate(self.cores):
            if core is None:
                continue
            for index in range(1, core.commit_index + 1):
                term = self.logs[i].term_at(index)
                if term is None:
                    continue
                known = self.committed.get(index)
                if known is None:
                    self.committed[index] = (term, self.logs[i].term)
                elif known[0] != term:
                    return (
                        COMMIT_SAFETY,
                        f"{self.ids[i]} commits term {term} at index "
                        f"{index}, but term {known[0]} was already "
                        f"committed there",
                    )
                elif self.logs[i].term < known[1]:
                    # A lower-term observer tightens the (sound upper)
                    # bound on the term the commit happened in.
                    self.committed[index] = (term, self.logs[i].term)
        for i, core in enumerate(self.cores):
            if core is None or core.role != "leader":
                continue
            for index, (term, observed) in self.committed.items():
                if core.term <= observed:
                    # A *stale* leader of an old term may legally hold a
                    # conflicting uncommitted entry — it can no longer
                    # commit anything (every quorum rejects its term).
                    # Leader completeness binds only the terms after
                    # the one the commit was observed in.
                    continue
                actual = self.logs[i].term_at(index)
                if actual != term:
                    return (
                        COMMIT_SAFETY,
                        f"leader {self.ids[i]} (term {core.term}) holds "
                        f"term {actual} at index {index}; committed "
                        f"term {term} is lost",
                    )
        return None


@dataclass(frozen=True)
class ConsensusTrace(TraceFile):
    """A minimal, replayable witness of a consensus-safety violation.

    ``actions`` is the exact scheduler play from the initial state;
    :meth:`replay` re-executes it through *fresh* cores and must
    reproduce the violation (:meth:`replay_violates`), so the artifact
    stands on its own — load it anywhere, run it, watch the bug.
    """

    protocol: str
    replicas: int
    crashes: int
    appends: int
    depth: int
    invariant: str
    detail: str
    actions: Tuple[ConsensusAction, ...]

    @property
    def steps(self) -> Tuple[ConsensusAction, ...]:
        """The trace's steps: its scheduler actions."""
        return self.actions

    def replay(
        self, core_factory: CoreFactory = RaftCore
    ) -> Tuple[Optional[Tuple[str, str]], _ModelState]:
        """Re-run the action list; returns (first violation, end state).

        ``core_factory`` defaults to the production
        :class:`~repro.cluster.replica.RaftCore`; tests that check the
        *checker* pass their deliberately broken core here.
        """
        state = _ModelState(self.replicas, core_factory)
        violation = state.violation()
        for action in self.actions:
            if violation is not None:
                break
            state.apply(action)
            violation = state.violation()
        return violation, state

    def replay_violates(
        self, core_factory: CoreFactory = RaftCore
    ) -> bool:
        """Whether a fresh replay reproduces ``self.invariant``."""
        violation, _state = self.replay(core_factory)
        return violation is not None and violation[0] == self.invariant

    def describe(self) -> str:
        """Multi-line human-readable rendering of the whole trace."""
        lines = [
            f"replica consensus n={self.replicas} crashes<={self.crashes} "
            f"appends<={self.appends} depth<={self.depth} violates "
            f"{self.invariant!r} ({len(self.actions)} actions)",
            f"  {self.detail}",
        ]
        lines.extend(f"  {action.describe()}" for action in self.actions)
        return "\n".join(lines)

    def to_json_obj(self) -> Dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_json_obj`)."""
        return {
            "protocol": self.protocol,
            "replicas": self.replicas,
            "crashes": self.crashes,
            "appends": self.appends,
            "depth": self.depth,
            "invariant": self.invariant,
            "detail": self.detail,
            "actions": [action.to_json_obj() for action in self.actions],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "ConsensusTrace":
        """Rebuild a trace from its :meth:`to_json_obj` form."""
        return cls(
            protocol=str(obj.get("protocol", "replica")),
            replicas=int(obj["replicas"]),
            crashes=int(obj["crashes"]),
            appends=int(obj["appends"]),
            depth=int(obj["depth"]),
            invariant=str(obj["invariant"]),
            detail=str(obj.get("detail", "")),
            actions=tuple(
                ConsensusAction.from_json_obj(a) for a in obj["actions"]
            ),
        )


def check_consensus(
    replicas: int = 3,
    crashes: int = 1,
    appends: int = 1,
    depth: int = 8,
    max_states: int = 200_000,
    core_factory: CoreFactory = RaftCore,
    shrink: bool = True,
) -> CheckResult:
    """Exhaustive BFS over the bounded consensus state space.

    Explores every interleaving of at most ``depth`` actions (with at
    most ``crashes`` crash events and ``appends`` client commands) of a
    ``replicas``-node cluster, deduplicating by state digest, checking
    both safety invariants in every state and admitting at most
    ``max_states`` states.  BFS order means the first violation found
    is also a *shortest* one; it is then 1-minimized (unless
    ``shrink=False``) and replay-verified before being reported.
    Negative bounds and ``max_states < 1`` raise ``ValueError``.

    ``core_factory`` swaps the consensus implementation under test —
    the checker's own tests hand it deliberately broken
    :class:`~repro.cluster.replica.RaftCore` subclasses and assert the
    violation is found, so a green gate is evidence the search has
    teeth, not just that the code is quiet.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    bounds = {
        "replicas": replicas,
        "crashes": crashes,
        "appends": appends,
        "depth": depth,
    }
    for name in ("crashes", "appends", "depth"):
        value = bounds[name]
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    started = time.perf_counter()

    def witness(
        state: _ModelState, violation: Optional[Tuple[str, str]]
    ) -> Optional[ConsensusTrace]:
        """The trace of the path to ``state``, if it violates."""
        if violation is None:
            return None
        return ConsensusTrace(
            protocol="replica",
            replicas=replicas,
            crashes=crashes,
            appends=appends,
            depth=depth,
            invariant=violation[0],
            detail=violation[1],
            actions=state.path,
        )

    def expand(state: _ModelState) -> Iterator[Successor]:
        """One successor per enabled action, each already built."""
        for action in state.enabled(crashes, appends):
            child = state.clone()
            child.apply(action)
            child.path = state.path + (action,)
            # violation() updates the monitors the digest covers.
            found = witness(child, child.violation())
            yield Successor(
                child.digest(), 0, found, lambda child=child: child
            )

    def settle(state: _ModelState) -> Tuple[None, bool]:
        """Expand until the depth bound (violations surface in expand)."""
        return None, len(state.path) < depth

    initial = _ModelState(replicas, core_factory)
    root_violation = witness(initial, initial.violation())
    searched = search(
        Successor(initial.digest(), 0, root_violation, lambda: initial),
        expand,
        settle,
        max_states=max_states,
    )
    trace = searched.violations[0] if searched.violations else None
    if trace is not None:
        if shrink:
            actions = tuple(
                kernel_shrink(
                    trace.actions,
                    lambda kept: replace(
                        trace, actions=tuple(kept)
                    ).replay_violates(core_factory),
                )
            )
            trace = replace(trace, actions=actions)
        violation, _state = trace.replay(core_factory)
        if violation is None or violation[0] != trace.invariant:
            raise RuntimeError(
                "counterexample replay no longer violates "
                f"{trace.invariant!r}:\n{trace.describe()}"
            )
        trace = replace(trace, detail=violation[1])
    return CheckResult(
        ok=trace is None,
        protocol="replica",
        params=bounds,
        invariants=CONSENSUS_INVARIANTS,
        states_explored=searched.states_explored,
        transitions=searched.transitions,
        terminal_states=searched.terminal_states,
        elapsed_s=time.perf_counter() - started,
        counterexample=trace,
        truncated=searched.truncated,
    )
