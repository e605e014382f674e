"""The explicit-state bounded model checker over the dist simulator.

:func:`check_model` exhaustively explores every execution of a Byzantine
agreement protocol (``eig`` or ``phase_king``) in which the adversary
performs at most ``bound`` corruption events drawn from a finite
:class:`~repro.verify.states.CorruptionAlphabet` — every two-faced flip
subset, every omission round, every crash time and partial reach — for
every general value and every faulty coalition in the requested family.
Invariants (:mod:`repro.verify.invariants`) are evaluated on
``Network.honest_outputs()`` at each terminal state.

The search is :func:`repro.verify.kernel.search`, breadth-first over
*states*, not paths: each reached state is canonically hashed
(:func:`~repro.verify.states.network_digest`) and deduplicated with
budget dominance — the remaining corruption budget is the successor's
``budget``, so a state revisited with no more budget than before is
pruned, because the earlier visit could already do everything this one
can.  Exploration forks real :class:`~repro.dist.simulator.Network`
objects via the simulator's own deterministic
:meth:`~repro.dist.simulator.Network.fork` /
:meth:`~repro.dist.simulator.Network.step_round` hooks, so explored
executions are simulator executions by construction.  Three further
prunings keep small models in the milliseconds:

* *sibling reconstruction* — all children of one parent share their
  post-step node states (adversary actions only change the messages in
  flight), so the explorer steps the network once per parent, re-enacts
  message delivery for every corruption vector as pure data, and
  digests each candidate *before* materializing it; only states that
  survive deduplication pay for a
  :meth:`~repro.dist.simulator.Network.fork` (plus
  :meth:`~repro.dist.simulator.Network.set_pending_inboxes`);
* *exhausted-budget fast-forward* — a state with no corruption budget
  left (and no un-crashed choices pending) is deterministic, so it runs
  straight to the horizon without re-entering the frontier;
* *first-violation cut* — by default a config stops exploring once a
  violation is found (certification runs explore everything anyway).

Every counterexample is compiled to a
:class:`~repro.verify.traces.CounterexampleTrace`, re-executed through
the **unmodified** simulator to confirm it reproduces the violation
byte-for-byte, and 1-minimized by :func:`~repro.verify.kernel.shrink`
before being returned.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dist.agreement import EIGNode, PhaseKingNode
from repro.dist.simulator import Adversary, Message, Network, Node
from repro.verify.invariants import (
    BYZANTINE_AGREEMENT,
    Invariant,
    InvariantContext,
    first_violation,
)
from repro.verify.kernel import CheckResult, Successor, search
from repro.verify.states import (
    CRASH,
    DEAD_ACTION,
    HONEST_ACTION,
    CorruptionAction,
    CorruptionAlphabet,
    apply_action,
    inboxes_bytes,
    network_digest,
    nodes_bytes,
    state_digest,
)
from repro.verify.traces import CorruptionEvent, CounterexampleTrace, shrink_trace

__all__ = [
    "ModelConfig",
    "check_model",
    "coalition_family",
    "model_horizon",
]


_NODE_TYPES = {"eig": EIGNode, "phase_king": PhaseKingNode}


def model_horizon(protocol: str, t: int) -> int:
    """The protocol's round horizon (its fixed running time)."""
    if protocol == "eig":
        return t + 3
    if protocol == "phase_king":
        return 2 * t + 4
    known = ", ".join(sorted(_NODE_TYPES))
    raise ValueError(f"unknown protocol {protocol!r}; known: {known}")


def coalition_family(
    n: int, t: int, coalitions: Any = "family"
) -> List[frozenset]:
    """Expand a coalition spec into concrete faulty sets.

    ``"family"`` is the placement family of
    :func:`repro.dist.agreement.search_for_disagreement` — the last
    ``t`` nodes, and a coalition led by the general — kept as the
    default for parity with the existing search.  ``"all"`` is every
    size-``t`` coalition; note that for phase king at ``n = 4t`` this
    is strictly stronger (see ``docs/verify.md``: a faulty final-phase
    king breaks agreement at ``(4, 1)``, which the hand-picked family
    misses).  Any other value is taken as an iterable of explicit
    coalitions.
    """
    if t == 0:
        return [frozenset()]
    if coalitions == "family":
        family = [frozenset(range(n - t, n))]
        general_led = frozenset({0}) | frozenset(range(n - t + 1, n))
        if general_led not in family:
            family.append(general_led)
        return family
    if coalitions == "all":
        return [
            frozenset(combo)
            for combo in itertools.combinations(range(n), t)
        ]
    explicit = [frozenset(int(i) for i in coalition) for coalition in coalitions]
    for coalition in explicit:
        if any(not 0 <= i < n for i in coalition):
            raise ValueError(
                f"coalition {sorted(coalition)} names nodes outside 0..{n - 1}"
            )
    return explicit


class _ControlledAdversary(Adversary):
    """The explorer's programmable adversary: applies a per-round plan.

    ``plan`` maps faulty node id to the :class:`CorruptionAction` to
    apply this round (missing ids act honestly); ``capture`` records
    *every* node's uncorrupted outbox as it passes through — honest
    traffic included — which is how the explorer reconstructs sibling
    states' deliveries without stepping once per action vector.
    Contains no closures, so networks carrying it take
    :meth:`Network.fork`'s fast pickle path.
    """

    def __init__(self, faulty: Iterable[int]) -> None:
        super().__init__(faulty)
        self.plan: Dict[int, CorruptionAction] = {}
        self.capture = False
        self.captured: Dict[int, List[Any]] = {}

    def corrupt_outbox(self, node_id, round_number, outbox, n_nodes):
        """Capture the honest outbox, then apply the planned action."""
        if self.capture:
            self.captured[node_id] = list(outbox)
        if not self.is_faulty(node_id):
            return list(outbox)
        action = self.plan.get(node_id, HONEST_ACTION)
        return apply_action(action, outbox)


@dataclass
class _StateRecord:
    """One frontier state: a forked network plus search bookkeeping."""

    net: Network
    crashed: Dict[int, int]
    budget: int
    events: Tuple[CorruptionEvent, ...]


@dataclass(frozen=True)
class ModelConfig:
    """One root instance: a general value plus a faulty coalition."""

    protocol: str
    n: int
    t: int
    general_value: int
    faulty: frozenset

    def context(self) -> InvariantContext:
        """The invariant-evaluation context for this instance."""
        return InvariantContext(
            n=self.n,
            t=self.t,
            general_value=self.general_value,
            faulty=self.faulty,
        )


class _ConfigModel:
    """One :class:`ModelConfig`'s bounded state space, as a kernel model.

    ``forwarded`` counts the simulator rounds :meth:`settle` runs while
    fast-forwarding choice-free states; they are transitions the kernel
    never sees.
    """

    def __init__(
        self,
        config: ModelConfig,
        bound: int,
        invariants: Sequence[Invariant],
        alphabet: CorruptionAlphabet,
    ) -> None:
        self.config = config
        self.bound = bound
        self.invariants = tuple(invariants)
        self.horizon = model_horizon(config.protocol, config.t)
        self.ctx = config.context()
        self.actions_by_node = {
            node: alphabet.actions_for(node, config.n, config.faulty)
            for node in sorted(config.faulty)
        }
        self._msg_cache: Dict[Any, bytes] = {}
        self.forwarded = 0

    def root(self) -> Successor:
        """The round-0 network for this config."""
        config = self.config
        node_type = _NODE_TYPES[config.protocol]
        nodes: List[Node] = [
            node_type(
                i, config.n, config.t, config.general_value if i == 0 else None
            )
            for i in range(config.n)
        ]
        net = Network(nodes, _ControlledAdversary(config.faulty))
        record = _StateRecord(net, {}, self.bound, ())
        return Successor(
            network_digest(net, {}), self.bound, None, lambda: record
        )

    # -- expansion -----------------------------------------------------

    def _deliver(
        self, outboxes: Dict[int, List[Any]], n_total: int
    ) -> List[List[Message]]:
        """Re-enact ``Network._step_round`` delivery for given outboxes.

        Stamps the true sender on every message, drops out-of-range
        recipients, and buckets by recipient in sender order — exactly
        what one simulator round does with the same post-corruption
        outboxes, so the reconstructed inboxes are byte-identical to a
        stepped network's.
        """
        inboxes: List[List[Message]] = [[] for _ in range(n_total)]
        for sender in range(n_total):
            for message in outboxes.get(sender, ()):
                if 0 <= message.recipient < n_total:
                    inboxes[message.recipient].append(
                        Message(sender, message.recipient, message.payload)
                    )
        return inboxes

    @staticmethod
    def _materialize(
        scout: Network,
        inboxes: Optional[List[List[Message]]],
        crashed: Dict[int, int],
        budget: int,
        events: Tuple[CorruptionEvent, ...],
    ) -> _StateRecord:
        """Build one successor: the scout itself, or its fork with
        ``inboxes`` swapped in (siblings differ only in deliveries)."""
        if inboxes is None:
            net = scout
        else:
            net = scout.fork()
            net.set_pending_inboxes(inboxes)
        return _StateRecord(
            net=net, crashed=crashed, budget=budget, events=events
        )

    def expand(self, record: _StateRecord) -> List[Successor]:
        """All distinct one-round successors of one state.

        Pays for exactly one fork + step (the *scout*, which applies
        only the forced post-crash actions while capturing every node's
        honest outbox).  Each corruption vector's successor is then
        built as pure data — corrupted outboxes re-delivered through
        :meth:`_deliver` — and digested without touching a network; its
        ``build`` forks the scout only if the kernel admits it.
        Within-parent duplicates keep the max-budget representative.
        """
        config = self.config
        round_number = record.net.round_number
        cache = self._msg_cache
        forced_plan = {
            node: DEAD_ACTION for node in record.crashed
        }
        scout = record.net.fork()
        adversary: _ControlledAdversary = scout.adversary
        adversary.plan = dict(forced_plan)
        adversary.capture = True
        adversary.captured = {}
        scout.step_round()
        captured = adversary.captured
        adversary.capture = False
        adversary.plan = {}
        node_blob = nodes_bytes(scout.nodes)
        scout_digest = state_digest(
            scout.round_number,
            node_blob,
            inboxes_bytes(scout.pending_inboxes(), cache),
            record.crashed,
        )
        build = partial(
            self._materialize,
            scout,
            None,
            dict(record.crashed),
            record.budget,
            record.events,
        )
        candidates: Dict[bytes, Successor] = {
            scout_digest: Successor(scout_digest, record.budget, None, build)
        }
        live = [
            node for node in sorted(config.faulty) if node not in record.crashed
        ]
        if record.budget <= 0 or not live:
            return list(candidates.values())
        n_total = len(scout.nodes)
        # Honest (and crashed: they deliver nothing) outboxes are shared
        # by every sibling; only live faulty nodes' entries vary.
        base_outboxes: Dict[int, List[Any]] = {
            node_id: captured.get(node_id, [])
            for node_id in range(n_total)
            if node_id not in config.faulty
        }
        choices = [self.actions_by_node[node] for node in live]
        for vector in itertools.product(*choices):
            cost = sum(
                1 for action in vector if action.is_corruption
            )
            if cost == 0 or cost > record.budget:
                continue
            outboxes = dict(base_outboxes)
            for node, action in zip(live, vector):
                outboxes[node] = apply_action(action, captured.get(node, []))
            crashed = dict(record.crashed)
            events = list(record.events)
            for node, action in zip(live, vector):
                if not action.is_corruption:
                    continue
                events.append(
                    CorruptionEvent(
                        round=round_number, node=node, action=action
                    )
                )
                if action.kind == CRASH:
                    crashed[node] = round_number
            inboxes = self._deliver(outboxes, n_total)
            digest = state_digest(
                scout.round_number,
                node_blob,
                inboxes_bytes(inboxes, cache),
                crashed,
            )
            budget = record.budget - cost
            prior = candidates.get(digest)
            if prior is not None and prior.budget >= budget:
                continue
            build = partial(
                self._materialize,
                scout,
                inboxes,
                crashed,
                budget,
                tuple(events),
            )
            candidates[digest] = Successor(digest, budget, None, build)
        return list(candidates.values())

    def settle(
        self, record: _StateRecord
    ) -> Tuple[Optional[CounterexampleTrace], bool]:
        """Judge a state at the horizon; fast-forward a choice-free one.

        Every other state is expanded further.  Fast-forwarding steps
        the very network this state was built on, which is why the
        kernel builds all of a level's siblings before settling any.
        """
        if record.net.round_number < self.horizon:
            if not self._is_deterministic(record):
                return None, True
            self._fast_forward(record)
        return self._check_terminal(record), False

    def _is_deterministic(self, record: _StateRecord) -> bool:
        """Whether no adversary choice remains from this state on."""
        if record.budget <= 0:
            return True
        return all(
            node in record.crashed for node in self.config.faulty
        )

    def _fast_forward(self, record: _StateRecord) -> None:
        """Run a choice-free state straight to the horizon."""
        net = record.net
        adversary: _ControlledAdversary = net.adversary
        adversary.plan = {node: DEAD_ACTION for node in record.crashed}
        while net.round_number < self.horizon:
            net.step_round()
            self.forwarded += 1
        adversary.plan = {}

    def _check_terminal(
        self, record: _StateRecord
    ) -> Optional[CounterexampleTrace]:
        """Evaluate the invariants on one horizon state."""
        outputs = record.net.honest_outputs()
        violated = first_violation(self.invariants, outputs, self.ctx)
        if violated is None:
            return None
        return CounterexampleTrace(
            protocol=self.config.protocol,
            n=self.config.n,
            t=self.config.t,
            general_value=self.config.general_value,
            faulty=tuple(sorted(self.config.faulty)),
            invariant=violated,
            events=record.events,
            bound=self.bound,
            honest_outputs=dict(outputs),
        )


def check_model(
    protocol: str,
    n: int,
    t: int,
    *,
    bound: int,
    general_values: Sequence[int] = (0, 1),
    coalitions: Any = "family",
    invariants: Sequence[Invariant] = BYZANTINE_AGREEMENT,
    alphabet: Optional[CorruptionAlphabet] = None,
    max_states: int = 500_000,
    stop_on_violation: bool = True,
    shrink: bool = True,
) -> CheckResult:
    """Exhaustively check a protocol up to a corruption-event bound.

    Explores every config (general value x faulty coalition), every
    schedule of at most ``bound`` corruption events from ``alphabet``,
    admitting at most ``max_states`` states per config.  Returns a
    :class:`~repro.verify.kernel.CheckResult`; on violation its
    ``counterexample`` is a :class:`~repro.verify.traces.CounterexampleTrace`
    that has been (1) replayed through the unmodified simulator and
    confirmed to reproduce the same honest outputs and the same
    invariant violation, and (2) greedily shrunk to a 1-minimal event
    set (when ``shrink``).

    Raises ``ValueError`` on parameters that would make the verdict
    vacuous (no general values, no coalitions, ``max_states < 1``), and
    ``RuntimeError`` if a checker-found violation fails to reproduce on
    replay — that would mean explorer and simulator semantics diverged,
    which is a bug, never a finding.
    """
    if protocol not in _NODE_TYPES:
        known = ", ".join(sorted(_NODE_TYPES))
        raise ValueError(f"unknown protocol {protocol!r}; known: {known}")
    if n < 2:
        raise ValueError(f"need at least two players, got n={n}")
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got n={n}, t={t}")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    configs = [
        ModelConfig(protocol, n, t, int(general_value), faulty)
        for general_value in general_values
        for faulty in coalition_family(n, t, coalitions)
    ]
    if not configs:
        raise ValueError(
            "nothing to check: need at least one general value and one "
            "coalition"
        )
    alphabet = alphabet if alphabet is not None else CorruptionAlphabet()
    started = time.perf_counter()
    result = CheckResult(
        ok=True,
        protocol=protocol,
        params={"n": n, "t": t, "bound": bound},
        invariants=tuple(inv.name for inv in invariants),
    )
    stats: List[Dict[str, Any]] = []
    for config in configs:
        model = _ConfigModel(config, bound, invariants, alphabet)
        found = search(
            model.root(),
            model.expand,
            model.settle,
            max_states=max_states,
            stop_on_violation=stop_on_violation,
        )
        result.states_explored += found.states_explored
        result.transitions += found.transitions + model.forwarded
        result.terminal_states += found.terminal_states
        result.truncated = result.truncated or found.truncated
        stats.append(
            {
                "general_value": config.general_value,
                "faulty": sorted(config.faulty),
                "states": found.states_explored,
                "violations": len(found.violations),
            }
        )
        if found.violations and result.counterexample is None:
            trace = found.violations[0]
            replayed = trace.replay(record_trace=False)
            if dict(replayed.outputs) != dict(trace.honest_outputs):
                raise RuntimeError(
                    "counterexample replay diverged from exploration: "
                    f"{dict(replayed.outputs)} != "
                    f"{dict(trace.honest_outputs)} for\n{trace.describe()}"
                )
            if not trace.replay_violates(replayed):
                raise RuntimeError(
                    "counterexample replay no longer violates "
                    f"{trace.invariant!r}:\n{trace.describe()}"
                )
            result.counterexample = shrink_trace(trace) if shrink else trace
            result.ok = False
            if stop_on_violation:
                break
    result.configs = tuple(stats)
    result.elapsed_s = time.perf_counter() - started
    return result
