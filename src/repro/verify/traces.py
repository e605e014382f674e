"""Replayable, shrinkable counterexample traces.

A :class:`CounterexampleTrace` is the checker's violation artifact: the
model instance (protocol, ``n``, ``t``, general value, faulty
coalition) plus the exact sequence of :class:`CorruptionEvent`\\ s the
adversary performed.  It compiles to a concrete adversary for the
*unmodified* simulator — a :class:`repro.dist.faults.CrashAdversary`
(equivalently a :class:`~repro.dist.faults.CrashSchedule`) when every
event is a crash, a :class:`~repro.dist.faults.ScriptedAdversary`
otherwise — so :meth:`CounterexampleTrace.replay` re-executes the
violation through the same ``run_*_agreement`` entry points every test
and benchmark uses, byte-for-byte.

Traces serialize to plain JSON (:meth:`to_json_obj` / ``save`` /
``load``) and shrink by greedy deletion (:func:`shrink_trace`, on
:func:`repro.verify.kernel.shrink`): drop one corruption event at a
time, keep the deletion whenever the replayed execution still violates
the same invariant, repeat to a fixed point.  The result is 1-minimal —
removing any single remaining event makes the violation disappear.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.dist.agreement import PROTOCOL_RUNNERS, AgreementOutcome
from repro.dist.faults import CrashAdversary, CrashSchedule, ScriptedAdversary
from repro.dist.simulator import Adversary
from repro.verify.invariants import (
    InvariantContext,
    first_violation,
    get_invariant,
)
from repro.verify.kernel import TraceFile, shrink
from repro.verify.states import (
    CRASH,
    CorruptionAction,
    apply_action,
)

__all__ = [
    "CorruptionEvent",
    "CounterexampleTrace",
    "shrink_trace",
]


@dataclass(frozen=True)
class CorruptionEvent:
    """One adversary choice: ``node`` applied ``action`` in ``round``."""

    round: int
    node: int
    action: CorruptionAction

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``r3 node1 flip->[3]``."""
        return f"r{self.round} node{self.node} {self.action.describe()}"

    def to_json_obj(self) -> Dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_json_obj`)."""
        return {
            "round": self.round,
            "node": self.node,
            "action": self.action.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "CorruptionEvent":
        """Rebuild an event from its :meth:`to_json_obj` form."""
        return cls(
            round=int(obj["round"]),
            node=int(obj["node"]),
            action=CorruptionAction.from_json_obj(obj["action"]),
        )


class _EventScript:
    """The compiled, picklable script of a trace's corruption events.

    Callable with the :class:`~repro.dist.faults.ScriptedAdversary`
    signature.  Crash events persist (dead from the crash round on, with
    the recorded partial reach in the crash round itself — identical to
    :class:`~repro.dist.faults.CrashAdversary`); every other event is a
    single-round :func:`repro.verify.states.apply_action`.
    """

    def __init__(self, events: Tuple[CorruptionEvent, ...]) -> None:
        self.table: Dict[Tuple[int, int], CorruptionAction] = {}
        self.crash_rounds: Dict[int, int] = {}
        self.crash_reach: Dict[int, int] = {}
        for event in events:
            if event.action.kind == CRASH:
                self.crash_rounds[event.node] = event.round
                self.crash_reach[event.node] = event.action.reach
            else:
                self.table[(event.node, event.round)] = event.action

    def __call__(self, node_id, round_number, honest_outbox, n_nodes):
        crash = self.crash_rounds.get(node_id)
        if crash is not None and round_number >= crash:
            if round_number > crash:
                return []
            reach = self.crash_reach.get(node_id, 0)
            return [m for m in honest_outbox if m.recipient < reach]
        action = self.table.get((node_id, round_number))
        if action is None:
            return list(honest_outbox)
        return apply_action(action, honest_outbox)


@dataclass(frozen=True)
class CounterexampleTrace(TraceFile):
    """A minimal, replayable witness of an invariant violation.

    ``events`` is the adversary's full play, in round order.
    """

    protocol: str
    n: int
    t: int
    general_value: int
    faulty: Tuple[int, ...]
    invariant: str
    events: Tuple[CorruptionEvent, ...]
    bound: int = 0
    honest_outputs: Mapping[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        crashes = [e.node for e in self.events if e.action.kind == CRASH]
        if len(crashes) != len(set(crashes)):
            raise ValueError("a node cannot crash twice in one trace")

    @property
    def steps(self) -> Tuple[CorruptionEvent, ...]:
        """The trace's steps: its corruption events."""
        return self.events

    # -- compilation to simulator adversaries --------------------------

    def is_crash_only(self) -> bool:
        """Whether every event is a crash (fail-stop counterexample)."""
        return bool(self.events) and all(
            event.action.kind == CRASH for event in self.events
        )

    def crash_schedule(self) -> Optional[CrashSchedule]:
        """The trace as a :class:`CrashSchedule`, if crash-only."""
        if not self.is_crash_only():
            return None
        return CrashSchedule(
            {event.node: event.round for event in self.events}
        )

    def to_adversary(self) -> Adversary:
        """Compile to a concrete adversary for the unmodified simulator.

        Crash-only traces become a
        :class:`~repro.dist.faults.CrashAdversary` (the
        :class:`~repro.dist.faults.CrashSchedule` form of the attack);
        anything else becomes a
        :class:`~repro.dist.faults.ScriptedAdversary` over the event
        table.
        """
        if self.is_crash_only():
            return CrashAdversary(
                self.faulty,
                crash_round={e.node: e.round for e in self.events},
                partial_reach={
                    e.node: e.action.reach for e in self.events
                },
            )
        return ScriptedAdversary(self.faulty, _EventScript(self.events))

    # -- replay --------------------------------------------------------

    def replay(self, record_trace: bool = True) -> AgreementOutcome:
        """Re-execute the attack through the unmodified simulator.

        Runs the protocol's standard entry point
        (:data:`repro.dist.agreement.PROTOCOL_RUNNERS`) with the compiled
        adversary; the returned outcome's honest outputs reproduce the
        checker's explored execution byte-for-byte.
        """
        try:
            runner = PROTOCOL_RUNNERS[self.protocol]
        except KeyError:
            known = ", ".join(sorted(PROTOCOL_RUNNERS))
            raise ValueError(
                f"unknown protocol {self.protocol!r}; known: {known}"
            ) from None
        return runner(
            self.n,
            self.t,
            self.general_value,
            adversary=self.to_adversary(),
            record_trace=record_trace,
        )

    def replay_violates(
        self, outcome: Optional[AgreementOutcome] = None
    ) -> bool:
        """Whether a (fresh or given) replay violates ``self.invariant``."""
        if outcome is None:
            outcome = self.replay(record_trace=False)
        ctx = InvariantContext(
            n=self.n,
            t=self.t,
            general_value=self.general_value,
            faulty=frozenset(self.faulty),
        )
        violated = first_violation(
            [get_invariant(self.invariant)], outcome.outputs, ctx
        )
        return violated == self.invariant

    def describe(self) -> str:
        """Multi-line human-readable rendering of the whole trace."""
        lines = [
            f"{self.protocol} n={self.n} t={self.t} "
            f"general_value={self.general_value} "
            f"faulty={sorted(self.faulty)} violates {self.invariant!r} "
            f"({len(self.events)} corruption events, bound {self.bound})"
        ]
        lines.extend(f"  {event.describe()}" for event in self.events)
        if self.honest_outputs:
            lines.append(f"  honest outputs: {dict(self.honest_outputs)}")
        return "\n".join(lines)

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> Dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_json_obj`)."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "general_value": self.general_value,
            "faulty": list(self.faulty),
            "invariant": self.invariant,
            "bound": self.bound,
            "events": [event.to_json_obj() for event in self.events],
            "honest_outputs": {
                str(node): value
                for node, value in self.honest_outputs.items()
            },
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "CounterexampleTrace":
        """Rebuild a trace from its :meth:`to_json_obj` form.

        Keys it does not know (such as the ``seed`` older traces
        carried) are ignored.
        """
        return cls(
            protocol=str(obj["protocol"]),
            n=int(obj["n"]),
            t=int(obj["t"]),
            general_value=int(obj["general_value"]),
            faulty=tuple(int(x) for x in obj["faulty"]),
            invariant=str(obj["invariant"]),
            bound=int(obj.get("bound", 0)),
            events=tuple(
                CorruptionEvent.from_json_obj(e) for e in obj["events"]
            ),
            honest_outputs={
                int(node): value
                for node, value in obj.get("honest_outputs", {}).items()
            },
        )


def shrink_trace(trace: CounterexampleTrace) -> CounterexampleTrace:
    """1-minimize a trace's corruption events by greedy deletion.

    A deletion sticks whenever the replayed execution still violates
    the same invariant (:func:`repro.verify.kernel.shrink`).  The
    shrunk trace's honest outputs are re-recorded from its own replay.
    """
    events = tuple(
        shrink(
            trace.events,
            lambda kept: replace(trace, events=tuple(kept)).replay_violates(),
        )
    )
    if events == trace.events:
        return trace
    shrunk = replace(trace, events=events)
    outcome = shrunk.replay(record_trace=False)
    return replace(shrunk, honest_outputs=dict(outcome.outputs))
