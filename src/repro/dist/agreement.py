"""Byzantine agreement: protocols, spec checker, and impossibility search.

This module executes the Section 2 claims of Halpern (PODC 2008):

* With a trusted **mediator**, Byzantine agreement is trivially solvable
  for any number of faulty players (:func:`run_mediator_agreement` —
  three rounds: general reports, mediator relays, players obey).  The
  mediator is literally a :class:`repro.mediators.base.Mediator`
  object, the same one whose honesty equilibrium in Γd is certified by
  :class:`repro.mediators.base.MediatedGame`.
* Replacing the mediator by **cheap talk** works iff ``n > 3t``:
  :func:`run_eig_agreement` is the exponential-information-gathering
  protocol (Pease–Shostak–Lamport, in Lynch/Aspnes tree form), and
  :func:`run_phase_king_agreement` the linear-message phase king
  (Berman–Garay, needs ``n > 4t``).
* The impossibility direction is made *executable*:
  :func:`search_for_disagreement` enumerates a family of adversaries
  (all two-faced scripted attacks plus seeded random Byzantine noise)
  and returns a concrete violating execution whenever ``n <= 3t`` —
  e.g. for ``(n, t) = (3, 1)`` — and nothing for ``(4, 1)``.

The BA specification itself is :func:`check_agreement`: *agreement*
(all honest outputs equal) always; *validity* (outputs equal the
general's value) only when the general is honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dist.simulator import (
    Adversary,
    ByzantineRandomAdversary,
    Message,
    Network,
    NoFaultAdversary,
    Node,
    RoundTrace,
    ScriptedAdversary,
)
from repro.mediators.base import Mediator, byzantine_agreement_mediator

__all__ = [
    "AgreementOutcome",
    "EIGNode",
    "MediatorNode",
    "PROTOCOL_RUNNERS",
    "PhaseKingNode",
    "check_agreement",
    "flip_payload",
    "run_eig_agreement",
    "run_mediator_agreement",
    "run_phase_king_agreement",
    "search_for_disagreement",
    "two_faced",
    "two_faced_script",
]


def _bit(value: Any) -> int:
    """Coerce arbitrary (possibly Byzantine) data to a valid decision bit."""
    return 1 if value == 1 else 0


# ----------------------------------------------------------------------
# The specification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementOutcome:
    """One execution's verdict against the BA specification.

    ``outputs`` holds honest nodes only; faulty nodes have no spec to
    satisfy.  ``validity`` is vacuously true when the general is faulty
    (the classical weakening that makes agreement the binding clause).
    """

    outputs: Dict[int, Optional[int]]
    general_value: int
    general_faulty: bool
    agreement: bool
    validity: bool
    rounds: int = 0
    protocol: str = ""
    trace: Tuple[RoundTrace, ...] = field(default=(), repr=False, compare=True)

    @property
    def correct(self) -> bool:
        return self.agreement and self.validity


def check_agreement(
    outputs: Dict[int, Optional[int]],
    general_value: int,
    general_faulty: bool,
    rounds: int = 0,
    protocol: str = "",
    trace: Iterable[RoundTrace] = (),
) -> AgreementOutcome:
    """Check the honest outputs against the Byzantine agreement spec."""
    values = list(outputs.values())
    agreement = all(v is not None for v in values) and len(set(values)) <= 1
    validity = bool(general_faulty) or all(v == general_value for v in values)
    return AgreementOutcome(
        outputs=dict(outputs),
        general_value=general_value,
        general_faulty=bool(general_faulty),
        agreement=agreement,
        validity=validity,
        rounds=rounds,
        protocol=protocol,
        trace=tuple(trace),
    )


def _validate_params(n: int, t: int) -> None:
    if n < 2:
        raise ValueError(f"need at least two players, got n={n}")
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got n={n}, t={t}")


# ----------------------------------------------------------------------
# EIG (exponential information gathering) cheap talk
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _paths(n: int, length: int) -> Tuple[Tuple[int, ...], ...]:
    """All relay paths: tuples of distinct ids starting at the general."""
    if length == 1:
        return ((0,),)
    return tuple(
        path + (j,)
        for path in _paths(n, length - 1)
        for j in range(n)
        if j not in path
    )


class EIGNode(Node):
    """One player of the EIG Byzantine Generals protocol.

    The value tree is indexed by relay paths ``(0, j1, ..., jk)``
    ("``jk`` told me that ... told me the general said v").  Rounds:
    0 — the general broadcasts; ``1..t`` — everyone relays the level it
    just learned; ``t+1`` — resolve the tree bottom-up by majority
    (default 0 on ties) and decide, announcing the decision; ``t+2`` —
    collect the announcements into :attr:`peer_decisions`, each node's
    local audit record of what everyone claims to have decided (honest
    entries match :attr:`output` whenever agreement holds — asserted in
    ``tests/test_determinism.py``).  Garbage from Byzantine senders is
    coerced to bits on receipt, so arbitrary payloads are just another
    adversary value.
    """

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        t: int,
        general_value: Optional[int] = None,
        default: int = 0,
    ) -> None:
        super().__init__(node_id, n_nodes)
        self.t = t
        self.general_value = general_value
        self.default = default
        self.tree: Dict[Tuple[int, ...], int] = {}
        self.peer_decisions: Dict[int, int] = {}

    def _store_level(self, level: int, inbox: List[Message]) -> None:
        for message in inbox:
            payload = message.payload if isinstance(message.payload, dict) else {}
            if level == 1:
                expected = _paths(self.n_nodes, 1) if message.sender == 0 else ()
            else:
                expected = tuple(
                    p for p in _paths(self.n_nodes, level) if p[-1] == message.sender
                )
            for path in expected:
                self.tree[path] = _bit(payload.get(path, self.default))

    def _resolve(self, path: Tuple[int, ...]) -> int:
        if len(path) >= self.t + 1:
            return self.tree.get(path, self.default)
        children = [
            path + (j,) for j in range(self.n_nodes) if j not in path
        ]
        if not children:
            return self.tree.get(path, self.default)
        ones = sum(self._resolve(child) for child in children)
        zeros = len(children) - ones
        if ones > zeros:
            return 1
        if zeros > ones:
            return 0
        return self.default

    def step(self, round_number, inbox):
        t = self.t
        if round_number == 0:
            if self.node_id == 0:
                return self.broadcast({(0,): _bit(self.general_value)})
            return []
        if round_number <= t + 1:
            self._store_level(round_number, inbox)
            if round_number <= t:
                relay = {
                    path + (self.node_id,): self.tree.get(path, self.default)
                    for path in _paths(self.n_nodes, round_number)
                    if self.node_id not in path
                }
                return self.broadcast(relay) if relay else []
            self.output = self._resolve((0,))
            return self.broadcast(("decide", self.output))
        if round_number == t + 2:
            for message in inbox:
                payload = message.payload
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 2
                    and payload[0] == "decide"
                ):
                    self.peer_decisions[message.sender] = _bit(payload[1])
        return []


def run_eig_agreement(
    n: int,
    t: int,
    general_value: int,
    adversary: Optional[Adversary] = None,
    record_trace: bool = False,
) -> AgreementOutcome:
    """EIG cheap-talk Byzantine agreement; correct whenever ``n > 3t``.

    ``t + 3`` rounds: the general's broadcast, ``t`` relay rounds, the
    resolve-and-announce round, and the announcement-collection round.
    Smaller ``n`` is deliberately allowed — that is how
    :func:`search_for_disagreement` exhibits the impossibility.
    """
    _validate_params(n, t)
    adversary = adversary if adversary is not None else NoFaultAdversary()
    nodes = [
        EIGNode(i, n, t, general_value if i == 0 else None) for i in range(n)
    ]
    net = Network(nodes, adversary, record_trace=record_trace)
    rounds = t + 3
    net.run(rounds)
    outputs = {
        i: nodes[i].output for i in range(n) if not adversary.is_faulty(i)
    }
    return check_agreement(
        outputs,
        general_value,
        adversary.is_faulty(0),
        rounds=rounds,
        protocol="eig",
        trace=net.trace,
    )


# ----------------------------------------------------------------------
# Phase king
# ----------------------------------------------------------------------


class PhaseKingNode(Node):
    """One player of the Berman–Garay phase king protocol (``n > 4t``).

    ``t + 1`` phases, each two rounds (preference exchange, then the
    phase's king breaks ties); kings are nodes ``0..t``, so at least one
    phase has an honest king, which locks agreement; a preference held
    by more than ``n/2 + t`` nodes can never be dislodged, which gives
    validity and persistence.
    """

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        t: int,
        general_value: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, n_nodes)
        self.t = t
        self.general_value = general_value
        self.pref = 0
        self._maj = 0
        self._mult = 0

    def _read_general(self, inbox: List[Message]) -> int:
        for message in inbox:
            payload = message.payload
            if (
                message.sender == 0
                and isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == "general"
            ):
                return _bit(payload[1])
        return 0

    def _count_prefs(self, phase: int, inbox: List[Message]) -> None:
        votes: Dict[int, int] = {}
        for message in inbox:
            payload = message.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == "pref"
                and payload[1] == phase
            ):
                votes[message.sender] = _bit(payload[2])
        ones = sum(votes.values())
        zeros = self.n_nodes - ones
        self._maj = 1 if ones > zeros else 0
        self._mult = max(ones, zeros)

    def _read_king(self, phase: int, inbox: List[Message]) -> int:
        king = phase - 1
        for message in inbox:
            payload = message.payload
            if (
                message.sender == king
                and isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == "king"
                and payload[1] == phase
            ):
                return _bit(payload[2])
        return 0

    def step(self, round_number, inbox):
        n, t = self.n_nodes, self.t
        if round_number == 0:
            if self.node_id == 0:
                return self.broadcast(("general", _bit(self.general_value)))
            return []
        if round_number == 1:
            self.pref = self._read_general(inbox)
            return self.broadcast(("pref", 1, self.pref))
        last_round = 2 * (t + 1) + 1
        if round_number > last_round:
            return []
        if round_number % 2 == 0:
            phase = round_number // 2
            self._count_prefs(phase, inbox)
            if self.node_id == phase - 1:
                return self.broadcast(("king", phase, self._maj))
            return []
        phase = (round_number - 1) // 2
        king_value = self._read_king(phase, inbox)
        if 2 * self._mult > n + 2 * t:
            self.pref = self._maj
        else:
            self.pref = king_value
        if phase == t + 1:
            self.output = self.pref
            return []
        return self.broadcast(("pref", phase + 1, self.pref))


def run_phase_king_agreement(
    n: int,
    t: int,
    general_value: int,
    adversary: Optional[Adversary] = None,
    record_trace: bool = False,
) -> AgreementOutcome:
    """Phase king Byzantine agreement; correct whenever ``n > 4t``.

    Linear message size (each node sends one bit per round) against
    EIG's exponential trees — the classical trade of fault threshold
    for communication.  ``2t + 4`` rounds.
    """
    _validate_params(n, t)
    adversary = adversary if adversary is not None else NoFaultAdversary()
    nodes = [
        PhaseKingNode(i, n, t, general_value if i == 0 else None)
        for i in range(n)
    ]
    net = Network(nodes, adversary, record_trace=record_trace)
    rounds = 2 * t + 4
    net.run(rounds)
    outputs = {
        i: nodes[i].output for i in range(n) if not adversary.is_faulty(i)
    }
    return check_agreement(
        outputs,
        general_value,
        adversary.is_faulty(0),
        rounds=rounds,
        protocol="phase_king",
        trace=net.trace,
    )


# ----------------------------------------------------------------------
# The mediator protocol (routed through repro.mediators)
# ----------------------------------------------------------------------


class MediatorNode(Node):
    """A trusted node wrapping a :class:`repro.mediators.base.Mediator`.

    Reads the general's type report, asks the mediator object for the
    recommended action profile, and tells each player its own component
    — the distributed face of the Γd extension.
    """

    def __init__(
        self, node_id: int, n_nodes: int, mediator: Mediator, n_players: int
    ) -> None:
        super().__init__(node_id, n_nodes)
        self.mediator = mediator
        self.n_players = n_players

    def step(self, round_number, inbox):
        if round_number != 1:
            return []
        report = 0
        for message in inbox:
            payload = message.payload
            if (
                message.sender == 0
                and isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == "report"
            ):
                report = _bit(payload[1])
        reported_types = (report,) + (0,) * (self.n_players - 1)
        distribution = self.mediator.recommendation_distribution(reported_types)
        profile = max(distribution.items(), key=lambda item: item[1])[0]
        return [
            Message(self.node_id, player, ("recommend", profile[player]))
            for player in range(self.n_players)
        ]


class _MediatedPlayerNode(Node):
    """Honest player strategy: report truthfully, obey the mediator."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        mediator_id: int,
        general_value: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, n_nodes)
        self.mediator_id = mediator_id
        self.general_value = general_value

    def step(self, round_number, inbox):
        if round_number == 0 and self.node_id == 0:
            return self.send(
                self.mediator_id, ("report", _bit(self.general_value))
            )
        if round_number == 2:
            for message in inbox:
                payload = message.payload
                if (
                    message.sender == self.mediator_id
                    and isinstance(payload, tuple)
                    and len(payload) == 2
                    and payload[0] == "recommend"
                ):
                    self.output = _bit(payload[1])
        return []


def run_mediator_agreement(
    n: int,
    t: int = 1,
    adversary: Optional[Adversary] = None,
    general_value: int = 1,
    record_trace: bool = False,
) -> AgreementOutcome:
    """Byzantine agreement with a trusted mediator: three rounds, always.

    Round 0 the general reports its type to the mediator; round 1 the
    mediator (a :func:`repro.mediators.base.byzantine_agreement_mediator`)
    relays the recommended action to everyone; round 2 honest players
    obey.  Honest players only listen to the mediator, so *any* number
    of faulty players is tolerated — the §2 observation that makes the
    "can cheap talk replace the mediator?" question interesting at all.
    The mediator itself (node id ``n``) cannot be corrupted.
    """
    _validate_params(n, t)
    adversary = adversary if adversary is not None else NoFaultAdversary()
    mediator_id = n
    if any(i >= n for i in adversary.faulty):
        raise ValueError(
            "the mediator is trusted by assumption: only players 0..n-1 "
            "may be corrupted"
        )
    nodes: List[Node] = [
        _MediatedPlayerNode(
            i, n + 1, mediator_id, general_value if i == 0 else None
        )
        for i in range(n)
    ]
    nodes.append(
        MediatorNode(mediator_id, n + 1, byzantine_agreement_mediator(n), n)
    )
    net = Network(nodes, adversary, record_trace=record_trace)
    net.run(3)
    outputs = {
        i: nodes[i].output for i in range(n) if not adversary.is_faulty(i)
    }
    return check_agreement(
        outputs,
        general_value,
        adversary.is_faulty(0),
        rounds=3,
        protocol="mediator",
        trace=net.trace,
    )


# ----------------------------------------------------------------------
# The impossibility side: adversary search
# ----------------------------------------------------------------------


def flip_payload(value: Any) -> Any:
    """Flip every decision bit in a payload, recursing into structure.

    Ints in ``{0, 1}`` flip; bools and everything else pass through;
    dicts, tuples and lists recurse (EIG trees, phase-king votes).
    """
    if isinstance(value, dict):
        return {key: flip_payload(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(flip_payload(item) for item in value)
    if isinstance(value, list):
        return [flip_payload(item) for item in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return 1 - value
    return value


def two_faced(
    outbox: Sequence[Message], targets: Iterable[int]
) -> List[Message]:
    """``outbox`` with every decision bit flipped in messages to ``targets``.

    One round of the two-faced attack; :func:`two_faced_script` applies
    it every round, and the model checker's ``flip`` action applies it
    once.
    """
    flip_for = frozenset(targets)
    return [
        dataclass_replace(message, payload=flip_payload(message.payload))
        if message.recipient in flip_for
        else message
        for message in outbox
    ]


def two_faced_script(flip_for: Iterable[int]):
    """The canonical ``t >= n/3`` attack: tell two halves two stories.

    Returns a :class:`ScriptedAdversary` script under which the faulty
    node sends its honest messages to most recipients but flips every
    decision bit in messages to the nodes in ``flip_for``
    (:func:`two_faced`) — splitting the honest players into two worlds
    that each look internally consistent.
    """
    targets = frozenset(flip_for)

    def script(node_id, round_number, honest_outbox, n_nodes):
        return two_faced(honest_outbox, targets)

    return script


#: Each agreement protocol's standard entry point, by name.
PROTOCOL_RUNNERS = {
    "eig": run_eig_agreement,
    "phase_king": run_phase_king_agreement,
}


def search_for_disagreement(
    n: int,
    t: int,
    protocol: str = "eig",
    general_values: Sequence[int] = (0, 1),
    random_seeds: int = 10,
) -> Optional[AgreementOutcome]:
    """Search a family of adversaries for a BA specification violation.

    Candidates, per general value and per faulty coalition (the last
    ``t`` nodes, and a coalition led by the general): every two-faced
    scripted attack (one per non-empty subset of honest recipients) and
    ``random_seeds`` random Byzantine adversaries.  Returns the first
    violating :class:`AgreementOutcome`, or ``None`` if the protocol
    survives the whole family — which it provably does when the
    threshold (``n > 3t`` for EIG) holds, and provably cannot when
    ``n <= 3t``: this is Pease–Shostak–Lamport impossibility run as a
    program.
    """
    if protocol not in PROTOCOL_RUNNERS:
        raise ValueError(
            f"unknown protocol {protocol!r}; "
            f"choose from {sorted(PROTOCOL_RUNNERS)}"
        )
    _validate_params(n, t)
    runner = PROTOCOL_RUNNERS[protocol]
    faulty_sets: List[frozenset] = []
    if t > 0:
        faulty_sets.append(frozenset(range(n - t, n)))
        faulty_sets.append(frozenset({0}) | frozenset(range(n - t + 1, n)))
    for general_value in general_values:
        for faulty in faulty_sets:
            honest = [i for i in range(n) if i not in faulty]
            adversaries: List[Adversary] = []
            for size in range(1, len(honest) + 1):
                for subset in itertools.combinations(honest, size):
                    adversaries.append(
                        ScriptedAdversary(faulty, two_faced_script(subset))
                    )
            for seed in range(random_seeds):
                adversaries.append(ByzantineRandomAdversary(faulty, seed=seed))
            for adversary in adversaries:
                outcome = runner(n, t, general_value, adversary)
                if not outcome.correct:
                    return outcome
    return None
