"""Canonical state hashing and the finite corruption alphabet.

The bounded model checker (:mod:`repro.verify.explorer`) identifies a
simulator state by the sha256 digest of a *canonical* byte encoding of
``(round, node states, pending inboxes, crash record)``.  Two execution
prefixes that land in the same state are explored once — the hash-consing
that makes exhaustive exploration of small models tractable.  The digest
is the successor's dedup key in :func:`repro.verify.kernel.search`.

The nondeterminism being explored is the adversary's: each round, each
live faulty node picks one :class:`CorruptionAction` from a finite
:class:`CorruptionAlphabet` —

* ``honest`` — forward the protocol-prescribed outbox unchanged (free);
* ``flip(targets)`` — the two-faced attack: flip every decision bit in
  messages to ``targets`` (:func:`repro.dist.agreement.two_faced`, the
  round :func:`~repro.dist.agreement.two_faced_script` repeats);
* ``silence`` — drop the whole outbox this round (omission fault);
* ``crash(reach)`` — fail-stop mid-broadcast: recipients ``< reach``
  still hear this round, then the node is dead forever (matching
  :class:`repro.dist.faults.CrashAdversary` semantics tick-for-tick);
* ``dead`` — the forced, free continuation of a crash.

Every non-honest, non-dead action spends one unit of the checker's
*bound*, so "exhaustive up to bound ``b``" means: every execution in
which the adversary corrupts at most ``b`` round-outboxes, for every
choice from the alphabet at each of them.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dist.agreement import two_faced
from repro.dist.simulator import Message, Network

__all__ = [
    "CRASH",
    "DEAD",
    "FLIP",
    "HONEST",
    "SILENCE",
    "CorruptionAction",
    "CorruptionAlphabet",
    "apply_action",
    "canonical_bytes",
    "inboxes_bytes",
    "message_bytes",
    "network_digest",
    "nodes_bytes",
    "state_digest",
]

HONEST = "honest"
FLIP = "flip"
SILENCE = "silence"
CRASH = "crash"
DEAD = "dead"

_KINDS = (HONEST, FLIP, SILENCE, CRASH, DEAD)


@dataclass(frozen=True)
class CorruptionAction:
    """One letter of the corruption alphabet, applied to one outbox.

    ``targets`` is meaningful for ``flip`` (the recipients whose payload
    bits are flipped); ``reach`` for ``crash`` (recipients ``< reach``
    still receive the crash-round messages, as in
    :class:`repro.dist.faults.CrashAdversary`).
    """

    kind: str
    targets: Tuple[int, ...] = ()
    reach: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown action kind {self.kind!r}; choose from {_KINDS}"
            )

    @property
    def is_corruption(self) -> bool:
        """Whether this action spends one unit of the checker's bound."""
        return self.kind in (FLIP, SILENCE, CRASH)

    def describe(self) -> str:
        """Human-readable one-liner (used in trace listings)."""
        if self.kind == FLIP:
            return f"flip->{list(self.targets)}"
        if self.kind == CRASH:
            return f"crash(reach={self.reach})"
        return self.kind

    def to_json_obj(self) -> Dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_json_obj`)."""
        obj: Dict[str, Any] = {"kind": self.kind}
        if self.targets:
            obj["targets"] = list(self.targets)
        if self.kind == CRASH:
            obj["reach"] = self.reach
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "CorruptionAction":
        """Rebuild an action from its :meth:`to_json_obj` form."""
        return cls(
            kind=str(obj["kind"]),
            targets=tuple(int(x) for x in obj.get("targets", ())),
            reach=int(obj.get("reach", 0)),
        )


HONEST_ACTION = CorruptionAction(HONEST)
DEAD_ACTION = CorruptionAction(DEAD)


def apply_action(
    action: CorruptionAction, outbox: Sequence[Message]
) -> List[Message]:
    """Apply one corruption action to an honest outbox.

    This is *the* definition of each alphabet letter: the explorer uses
    it to branch, and :class:`repro.verify.traces.CounterexampleTrace`
    replays through it, so explored and replayed executions agree
    byte-for-byte.
    """
    if action.kind in (HONEST,):
        return list(outbox)
    if action.kind == FLIP:
        return two_faced(outbox, action.targets)
    if action.kind in (SILENCE, DEAD):
        return []
    if action.kind == CRASH:
        return [m for m in outbox if m.recipient < action.reach]
    raise ValueError(f"unknown action kind {action.kind!r}")


@dataclass(frozen=True)
class CorruptionAlphabet:
    """The per-node, per-round menu of adversary choices.

    ``flip_targets`` selects the flip-subset universe: ``"honest"``
    (default — subsets of honest nodes, the family
    :func:`repro.dist.agreement.search_for_disagreement` draws from) or
    ``"all"`` (subsets of every node, including fellow faulty ones).
    ``crash_reaches`` defaults to every partial reach ``0..n``;
    ``max_flip_targets`` caps the flip-subset size to trim branching on
    larger models.
    """

    flips: bool = True
    flip_targets: str = "honest"
    silence: bool = True
    crash: bool = True
    max_flip_targets: Optional[int] = None
    crash_reaches: Optional[Tuple[int, ...]] = None

    def actions_for(
        self, node_id: int, n: int, faulty: Iterable[int]
    ) -> Tuple[CorruptionAction, ...]:
        """Enumerate the actions available to one live faulty node."""
        faulty_set = frozenset(faulty)
        actions: List[CorruptionAction] = [HONEST_ACTION]
        if self.flips:
            if self.flip_targets == "honest":
                universe = sorted(set(range(n)) - faulty_set)
            elif self.flip_targets == "all":
                universe = list(range(n))
            else:
                raise ValueError(
                    f"flip_targets must be 'honest' or 'all', "
                    f"got {self.flip_targets!r}"
                )
            cap = (
                len(universe)
                if self.max_flip_targets is None
                else min(self.max_flip_targets, len(universe))
            )
            for size in range(1, cap + 1):
                for combo in itertools.combinations(universe, size):
                    actions.append(CorruptionAction(FLIP, targets=combo))
        if self.silence:
            actions.append(CorruptionAction(SILENCE))
        if self.crash:
            reaches = (
                tuple(range(n + 1))
                if self.crash_reaches is None
                else self.crash_reaches
            )
            for reach in reaches:
                actions.append(CorruptionAction(CRASH, reach=reach))
        return tuple(actions)


# ----------------------------------------------------------------------
# Canonical encoding + digests
# ----------------------------------------------------------------------


def canonical_bytes(obj: Any) -> bytes:
    """Deterministically encode a state object to bytes.

    Type-tagged and order-normalized (dict items and set elements sorted
    by their own canonical encodings), so structurally equal states —
    including EIG trees keyed by tuples — encode identically regardless
    of insertion order.  Unknown types are a hard error: silent fallback
    would turn hash-consing into silent unsoundness.
    """
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, int):
        out += b"i%d;" % obj
    elif isinstance(obj, float):
        out += b"f" + repr(obj).encode("ascii") + b";"
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
    elif isinstance(obj, bytes):
        out += b"b%d:" % len(obj)
        out += obj
    elif isinstance(obj, Message):
        out += b"M("
        _encode(obj.sender, out)
        _encode(obj.recipient, out)
        _encode(obj.payload, out)
        out += b")"
    elif isinstance(obj, tuple):
        out += b"("
        for item in obj:
            _encode(item, out)
        out += b")"
    elif isinstance(obj, list):
        out += b"["
        for item in obj:
            _encode(item, out)
        out += b"]"
    elif isinstance(obj, (set, frozenset)):
        out += b"{"
        for blob in sorted(canonical_bytes(item) for item in obj):
            out += blob
        out += b"}"
    elif isinstance(obj, dict):
        out += b"<"
        try:
            # Fast path: homogeneous sortable keys (str attribute names,
            # int node ids, tuple relay paths) sort directly.
            items = sorted(obj.items())
        except TypeError:
            items = None
        if items is not None:
            for key, value in items:
                _encode(key, out)
                _encode(value, out)
        else:
            for key_blob, value_blob in sorted(
                (canonical_bytes(k), canonical_bytes(v))
                for k, v in obj.items()
            ):
                out += key_blob
                out += value_blob
        out += b">"
    else:
        raise TypeError(
            f"cannot canonically encode {type(obj).__name__!r}; "
            "extend repro.verify.states._encode for new payload types"
        )


def message_bytes(
    message: Message, cache: Optional[Dict[Message, bytes]] = None
) -> bytes:
    """Canonical bytes of one message, memoized when hashable.

    Identical messages recur constantly across sibling states (every
    honest sender's traffic is shared by all children of a parent), so
    the explorer threads one cache through a whole config's exploration.
    Messages with unhashable payloads (EIG's dict trees) fall through to
    a direct encode.
    """
    if cache is not None:
        try:
            cached = cache.get(message)
        except TypeError:
            cached = None
            cache = None
        if cached is not None:
            return cached
    buf = bytearray()
    _encode(message, buf)
    blob = bytes(buf)
    if cache is not None:
        cache[message] = blob
    return blob


def inboxes_bytes(
    inboxes: Sequence[Sequence[Message]],
    cache: Optional[Dict[Message, bytes]] = None,
) -> bytes:
    """Canonical bytes of a pending-inbox vector (delivery order kept)."""
    out = bytearray(b"[")
    for inbox in inboxes:
        out += b"("
        for message in inbox:
            out += message_bytes(message, cache)
        out += b")"
    out += b"]"
    return bytes(out)


def nodes_bytes(nodes: Sequence[Any]) -> bytes:
    """Canonical bytes of every node's internal state.

    A node's ``__dict__`` *is* its protocol state, and all children of
    one explored parent share it verbatim (adversary actions only change
    what lands in the next inboxes), so the explorer computes this once
    per expansion.
    """
    return canonical_bytes(
        tuple((type(node).__name__, node.__dict__) for node in nodes)
    )


def state_digest(
    round_number: int,
    node_blob: bytes,
    inbox_blob: bytes,
    crashed: Mapping[int, int],
) -> bytes:
    """sha256 over pre-encoded state components (the hash-consing key)."""
    digest = hashlib.sha256()
    digest.update(b"(i%d;" % round_number)
    digest.update(node_blob)
    digest.update(inbox_blob)
    digest.update(canonical_bytes(tuple(sorted(crashed.items()))))
    digest.update(b")")
    return digest.digest()


def network_digest(net: Network, crashed: Mapping[int, int]) -> bytes:
    """sha256 of the canonical full execution state of a network.

    Covers the round number, every node's internal state (its
    ``__dict__``, which for protocol nodes is the whole state), the
    pending inboxes, and the crash record — everything the next round's
    behaviour can depend on.  Convenience composition of
    :func:`nodes_bytes` / :func:`inboxes_bytes` / :func:`state_digest`;
    the explorer calls the pieces directly to share work across sibling
    states.
    """
    return state_digest(
        net.round_number,
        nodes_bytes(net.nodes),
        inboxes_bytes(net.pending_inboxes()),
        crashed,
    )
