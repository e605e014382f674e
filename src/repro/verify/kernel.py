"""The one search kernel under every checker in :mod:`repro.verify`.

A checker is a *model*: a root :class:`Successor` plus two functions.

* ``expand(state)`` yields the state's successors.  Each
  :class:`Successor` carries its dedup ``digest``, its remaining
  ``budget`` (higher is stronger; models without one pass ``0``), a
  ``violation`` found while generating it (or ``None``), and a lazy
  ``build()`` that materializes the state only if it survives dedup.
* ``settle(state)`` judges an admitted state and returns
  ``(violation, expand_further)``.

:func:`search` owns everything else: level-synchronous breadth-first
order, dedup with budget dominance, the state cap and stop-on-violation.
:func:`shrink` is the one greedy deletion loop that 1-minimizes a
counterexample, and :class:`CheckResult` the one verdict type.

Two rules keep a model fast on this kernel:

* dominated successors are dropped as they are generated, keeping one
  per digest per level, so a level never holds more live states than
  it has distinct digests;
* the survivors of a level are all built, in digest order, before any
  of them is settled, so a model may share a network between siblings
  (the dist explorer steps a parent once and builds every child from
  that one scout) and let ``settle`` consume it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "CheckResult",
    "Search",
    "Successor",
    "TraceFile",
    "search",
    "shrink",
]


class Successor(NamedTuple):
    """One generated state, digested before it is built."""

    digest: bytes
    budget: int
    violation: Any
    build: Callable[[], Any]


@dataclass
class Search:
    """What one :func:`search` saw.

    ``terminal_states`` counts admitted states that ``settle`` did not
    expand further; ``violations`` holds every violation found, in
    breadth-first order, so the first one is a shortest one.
    """

    states_explored: int = 0
    transitions: int = 0
    terminal_states: int = 0
    truncated: bool = False
    violations: List[Any] = field(default_factory=list)


def search(
    root: Successor,
    expand: Callable[[Any], Iterable[Successor]],
    settle: Callable[[Any], Tuple[Any, bool]],
    *,
    max_states: int,
    stop_on_violation: bool = True,
) -> Search:
    """Breadth-first search from ``root`` under ``expand``/``settle``.

    A successor is dropped when a state with its digest was admitted at
    an earlier level with the same or a higher budget, or when this
    level already holds one with a higher budget (the earliest wins a
    tie).  Every consumed successor counts as a transition.  At most
    ``max_states`` states are admitted; reaching the cap with states
    left to admit sets ``truncated`` and ends the search.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    out = Search()
    if root.violation is not None:
        out.violations.append(root.violation)
        return out
    seen: Dict[bytes, int] = {}
    level: Dict[bytes, Successor] = {root.digest: root}
    while level:
        digests = sorted(level)
        for digest in digests:
            seen[digest] = level[digest].budget
        room = max_states - out.states_explored
        if len(digests) > room:
            digests = digests[:room]
            out.truncated = True
        built = [level[digest].build() for digest in digests]
        level = {}
        frontier: List[Any] = []
        for state in built:
            out.states_explored += 1
            violation, expand_further = settle(state)
            if not expand_further:
                out.terminal_states += 1
            if violation is not None:
                out.violations.append(violation)
                if stop_on_violation:
                    return out
            if expand_further:
                frontier.append(state)
        del built
        if out.truncated:
            return out
        # Pop each parent as it is expanded so it can be freed: fewer
        # live states make the interpreter's cyclic GC passes cheaper.
        frontier.reverse()
        while frontier:
            for successor in expand(frontier.pop()):
                out.transitions += 1
                if successor.violation is not None:
                    out.violations.append(successor.violation)
                    if stop_on_violation:
                        return out
                    continue
                prior = seen.get(successor.digest)
                if prior is not None and prior >= successor.budget:
                    continue
                best = level.get(successor.digest)
                if best is None or successor.budget > best.budget:
                    level[successor.digest] = successor
    return out


def shrink(
    items: Sequence[Any], still_fails: Callable[[List[Any]], bool]
) -> List[Any]:
    """Greedy deletion of ``items`` down to a 1-minimal failing list.

    Tries dropping each item in turn; a deletion sticks whenever
    ``still_fails`` holds for the rest, and the scan restarts.  At the
    fixed point, removing any single remaining item makes the failure
    disappear.
    """
    current = list(items)
    index = 0
    while index < len(current):
        candidate = current[:index] + current[index + 1 :]
        if still_fails(candidate):
            current = candidate
            index = 0
        else:
            index += 1
    return current


class TraceFile:
    """JSON file I/O for trace types with ``to_json_obj``/``from_json_obj``."""

    def save(self, path: str) -> None:
        """Write the trace as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_obj(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str):
        """Read a trace saved by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_json_obj(json.load(handle))


@dataclass
class CheckResult:
    """A checker's verdict plus exploration statistics.

    ``ok`` means no explored state violated an invariant.  It is an
    exhaustive verdict only when ``truncated`` is false; a hit state cap
    makes it a bounded search.  On failure ``counterexample`` holds the
    shrunk, replay-verified trace.  ``params`` are the model's bounds
    (``n``/``t``/``bound`` for agreement protocols,
    ``replicas``/``crashes``/``appends``/``depth`` for ``replica``).
    """

    ok: bool
    protocol: str
    params: Dict[str, int]
    invariants: Tuple[str, ...]
    configs: Tuple[Dict[str, Any], ...] = ()
    states_explored: int = 0
    transitions: int = 0
    terminal_states: int = 0
    elapsed_s: float = 0.0
    counterexample: Optional[Any] = None
    truncated: bool = False

    def summary(self) -> str:
        """One-line verdict, e.g. for the CLI and scenario tables."""
        verdict = "PASS" if self.ok else "FAIL"
        bounds = " ".join(f"{k}={v}" for k, v in self.params.items())
        tail = ""
        if self.counterexample is not None:
            tail = (
                f" — {self.counterexample.invariant} violated in "
                f"{len(self.counterexample.steps)} step(s)"
            )
        if self.truncated:
            tail += " [truncated: state cap hit]"
        return (
            f"{verdict} {self.protocol} {bounds}: "
            f"{self.states_explored} states, "
            f"{self.transitions} transitions, "
            f"{self.terminal_states} terminal, "
            f"{self.elapsed_s * 1000.0:.1f} ms{tail}"
        )

    def to_json_obj(self) -> Dict[str, Any]:
        """Plain-JSON form of the verdict and statistics."""
        obj: Dict[str, Any] = {
            "ok": self.ok,
            "protocol": self.protocol,
            **self.params,
            "invariants": list(self.invariants),
            "configs": [dict(c) for c in self.configs],
            "states_explored": self.states_explored,
            "transitions": self.transitions,
            "terminal_states": self.terminal_states,
            "elapsed_s": round(self.elapsed_s, 6),
            "truncated": self.truncated,
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample.to_json_obj()
        return obj
