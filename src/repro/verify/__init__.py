"""repro.verify — bounded model checking over the dist simulator.

Generalizes :func:`repro.dist.agreement.search_for_disagreement` from a
hand-picked adversary family into an exhaustive, explicit-state bounded
model checker: every schedule of at most ``bound`` corruption events
(two-faced flips, omissions, crash times with partial reach) from a
finite alphabet, over every faulty coalition in the requested family,
checked against the Byzantine agreement invariants — with hash-consed
state deduplication and *minimal, replayable* counterexample traces
that re-execute through the unmodified simulator.

Every checker here is a model on one search kernel
(:mod:`repro.verify.kernel`): one breadth-first search with budget
dominance, one greedy trace shrinker, and one verdict type,
:class:`~repro.verify.kernel.CheckResult`.

Quickstart::

    from repro.verify import check_model

    result = check_model("phase_king", n=4, t=1, bound=4)
    print(result.summary())          # PASS ... exhaustive up to the bound

    result = check_model("eig", n=3, t=1, bound=2)
    print(result.counterexample.describe())
    outcome = result.counterexample.replay()   # unmodified simulator
    assert not outcome.agreement

The same machinery certifies the replicated control plane: the
consensus checker (:mod:`repro.verify.consensus`) explores the *live*
:class:`repro.cluster.replica.RaftCore` under bounded crashes for
election safety and commit durability::

    from repro.verify import check_consensus

    result = check_consensus(replicas=3, crashes=1, depth=8)
    assert result.ok

CLI: ``python -m repro.verify --protocol phase_king --n 4 --t 1 --bound 4``
or ``--protocol replica --replicas 3 --crashes 1`` (exit 0 pass, 1
violation, 2 bad arguments, 3 state cap hit with nothing found).
See ``docs/verify.md`` for what a bound means and how to read a trace.
"""

from repro.verify.consensus import (
    COMMIT_SAFETY,
    CONSENSUS_INVARIANTS,
    ELECTION_SAFETY,
    ConsensusAction,
    ConsensusTrace,
    check_consensus,
)
from repro.verify.explorer import (
    ModelConfig,
    check_model,
    coalition_family,
    model_horizon,
)
from repro.verify.invariants import (
    AGREEMENT,
    BYZANTINE_AGREEMENT,
    TERMINATION,
    VALIDITY,
    Invariant,
    InvariantContext,
    first_violation,
    get_invariant,
)
from repro.verify.kernel import CheckResult
from repro.verify.states import (
    CorruptionAction,
    CorruptionAlphabet,
    apply_action,
    canonical_bytes,
    network_digest,
)
from repro.verify.traces import (
    CorruptionEvent,
    CounterexampleTrace,
    shrink_trace,
)

__all__ = [
    "AGREEMENT",
    "BYZANTINE_AGREEMENT",
    "COMMIT_SAFETY",
    "CONSENSUS_INVARIANTS",
    "ELECTION_SAFETY",
    "TERMINATION",
    "VALIDITY",
    "CheckResult",
    "ConsensusAction",
    "ConsensusTrace",
    "CorruptionAction",
    "CorruptionAlphabet",
    "CorruptionEvent",
    "CounterexampleTrace",
    "Invariant",
    "InvariantContext",
    "ModelConfig",
    "apply_action",
    "canonical_bytes",
    "check_consensus",
    "check_model",
    "coalition_family",
    "first_violation",
    "get_invariant",
    "model_horizon",
    "network_digest",
    "shrink_trace",
]
