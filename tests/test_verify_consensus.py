"""The consensus model checker: green on RaftCore, red on broken cores.

Two kinds of evidence that the acceptance gate has teeth:

* the *real* :class:`~repro.cluster.replica.RaftCore` passes an
  exhaustive bounded search (and the search really visits crash and
  restart interleavings);
* deliberately broken cores — one that forgets its durable vote, one
  that skips the log up-to-dateness check — are caught, with shrunk
  counterexample traces that replay on the broken core and do NOT
  replay on the real one.
"""

import json

import pytest

from repro.cluster.replica import RaftCore
from repro.verify.consensus import (
    COMMIT_SAFETY,
    ELECTION_SAFETY,
    ConsensusAction,
    ConsensusTrace,
    _ModelState,
    check_consensus,
)


class AmnesiacVoteCore(RaftCore):
    """Broken on purpose: forgets its durable vote within a term.

    Granting to every candidate of the current term lets two candidates
    assemble quorums from overlapping voters — the exact double-vote
    Raft's persist-before-reply rule exists to prevent.
    """

    def _on_vote_req(self, m):
        if m["term"] > self.term:
            self._step_down(m["term"])
        granted = False
        if m["term"] == self.term:  # BUG: ignores self.voted_for
            self.log.set_term(self.term, m["from"])
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


class LaxUpToDateCore(RaftCore):
    """Broken on purpose: grants votes without comparing logs.

    A candidate missing committed entries can then win an election and
    overwrite them — the leader-completeness violation the up-to-date
    check exists to prevent.
    """

    def _on_vote_req(self, m):
        if m["term"] > self.term:
            self._step_down(m["term"])
        granted = False
        if m["term"] == self.term and self.voted_for in (None, m["from"]):
            self.log.set_term(self.term, m["from"])  # BUG: no log check
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


def test_real_core_passes_exhaustively_with_a_crash_budget():
    """3 replicas, 1 crash, 1 client append: no reachable violation."""
    result = check_consensus(replicas=3, crashes=1, appends=1, depth=6)
    assert result.ok
    assert result.counterexample is None
    assert not result.truncated
    assert result.states_explored > 1000  # crash/restart space is real
    assert result.invariants == (ELECTION_SAFETY, COMMIT_SAFETY)
    # The explored-state fingerprint; a symmetry reduction would change
    # it on purpose.
    assert (result.states_explored, result.transitions) == (6346, 13461)


def test_single_replica_elects_itself_and_stays_safe():
    """The degenerate n=1 cluster is quorum 1 and trivially safe."""
    result = check_consensus(replicas=1, crashes=1, appends=2, depth=6)
    assert result.ok


def test_amnesiac_vote_core_elects_two_leaders_in_one_term():
    """BFS finds the double-election; the trace is minimal + replayable."""
    result = check_consensus(
        replicas=3,
        crashes=0,
        appends=0,
        depth=6,
        core_factory=AmnesiacVoteCore,
    )
    assert not result.ok
    trace = result.counterexample
    assert trace.invariant == ELECTION_SAFETY
    # Two elections need two timeouts, two request deliveries, and two
    # grant deliveries — the shrunk trace carries nothing else.
    assert len(trace.actions) == 6
    assert trace.replay_violates(AmnesiacVoteCore)
    # The same schedule against the REAL core is harmless: the second
    # candidate's request hits a voter whose durable vote is spent.
    assert not trace.replay_violates(RaftCore)


def _lax_vote_schedule():
    """The schedule where the missing log check loses a committed entry.

    n0 wins term 1 with n1's vote and commits its noop on quorum
    {n0, n1}; n2 — whose log is empty — campaigns twice (term 1 is
    refused even by the lax core: n1's vote is spent; term 2 steps n1
    down and is lax-granted) and wins with a log that lacks the
    committed entry, then overwrites it.

    Recorded by driving a live model (so every delivered message is
    byte-identical to an in-flight one) rather than BFS — the violation
    sits at depth 11, past what an exhaustive search pays for in a
    unit test.
    """
    state = _ModelState(3, LaxUpToDateCore)
    actions = []

    def do(action):
        actions.append(action)
        state.apply(action)

    def deliver(frm, to):
        message = next(
            m
            for m in state.network
            if m["from"] == frm and m["to"] == to
        )
        do(ConsensusAction("deliver", message=json.loads(json.dumps(message))))

    do(ConsensusAction("timeout", node=0))
    deliver("n0", "n1")  # vote_req term 1
    deliver("n1", "n0")  # granted -> n0 leads term 1
    deliver("n0", "n1")  # append_req: replicate the noop
    deliver("n1", "n0")  # append_reply: quorum {n0, n1} commits index 1
    do(ConsensusAction("timeout", node=2))  # term 1 campaign
    deliver("n2", "n1")  # refused: n1's durable vote is spent
    do(ConsensusAction("timeout", node=2))  # term 2 campaign
    deliver("n2", "n1")  # steps n1 down; lax grant despite empty log
    deliver("n1", "n2")  # stale term-1 refusal (ignored)
    deliver("n1", "n2")  # term-2 grant -> n2 leads, commit is lost
    return tuple(actions)


def test_lax_up_to_date_core_loses_a_committed_entry():
    """The directed 11-action schedule kills the lax core, not the real one."""
    trace = ConsensusTrace(
        protocol="replica",
        replicas=3,
        crashes=0,
        appends=0,
        depth=11,
        invariant=COMMIT_SAFETY,
        detail="",
        actions=_lax_vote_schedule(),
    )
    violation, state = trace.replay(LaxUpToDateCore)
    assert violation is not None and violation[0] == COMMIT_SAFETY
    assert trace.replay_violates(LaxUpToDateCore)
    # Same schedule, real core: n1 refuses the empty-logged candidate,
    # n2 never wins, and the committed entry stays committed.
    violation, state = trace.replay(RaftCore)
    assert violation is None
    assert state.committed == {1: (1, 1)}


def test_trace_json_roundtrip_and_replay(tmp_path):
    """A found counterexample survives save -> load -> replay."""
    result = check_consensus(
        replicas=3,
        crashes=0,
        appends=0,
        depth=6,
        core_factory=AmnesiacVoteCore,
    )
    path = tmp_path / "double-leader.json"
    result.counterexample.save(str(path))
    loaded = ConsensusTrace.load(str(path))
    assert loaded == result.counterexample
    assert loaded.replay_violates(AmnesiacVoteCore)
    obj = json.loads(path.read_text())
    assert obj["protocol"] == "replica"
    assert obj["invariant"] == ELECTION_SAFETY


def test_result_json_shape():
    """The JSON verdict carries the bounds, stats, and invariant names."""
    result = check_consensus(replicas=2, crashes=0, appends=0, depth=4)
    obj = result.to_json_obj()
    assert obj["ok"] is True
    assert obj["protocol"] == "replica"
    assert obj["replicas"] == 2
    assert obj["states_explored"] == result.states_explored
    assert ELECTION_SAFETY in obj["invariants"]


def test_crash_amnesia_does_not_double_vote():
    """Crash/restart interleavings cannot force a double vote.

    The durable log keeps (term, voted_for) across the modeled crash,
    so a restarted voter still refuses the second candidate — searched
    exhaustively rather than asserted.
    """
    result = check_consensus(replicas=3, crashes=2, appends=0, depth=7)
    assert result.ok
    assert not result.truncated
    assert (result.states_explored, result.transitions) == (26874, 64107)


def test_state_cap_reports_truncation():
    """Hitting max_states flags the verdict as a bounded search."""
    result = check_consensus(
        replicas=3, crashes=1, appends=1, depth=8, max_states=200
    )
    assert result.ok  # nothing found within the cap...
    assert result.truncated  # ...but the verdict says the cap was hit


def test_rejects_bad_configuration():
    """Bounds that make the search vacuous are usage errors, not a PASS."""
    with pytest.raises(ValueError):
        check_consensus(replicas=0)
    for bad in ({"depth": -1}, {"crashes": -1}, {"appends": -1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            check_consensus(replicas=3, **bad)
    with pytest.raises(ValueError, match="max_states"):
        check_consensus(replicas=3, max_states=0)
