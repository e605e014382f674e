"""Tests for repro.verify: the bounded model checker and its traces.

Covers parity with ``search_for_disagreement`` (the checker rediscovers
the classic ``n <= 3t`` impossibility as a *minimal* counterexample),
exhaustive certification in the possible regime, replay determinism
(property-based), trace serialization/shrinking, the hash-consing
substrate, and the simulator's fork/step hooks.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.agreement import (
    EIGNode,
    flip_payload,
    run_eig_agreement,
    search_for_disagreement,
)
from repro.dist.faults import CrashAdversary, ScriptedAdversary
from repro.dist.simulator import Message, Network, NoFaultAdversary
from repro.verify import (
    CorruptionAction,
    CorruptionAlphabet,
    CounterexampleTrace,
    check_model,
)
from repro.verify.__main__ import main as verify_main
from repro.verify.explorer import coalition_family, model_horizon
from repro.verify.kernel import Successor, search, shrink
from repro.verify.invariants import (
    BYZANTINE_AGREEMENT,
    InvariantContext,
    first_violation,
    get_invariant,
)
from repro.verify.states import (
    CRASH,
    FLIP,
    SILENCE,
    canonical_bytes,
    network_digest,
)
from repro.verify.traces import CorruptionEvent, shrink_trace


# ----------------------------------------------------------------------
# Parity with search_for_disagreement, and certification
# ----------------------------------------------------------------------


class TestCheckerVerdicts:
    def test_rediscovers_n3_t1_disagreement(self):
        """The checker finds the (3,1) violation search_for_disagreement
        exhibits — but as a shrunk, replayable minimal trace."""
        searched = search_for_disagreement(3, 1, "eig", random_seeds=0)
        assert searched is not None  # the classic impossibility
        result = check_model("eig", 3, 1, bound=2)
        assert not result.ok
        trace = result.counterexample
        assert trace is not None
        assert trace.invariant in {inv.name for inv in BYZANTINE_AGREEMENT}
        # Minimal: (3,1) falls to a single corruption event.
        assert len(trace.events) == 1
        assert trace.replay_violates()
        # The explored-state fingerprint; a symmetry reduction would
        # change these on purpose.
        assert (
            result.states_explored,
            result.transitions,
            result.terminal_states,
        ) == (161, 266, 123)
        assert trace.invariant == "validity"
        assert [e.describe() for e in trace.events] == [
            "r0 node2 crash(reach=0)"
        ]

    def test_certifies_eig_n4_t1_all_coalitions(self):
        """n > 3t: EIG at (4,1) survives every coalition exhaustively."""
        result = check_model("eig", 4, 1, bound=3, coalitions="all")
        assert result.ok
        assert result.counterexample is None
        assert not result.truncated
        assert result.states_explored > 100
        assert result.terminal_states > 0
        assert (
            result.states_explored,
            result.transitions,
            result.terminal_states,
        ) == (2472, 2968, 1720)

    def test_certifies_phase_king_n4_t1_family(self):
        """Phase king at (4,1) survives the search_for_disagreement
        placement family (last-t and general-led coalitions)."""
        result = check_model("phase_king", 4, 1, bound=3)
        assert result.ok
        assert not result.truncated
        assert (
            result.states_explored,
            result.transitions,
            result.terminal_states,
        ) == (2844, 12084, 2003)

    def test_phase_king_n4_t1_breaks_under_all_coalitions(self):
        """The discovery: at n = 4t a faulty *final-phase king* breaks
        agreement — a genuine attack the hand-picked family misses."""
        result = check_model("phase_king", 4, 1, bound=2, coalitions="all")
        assert not result.ok
        trace = result.counterexample
        assert trace is not None
        assert trace.faulty == (1,)  # the phase-2 king
        assert trace.invariant == "agreement"
        assert len(trace.events) == 2
        assert trace.replay_violates()
        assert (
            result.states_explored,
            result.transitions,
            result.terminal_states,
        ) == (367, 1638, 282)
        assert [e.describe() for e in trace.events] == [
            "r3 node1 flip->[3]",
            "r4 node1 flip->[0, 3]",
        ]

    def test_bound_zero_is_honest_run(self):
        """With no corruption budget the only execution is the honest one."""
        result = check_model("eig", 3, 1, bound=0)
        assert result.ok
        assert result.terminal_states == len(result.configs)

    def test_counterexample_replay_matches_recorded_outputs(self):
        result = check_model("eig", 3, 1, bound=2)
        trace = result.counterexample
        outcome = trace.replay()
        assert dict(outcome.outputs) == dict(trace.honest_outputs)

    def test_stop_on_violation_false_keeps_exploring(self):
        cut = check_model("eig", 3, 1, bound=1)
        full = check_model("eig", 3, 1, bound=1, stop_on_violation=False)
        assert not cut.ok and not full.ok
        assert full.states_explored >= cut.states_explored

    def test_state_cap_marks_truncated(self):
        result = check_model("eig", 4, 1, bound=2, max_states=10)
        assert result.truncated
        assert "truncated" in result.summary()
        assert all(config["states"] <= 10 for config in result.configs)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            check_model("paxos", 4, 1, bound=1)
        with pytest.raises(ValueError, match="two players"):
            check_model("eig", 1, 0, bound=1)
        with pytest.raises(ValueError, match="0 <= t < n"):
            check_model("eig", 3, 3, bound=1)
        with pytest.raises(ValueError, match="bound"):
            check_model("eig", 3, 1, bound=-1)
        with pytest.raises(ValueError, match="unknown protocol"):
            model_horizon("paxos", 1)
        # Parameters that would make a PASS vacuous are usage errors.
        with pytest.raises(ValueError, match="nothing to check"):
            check_model("eig", 3, 1, bound=2, general_values=())
        with pytest.raises(ValueError, match="nothing to check"):
            check_model("eig", 3, 1, bound=2, coalitions=[])
        with pytest.raises(ValueError, match="max_states"):
            check_model("eig", 3, 1, bound=2, max_states=0)

    def test_coalition_family_shapes(self):
        assert coalition_family(4, 0) == [frozenset()]
        family = coalition_family(4, 1, "family")
        assert frozenset({3}) in family and frozenset({0}) in family
        assert len(coalition_family(4, 1, "all")) == 4
        assert len(coalition_family(4, 2, "all")) == 6
        assert coalition_family(4, 1, [[2]]) == [frozenset({2})]
        with pytest.raises(ValueError, match="outside"):
            coalition_family(4, 1, [[7]])


# ----------------------------------------------------------------------
# Traces: replay, shrinking, serialization
# ----------------------------------------------------------------------


def _crash_trace(**overrides):
    base = dict(
        protocol="eig",
        n=3,
        t=1,
        general_value=1,
        faulty=(2,),
        invariant="validity",
        events=(
            CorruptionEvent(0, 2, CorruptionAction(CRASH, reach=0)),
        ),
        bound=2,
    )
    base.update(overrides)
    return CounterexampleTrace(**base)


class TestCounterexampleTrace:
    def test_crash_only_compiles_to_crash_adversary(self):
        trace = _crash_trace()
        assert trace.is_crash_only()
        adversary = trace.to_adversary()
        assert isinstance(adversary, CrashAdversary)
        schedule = trace.crash_schedule()
        assert schedule is not None
        assert schedule.times == {2: 0}
        schedule.validate(3)
        assert trace.replay_violates()

    def test_mixed_trace_compiles_to_scripted_adversary(self):
        trace = _crash_trace(
            events=(
                CorruptionEvent(0, 2, CorruptionAction(SILENCE)),
                CorruptionEvent(1, 2, CorruptionAction(CRASH, reach=1)),
            ),
        )
        assert not trace.is_crash_only()
        assert trace.crash_schedule() is None
        assert isinstance(trace.to_adversary(), ScriptedAdversary)

    def test_double_crash_rejected(self):
        with pytest.raises(ValueError, match="crash twice"):
            _crash_trace(
                events=(
                    CorruptionEvent(0, 2, CorruptionAction(CRASH, reach=0)),
                    CorruptionEvent(1, 2, CorruptionAction(CRASH, reach=0)),
                ),
            )

    def test_json_round_trip(self, tmp_path):
        trace = check_model("phase_king", 4, 1, bound=2,
                            coalitions="all").counterexample
        rebuilt = CounterexampleTrace.from_json_obj(trace.to_json_obj())
        assert rebuilt == trace
        path = tmp_path / "cex.json"
        trace.save(str(path))
        assert CounterexampleTrace.load(str(path)) == trace

    def test_shrunk_trace_is_one_minimal(self):
        """Removing any single remaining event kills the violation."""
        result = check_model("phase_king", 4, 1, bound=2, coalitions="all")
        trace = result.counterexample
        assert shrink_trace(trace).events == trace.events  # fixed point
        from dataclasses import replace as dc_replace

        for index in range(len(trace.events)):
            thinner = dc_replace(
                trace,
                events=trace.events[:index] + trace.events[index + 1:],
            )
            assert not thinner.replay_violates()

    def test_trace_saved_with_a_seed_still_loads_and_replays(self, tmp_path):
        """Traces written while the format carried a ``seed`` still load."""
        obj = _crash_trace().to_json_obj()
        assert "seed" not in obj
        obj["seed"] = 0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(obj))
        loaded = CounterexampleTrace.load(str(path))
        assert loaded == _crash_trace()
        assert loaded.replay_violates()
        assert verify_main(["--replay", str(path), "--quiet"]) == 0

    def test_unknown_protocol_replay_rejected(self):
        trace = _crash_trace(protocol="paxos")
        with pytest.raises(ValueError, match="unknown protocol"):
            trace.replay()


# ----------------------------------------------------------------------
# Replay determinism (property-based)
# ----------------------------------------------------------------------


def _eig31_events():
    """Arbitrary well-formed adversary plays for the eig (3,1) model."""
    horizon = model_horizon("eig", 1)
    action = st.one_of(
        st.just(CorruptionAction(SILENCE)),
        st.builds(
            lambda targets: CorruptionAction(FLIP, targets=tuple(sorted(targets))),
            st.sets(st.sampled_from([0, 1]), min_size=1, max_size=2),
        ),
    )
    event = st.builds(
        CorruptionEvent,
        round=st.integers(min_value=0, max_value=horizon - 1),
        node=st.just(2),
        action=action,
    )
    crash = st.builds(
        CorruptionEvent,
        round=st.integers(min_value=0, max_value=horizon - 1),
        node=st.just(2),
        action=st.builds(
            CorruptionAction,
            kind=st.just(CRASH),
            reach=st.integers(min_value=0, max_value=3),
        ),
    )
    return st.tuples(
        st.lists(event, max_size=3), st.one_of(st.none(), crash)
    ).map(lambda pair: tuple(pair[0]) + ((pair[1],) if pair[1] else ()))


class TestReplayDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(events=_eig31_events(), general_value=st.integers(0, 1))
    def test_any_trace_replays_identically(self, events, general_value):
        """Two replays of the same trace agree on outputs *and* on every
        message put on the wire — the simulator is deterministic given
        the compiled adversary."""
        trace = _crash_trace(
            events=events, general_value=general_value, invariant="agreement"
        )
        first = trace.replay()
        second = trace.replay()
        assert first.outputs == second.outputs
        assert first.trace == second.trace
        assert trace.replay_violates(first) == trace.replay_violates(second)

    def test_checker_emitted_counterexample_is_stable(self):
        trace = check_model("eig", 3, 1, bound=2).counterexample
        outcomes = [trace.replay() for _ in range(3)]
        assert len({tuple(sorted(o.outputs.items())) for o in outcomes}) == 1
        assert all(trace.replay_violates(o) for o in outcomes)


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------


class TestInvariants:
    def test_first_violation_order_and_names(self):
        ctx = InvariantContext(n=3, t=1, general_value=1, faulty=frozenset({2}))
        assert first_violation(BYZANTINE_AGREEMENT, {0: 1, 1: 1}, ctx) is None
        assert (
            first_violation(BYZANTINE_AGREEMENT, {0: None, 1: 1}, ctx)
            == "termination"
        )
        assert (
            first_violation(BYZANTINE_AGREEMENT, {0: 0, 1: 1}, ctx)
            == "agreement"
        )
        assert (
            first_violation(BYZANTINE_AGREEMENT, {0: 0, 1: 0}, ctx)
            == "validity"
        )

    def test_validity_vacuous_when_general_faulty(self):
        ctx = InvariantContext(n=3, t=1, general_value=1, faulty=frozenset({0}))
        assert ctx.general_faulty
        assert first_violation(BYZANTINE_AGREEMENT, {1: 0, 2: 0}, ctx) is None

    def test_get_invariant_unknown(self):
        with pytest.raises(KeyError):
            get_invariant("liveness")


# ----------------------------------------------------------------------
# The corruption alphabet
# ----------------------------------------------------------------------


class TestCorruptionAlphabet:
    def test_default_menu_for_n4(self):
        actions = CorruptionAlphabet().actions_for(1, 4, frozenset({1}))
        kinds = [a.kind for a in actions]
        assert kinds[0] == "honest"
        flips = [a for a in actions if a.kind == FLIP]
        # Non-empty subsets of the 3 honest nodes.
        assert len(flips) == 7
        assert all(1 not in a.targets for a in flips)
        assert sum(1 for a in actions if a.kind == SILENCE) == 1
        reaches = sorted(a.reach for a in actions if a.kind == CRASH)
        assert reaches == [0, 1, 2, 3, 4]

    def test_flip_universe_and_cap(self):
        all_targets = CorruptionAlphabet(flip_targets="all", max_flip_targets=1)
        actions = all_targets.actions_for(1, 4, frozenset({1}))
        flips = [a for a in actions if a.kind == FLIP]
        assert [a.targets for a in flips] == [(0,), (1,), (2,), (3,)]
        with pytest.raises(ValueError, match="flip_targets"):
            CorruptionAlphabet(flip_targets="everyone").actions_for(
                1, 4, frozenset({1})
            )

    def test_unknown_action_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown action kind"):
            CorruptionAction("bribe")

    def test_flip_payload_semantics(self):
        assert flip_payload(0) == 1 and flip_payload(1) == 0
        assert flip_payload(2) == 2  # non-decision ints pass through
        assert flip_payload(True) is True  # bools are not decision bits
        assert flip_payload({"v": [0, (1, None)]}) == {"v": [1, (0, None)]}


# ----------------------------------------------------------------------
# Hash-consing: canonical encoding
# ----------------------------------------------------------------------


class TestCanonicalBytes:
    def test_dict_insertion_order_invariance(self):
        a = {"x": 1, "y": {2: "b", 1: "a"}}
        b = {"y": {1: "a", 2: "b"}, "x": 1}
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_type_tags_distinguish(self):
        assert canonical_bytes((1, 2)) != canonical_bytes([1, 2])
        assert canonical_bytes(1) != canonical_bytes(True)
        assert canonical_bytes("1") != canonical_bytes(1)
        assert canonical_bytes(None) not in (
            canonical_bytes(0),
            canonical_bytes(False),
        )

    def test_set_order_invariance(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})

    def test_unhashable_dict_keys_still_canonical(self):
        # EIG trees key on tuples; mixed key types fall back to
        # encoding-sorted pairs rather than raising.
        mixed = {(1, 2): "a", "path": "b"}
        flipped = {"path": "b", (1, 2): "a"}
        assert canonical_bytes(mixed) == canonical_bytes(flipped)

    def test_unknown_type_is_hard_error(self):
        with pytest.raises(TypeError, match="canonically encode"):
            canonical_bytes(object())


class _Graph:
    """A toy kernel model: states are node names, edges carry budgets.

    ``edges`` maps a node to its ``(child, budget)`` list; a node in
    ``bad`` violates when settled, a node in ``poison`` when generated.
    ``built`` records ``(name, budget, edge index)`` in build order.
    """

    def __init__(self, edges, bad=(), poison=()):
        self.edges = edges
        self.bad = set(bad)
        self.poison = set(poison)
        self.built = []

    def _successor(self, name, budget, path, index):
        def build():
            self.built.append((name, budget, index))
            return name, path

        violation = path if name in self.poison else None
        return Successor(name.encode(), budget, violation, build)

    def expand(self, state):
        name, path = state
        return [
            self._successor(child, budget, path + (child,), index)
            for index, (child, budget) in enumerate(self.edges.get(name, ()))
        ]

    def settle(self, state):
        name, path = state
        return (path if name in self.bad else None), bool(self.edges.get(name))

    def run(self, max_states=100, stop_on_violation=True):
        return search(
            self._successor("r", 0, ("r",), 0),
            self.expand,
            self.settle,
            max_states=max_states,
            stop_on_violation=stop_on_violation,
        )


class TestKernel:
    def test_batch_dedup_keeps_max_budget(self):
        graph = _Graph({"r": [("d", 1), ("d", 3), ("d", 2)]})
        found = graph.run()
        assert graph.built[1:] == [("d", 3, 1)]  # the budget-3 representative
        assert found.states_explored - 1 == 1

    def test_dominated_revisit_rejected_improving_admitted(self):
        graph = _Graph(
            {
                "r": [("d", 2), ("x", 0)],
                "x": [("d", 2), ("y", 0)],  # equal budget: dominated
                "y": [("d", 1), ("z", 0)],  # lower: dominated
                "z": [("d", 3)],  # strictly higher: back in
            }
        )
        graph.run()
        assert [b for name, b, _ in graph.built if name == "d"] == [2, 3]

    def test_empty_batch(self):
        found = _Graph({}).run()
        assert (found.states_explored, found.transitions) == (1, 0)
        assert found.terminal_states == 1 and not found.violations

    def test_distinct_digests_all_admitted(self):
        graph = _Graph({"r": [(name, 0) for name in "edcba"]})
        found = graph.run()
        assert [name for name, _, _ in graph.built[1:]] == list("abcde")
        assert found.states_explored - 1 == 5

    def test_tie_keeps_the_earliest(self):
        graph = _Graph({"r": [("d", 2), ("d", 2), ("d", 1)]})
        graph.run()
        assert graph.built[1:] == [("d", 2, 0)]

    def test_shortest_violation_is_reported_first(self):
        edges = {
            "r": [("a", 0), ("b", 0)],
            "a": [("c", 0)],
            "c": [("bad3", 0)],
            "b": [("bad2", 0)],
        }
        bad = {"bad2", "bad3"}
        found = _Graph(edges, bad=bad).run()
        assert found.violations == [("r", "b", "bad2")]
        every = _Graph(edges, bad=bad).run(stop_on_violation=False)
        assert every.violations == [
            ("r", "b", "bad2"),
            ("r", "a", "c", "bad3"),
        ]

    def test_violation_found_while_generating(self):
        edges = {"r": [("a", 0), ("p", 0)], "a": [("q", 0)]}
        graph = _Graph(edges, poison={"p"})
        found = graph.run()
        assert found.violations == [("r", "p")]
        assert found.transitions == 2 and found.states_explored == 1

    def test_state_cap_truncates(self):
        edges = {"r": [(f"a{i}", 0) for i in range(5)]}
        for i in range(5):
            edges[f"a{i}"] = [(f"b{i}{j}", 0) for j in range(5)]
        found = _Graph(edges).run(max_states=4)
        assert found.truncated
        assert found.states_explored <= 4
        assert not _Graph(edges).run(max_states=31).truncated
        with pytest.raises(ValueError, match="max_states"):
            _Graph(edges).run(max_states=0)

    def test_shrink_is_one_minimal(self):
        def still_fails(kept):
            return sum(kept) >= 10

        kept = shrink([5, 5, 5, 1], still_fails)
        assert kept == [5, 5]
        for index in range(len(kept)):
            assert not still_fails(kept[:index] + kept[index + 1:])
        assert shrink(range(10), lambda k: {2, 7} <= set(k)) == [2, 7]


# ----------------------------------------------------------------------
# Simulator hooks: fork / step_round / pending inboxes
# ----------------------------------------------------------------------


def _eig_net(n=3, t=1, general_value=1):
    nodes = [
        EIGNode(i, n, t, general_value if i == 0 else None) for i in range(n)
    ]
    return Network(nodes, NoFaultAdversary())


class TestNetworkHooks:
    def test_fork_is_independent(self):
        net = _eig_net().step_round()
        fork = net.fork()
        net.step_round()
        assert fork.round_number == 1 and net.round_number == 2

    def test_fork_then_step_matches_original(self):
        """Stepping a fork and the original produces identical states."""
        net = _eig_net()
        fork = net.fork()
        horizon = model_horizon("eig", 1)
        for _ in range(horizon):
            net.step_round()
            fork.step_round()
            assert network_digest(net, {}) == network_digest(fork, {})
        assert net.honest_outputs() == fork.honest_outputs()

    def test_pending_inboxes_reflect_traffic(self):
        net = _eig_net().step_round()
        inboxes = net.pending_inboxes()
        assert len(inboxes) == 3
        assert all(
            isinstance(m, Message)
            for m in itertools.chain.from_iterable(inboxes)
        )

    def test_set_pending_inboxes_round_trips(self):
        net = _eig_net().step_round()
        saved = net.pending_inboxes()
        net.set_pending_inboxes([[], [], []])
        assert net.pending_inboxes() == ((), (), ())
        net.set_pending_inboxes(saved)
        assert net.pending_inboxes() == saved

    def test_set_pending_inboxes_validates_length(self):
        net = _eig_net()
        with pytest.raises(ValueError, match="expected 3 inboxes"):
            net.set_pending_inboxes([[], []])

    def test_emptied_inboxes_starve_the_protocol(self):
        """Overriding deliveries actually changes the execution."""
        starved = _eig_net()
        reference = run_eig_agreement(3, 1, 1, adversary=NoFaultAdversary())
        horizon = model_horizon("eig", 1)
        for _ in range(horizon):
            starved.step_round()
            starved.set_pending_inboxes([[], [], []])
        assert starved.honest_outputs() != reference.outputs


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCLI:
    def test_violation_exit_trace_and_replay(self, tmp_path, capsys):
        out = tmp_path / "cex.json"
        code = verify_main(
            [
                "--protocol", "eig", "--n", "3", "--t", "1",
                "--bound", "2", "--trace-out", str(out), "--quiet",
            ]
        )
        assert code == 1
        assert out.exists()
        assert "reproduces" in capsys.readouterr().out
        assert verify_main(["--replay", str(out), "--quiet"]) == 0

    def test_pass_exit_zero(self, capsys):
        code = verify_main(
            [
                "--protocol", "eig", "--n", "4", "--t", "1",
                "--bound", "1", "--quiet",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_explicit_coalition_and_json(self, tmp_path):
        report = tmp_path / "result.json"
        code = verify_main(
            [
                "--protocol", "eig", "--n", "3", "--t", "1", "--bound", "1",
                "--coalitions", "1", "--json", str(report), "--quiet",
            ]
        )
        assert code in (0, 1)
        assert report.exists()

    def test_state_cap_without_violation_exits_3(self, capsys):
        """A capped search that found nothing is not an exhaustive PASS."""
        code = verify_main(
            [
                "--protocol", "replica", "--replicas", "3", "--crashes", "1",
                "--depth", "7", "--max-states", "5", "--quiet",
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert out.startswith("PASS") and "truncated" in out

    def test_bad_protocol_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            verify_main(["--protocol", "paxos"])
        assert excinfo.value.code == 2

    def test_bad_params_exit_2_without_traceback(self, tmp_path):
        """Usage errors (bad model params, unreadable traces) exit 2."""
        for argv in (
            ["--n", "1", "--t", "0", "--bound", "1"],
            ["--n", "3", "--t", "1", "--bound", "-2"],
            ["--n", "3", "--t", "1", "--bound", "1", "--coalitions", "bogus"],
            ["--replay", str(tmp_path / "missing.json")],
            ["--n", "3", "--t", "1", "--bound", "1", "--max-states", "0"],
            ["--protocol", "replica", "--replicas", "3", "--depth", "-2"],
            ["--protocol", "replica", "--crashes", "-1"],
            ["--protocol", "replica", "--appends", "-1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                verify_main(argv)
            assert excinfo.value.code == 2

    def test_tampered_trace_replay_exits_1(self, tmp_path):
        trace = check_model("eig", 3, 1, bound=2).counterexample
        from dataclasses import replace as dc_replace

        tampered = dc_replace(
            trace,
            events=(
                CorruptionEvent(0, 2, CorruptionAction(SILENCE)),
            ),
        )
        path = tmp_path / "tampered.json"
        tampered.save(str(path))
        assert verify_main(["--replay", str(path), "--quiet"]) == 1
