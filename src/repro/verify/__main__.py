"""CLI for the bounded model checker.

Check a protocol exhaustively up to a corruption bound::

    python -m repro.verify --protocol phase_king --n 4 --t 1 --bound 4
    python -m repro.verify --protocol eig --n 3 --t 1 --bound 2 \\
        --trace-out disagreement.json

Certify the replicated control plane's consensus core (bounded crashes
over :class:`repro.cluster.replica.RaftCore` — the acceptance gate the
cluster CI job runs)::

    python -m repro.verify --protocol replica --replicas 3 --crashes 1

Replay a previously emitted counterexample through the unmodified
simulator (exit 0 iff the recorded violation reproduces)::

    python -m repro.verify --replay disagreement.json

Exit codes: ``0`` — checked exhaustively and passed (or replay
reproduced); ``1`` — a violation was found (or a replay failed to
reproduce); ``2`` — bad arguments (including bounds that would make the
check vacuous); ``3`` — the state cap was hit before the search ended
and no violation was found, so the PASS is not exhaustive.  A found
violation prints the minimal trace (and writes it to ``--trace-out``
when given) so the exact execution can be shared, diffed, and re-run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.verify.consensus import ConsensusTrace, check_consensus
from repro.verify.explorer import check_model
from repro.verify.states import CorruptionAlphabet
from repro.verify.traces import CounterexampleTrace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Exhaustive bounded model checking of Byzantine agreement "
            "protocols over the repro.dist simulator."
        ),
    )
    parser.add_argument(
        "--protocol",
        choices=("eig", "phase_king", "replica"),
        default="eig",
        help=(
            "protocol to check: an agreement protocol over the dist "
            "simulator, or 'replica' for the control plane's consensus "
            "core (default: eig)"
        ),
    )
    parser.add_argument("--n", type=int, default=4, help="number of players")
    parser.add_argument("--t", type=int, default=1, help="faulty players")
    parser.add_argument(
        "--bound",
        type=int,
        default=3,
        help="max corruption events per execution (default: 3)",
    )
    parser.add_argument(
        "--general-values",
        type=int,
        nargs="+",
        default=(0, 1),
        metavar="V",
        help="general's input values to check (default: 0 1)",
    )
    parser.add_argument(
        "--coalitions",
        default="family",
        help=(
            "faulty-coalition family: 'family' (the search_for_disagreement "
            "placements, default), 'all' (every size-t coalition), or a "
            "comma/space list like '1' or '0,2'"
        ),
    )
    parser.add_argument(
        "--flip-targets",
        choices=("honest", "all"),
        default="honest",
        help="flip-subset universe for the two-faced actions",
    )
    parser.add_argument(
        "--no-silence",
        action="store_true",
        help="drop one-round omission actions from the alphabet",
    )
    parser.add_argument(
        "--no-crash",
        action="store_true",
        help="drop crash actions from the alphabet",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report the first counterexample without 1-minimizing it",
    )
    replica = parser.add_argument_group(
        "replica protocol", "bounds for --protocol replica"
    )
    replica.add_argument(
        "--replicas", type=int, default=3, help="replica count (default: 3)"
    )
    replica.add_argument(
        "--crashes",
        type=int,
        default=1,
        help="max crash events per execution (default: 1)",
    )
    replica.add_argument(
        "--appends",
        type=int,
        default=1,
        help="max client appends per execution (default: 1)",
    )
    replica.add_argument(
        "--depth",
        type=int,
        default=8,
        help="max scheduler actions per execution (default: 8)",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=500_000,
        help="per-config explored-state cap (default: 500000)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the counterexample trace JSON here when a check fails",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the full verification result JSON here",
    )
    parser.add_argument(
        "--replay",
        metavar="PATH",
        help="replay a saved trace instead of checking a model",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the trace listing"
    )
    return parser


def _parse_coalitions(raw: str):
    if raw in ("family", "all"):
        return raw
    coalition = [int(x) for x in raw.replace(",", " ").split()]
    return [coalition]


def _replay(path: str, quiet: bool) -> int:
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    if obj.get("protocol") == "replica":
        trace = ConsensusTrace.from_json_obj(obj)
    else:
        trace = CounterexampleTrace.from_json_obj(obj)
    if not quiet:
        print(trace.describe())
    if trace.replay_violates():
        print(f"replay reproduces the {trace.invariant!r} violation")
        return 0
    print(f"replay does NOT reproduce the {trace.invariant!r} violation")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.replay:
            return _replay(args.replay, args.quiet)
        if args.protocol == "replica":
            result = check_consensus(
                replicas=args.replicas,
                crashes=args.crashes,
                appends=args.appends,
                depth=args.depth,
                max_states=args.max_states,
                shrink=not args.no_shrink,
            )
        else:
            alphabet = CorruptionAlphabet(
                flip_targets=args.flip_targets,
                silence=not args.no_silence,
                crash=not args.no_crash,
            )
            result = check_model(
                args.protocol,
                args.n,
                args.t,
                bound=args.bound,
                general_values=tuple(args.general_values),
                coalitions=_parse_coalitions(args.coalitions),
                alphabet=alphabet,
                max_states=args.max_states,
                shrink=not args.no_shrink,
            )
    except (ValueError, KeyError, OSError) as exc:
        # Bad usage (invalid model params, malformed coalition specs,
        # unreadable trace files) exits 2 like argparse errors do.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return _report(result, args)


def _report(result, args) -> int:
    """Shared verdict printing/serialization; returns the exit code."""
    print(result.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_json_obj(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    trace = result.counterexample
    if trace is not None:
        if not args.quiet:
            print(trace.describe())
        if args.trace_out:
            trace.save(args.trace_out)
            print(f"minimal counterexample trace written to {args.trace_out}")
        replay = "reproduces" if trace.replay_violates() else "DIVERGES"
        print(f"replay through the unmodified implementation: {replay}")
        return 1
    if result.truncated:
        print(
            "state cap hit before the search ended: the PASS is not "
            "exhaustive (raise --max-states)"
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
