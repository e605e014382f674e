"""Batched scenario runner with optional process-pool parallelism.

Each case is one ``(scenario, params)`` pair plus a deterministic seed
derived by hashing ``(base_seed, scenario, params)`` — the same case
always sees the same seed, no matter how the sweep is sliced across
workers, so results are reproducible under any parallelism level.
Workers are plain ``concurrent.futures.ProcessPoolExecutor`` processes.
A case carries the scenario *function* itself: pickle ships it by
qualified name, so a spawn-started worker imports the defining module —
including user modules whose ``@scenario`` registrations never ran in
the worker — instead of re-resolving the name from worker-local registry
state.

Because every case is a pure function of its seed derivation inputs,
results are perfectly cacheable by content address: pass a
:class:`repro.service.store.ResultStore` as ``store=`` and cache-hit
cases skip the executor entirely (they are marked ``cached=True`` and
counted in the wall-time table), while misses are computed and written
back for the next run.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.registry import all_scenarios, get_scenario
from repro.experiments.results import ExperimentResult, ResultSet, _jsonable
from repro.obs.metrics import default_registry

__all__ = ["case_seed", "run_experiments", "smoke_cases"]

Case = Tuple[
    str, str, Callable[..., Dict[str, Any]], Dict[str, Any], int, int
]

ProgressCallback = Callable[[ExperimentResult], None]


def case_seed(base_seed: int, scenario_name: str, params: Dict[str, Any]) -> int:
    """Deterministic 63-bit seed for one case, stable across processes.

    Uses SHA-256 over a canonical JSON rendering (sorted keys) so the
    derivation is independent of dict ordering, platform hash
    randomization, and worker count.
    """
    payload = json.dumps(
        [base_seed, scenario_name, params], sort_keys=True, default=str
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _build_result(
    case: Case, metrics: Dict[str, Any], elapsed: float, cached: bool = False
) -> ExperimentResult:
    """Assemble the result row for one case (identity from the case tuple).

    The single place computed rows are constructed: the serial path and
    the process-pool path both flow through here, so the row schema
    cannot drift between execution modes.  Params and metrics are
    JSON-coerced here (tuples become lists, NumPy scalars become Python
    ones) so a freshly computed row compares equal to the same row
    replayed from a store blob via :meth:`ExperimentResult.from_dict`.
    """
    name, family, _fn, params, seed, replication = case
    if not isinstance(metrics, dict):
        raise TypeError(
            f"scenario {name!r} returned {type(metrics).__name__}, expected dict"
        )
    return ExperimentResult(
        scenario=name,
        family=family,
        params=_jsonable(dict(params)),
        seed=seed,
        metrics=_jsonable(metrics),
        elapsed=elapsed,
        replication=replication,
        cached=cached,
    )


def _run_case(case: Case) -> ExperimentResult:
    """Execute one case (also the process-pool entry point)."""
    fn, params, seed = case[2], case[3], case[4]
    start = time.perf_counter()
    metrics = fn(seed=seed, **params)
    elapsed = time.perf_counter() - start
    return _build_result(case, metrics, elapsed)


def _collect_cases(
    scenarios: Optional[Sequence[str]],
    families: Optional[Sequence[str]],
    base_seed: int,
    limit_per_scenario: Optional[int],
    replications: int = 1,
) -> List[Case]:
    """Expand the requested scenarios/families into concrete seeded cases."""
    specs = []
    if scenarios:
        specs.extend(get_scenario(name) for name in scenarios)
    if families:
        for family in families:
            specs.extend(all_scenarios(family))
    if not scenarios and not families:
        specs = all_scenarios()
    seen = set()
    cases: List[Case] = []
    for spec in specs:
        if spec.name in seen:
            continue
        seen.add(spec.name)
        for i, params in enumerate(spec.iter_cases()):
            if limit_per_scenario is not None and i >= limit_per_scenario:
                break
            for replication in range(replications):
                cases.append(
                    _make_case(spec, params, base_seed, replication)
                )
    return cases


def _smoke_case_list(base_seed: int = 0) -> List[Case]:
    """First case of one scenario per family (the CI regression probe set)."""
    picked: List[Case] = []
    seen_families = set()
    for spec in all_scenarios():
        if spec.family in seen_families or spec.n_cases == 0:
            continue
        seen_families.add(spec.family)
        params = next(spec.iter_cases())
        picked.append(_make_case(spec, params, base_seed))
    return picked


def _make_case(
    spec, params: Dict[str, Any], base_seed: int, replication: int = 0
) -> Case:
    """Bundle one seeded, self-contained case from a registry spec.

    Replication 0 derives its seed from the params alone (identical to
    single-run sweeps, so adding replications never reshuffles existing
    results); higher replications mix a ``__replication__`` key into
    the hashed payload for an independent stream per repeat.
    """
    seed_params = (
        params
        if replication == 0
        else {**params, "__replication__": replication}
    )
    return (
        spec.name,
        spec.family,
        spec.fn,
        params,
        case_seed(base_seed, spec.name, seed_params),
        replication,
    )


def _execute_cases(
    cases: Sequence[Case],
    base_seed: int = 0,
    max_workers: Optional[int] = None,
    executor: Optional[Executor] = None,
    executor_factory: Optional[
        Callable[[int], Optional[Executor]]
    ] = None,
    store: Optional[Any] = None,
    progress: Optional[ProgressCallback] = None,
) -> ResultSet:
    """Execute cases in deterministic order, consulting ``store`` first.

    ``store`` is any object with the :class:`repro.service.store.ResultStore`
    surface (``key_for``/``get``/``put``); hits are rebuilt from their
    stored dicts without touching the executor, and misses are written
    back after computing.  ``executor`` is either a caller-owned
    ``concurrent.futures`` pool (the service's persistent one) or a
    *case executor* — any object with an ``execute_cases(cases,
    base_seed=..., progress=...)`` method, such as a
    :class:`repro.cluster.replica.Replica` (or its
    redundancy-bound :class:`~repro.cluster.coordinator.ClusterExecutor`)
    — which receives the post-cache pending cases wholesale and returns
    their results in order.  ``executor_factory`` defers the pool choice
    until after the store pass, receiving the post-cache *miss* count —
    a fully-cached sweep never starts worker processes; otherwise
    ``max_workers > 1`` spins up a temporary ``ProcessPoolExecutor``.
    ``progress`` is invoked once per finished case, in completion order,
    from the calling thread.
    """
    slots: List[Optional[ExperimentResult]] = [None] * len(cases)
    pending: List[Tuple[int, Case]] = []
    registry = default_registry()
    m_hits = registry.counter(
        "repro_runner_cache_hits_total",
        "Cases satisfied from the result store without recomputing.",
    )
    m_misses = registry.counter(
        "repro_runner_cache_misses_total",
        "Cases the runner had to (re)compute.",
    )
    for i, case in enumerate(cases):
        name, _family, _fn, params, _seed, replication = case
        blob = None
        if store is not None:
            key = store.key_for(name, params, base_seed, replication)
            blob = store.get(key)
        if blob is not None:
            m_hits.inc()
            slots[i] = ExperimentResult.from_dict(blob, cached=True)
            if progress is not None:
                progress(slots[i])
        else:
            m_misses.inc()
            pending.append((i, case))

    def finish(
        i: int,
        result: ExperimentResult,
        write_back: bool = True,
        report: bool = True,
    ) -> None:
        """Record one computed result: slot, store write-back, progress."""
        slots[i] = result
        if store is not None and write_back:
            name, _family, _fn, params, _seed, replication = cases[i]
            key = store.key_for(name, params, base_seed, replication)
            store.put(key, result.to_dict())
        if report and progress is not None:
            progress(result)

    if executor is None and executor_factory is not None and pending:
        executor = executor_factory(len(pending))
    own_pool = (
        executor is None
        and max_workers is not None
        and max_workers > 1
        and len(pending) > 1
    )
    if own_pool:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            for (i, _case), result in zip(
                pending, pool.map(_run_case, [c for _i, c in pending])
            ):
                finish(i, result)
    elif (
        executor is not None
        and hasattr(executor, "execute_cases")
        and len(pending) > 0
    ):
        # The executor reports per-case progress itself (live, as units
        # finish), so finish() must not report a second time; and a case
        # executor writing through this very store has already persisted
        # the rows (quorum-verified), so don't write each blob twice.
        computed = executor.execute_cases(
            [c for _i, c in pending], base_seed=base_seed, progress=progress
        )
        write_back = store is None or getattr(executor, "store", None) is not store
        for (i, _case), result in zip(pending, computed):
            finish(i, result, write_back=write_back, report=False)
    elif executor is not None and len(pending) > 0:
        futures = [(i, executor.submit(_run_case, c)) for i, c in pending]
        for i, future in futures:
            finish(i, future.result())
    else:
        for i, case in pending:
            finish(i, _run_case(case))
    return ResultSet([r for r in slots if r is not None])


def run_experiments(
    scenarios: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    max_workers: Optional[int] = None,
    limit_per_scenario: Optional[int] = None,
    replications: int = 1,
    store: Optional[Any] = None,
    executor: Optional[Executor] = None,
    progress: Optional[ProgressCallback] = None,
) -> ResultSet:
    """Run a sweep and return its :class:`ResultSet`.

    ``scenarios`` and/or ``families`` select what runs (both empty means
    everything registered).  ``max_workers`` > 1 fans cases out over a
    process pool; the default (``None`` or 1) runs serially in-process,
    which is fastest for the small grids and keeps tracebacks direct.
    ``replications`` repeats every case under independent derived seeds
    (replication 0 reproduces the single-run sweep exactly), which is
    what gives grid metrics error bars.  ``store`` short-circuits cached
    cases through a content-addressed result store (see
    :mod:`repro.service.store`) and persists fresh ones; ``executor``
    lets a caller-owned pool be reused across sweeps — or, given any
    object with an ``execute_cases`` method (e.g. a
    :class:`repro.cluster.replica.Replica`), fans the
    pending cases out to a whole compute fabric; ``progress`` is
    called once per finished case.  Results are always returned in
    deterministic case order regardless of worker scheduling.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    cases = _collect_cases(
        scenarios, families, base_seed, limit_per_scenario, replications
    )
    return _execute_cases(
        cases,
        base_seed=base_seed,
        max_workers=max_workers,
        executor=executor,
        store=store,
        progress=progress,
    )


def smoke_cases(base_seed: int = 0, store: Optional[Any] = None) -> ResultSet:
    """Run the first case of one scenario per family (CI regression probe).

    Cheap by construction: one representative case per registry family,
    run serially, so a broken scenario surfaces before merge without
    paying for the full grids.  ``store`` is consulted and populated the
    same way :func:`run_experiments` does it.
    """
    return _execute_cases(
        _smoke_case_list(base_seed), base_seed=base_seed, store=store
    )
