"""Replicated experiment execution.

Two execution paths share one entry point (:func:`run_replications`):

* the **per-seed loop** — the replication function is called once per seed,
  each call simulating one replicate; and
* the **batched fast path** — a function decorated with
  :func:`batched_replication` receives the *whole* seed list at once and
  returns one metrics dict per replicate.  Such functions typically drive
  :class:`repro.core.batched.BatchedDynamics`, which advances all replicates
  as one ``(R, m)`` count matrix per step and is more than an order of
  magnitude faster at large ``N`` (see ``benchmarks/test_bench_batched.py``).

Both paths derive the seed list identically from ``config.seed``, so results
stay reproducible from the config alone either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.analysis.statistics import ReplicationSummary, summarize_replications
from repro.experiments.config import ExperimentConfig
from repro.utils.rng import seeds_for_replications

ReplicationFunction = Callable[[int, Dict[str, Any]], Dict[str, float]]
"""A replication takes (seed, parameters) and returns a dict of scalar metrics."""

BatchedReplicationFunction = Callable[
    [Sequence[int], Dict[str, Any]], Sequence[Dict[str, float]]
]
"""A batched replication takes (seeds, parameters) and returns one metrics dict per seed."""

GridReplicationFunction = Callable[
    [Sequence[Sequence[int]], Sequence[Dict[str, Any]]],
    Sequence[Sequence[Dict[str, float]]],
]
"""A grid replication takes (per-point seed lists, per-point parameters) and
returns, for each grid point, one metrics dict per seed."""


def grid_batched_replication(
    function: GridReplicationFunction,
) -> GridReplicationFunction:
    """Mark ``function`` as a whole-grid batched replication for :func:`run_sweep`.

    Where :func:`batched_replication` collapses the replicate axis of *one*
    experiment configuration, a grid replication collapses the sweep axis as
    well: :func:`~repro.experiments.sweep.run_sweep` calls it exactly once
    with the seed lists and parameter dicts of **every** grid point, and the
    function returns one metrics dict per (point, seed) pair — typically by
    flattening all ``G x R`` rows into a single
    :class:`~repro.core.batched.BatchedDynamics` launch with per-row
    parameters.

    The seed lists are derived per point exactly as the per-point paths derive
    them, so switching engines never changes an experiment's provenance.

    Usage::

        @grid_batched_replication
        def replication(seed_blocks, points):
            flat_seeds = [seed for block in seed_blocks for seed in block]
            rng = np.random.default_rng(flat_seeds)
            ...  # one (G*R, m) BatchedDynamics launch
            return [[{"regret": ...} for seed in block] for block in seed_blocks]
    """
    function.grid_replications = True  # type: ignore[attr-defined]
    return function


def batched_replication(
    function: BatchedReplicationFunction,
) -> BatchedReplicationFunction:
    """Mark ``function`` as a batched replication for :func:`run_replications`.

    A batched replication is called once with ``(seeds, parameters)`` — the
    full list of per-replicate seeds — and must return a sequence of exactly
    ``len(seeds)`` metric dicts, one per replicate, in seed order.  The seeds
    identify the batch deterministically (e.g. via
    ``np.random.default_rng(seeds)``); individual replicates inside a batch
    share one generator and are not independently re-runnable.

    Usage::

        @batched_replication
        def replication(seeds, parameters):
            rng = np.random.default_rng(seeds)
            trajectory = simulate_batched_population(..., num_replicates=len(seeds), rng=rng)
            return [{"regret": r} for r in trajectory.expected_regret(qualities)]
    """
    function.batched_replications = True  # type: ignore[attr-defined]
    return function


@dataclass
class ReplicatedResult:
    """Metrics from all replications of one experiment configuration."""

    config: ExperimentConfig
    seeds: List[int]
    metrics: List[Dict[str, float]] = field(default_factory=list)

    def metric_values(self, name: str) -> np.ndarray:
        """All replications' values of metric ``name``."""
        missing = [index for index, row in enumerate(self.metrics) if name not in row]
        if missing:
            raise KeyError(
                f"metric '{name}' missing from replications {missing} of "
                f"{self.config.name}"
            )
        return np.array([row[name] for row in self.metrics], dtype=float)

    def metric_names(self) -> List[str]:
        """Names of all metrics present in every replication."""
        if not self.metrics:
            return []
        names = set(self.metrics[0])
        for row in self.metrics[1:]:
            names &= set(row)
        return sorted(names)

    def summarize(self, name: str) -> ReplicationSummary:
        """Replication summary (mean, CI, ...) of metric ``name``."""
        return summarize_replications(self.metric_values(name))

    def summary_row(self) -> Dict[str, Any]:
        """One flat dict: config parameters plus the mean of every metric."""
        row: Dict[str, Any] = dict(self.config.parameters)
        for name in self.metric_names():
            row[name] = float(self.metric_values(name).mean())
        return row


def _validated_metrics(metrics: Any) -> Dict[str, float]:
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError(
            "replication functions must return a non-empty dict of scalar metrics"
        )
    return {key: float(value) for key, value in metrics.items()}


def run_replications(
    config: ExperimentConfig,
    replication: ReplicationFunction,
    *,
    options: Any = None,
) -> ReplicatedResult:
    """Run ``config.replications`` independent replications of an experiment.

    Each replication receives its own integer seed derived from
    ``config.seed``, so the whole experiment is reproducible from the config
    alone and individual replications can be re-run in isolation.

    If ``replication`` opted in via :func:`batched_replication`, it is called
    once with the full seed list (the batched fast path) instead of once per
    seed; the derived seeds, and therefore the result's provenance record,
    are identical in both modes.

    ``options`` — an :class:`~repro.runtime.options.ExecutionOptions` —
    routes execution through the parallel runtime (:mod:`repro.runtime`):
    its executor (e.g. :class:`~repro.runtime.executors.ParallelExecutor`,
    or any :class:`~repro.runtime.backend.Backend`) shards the per-seed work
    — per-seed functions parallelise seed by seed, batched functions stay
    one indivisible task — and its
    :class:`~repro.runtime.store.ResultStore` serves cache hits and records
    results for resume.  The runtime derives identical seeds, so results are
    bit-identical to the default in-process path.
    """
    if getattr(replication, "grid_replications", False):
        raise TypeError(
            "grid-batched replications run over a whole ParameterGrid; call "
            "run_sweep instead of run_replications"
        )
    if options is not None and options.engine_options:
        config = ExperimentConfig(
            name=config.name,
            parameters=options.merged_parameters(config.parameters),
            replications=config.replications,
            seed=config.seed,
        )
    seeds = seeds_for_replications(config.seed, config.replications)
    result = ReplicatedResult(config=config, seeds=seeds)
    runtime_executor = options.resolve_executor() if options is not None else None
    runtime_store = options.store if options is not None else None
    runtime_tracer = options.tracer if options is not None else None
    if (
        runtime_executor is not None
        or runtime_store is not None
        or runtime_tracer is not None
    ):
        # Imported lazily: repro.runtime depends on this module.
        from repro.runtime import ShardPlan, run_plan

        plan = ShardPlan.from_config(config, replication)
        rows_per_point = run_plan(
            plan,
            replication,
            executor=runtime_executor,
            store=runtime_store,
            tracer=runtime_tracer,
        )
        result.metrics.extend(rows_per_point[0])
        return result
    if getattr(replication, "batched_replications", False):
        rows = list(replication(list(seeds), dict(config.parameters)))
        if len(rows) != len(seeds):
            raise ValueError(
                f"batched replication returned {len(rows)} metric rows for "
                f"{len(seeds)} seeds"
            )
        result.metrics.extend(_validated_metrics(row) for row in rows)
        return result
    for seed in seeds:
        result.metrics.append(
            _validated_metrics(replication(seed, dict(config.parameters)))
        )
    return result
