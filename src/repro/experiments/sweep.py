"""Parameter sweeps: cartesian grids of experiment configurations."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultTable
from repro.experiments.runner import (
    ReplicatedResult,
    ReplicationFunction,
    _validated_metrics,
    run_replications,
)
from repro.utils.rng import seeds_for_replications


@dataclass(frozen=True)
class ParameterGrid:
    """A cartesian product of named parameter values.

    Parameters
    ----------
    axes:
        Mapping from parameter name to the sequence of values to sweep.
        Iteration order follows the insertion order of the mapping, with the
        last axis varying fastest (like nested for-loops).
    """

    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a parameter grid needs at least one axis")
        # Materialise every axis exactly once.  Generators and other one-shot
        # iterables would otherwise be consumed here during validation and
        # silently yield nothing when the grid is iterated.
        normalized = {name: tuple(values) for name, values in self.axes.items()}
        for name, values in normalized.items():
            if len(values) == 0:
                raise ValueError(f"axis '{name}' has no values")
        object.__setattr__(self, "axes", normalized)

    def __len__(self) -> int:
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        names = list(self.axes)
        for combination in itertools.product(*(self.axes[name] for name in names)):
            yield dict(zip(names, combination))


def sweep_configs(
    name: str,
    grid: ParameterGrid,
    *,
    replications: int = 5,
    seed: int = 0,
    base_parameters: Mapping[str, Any] | None = None,
) -> List[ExperimentConfig]:
    """The per-point experiment configs of a sweep, in grid order.

    This is the single canonical derivation — point ``i`` is named
    ``f"{name}[{i}]"`` and seeded at ``seed + i`` — shared by
    :func:`run_sweep` and the parallel runtime's
    :meth:`~repro.runtime.shard.ShardPlan.from_configs`, so sharded and
    in-process sweeps agree on every config and therefore on every seed.
    """
    configs: List[ExperimentConfig] = []
    for index, point in enumerate(grid):
        parameters = dict(base_parameters or {})
        parameters.update(point)
        configs.append(
            ExperimentConfig(
                name=f"{name}[{index}]",
                parameters=parameters,
                replications=replications,
                seed=seed + index,
            )
        )
    return configs


def run_sweep(
    name: str,
    grid: ParameterGrid,
    replication: ReplicationFunction,
    *,
    replications: int = 5,
    seed: int = 0,
    base_parameters: Mapping[str, Any] | None = None,
    options: Any = None,
) -> tuple[List[ReplicatedResult], ResultTable]:
    """Run ``replication`` over every point of ``grid``.

    Returns the raw per-point :class:`ReplicatedResult` objects together with
    a flat :class:`ResultTable` whose rows are the grid parameters plus the
    replication-mean of every metric (the form benchmark tables print).

    Replication functions marked with
    :func:`~repro.experiments.runner.batched_replication` take the batched
    fast path at every grid point: all ``replications`` replicates of a point
    run as one vectorised batch instead of a per-seed loop.  Functions marked
    with :func:`~repro.experiments.runner.grid_batched_replication` go one
    step further — the *entire* ``grid x replications`` workload is handed
    over in a single call (typically one ``(G·R, m)`` engine launch) and the
    returned rows are unflattened back into per-point
    :class:`ReplicatedResult` objects.  All three paths derive identical
    per-point seed lists from ``seed``, so results stay reproducible from the
    arguments alone regardless of the engine.

    ``options`` — an :class:`~repro.runtime.options.ExecutionOptions` —
    routes the sweep through the parallel runtime (:mod:`repro.runtime`):
    the workload is decomposed into per-point (and, for per-seed functions,
    per-seed) tasks, cache hits are served from the options'
    :class:`~repro.runtime.store.ResultStore`, the misses run on its
    executor — e.g. a multi-process
    :class:`~repro.runtime.executors.ParallelExecutor` or any other
    :class:`~repro.runtime.backend.Backend` — and completed shards are
    flushed to the store as they finish, making interrupted sweeps
    resumable.  Task results are execution-invariant, so any executor and
    any cache state yield bit-identical per-(point, seed) metrics.  One
    caveat: grid-batched functions run one *point* per task (the per-point
    batched convention) rather than as a single fused ``G x R`` launch, so
    their sampled trajectories differ from the in-process grid path while
    remaining statistically equivalent and internally reproducible.
    """
    if options is not None and options.engine_options:
        base_parameters = options.merged_parameters(base_parameters)
    configs = sweep_configs(
        name,
        grid,
        replications=replications,
        seed=seed,
        base_parameters=base_parameters,
    )

    results: List[ReplicatedResult] = []
    table = ResultTable()

    runtime_executor = options.resolve_executor() if options is not None else None
    runtime_store = options.store if options is not None else None
    runtime_tracer = options.tracer if options is not None else None
    if (
        runtime_executor is not None
        or runtime_store is not None
        or runtime_tracer is not None
    ):
        # Imported lazily: repro.runtime depends on this module's siblings.
        from repro.runtime import ShardPlan, run_plan

        plan = ShardPlan.from_configs(configs, replication)
        rows_per_point = run_plan(
            plan,
            replication,
            executor=runtime_executor,
            store=runtime_store,
            tracer=runtime_tracer,
        )
        for config, rows in zip(configs, rows_per_point):
            result = ReplicatedResult(
                config=config,
                seeds=seeds_for_replications(config.seed, config.replications),
            )
            result.metrics.extend(rows)
            results.append(result)
            table.add_row(result.summary_row())
        return results, table

    if getattr(replication, "grid_replications", False):
        seed_blocks = [
            seeds_for_replications(config.seed, config.replications)
            for config in configs
        ]
        metric_blocks = list(
            replication(
                [list(block) for block in seed_blocks],
                [dict(config.parameters) for config in configs],
            )
        )
        if len(metric_blocks) != len(configs):
            raise ValueError(
                f"grid replication returned {len(metric_blocks)} metric blocks "
                f"for {len(configs)} grid points"
            )
        for config, seeds, rows in zip(configs, seed_blocks, metric_blocks):
            rows = list(rows)
            if len(rows) != len(seeds):
                raise ValueError(
                    f"grid replication returned {len(rows)} metric rows for "
                    f"{len(seeds)} seeds of {config.name}"
                )
            result = ReplicatedResult(config=config, seeds=seeds)
            result.metrics.extend(_validated_metrics(row) for row in rows)
            results.append(result)
            table.add_row(result.summary_row())
        return results, table

    for config in configs:
        result = run_replications(config, replication)
        results.append(result)
        table.add_row(result.summary_row())
    return results, table
