"""Integration lockdown for the parallel runtime.

Two guarantees the runtime advertises:

* **Execution invariance** — for every replication mode (per-seed loop,
  replicate-batched, grid-batched), a sweep produces bit-identical
  per-(point, seed) metrics whether it runs on the in-process serial
  executor, a 2-worker process pool, or entirely from a warm result store.
* **Resumability** — a run killed mid-sweep leaves every completed shard in
  the store; re-running the same sweep serves those shards from cache,
  computes only the remainder, and ends bit-identical to a never-killed run.
"""

import pytest

from repro.experiments import ExperimentConfig, ParameterGrid, run_replications, run_sweep
from repro.experiments.dynamics_sweep import (
    dynamics_grid_replication,
    dynamics_point_replication,
)
from repro.experiments.protocol_sweep import protocol_batched_replication
from repro.runtime import (
    ExecutionOptions,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
)

GRID = ParameterGrid({"N": [60, 120], "beta": [0.6, 0.7]})
BASE = {"qualities": (0.8, 0.5), "T": 10}

REPLICATIONS = {
    "loop": dynamics_point_replication,
    "batched": protocol_batched_replication,
    "grid": dynamics_grid_replication,
}


def sweep_metrics(replication, **options):
    results, _ = run_sweep(
        "runtime-xval",
        GRID,
        replication,
        replications=3,
        seed=17,
        base_parameters=BASE,
        options=ExecutionOptions(**options) if options else None,
    )
    return [result.metrics for result in results]


@pytest.mark.parametrize("mode", sorted(REPLICATIONS))
def test_serial_two_worker_and_cached_sweeps_are_bit_identical(mode, tmp_path):
    replication = REPLICATIONS[mode]
    serial = sweep_metrics(replication, executor=SerialExecutor())
    parallel = sweep_metrics(
        replication, executor=ParallelExecutor(2, shards_per_worker=2)
    )
    assert parallel == serial

    store_path = tmp_path / f"{mode}.sqlite"
    with ResultStore(store_path) as store:
        cold = sweep_metrics(replication, store=store)
        assert store.misses and not store.hits
    with ResultStore(store_path) as store:
        replay = sweep_metrics(replication, store=store)
        assert store.misses == 0  # zero recomputation from a warm store
    assert cold == serial
    assert replay == serial


def test_loop_runtime_matches_the_legacy_serial_path():
    # The per-seed loop mode is the one path whose stream layout is shared
    # with the legacy in-process engine, so the runtime must match it bit
    # for bit (batched modes share streams across a batch; the grid mode's
    # fused whole-grid launch is documented as a different stream layout).
    assert sweep_metrics(dynamics_point_replication) == sweep_metrics(
        dynamics_point_replication, executor=SerialExecutor()
    )


class FailAfterFirstShard:
    """An executor that dies after its first completed shard (a mock kill)."""

    def __init__(self, num_shards=4):
        self.num_shards = num_shards

    def run_shards(self, shards, replication):
        executor = SerialExecutor(num_shards=self.num_shards)
        for index, shard_results in enumerate(executor.run_shards(shards, replication)):
            if index >= 1:
                raise KeyboardInterrupt("simulated mid-sweep kill")
            yield shard_results


def test_killed_sweep_resumes_from_the_store(tmp_path):
    store_path = tmp_path / "resume.sqlite"
    with ResultStore(store_path) as store:
        with pytest.raises(KeyboardInterrupt):
            sweep_metrics(
                dynamics_point_replication,
                executor=FailAfterFirstShard(num_shards=4),
                store=store,
            )
        persisted = len(store)
        assert 0 < persisted < 12  # some shards flushed, some lost

    with ResultStore(store_path) as store:
        resumed = sweep_metrics(dynamics_point_replication, store=store)
        assert store.hits == persisted  # completed shards were not recomputed
        assert store.misses == 12 - persisted

    assert resumed == sweep_metrics(dynamics_point_replication)


def test_run_replications_executor_and_store_round_trip(tmp_path):
    config = ExperimentConfig(
        name="single-point",
        parameters=dict(BASE, N=80, beta=0.6),
        replications=4,
        seed=3,
    )
    baseline = run_replications(config, dynamics_point_replication)
    with ResultStore(tmp_path / "single.sqlite") as store:
        sharded = run_replications(
            config,
            dynamics_point_replication,
            options=ExecutionOptions(executor=ParallelExecutor(2), store=store),
        )
        replayed = run_replications(
            config, dynamics_point_replication, options=ExecutionOptions(store=store)
        )
        assert store.hits == 4
    assert sharded.metrics == baseline.metrics
    assert replayed.metrics == baseline.metrics
    assert sharded.seeds == baseline.seeds
