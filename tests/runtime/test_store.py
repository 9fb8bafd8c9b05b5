"""Tests for the content-addressed ResultStore: sqlite table plus hot LRU."""

import json
import math
import sqlite3
import struct
import threading

import numpy as np
import pytest

from repro import __version__
from repro.experiments import ExperimentConfig
from repro.experiments.dynamics_sweep import dynamics_point_replication
from repro.runtime import (
    ResultStore,
    ShardPlan,
    canonical_json,
    canonical_value,
    task_key,
)

BASE = {"qualities": (0.8, 0.5), "T": 10, "N": 50}


def make_task(parameters=None, seeds=None, replications=2, seed=0):
    config = ExperimentConfig(
        name="store-test",
        parameters=dict(parameters or BASE),
        replications=replications,
        seed=seed,
    )
    plan = ShardPlan.from_config(config, dynamics_point_replication)
    task = plan.tasks[0]
    if seeds is not None:
        task = type(task)(
            ordinal=task.ordinal,
            point_index=task.point_index,
            name=task.name,
            function_ref=task.function_ref,
            mode=task.mode,
            parameters=task.parameters,
            seeds=tuple(seeds),
            replicate_offset=task.replicate_offset,
        )
    return task


class TestCanonicalJson:
    def test_key_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuple_and_list_equivalent(self):
        assert canonical_json({"q": (0.8, 0.5)}) == canonical_json({"q": [0.8, 0.5]})

    def test_numpy_scalars_normalised(self):
        assert canonical_json({"n": np.int64(5)}) == canonical_json({"n": 5})
        assert canonical_json({"x": np.float64(0.5)}) == canonical_json({"x": 0.5})

    def test_numpy_arrays_normalised(self):
        assert canonical_json({"q": np.array([0.8, 0.5])}) == canonical_json(
            {"q": [0.8, 0.5]}
        )

    def test_none_and_bool_supported(self):
        assert canonical_json({"a": None, "b": True}) == '{"a":null,"b":true}'

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="canonical cache key"):
            canonical_json({"bad": object()})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="parameter names"):
            canonical_json({1: "x"})


class TestNonFiniteRejection:
    """RFC 8259 has no NaN/Infinity tokens — such keys must be refused loudly.

    The old encoder passed ``float("nan")`` straight to ``json.dumps``, which
    happily emits the non-standard ``NaN`` token; the resulting key could not
    round-trip through any strict JSON parser, and ``NaN != NaN`` made the
    parameter unmatchable anyway.
    """

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_bare_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_value(value)

    def test_numpy_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_value(np.float64("nan"))

    def test_nested_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"qualities": [0.8, float("inf")], "T": 10})

    def test_finite_floats_still_accepted(self):
        assert canonical_json({"x": 0.5}) == '{"x":0.5}'


class TestTaskKey:
    def test_parameter_order_does_not_change_the_key(self):
        first = make_task({"T": 10, "N": 50, "qualities": (0.8, 0.5)})
        second = make_task({"qualities": (0.8, 0.5), "N": 50, "T": 10})
        assert task_key(first) == task_key(second)

    def test_different_seeds_change_the_key(self):
        assert task_key(make_task(seeds=[1])) != task_key(make_task(seeds=[2]))

    def test_different_parameters_change_the_key(self):
        other = dict(BASE, N=100)
        assert task_key(make_task(BASE)) != task_key(make_task(other))

    def test_code_version_changes_the_key(self):
        task = make_task()
        assert task_key(task, "v1") != task_key(task, "v2")


class TestResultStore:
    def test_miss_then_hit_round_trip(self):
        task = make_task()
        metrics = [{"regret": 0.5}, {"regret": 0.25}]
        with ResultStore() as store:
            key = store.key_for(task)
            assert store.get(key) is None
            store.put(task, metrics)
            assert store.get(key) == metrics
            assert store.hits == 1
            assert store.misses == 1
            assert key in store
            assert len(store) == 1

    def test_contains_does_not_count(self):
        with ResultStore() as store:
            assert store.key_for(make_task()) not in store
            assert store.hits == 0
            assert store.misses == 0

    def test_put_overwrites(self):
        task = make_task()
        with ResultStore() as store:
            store.put(task, [{"a": 1.0}, {"a": 1.0}])
            store.put(task, [{"a": 2.0}, {"a": 2.0}])
            assert len(store) == 1
            assert store.get(store.key_for(task)) == [{"a": 2.0}, {"a": 2.0}]

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "nested" / "results.sqlite"
        task = make_task()
        metrics = [{"regret": 0.125}, {"regret": 0.5}]
        with ResultStore(path) as store:
            store.put(task, metrics)
        with ResultStore(path) as reopened:
            assert reopened.get(reopened.key_for(task)) == metrics

    def test_code_version_isolates_entries(self, tmp_path):
        path = tmp_path / "versioned.sqlite"
        task = make_task()
        with ResultStore(path, code_version="v1") as store:
            store.put(task, [{"a": 1.0}, {"a": 1.0}])
        with ResultStore(path, code_version="v2") as upgraded:
            assert upgraded.get(upgraded.key_for(task)) is None

    def test_put_many_single_transaction(self):
        first = make_task(seeds=[1])
        second = make_task(seeds=[2])
        with ResultStore() as store:
            keys = store.put_many(
                [(first, [{"a": 1.0}]), (second, [{"a": 2.0}])]
            )
            assert len(keys) == 2
            assert len(store) == 2


class TestThreadSafety:
    """Regression: the daemon's worker threads share one store concurrently.

    The old store used a default sqlite connection (``check_same_thread``
    on, no WAL, no busy timeout) and a positional ``INSERT OR REPLACE``, so
    any cross-thread access raised and any schema change silently misaligned
    columns.
    """

    THREADS = 6
    TASKS_PER_THREAD = 25

    def test_concurrent_readers_and_writers(self, tmp_path):
        store = ResultStore(tmp_path / "concurrent.sqlite")
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker):
            try:
                barrier.wait(timeout=10)
                for index in range(self.TASKS_PER_THREAD):
                    task = make_task(
                        parameters={**BASE, "worker": worker, "index": index},
                        seeds=[worker, index],
                    )
                    metrics = [{"metric": float(worker * 1000 + index)}] * 2
                    store.put(task, metrics)
                    assert store.get(store.key_for(task)) == metrics
                    len(store)  # exercises the read path under contention
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(store) == self.THREADS * self.TASKS_PER_THREAD
        counters = store.counters()
        assert counters.hits == self.THREADS * self.TASKS_PER_THREAD
        assert counters.misses == 0
        assert counters.hits == counters.hot_hits + counters.cold_hits
        store.close()

    def test_file_store_runs_in_wal_mode(self, tmp_path):
        store = ResultStore(tmp_path / "wal.sqlite")
        mode = store._connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()

    def test_close_is_idempotent_and_marks_closed(self):
        store = ResultStore()
        assert not store.closed
        store.close()
        store.close()  # second close must not raise
        assert store.closed
        with pytest.raises(RuntimeError, match="closed"):
            store.get("anything")

    @pytest.mark.parametrize(
        "operation",
        [
            lambda store: store.get("0" * 64),
            lambda store: store.get_many(["0" * 64]),
            lambda store: store.put(make_task(), [{"metric": 1.0}]),
            lambda store: store.compact(),
            lambda store: len(store),
            lambda store: "0" * 64 in store,
        ],
        ids=["get", "get_many", "put", "compact", "len", "contains"],
    )
    def test_closed_store_rejects_every_operation(self, operation):
        store = ResultStore()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            operation(store)

    def test_insert_names_its_columns(self, tmp_path):
        # A new column appended to the schema must not shift the insert's
        # values: named columns keep old writers valid against the wider
        # table.
        path = tmp_path / "wider.sqlite"
        with ResultStore(path) as store:
            store._connection.execute(
                "ALTER TABLE results ADD COLUMN annotation TEXT"
            )
            task = make_task()
            key = store.put(task, [{"metric": 1.0}, {"metric": 2.0}])
            assert store.get(key) == [{"metric": 1.0}, {"metric": 2.0}]


# Awkward floats: accumulated rounding, thirds, pi, a subnormal, negative
# zero — the sqlite tier must bring these back exactly, not merely close.
AWKWARD = [0.1 + 0.2, 1.0 / 3.0, float(np.pi), 5e-324, -0.0]


def float_bits(value):
    return struct.pack("<d", value)


def assert_identical(got, expected):
    """Same rows, same keys, same types; floats with the same bits, or NaN."""
    assert len(got) == len(expected)
    for got_row, expected_row in zip(got, expected):
        assert list(got_row) == list(expected_row)
        for name, value in expected_row.items():
            assert type(got_row[name]) is type(value), name
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(got_row[name]), name
            elif isinstance(value, float):
                # == would pass -0.0 for 0.0; compare the bits.
                assert float_bits(got_row[name]) == float_bits(value), name
            else:
                assert got_row[name] == value, name


class TestTieredStore:
    def test_put_then_get_is_hot_hit_without_files_or_threads(self, tmp_path):
        threads_before = set(threading.enumerate())
        with ResultStore(tmp_path / "tiered.sqlite") as store:
            key = store.put(make_task(), [{"regret": 0.5}, {"regret": 0.25}])
            assert store.get(key) == [{"regret": 0.5}, {"regret": 0.25}]
            counters = store.counters()
            assert counters.hot_hits == 1
            assert counters.cold_hits == 0
            assert store.hot_entries == 1
            assert set(threading.enumerate()) == threads_before
        assert not (tmp_path / "tiered.sqlite.segments").exists()

    def test_cold_read_after_reopen_is_bit_identical(self, tmp_path):
        path = tmp_path / "cold.sqlite"
        metrics = [{"value": value} for value in AWKWARD]
        task = make_task()
        with ResultStore(path) as store:
            key = store.put(task, metrics)
        with ResultStore(path) as reopened:
            assert reopened.hot_entries == 0
            got = reopened.get(key)
            assert_identical(got, metrics)
            counters = reopened.counters()
            assert counters.cold_hits == 1
            assert counters.hot_hits == 0
            # The cold read admits the entry, so the next one is hot.
            assert reopened.get(key) == metrics
            assert reopened.counters().hot_hits == 1

    def test_round_trip_keeps_values_and_types(self, tmp_path):
        path = tmp_path / "types.sqlite"
        metrics = [
            {
                "negative_zero": -0.0,
                "nan": float("nan"),
                "subnormal": 5e-324,
                "largest_subnormal": 2.225073858507201e-308,
                "huge": 1e308,
                "third": 1.0 / 3.0,
            },
            {"count": 3, "big": 2**62, "negative": -7},
            {"yes": True, "no": False, "missing": None, "label": "ok", "empty": ""},
        ]
        task = make_task()
        with ResultStore(path) as store:
            key = store.put(task, metrics)
        with ResultStore(path) as reopened:
            got = reopened.get(key)
            assert reopened.counters().cold_hits == 1
            assert_identical(got, metrics)
            # The hot copy admitted by that read is identical too.
            assert_identical(reopened.get(key), metrics)
            assert reopened.counters().hot_hits == 1

    def test_entry_larger_than_hot_budget_stays_cold(self, tmp_path):
        with ResultStore(tmp_path / "big.sqlite", hot_budget_bytes=256) as store:
            oversized = [{"metric": float(i)} for i in range(64)]
            key = store.put(make_task(), oversized)
            assert store.hot_entries == 0
            for _ in range(2):
                assert store.get(key) == oversized
            counters = store.counters()
            # Never admitted: every read is a sqlite read.
            assert counters.cold_hits == 2
            assert counters.hot_hits == 0
            assert store.hot_entries == 0

    def test_lru_eviction_by_byte_budget(self, tmp_path):
        one_entry = ResultStore()
        one_entry.put(make_task(), [{"metric": 0.0}])
        entry_bytes = one_entry.hot_bytes
        one_entry.close()
        with ResultStore(
            tmp_path / "lru.sqlite", hot_budget_bytes=2 * entry_bytes
        ) as store:
            keys = [
                store.put(make_task(seeds=[seed]), [{"metric": float(seed)}])
                for seed in range(3)
            ]
            assert store.hot_entries == 2
            assert store.hot_bytes == 2 * entry_bytes
            assert store.counters().evictions == 1
            # The first entry was evicted; reading it is a cold hit.
            assert store.get(keys[0]) == [{"metric": 0.0}]
            assert store.counters().cold_hits == 1

    def test_compact_checkpoints_the_wal_and_survives_reopen(self, tmp_path):
        path = tmp_path / "compact.sqlite"
        wal = tmp_path / "compact.sqlite-wal"
        with ResultStore(path) as store:
            keys = [
                store.put(make_task(seeds=[seed]), [{"metric": float(seed)}])
                for seed in range(4)
            ]
            assert wal.stat().st_size > 0
            store.compact()
            assert wal.stat().st_size == 0
            for seed, key in enumerate(keys):
                assert store.get(key) == [{"metric": float(seed)}]
        with ResultStore(path) as reopened:
            for seed, key in enumerate(keys):
                assert reopened.get(key) == [{"metric": float(seed)}]

    def test_memory_store_compact_is_a_noop(self):
        with ResultStore() as store:
            key = store.put(make_task(), [{"metric": 1.0}])
            store.compact()
            assert store.get(key) == [{"metric": 1.0}]

    def test_get_many_counts_like_repeated_gets(self, tmp_path):
        path = tmp_path / "bulk.sqlite"
        with ResultStore(path) as store:
            present = [
                store.put(make_task(seeds=[seed]), [{"metric": float(seed)}])
                for seed in range(3)
            ]
        with ResultStore(path) as reopened:
            absent = "0" * 64
            keys = present + [absent, present[0], absent]
            found = reopened.get_many(keys)
            assert set(found) == set(present)
            assert found[present[1]] == [{"metric": 1.0}]
            counters = reopened.counters()
            assert counters.hits == 4  # 3 first reads + 1 duplicate
            assert counters.misses == 2  # the absent key, twice
            assert counters.cold_hits == 3
            assert counters.hot_hits == 1

    def test_get_many_spans_several_query_chunks(self, tmp_path):
        path = tmp_path / "chunks.sqlite"
        tasks = [make_task(seeds=[seed]) for seed in range(1200)]
        with ResultStore(path) as store:
            keys = store.put_many(
                [(task, [{"metric": float(task.seeds[0])}]) for task in tasks]
            )
        with ResultStore(path) as reopened:
            reopened.get(keys[7])  # one hot entry among the cold ones
            absent = ["f" * 64, "e" * 64]
            found = reopened.get_many(keys + absent)
            assert len(found) == len(keys)
            for seed, key in enumerate(keys):
                assert found[key] == [{"metric": float(seed)}]
            counters = reopened.counters()
            assert counters.cold_hits == len(keys)
            assert counters.hot_hits == 1
            assert counters.misses == len(absent)

    def test_put_many_duplicate_keys_last_write_wins(self, tmp_path):
        path = tmp_path / "duplicates.sqlite"
        task = make_task()
        with ResultStore(path) as store:
            first, second = store.put_many(
                [(task, [{"metric": 1.0}]), (task, [{"metric": 2.0}])]
            )
            assert first == second
            assert len(store) == 1
            assert store.hot_entries == 1
            assert store.get(first) == [{"metric": 2.0}]
        with ResultStore(path) as reopened:
            assert reopened.get(first) == [{"metric": 2.0}]

    def test_returned_rows_are_copies(self, tmp_path):
        path = tmp_path / "copies.sqlite"
        with ResultStore(path) as store:
            key = store.put(make_task(), [{"metric": 1.0}])
        with ResultStore(path) as reopened:
            # Mutate what a cold read and then a hot read hand out; neither
            # may reach the LRU's copy.
            reopened.get(key)[0]["metric"] = -1.0
            reopened.get(key)[0]["metric"] = -2.0
            reopened.get_many([key])[key].append({"metric": 3.0})
            assert reopened.get(key) == [{"metric": 1.0}]
            assert reopened.counters().hot_hits == 3

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="hot_budget_bytes"):
            ResultStore(tmp_path / "bad.sqlite", hot_budget_bytes=0)


class TestLegacyMigration:
    """Stores written by earlier versions must open without data loss."""

    LEGACY_SCHEMA = """
    CREATE TABLE results (
        key TEXT PRIMARY KEY,
        function TEXT NOT NULL,
        name TEXT NOT NULL,
        parameters TEXT NOT NULL,
        seeds TEXT NOT NULL,
        code_version TEXT NOT NULL,
        metrics TEXT NOT NULL,
        created_at TEXT NOT NULL
    )
    """

    def make_legacy_store(self, path, task, metrics):
        connection = sqlite3.connect(str(path))
        connection.execute(self.LEGACY_SCHEMA)
        connection.execute(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                task_key(task),
                task.function_ref,
                task.name,
                canonical_json(task.parameters),
                json.dumps(list(task.seeds)),
                __version__,
                json.dumps(metrics),
                "2026-01-01T00:00:00+00:00",
            ),
        )
        connection.commit()
        connection.close()

    def test_legacy_store_opens_and_serves_old_rows(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        task = make_task()
        metrics = [{"regret": 0.5}, {"regret": 0.25}]
        self.make_legacy_store(path, task, metrics)
        with ResultStore(path) as store:
            assert store.get(store.key_for(task)) == metrics
            assert store.counters().cold_hits == 1

    def test_legacy_store_accepts_new_writes(self, tmp_path):
        path = tmp_path / "legacy-grow.sqlite"
        old_task = make_task(seeds=[1])
        self.make_legacy_store(path, old_task, [{"regret": 0.5}])
        with ResultStore(path) as store:
            new_key = store.put(make_task(seeds=[2]), [{"regret": 0.25}])
            assert store.get(store.key_for(old_task)) == [{"regret": 0.5}]
            assert store.get(new_key) == [{"regret": 0.25}]
        with ResultStore(path) as reopened:
            assert len(reopened) == 2
            assert reopened.get(new_key) == [{"regret": 0.25}]


def write_segment(path, entries):
    """An ``.npz`` segment in the earlier columnar layout.

    ``keys`` and ``offsets`` (each entry's row range), the union of column
    ``names``, a float64 ``values`` matrix and a boolean ``present`` mask.
    """
    names = []
    rows = []
    offsets = [0]
    for _, metrics in entries:
        rows.extend(metrics)
        offsets.append(len(rows))
        for row in metrics:
            names.extend(name for name in row if name not in names)
    values = np.zeros((len(rows), len(names)))
    present = np.zeros((len(rows), len(names)), dtype=bool)
    for row_index, row in enumerate(rows):
        for name, value in row.items():
            values[row_index, names.index(name)] = value
            present[row_index, names.index(name)] = True
    np.savez(
        path,
        keys=np.array([key for key, _ in entries]),
        offsets=np.array(offsets, dtype=np.int64),
        names=np.array(names),
        values=values,
        present=present,
    )


class TestSegmentMigration:
    """A store in the earlier segment layout is inlined once, on open.

    That layout kept a row's metrics either inline as JSON (rows from
    stores that predate it, and non-float rows) or as ``(segment, entry)``
    pointers into ``.npz`` files under ``<path>.segments/``: one segment per
    shard flush, merged into one compacted segment by a background thread.
    """

    TIERED_SCHEMA = TestLegacyMigration.LEGACY_SCHEMA.replace(
        "created_at TEXT NOT NULL",
        "created_at TEXT NOT NULL,\n        segment TEXT,\n        entry INTEGER",
    )

    def make_tiered_store(self, path):
        """Three kinds of row; returns ``{key: metrics}`` for all of them.

        A segment row comes back with its columns in the segment's column
        order, so each segment row below lists its columns in that order.
        """
        inline_task = make_task(seeds=[1])
        inline = [{"count": 3, "label": "ok", "flag": True, "regret": -0.0}]
        spilled_task = make_task(seeds=[2])
        spilled = [{"value": value} for value in AWKWARD]
        compacted_tasks = [make_task(seeds=[seed]) for seed in (3, 4, 5)]
        compacted = [
            [{"regret": 0.1 + 0.2, "share": 1e308}, {"regret": 5e-324}],
            [{"share": float("nan")}],
            [{"regret": 1.0 / 3.0, "other": 2.5}, {"other": -1e-310}],
        ]
        segments = path.parent / (path.name + ".segments")
        segments.mkdir()
        write_segment(segments / "seg-spill.npz", [(task_key(spilled_task), spilled)])
        write_segment(
            segments / "seg-merged.npz",
            [(task_key(task), m) for task, m in zip(compacted_tasks, compacted)],
        )
        rows = [
            (inline_task, inline, None, None),
            (spilled_task, spilled, "seg-spill.npz", 0),
        ]
        rows += [
            (task, metrics, "seg-merged.npz", entry)
            for entry, (task, metrics) in enumerate(zip(compacted_tasks, compacted))
        ]
        connection = sqlite3.connect(str(path))
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute(self.TIERED_SCHEMA)
        connection.executemany(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    task_key(task),
                    task.function_ref,
                    task.name,
                    canonical_json(task.parameters),
                    json.dumps(list(task.seeds)),
                    __version__,
                    "" if segment else json.dumps(metrics),
                    "2026-01-01T00:00:00+00:00",
                    segment,
                    entry,
                )
                for task, metrics, segment, entry in rows
            ],
        )
        connection.commit()
        connection.close()
        return {task_key(task): metrics for task, metrics, _, _ in rows}

    def test_every_row_comes_back_bit_identical(self, tmp_path):
        path = tmp_path / "tiered.sqlite"
        expected = self.make_tiered_store(path)
        with ResultStore(path) as store:
            for key, metrics in expected.items():
                assert_identical(store.get(key), metrics)
            counters = store.counters()
            assert counters.misses == 0
            assert counters.cold_hits == len(expected)
        assert not (tmp_path / "tiered.sqlite.segments").exists()
        connection = sqlite3.connect(str(path))
        columns = {row[1] for row in connection.execute("PRAGMA table_info(results)")}
        connection.close()
        assert "segment" not in columns and "entry" not in columns
        # Served from inline JSON from now on, across reopens.
        with ResultStore(path) as reopened:
            found = reopened.get_many(list(expected))
            for key, metrics in expected.items():
                assert_identical(found[key], metrics)
            assert reopened.counters().misses == 0

    def test_failed_migration_leaves_the_store_intact(self, tmp_path):
        path = tmp_path / "broken.sqlite"
        self.make_tiered_store(path)
        segments = tmp_path / "broken.sqlite.segments"
        (segments / "seg-merged.npz").unlink()
        with pytest.raises(FileNotFoundError):
            ResultStore(path)
        connection = sqlite3.connect(str(path))
        pointers = connection.execute(
            "SELECT COUNT(*) FROM results WHERE segment IS NOT NULL"
        ).fetchone()[0]
        connection.close()
        assert pointers == 4
        assert (segments / "seg-spill.npz").exists()


    def test_layout_without_segment_rows_drops_the_columns(self, tmp_path):
        path = tmp_path / "inline-only.sqlite"
        task = make_task()
        connection = sqlite3.connect(str(path))
        connection.execute(self.TIERED_SCHEMA)
        connection.execute(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?, NULL, NULL)",
            (
                task_key(task),
                task.function_ref,
                task.name,
                canonical_json(task.parameters),
                json.dumps(list(task.seeds)),
                __version__,
                json.dumps([{"count": 2}]),
                "2026-01-01T00:00:00+00:00",
            ),
        )
        connection.commit()
        connection.close()
        with ResultStore(path) as store:
            assert store.get(store.key_for(task)) == [{"count": 2}]
            columns = {
                row[1]
                for row in store._connection.execute("PRAGMA table_info(results)")
            }
            assert "segment" not in columns and "entry" not in columns

    def test_migrated_store_accepts_new_writes(self, tmp_path):
        path = tmp_path / "grow.sqlite"
        expected = self.make_tiered_store(path)
        new_task = make_task(seeds=[99])
        with ResultStore(path) as store:
            new_key = store.put(new_task, [{"regret": 0.75}])
        with ResultStore(path) as reopened:
            assert len(reopened) == len(expected) + 1
            assert reopened.get(new_key) == [{"regret": 0.75}]
            for key, metrics in expected.items():
                assert_identical(reopened.get(key), metrics)


class TestTierConcurrency:
    def test_concurrent_reads_during_writes_and_checkpoints(self, tmp_path):
        store = ResultStore(tmp_path / "racing.sqlite", hot_budget_bytes=1024)
        seeds = list(range(40))
        keys = {}
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    for seed, key in list(keys.items()):
                        got = store.get(key)
                        if got is not None:
                            assert got == [{"metric": float(seed)}]
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for seed in seeds:
                keys[seed] = store.put(
                    make_task(seeds=[seed]), [{"metric": float(seed)}]
                )
                if seed % 10 == 9:
                    store.compact()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors
        for seed, key in keys.items():
            assert store.get(key) == [{"metric": float(seed)}]
        counters = store.counters()
        # The small budget forces evictions, so readers hit both tiers.
        assert counters.evictions > 0
        assert counters.cold_hits > 0
        store.close()
