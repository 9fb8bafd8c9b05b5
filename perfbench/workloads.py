"""The benchmark's three workloads, driven through the program's public entry points.

Every workload is a closed loop of one client: the next job is sent once
the previous result is in hand.  A workload object owns one set-up (daemon
or brokers, stores, warm-up); ``run_job(index)`` runs job ``index`` of the
seeded job sequence and returns its :class:`JobRecord`; ``check()`` verifies
the outputs after the windows.  Requests are generated from the workload
seed alone, so the same seed gives the same requests.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.campaign import BrokerBackend, campaign_from_spec, make_backend, run_campaign
from repro.runtime import ExecutionOptions, ResultStore, SerialExecutor
from repro.service import (
    ServiceClient,
    ServiceError,
    execute_request,
    network_request,
    protocol_request,
    start_daemon,
    sweep_request,
)

OPTIONS = [0.8, 0.6, 0.5]
KINDS = ("sweep", "network", "protocol")
JOB_TIMEOUT_S = 60.0
#: The error of a job that completed with output its check rejected.
WRONG_OUTPUT = "wrong output"
BROKER_COUNT = 2

# Job sizes per profile.  "full" is what the benchmark measures; "tiny" is
# the self-test's size, small enough to run every workload twice quickly.
PROFILES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "cold-engines": {
            "network": {"size": 2000, "horizon": 40, "replications": 8},
            "protocol": {"nodes": 1500, "rounds": 30, "replications": 8},
            "sweep": {"populations": [1000, 2000, 4000, 8000], "horizon": 150, "replications": 16},
        },
        "warm-replay": {
            "sweeps": 3,
            "sweep": {"populations": 10, "betas": 10, "horizon": 2, "replications": 10},
            "block": [6, 3, 1, 2, 2],
            "network": {"size": 8, "horizon": 2, "replications": 300},
            "protocol": {"nodes": 4, "rounds": 2, "replications": 300},
            "hot_mb": 0.8,
        },
        "campaign-fanout": {
            "sweep": {"populations": [6], "betas": 2, "horizon": 4, "replications": 3},
            "network": {"size": 12, "horizon": 4, "replications": 6},
            "protocol": {"nodes": 6, "rounds": 4, "replications": 6},
        },
    },
    "tiny": {
        "cold-engines": {
            "network": {"size": 200, "horizon": 5, "replications": 2},
            "protocol": {"nodes": 100, "rounds": 5, "replications": 2},
            "sweep": {"populations": [100, 200], "horizon": 5, "replications": 2},
        },
        "warm-replay": {
            "sweeps": 2,
            "sweep": {"populations": 4, "betas": 5, "horizon": 2, "replications": 5},
            "block": [3, 1, 2, 1],
            "network": {"size": 8, "horizon": 2, "replications": 50},
            "protocol": {"nodes": 4, "rounds": 2, "replications": 50},
            "hot_mb": 0.05,
        },
        "campaign-fanout": {
            "sweep": {"populations": [4], "betas": 2, "horizon": 2, "replications": 4},
            "network": {"size": 8, "horizon": 2, "replications": 6},
            "protocol": {"nodes": 4, "rounds": 2, "replications": 6},
        },
    },
}


@dataclass
class JobRecord:
    """One attempted job: what it was, how long it took, whether it succeeded."""

    kind: str
    latency_s: float
    agent_steps: int
    tasks: int
    ok: bool
    error: Optional[str] = None
    #: Per-kind latencies inside the job (campaign simulate nodes).
    parts: List[tuple] = field(default_factory=list)

    def fail(self, error: str) -> None:
        """Count the job as failed after the fact (its output was checked late)."""
        self.ok = False
        self.error = error


def _canonical(value: Any) -> str:
    """JSON text that is equal for two results exactly when they are bit-identical
    (NaN-safe, and -0.0 differs from 0.0)."""
    return json.dumps(value, sort_keys=True)


def _same(left: Any, right: Any) -> bool:
    return _canonical(left) == _canonical(right)


def agent_steps(request: Any) -> int:
    """Σ N·T·R of one request: agent updates its engine has to simulate."""
    spec = request.spec
    if request.kind == "sweep":
        points = len(spec.get("betas") or [None]) * len(spec.get("mus") or [None])
        per_point = sum(spec["populations"]) * points
        return int(per_point * spec["horizon"] * spec["replications"])
    if request.kind == "network":
        return int(spec["size"] * spec["horizon"] * spec["replications"])
    return int(spec["nodes"] * spec["rounds"] * spec["replications"])


def task_count(request: Any) -> int:
    """Runtime tasks of one request: one per (point, seed) for the loop engine,
    one per point for the batched engines."""
    spec = request.spec
    if request.kind == "sweep":
        points = (
            len(spec["populations"])
            * len(spec.get("betas") or [None])
            * len(spec.get("mus") or [None])
        )
        return points * (spec["replications"] if spec["engine"] == "loop" else 1)
    return spec["replications"] if spec["engine"] == "loop" else 1


def file_store(path: Path, **options: Any) -> ResultStore:
    """A file-backed ResultStore whose sqlite commits do not wait for the disk.

    The store's connection is opened with ``PRAGMA synchronous=OFF``.  Every
    write still runs (WAL commits, spill segments, compaction, the checkpoint
    on close); only the fsync at each commit is skipped.  On a shared host an
    fsync issued while other processes' writes are being flushed can take
    longer than a whole job, so with it the host's disk, not the program,
    would set the write path's latency.
    """
    connect = sqlite3.connect

    def unsynced(*args: Any, **kwargs: Any) -> sqlite3.Connection:
        connection = connect(*args, **kwargs)
        connection.execute("PRAGMA synchronous=OFF")
        return connection

    sqlite3.connect = unsynced  # type: ignore[assignment]
    try:
        return ResultStore(path, **options)
    finally:
        sqlite3.connect = connect  # type: ignore[assignment]


class _SeedStream:
    """Distinct per-job seeds drawn in job order from the workload seed."""

    def __init__(self, seed: int, stream: int) -> None:
        self._rng = np.random.default_rng([seed, stream])
        self._seeds: List[int] = []
        self._seen: set = set()

    def __getitem__(self, index: int) -> int:
        while len(self._seeds) <= index:
            value = int(self._rng.integers(1, 2**31 - 1))
            if value not in self._seen:
                self._seen.add(value)
                self._seeds.append(value)
        return self._seeds[index]


class Workload:
    """Shared plumbing; subclasses set ``name`` and implement the hooks."""

    name = ""
    #: Windows end on a multiple of this many jobs, so a fixed job rotation
    #: is always measured whole.
    cycle = 1

    def __init__(self, seed: int, profile: str, workdir: Path) -> None:
        self.seed = seed
        self.sizes = PROFILES[profile][self.name]
        self.workdir = workdir
        self.recorder: Any = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_job(self, index: int) -> JobRecord:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def store_counters(self) -> Dict[str, int]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _DaemonWorkload(Workload):
    """A workload served by ``start_daemon`` and driven by one ``ServiceClient``."""

    handle: Any = None
    store: Any = None

    def _start(self, store: ResultStore) -> None:
        self.store = store
        self.handle = start_daemon(store=store)
        self.client = ServiceClient(self.handle.url, timeout=JOB_TIMEOUT_S)

    def _submit(self, index: int, request: Any):
        """Submit, wait on the job's own completion event, fetch the result.

        Never polls: ``ServiceClient.wait`` sleeps 50 ms doubling to 1 s
        between status calls, which would round every latency up to a poll.
        Returns ``(latency_s, payload or None, error or None)``.
        """
        if self.recorder is not None:
            self.recorder.job = index
        start = time.perf_counter()
        try:
            submitted = self.client.submit(request)
            job = self.handle.service.queue.get(submitted["job_id"])
            if job is None or not job.wait(JOB_TIMEOUT_S):
                return time.perf_counter() - start, None, "timed out"
            payload = self.client.result(submitted["job_id"])
        except ServiceError as error:
            reason = "refused" if error.status == 429 else "failed"
            return time.perf_counter() - start, None, f"{reason}: {error}"
        return time.perf_counter() - start, payload, None

    def store_counters(self) -> Dict[str, int]:
        counters = self.store.counters().as_dict()
        counters["keys"] = len(self.store)
        return counters

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
        if self.store is not None:
            self.store.close()


class ColdEngines(_DaemonWorkload):
    """Batched network, protocol and sweep jobs, each with a seed of its own."""

    name = "cold-engines"
    ROTATION = ("network", "protocol", "sweep")
    cycle = len(ROTATION)

    def __init__(self, seed: int, profile: str, workdir: Path) -> None:
        super().__init__(seed, profile, workdir)
        self._seeds = _SeedStream(seed, 0)
        self._warm_seeds = _SeedStream(seed, 1)
        #: kind -> index -> (request, rows, record) of the first and latest job.
        self.kept: Dict[str, Dict[int, Any]] = {kind: {} for kind in self.ROTATION}

    def _request(self, kind: str, seed: int) -> Any:
        size = self.sizes[kind]
        if kind == "network":
            return network_request(
                options=OPTIONS, topology="watts_strogatz", graph_seed=7, seed=seed,
                engine="batched", **size,
            )
        if kind == "protocol":
            return protocol_request(
                options=OPTIONS, loss=0.2, seed=seed, engine="batched", **size
            )
        return sweep_request(options=OPTIONS, seed=seed, engine="batched", **size)

    def setup(self) -> None:
        # The Watts-Strogatz graph is built once per graph_seed and cached in
        # the process; drop that cache so every set-up round builds it.
        from repro.experiments import network_sweep

        cache = getattr(network_sweep, "_cached_network", None)
        if cache is not None:
            cache.cache_clear()
        # An in-memory store: every job misses and writes a few inline rows,
        # with no spill segments or compaction to compete with the engines.
        self._start(ResultStore(":memory:"))
        for offset, kind in enumerate(self.ROTATION):
            request = self._request(kind, self._warm_seeds[offset])
            _, _, error = self._submit(-1, request)
            if error is not None:
                raise RuntimeError(f"cold-engines warm-up {kind} job {error}")

    def run_job(self, index: int) -> JobRecord:
        kind = self.ROTATION[index % len(self.ROTATION)]
        request = self._request(kind, self._seeds[index])
        latency, payload, error = self._submit(index, request)
        record = JobRecord(
            kind, latency, agent_steps(request), task_count(request),
            ok=error is None, error=error,
        )
        if payload is not None:
            kept = self.kept[kind]
            if len(kept) == 2:
                del kept[max(kept)]
            kept[index] = (request, payload["rows"], record)
        return record

    def check(self) -> List[str]:
        """The first and last job of each kind equal a direct recomputation."""
        problems: List[str] = []
        for kind, kept in self.kept.items():
            if not kept:
                problems.append(f"cold-engines: no {kind} job completed")
            for index, (request, rows, record) in sorted(kept.items()):
                direct = execute_request(
                    request, options=ExecutionOptions(executor=SerialExecutor())
                )
                if not _same(direct.rows, rows):
                    record.fail(WRONG_OUTPUT)
                    problems.append(
                        f"cold-engines: job {index} ({kind}) rows differ from a "
                        "direct execute_request"
                    )
        return problems


class WarmReplay(_DaemonWorkload):
    """Replays of a pre-filled pool of loop-engine requests, skewed to a few."""

    name = "warm-replay"

    def __init__(self, seed: int, profile: str, workdir: Path) -> None:
        super().__init__(seed, profile, workdir)
        rng = np.random.default_rng([seed, 2])
        sizes = self.sizes
        pool: List[Any] = []
        sweep = sizes["sweep"]
        for _ in range(sizes["sweeps"]):
            # Every request has a seed of its own, so no two share a key.
            pool.append(
                sweep_request(
                    options=OPTIONS,
                    populations=[4 + n for n in range(sweep["populations"])],
                    betas=[0.5 + 0.01 * b for b in range(sweep["betas"])],
                    horizon=sweep["horizon"],
                    replications=sweep["replications"],
                    seed=int(rng.integers(1, 2**31 - 1)),
                    engine="loop",
                )
            )
        pool.append(
            network_request(
                options=OPTIONS, topology="watts_strogatz", engine="loop",
                seed=int(rng.integers(1, 2**31 - 1)), **sizes["network"],
            )
        )
        pool.append(
            protocol_request(
                options=OPTIONS, engine="loop",
                seed=int(rng.integers(1, 2**31 - 1)), **sizes["protocol"],
            )
        )
        # Skewed popularity: each block of jobs replays pool slot i
        # block[i] times (roughly Zipf), in a seeded order.  Whole blocks fix
        # the request mix, so only the order and the request seeds change
        # with the workload seed.
        self.pool = pool
        self.block = sizes["block"]
        self.cycle = sum(self.block)
        self._order_rng = np.random.default_rng([seed, 3])
        self._choices: List[int] = []
        self.fill_json: List[str] = []
        self.problems: List[str] = []

    def _pool_index(self, index: int) -> int:
        while len(self._choices) <= index:
            block = [slot for slot, count in enumerate(self.block) for _ in range(count)]
            self._choices.extend(int(slot) for slot in self._order_rng.permutation(block))
        return self._choices[index]

    def setup(self) -> None:
        # The hot-tier budget is the `repro serve --store-hot-mb` setting,
        # chosen below the pool's working set so reads hit both tiers.
        self._start(
            file_store(
                self.workdir / "warm.sqlite",
                hot_budget_bytes=int(self.sizes["hot_mb"] * 2**20),
            )
        )
        self.fill_json = []
        for request in self.pool:
            _, payload, error = self._submit(-1, request)
            if error is not None:
                raise RuntimeError(f"warm-replay fill job {error}")
            self.fill_json.append(_canonical(payload["rows"]))
        # Merge the fill's spill segments now, so no compaction is left
        # running into the timed window.
        self.store.compact()
        for request in self.pool:
            _, _, error = self._submit(-1, request)
            if error is not None:
                raise RuntimeError(f"warm-replay warm-up job {error}")

    def run_job(self, index: int) -> JobRecord:
        slot = self._pool_index(index)
        request = self.pool[slot]
        latency, payload, error = self._submit(index, request)
        if payload is not None:
            # Checked at once, so no replayed rows are kept: a growing heap
            # would lengthen the process's garbage-collector pauses.
            wrong = []
            if payload["cache_misses"] != 0:
                wrong.append(f"had {payload['cache_misses']} cache misses")
            if _canonical(payload["rows"]) != self.fill_json[slot]:
                wrong.append("rows differ from the fill")
            for problem in wrong:
                self.problems.append(f"warm-replay: job {index} {problem}")
            if wrong:
                error = WRONG_OUTPUT
        return JobRecord(
            request.kind, latency, agent_steps(request), task_count(request),
            ok=error is None, error=error,
        )

    def check(self) -> List[str]:
        """Every replay missed nothing and equaled its fill pass bit for bit."""
        return self.problems


class CampaignFanout(Workload):
    """Small campaigns scheduled on a BrokerBackend served by two broker processes."""

    name = "campaign-fanout"

    def __init__(self, seed: int, profile: str, workdir: Path) -> None:
        super().__init__(seed, profile, workdir)
        self._seeds = _SeedStream(seed, 4)
        #: index -> (campaign, result, record) of the first and latest campaign.
        self.kept: Dict[int, Any] = {}
        self._counters: Dict[str, int] = {}
        self.backend: Optional[BrokerBackend] = None
        self.brokers: List[subprocess.Popen] = []

    def _campaign(self, index: int, seed: int) -> Any:
        sizes = self.sizes
        sweep = dict(sizes["sweep"])
        sweep["betas"] = [0.55 + 0.05 * b for b in range(sweep["betas"])]

        def simulate(node_id: str, request: Any) -> Dict[str, Any]:
            return {"id": node_id, "kind": "simulate", "request": request.to_dict()}

        def sweep_node(node_id: str, node_seed: int) -> Dict[str, Any]:
            return simulate(
                node_id,
                sweep_request(options=OPTIONS, seed=node_seed, engine="loop", **sweep),
            )

        nodes = [
            sweep_node("sweep-a", seed),
            sweep_node("sweep-b", seed + 1),
            simulate(
                "network",
                network_request(
                    options=OPTIONS, topology="watts_strogatz", seed=seed + 2,
                    engine="loop", **sizes["network"],
                ),
            ),
            simulate(
                "protocol",
                protocol_request(
                    options=OPTIONS, seed=seed + 3, engine="loop", **sizes["protocol"]
                ),
            ),
            {"id": "sweeps", "kind": "analyse", "inputs": ["sweep-a", "sweep-b"]},
            {"id": "engines", "kind": "analyse", "inputs": ["network", "protocol"]},
            {"id": "report", "kind": "report", "inputs": ["sweeps", "engines"]},
        ]
        return campaign_from_spec({"name": f"bench-{index}", "nodes": nodes})

    def setup(self) -> None:
        # Built as `repro campaign --backend broker` builds it.
        self.backend = make_backend(
            "broker", brokers="tcp://127.0.0.1:0", min_brokers=BROKER_COUNT, timeout=60.0
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        log = open(self.workdir / "brokers.log", "ab")
        try:
            for _ in range(BROKER_COUNT):
                self.brokers.append(
                    subprocess.Popen(
                        [
                            sys.executable, "-m", "repro", "broker",
                            "--coordinator", self.backend.address,
                        ],
                        cwd=str(root),
                        env=env,
                        stdout=subprocess.DEVNULL,
                        stderr=log,
                    )
                )
        finally:
            log.close()
        # The warm-up campaign also admits both brokers (their hello frames
        # are read inside run_shards).
        record = self._run(-1, self._campaign(-1, 1))
        if not record.ok:
            raise RuntimeError(f"campaign-fanout warm-up failed: {record.error}")

    def _run(self, index: int, campaign: Any) -> JobRecord:
        if self.recorder is not None:
            self.recorder.job = index
        store_dir = self.workdir / f"campaign-{index}"
        parts: List[tuple] = []
        start = time.perf_counter()
        last = [start]

        def on_node(node: Any, _result: Any) -> None:
            now = time.perf_counter()
            if node.kind == "simulate":
                parts.append((node.request.kind, now - last[0]))
            last[0] = now

        try:
            store = file_store(store_dir / "store.sqlite")
            try:
                result = run_campaign(
                    campaign, backend=self.backend, store=store, on_node=on_node
                )
                counters = store.counters().as_dict()
                counters["keys"] = len(store)
            finally:
                # Inside the timed window: close() waits for the background
                # compaction the campaign's spills started.
                store.close()
        except Exception as error:  # noqa: BLE001 - counted as a failed job
            return JobRecord(
                "campaign", time.perf_counter() - start, 0, 0, ok=False,
                error=f"failed: {type(error).__name__}: {error}",
            )
        latency = time.perf_counter() - start
        for name, value in counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        requests = [node.request for node in campaign.simulate_nodes()]
        record = JobRecord(
            "campaign", latency,
            sum(agent_steps(r) for r in requests),
            sum(task_count(r) for r in requests),
            ok=True, parts=parts,
        )
        if index >= 0:
            if len(self.kept) == 2:
                del self.kept[max(self.kept)]
            self.kept[index] = (campaign, result.to_dict(), record)
        return record

    def run_job(self, index: int) -> JobRecord:
        return self._run(index, self._campaign(index, self._seeds[index]))

    def check(self) -> List[str]:
        """The first and last campaign equal an in-process SerialExecutor run."""
        problems: List[str] = []
        if not self.kept:
            return ["campaign-fanout: no campaign completed"]
        for index, (campaign, result, record) in sorted(self.kept.items()):
            serial = run_campaign(campaign, backend=SerialExecutor())
            if not _same(serial.to_dict(), result):
                record.fail(WRONG_OUTPUT)
                problems.append(
                    f"campaign-fanout: campaign {index} differs from a SerialExecutor run"
                )
        return problems

    def store_counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()  # sends every broker a shutdown frame
        for broker in self.brokers:
            try:
                broker.wait(timeout=15)
            except subprocess.TimeoutExpired:
                broker.kill()
                broker.wait()
        self.brokers = []


WORKLOADS = {w.name: w for w in (ColdEngines, WarmReplay, CampaignFanout)}
