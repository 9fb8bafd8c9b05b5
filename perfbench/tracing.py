"""In-memory span recording around the public functions of each layer.

The traced run installs timing wrappers on the functions listed in
:data:`TARGETS`, at the attribute each caller looks them up through (a
class attribute for methods, the defining module's global for functions the
module calls by name, the ``repro.runtime`` package attribute for
``run_plan``, which the experiment harness imports lazily).  Every call
becomes one span: name, start, end, parent span and the benchmark job it
belongs to.  Parents are tracked per thread, so a span opened on the
daemon's worker thread never claims a client-thread span as its child.
Generator functions (``run_shards``) are recorded one resumption at a time,
so the time the consumer spends between two yielded shards is not counted
as theirs.

Nothing here touches the program's own tracer: the daemon keeps its
always-on job tracing, and its cost is attributed to the ``obs`` layer by
wrapping ``Tracer.span`` and ``Tracer.record_span`` like any other layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, Optional[int]]
"""``(span_id, parent_id, name, start, end, job)``; ``parent_id`` 0 is a root."""


class SpanRecorder:
    """Collects spans, named counts and latency samples of one traced window."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: The benchmark job in flight; the load is a closed loop with one
        #: job at a time, so every thread's spans belong to this job.
        self.job: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def call(self, name: str, function: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``function`` as one span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.job))

    def write(self, path: Any) -> None:
        """Write every span as one JSON line (called once, after the run)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, job in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "job": job,
                        }
                    )
                )
                handle.write("\n")

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``durations``.

        Self time is a span's duration minus the time its child spans cover;
        children of one parent run on the parent's thread, one after the
        other, so their durations add without overlap.
        """
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                covered[parent] += end - start
        out: Dict[str, Dict[str, Any]] = {}
        for span_id, _, name, start, end, _ in self.spans:
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            duration = end - start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered[span_id]
            entry["durations"].append(duration)
        return out


def _function_wrapper(
    recorder: SpanRecorder,
    name: str,
    function: Callable,
    after: Optional[Callable[[SpanRecorder, tuple, Any], None]],
) -> Callable:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = recorder.call(name, function, *args, **kwargs)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _generator_wrapper(recorder: SpanRecorder, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        generator = function(*args, **kwargs)
        try:
            while True:
                try:
                    item = recorder.call(name, next, generator)
                except StopIteration:
                    return
                recorder.add(f"{name}.shards")
                yield item
        finally:
            generator.close()

    return wrapper


def _count_keys(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    recorder.add("store.get_many.keys", len(args[1]))


def _count_tasks(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    recorder.add("driver.run_plan.tasks", len(args[0].tasks))


def _count_result(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    # The daemon encodes its response with json.dumps' defaults, so the same
    # encoding of the decoded payload has exactly the wire body's length.
    recorder.add("service.result.bytes", len(json.dumps(result).encode("utf-8")))
    wait_s = result.get("queue_wait_s")
    if wait_s is not None:
        recorder.sample("service.queue_wait", float(wait_s) * 1000.0)


def _count_frame(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    # Same encoding as broker.send_frame, plus its 4-byte length prefix.
    payload = json.dumps(args[1], separators=(",", ":")).encode("utf-8")
    recorder.add("campaign.send_frame.bytes", len(payload) + 4)


#: ``(module, attribute path, span name, kind, after-call hook)`` per wrapped
#: function; kind "gen" marks a generator function.
TARGETS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    (
        "repro.network.vectorized",
        "BatchedNetworkDynamics.step",
        "network.step",
        "fn",
        None,
    ),
    (
        "repro.network.vectorized",
        "committed_neighbor_counts",
        "network.committed_neighbor_counts",
        "fn",
        None,
    ),
    (
        "repro.distributed.vectorized",
        "BatchedProtocol.run_round",
        "distributed.run_round",
        "fn",
        None,
    ),
    ("repro.core.batched", "BatchedDynamics.step", "core.batched_step", "fn", None),
    ("repro.runtime.store", "ResultStore.key_for", "store.key_for", "fn", None),
    ("repro.runtime.store", "ResultStore.get_many", "store.get_many", "fn", _count_keys),
    ("repro.runtime.store", "ResultStore.put_many", "store.put_many", "fn", None),
    ("repro.runtime.store", "ResultStore.compact", "store.compact", "fn", None),
    ("repro.runtime", "run_plan", "driver.run_plan", "fn", _count_tasks),
    (
        "repro.runtime.executors",
        "SerialExecutor.run_shards",
        "executors.run_shards",
        "gen",
        None,
    ),
    (
        "repro.campaign.broker",
        "BrokerBackend.run_shards",
        "campaign.run_shards",
        "gen",
        None,
    ),
    ("repro.campaign.broker", "send_frame", "campaign.send_frame", "fn", _count_frame),
    ("repro.service.daemon", "execute_request", "service.execute_request", "fn", None),
    ("repro.service.client", "ServiceClient.submit", "service.submit", "fn", None),
    ("repro.service.client", "ServiceClient.result", "service.result", "fn", _count_result),
    ("repro.obs.trace", "Tracer.span", "obs.span", "fn", None),
    ("repro.obs.trace", "Tracer.record_span", "obs.record_span", "fn", None),
]


def install(recorder: SpanRecorder) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every target function.

    Returns the callable that restores the originals, and the targets that
    no longer exist in the program (their metrics then read 0).
    """
    originals = []
    missing = []
    for module_name, path, name, kind, after in TARGETS:
        *owner_path, attribute = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        if kind == "gen":
            wrapper = _generator_wrapper(recorder, name, original)
        else:
            wrapper = _function_wrapper(recorder, name, original, after)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return restore, missing
