"""One frozen options object for everything that configures *how* a run executes.

:class:`ExecutionOptions` is the one value the CLI, the service daemon and
the campaign scheduler build and thread through every layer
(``run_sweep(..., options=...)``, ``run_replications(..., options=...)``,
``execute_request(..., options=...)``):

``executor``
    A ready-made execution backend (anything satisfying
    :class:`repro.runtime.backend.Backend` — serial, process pool, socket
    broker).  Mutually exclusive with a non-default ``workers``.
``workers``
    Shorthand for "build me a :class:`ParallelExecutor` with this many
    processes" (``1`` means in-process serial execution).
``store``
    A :class:`~repro.runtime.store.ResultStore` serving cache hits and
    persisting completed shards for resume.
``engine_options``
    Extra per-point parameters (e.g. ``{"dtype": "float32"}``) merged over
    every grid point's parameter dict — they ride into result rows and
    content-address keys like any other parameter.
``tracer``
    An optional :class:`~repro.obs.trace.Tracer`.  When set, execution
    routes through the runtime path and every shard/node records a span;
    trace ids derive from content addresses, so enabling tracing never
    perturbs results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional

from repro.runtime.executors import ParallelExecutor


@dataclass(frozen=True)
class ExecutionOptions:
    """How a workload executes: backend/executor, store, workers, engine options.

    Frozen and side-effect free: building one never opens a store or starts
    a process pool — :meth:`resolve_executor` materialises the executor at
    the moment of use.
    """

    executor: Any = None
    store: Any = None
    workers: int = 1
    engine_options: Mapping[str, Any] = field(default_factory=dict)
    tracer: Any = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.executor is not None and self.workers != 1:
            raise ValueError(
                "pass either a ready-made executor or a workers count, not both"
            )
        object.__setattr__(
            self, "engine_options", MappingProxyType(dict(self.engine_options))
        )

    @property
    def active(self) -> bool:
        """Whether these options route execution through the parallel runtime."""
        return (
            self.executor is not None
            or self.store is not None
            or self.workers > 1
            or self.tracer is not None
        )

    def resolve_executor(self) -> Any:
        """The executor to run with: the given one, a pool, or ``None`` (serial)."""
        if self.executor is not None:
            return self.executor
        if self.workers > 1:
            return ParallelExecutor(self.workers)
        return None

    def merged_parameters(
        self, parameters: Optional[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """``parameters`` with :attr:`engine_options` layered on top."""
        merged = dict(parameters or {})
        merged.update(self.engine_options)
        return merged
