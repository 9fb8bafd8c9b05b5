"""ExecutionOptions: validation and resolution."""

from __future__ import annotations

import warnings

import pytest

from repro.experiments import ParameterGrid
from repro.runtime import ParallelExecutor, ResultStore, SerialExecutor
from repro.runtime.options import ExecutionOptions
from repro.service import execute_request, sweep_request

BASE = {"qualities": (0.8, 0.5), "T": 6}
GRID = ParameterGrid({"N": [40]})


class TestValidation:
    def test_defaults_are_inactive(self):
        options = ExecutionOptions()
        assert not options.active
        assert options.resolve_executor() is None

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionOptions(workers=0)

    def test_executor_and_workers_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ExecutionOptions(executor=SerialExecutor(), workers=4)

    def test_frozen(self):
        options = ExecutionOptions()
        with pytest.raises(AttributeError):
            options.workers = 2

    def test_engine_options_are_read_only(self):
        options = ExecutionOptions(engine_options={"dtype": "float32"})
        with pytest.raises(TypeError):
            options.engine_options["dtype"] = "float64"

    def test_engine_options_copied_from_the_input(self):
        source = {"dtype": "float32"}
        options = ExecutionOptions(engine_options=source)
        source["dtype"] = "float64"
        assert options.engine_options["dtype"] == "float32"


class TestResolution:
    def test_explicit_executor_wins(self):
        executor = SerialExecutor()
        assert ExecutionOptions(executor=executor).resolve_executor() is executor

    def test_workers_build_a_pool(self):
        resolved = ExecutionOptions(workers=2).resolve_executor()
        assert isinstance(resolved, ParallelExecutor)

    def test_store_alone_activates_the_runtime_path(self, tmp_path):
        with ResultStore(tmp_path / "opts.sqlite") as store:
            options = ExecutionOptions(store=store)
            assert options.active
            assert options.resolve_executor() is None

    def test_merged_parameters_layer_engine_options(self):
        options = ExecutionOptions(engine_options={"dtype": "float32"})
        merged = options.merged_parameters({"N": 40})
        assert merged == {"N": 40, "dtype": "float32"}


class TestNewSpelling:
    def test_new_spelling_does_not_warn(self):
        request = sweep_request(
            options=[0.8, 0.5],
            populations=[40],
            horizon=6,
            replications=2,
            engine="loop",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            execute_request(
                request, options=ExecutionOptions(executor=SerialExecutor())
            )
