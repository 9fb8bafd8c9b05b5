"""NumPy is the only array path: no backend seam, seeds go through ensure_rng."""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect

import numpy as np
import pytest

from repro.core.batched import BatchedDynamics, simulate_batched_population
from repro.distributed.vectorized import BatchedProtocol
from repro.experiments.dynamics_sweep import FlatGrid
from repro.network.topology import SocialNetwork
from repro.network.vectorized import (
    BatchedNetworkDynamics,
    simulate_batched_network_dynamics,
)
from repro.utils.rng import ensure_rng

ENGINES = [
    BatchedDynamics,
    BatchedNetworkDynamics,
    BatchedProtocol,
    simulate_batched_population,
    simulate_batched_network_dynamics,
]


def test_backends_package_is_gone():
    assert importlib.util.find_spec("repro.backends") is None


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
def test_engines_take_no_backend_argument(engine):
    assert "backend" not in inspect.signature(engine).parameters
    assert not hasattr(engine, "backend")


def test_flat_grid_has_no_backend_field():
    names = {field.name for field in dataclasses.fields(FlatGrid)}
    assert "backend" not in names
    assert "dtype" in names


def _network_engine(rng):
    return BatchedNetworkDynamics(SocialNetwork.ring(30), 3, 4, rng=rng)


def _protocol_engine(rng):
    return BatchedProtocol(30, 3, num_replicates=4, rng=rng)


@pytest.mark.parametrize(
    "build", [_network_engine, _protocol_engine], ids=["network", "protocol"]
)
class TestSeedHandling:
    def test_int_seed_matches_the_ensure_rng_stream(self, build):
        assert np.array_equal(
            build(123).choices(), build(ensure_rng(123)).choices()
        )

    def test_generator_is_used_not_copied(self, build):
        generator = np.random.default_rng(0)
        untouched = np.random.default_rng(0).bit_generator.state
        build(generator)
        assert generator.bit_generator.state != untouched
