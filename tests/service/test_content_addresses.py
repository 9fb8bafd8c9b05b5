"""Pinned content addresses of representative requests.

A request's :meth:`~repro.service.requests.SimulationRequest.key` and the
:class:`~repro.runtime.store.ResultStore` task keys derived from it address
every cached row.  A change to either silently orphans every existing store,
so both are pinned here for a default sweep, network and protocol request on
the ``batched`` and ``loop`` engines, plus one ``float32`` request.  Only a
deliberate key-version bump may change these values.
"""

from __future__ import annotations

import pytest

from repro.experiments.sweep import sweep_configs
from repro.runtime import ShardPlan
from repro.runtime.store import ResultStore
from repro.service.requests import (
    network_request,
    prepare_request,
    protocol_request,
    sweep_request,
)

BUILDERS = {
    "sweep": lambda **kw: sweep_request(
        options=[0.8, 0.5], populations=[100, 200], **kw
    ),
    "network": lambda **kw: network_request(
        options=[0.8, 0.5], topology="ring", size=50, **kw
    ),
    "protocol": lambda **kw: protocol_request(options=[0.8, 0.5], nodes=50, **kw),
}

# (kind, engine, dtype) -> (request key, first task key)
PINNED = {
    ("sweep", "batched", None): (
        "f59cc4208890c1ae2f0a4e7baad7293565caeee6c5f3992597f78b414730b611",
        "6442362257dfd9014f0cb322ba534d853a4637f79e388fefb7246b6f53e4ec7a",
    ),
    ("sweep", "loop", None): (
        "4e90244ab304a18c41cb1165c50efa1f5a5c1063a28803294b42bf3ead1fcca0",
        "65f4d7d782fa85ef095f99db312736e62ff5eae98961f19b064b63e4ebae108a",
    ),
    ("network", "batched", None): (
        "e56077be7391f9d26c99803ea99a2a9bbb289a17ce381345616012311756b0d5",
        "8e447c85f8b0e61e6a2cb93f87295a07e75c01b1e2e2bbbc2239d06f406cb5f7",
    ),
    ("network", "loop", None): (
        "2a6d222c29ce28466fa87fde708ff2acf707c60d61a9942513f108e9e5accd46",
        "070d42fdb63eb85234765f5cbdc8ad6ee138a1deb62bf8b4dbc7d112fa8a9251",
    ),
    ("protocol", "batched", None): (
        "298481513e61ccb5f998bb3e5808100ef4a5709c92724cc55e614e646e40fbfd",
        "6ea84fdab5c161e4f5a1f3f7720461f6cfdec2507ee48f203cd9ed876e78ec6f",
    ),
    ("protocol", "loop", None): (
        "535cc267e1e3da4690210851a757924a2c059db792fb6a758932e05576055e6c",
        "bc95ff03006fa80e64ff16f64f7f673f8d5e63f55ebff9544c77aa88831949e9",
    ),
    ("network", "batched", "float32"): (
        "95535a74e1e44ff215eb33fa1257cadf886be2cf3360532460a8e813f7d8744f",
        "ebd5b9e10b64d65170522cd3e88977bb0f91e70c5cb747764dc48f284eb4a3f9",
    ),
}


def first_task_key(request) -> str:
    """The store key of the first task the runtime plans for ``request``."""
    prepared = prepare_request(request)
    if prepared.grid is not None:
        configs = sweep_configs(
            prepared.name,
            prepared.grid,
            replications=prepared.replications,
            seed=prepared.seed,
            base_parameters=prepared.base_parameters,
        )
    else:
        configs = [prepared.config]
    plan = ShardPlan.from_configs(configs, prepared.replication)
    with ResultStore() as store:
        return store.key_for(plan.tasks[0])


@pytest.mark.parametrize(
    "kind, engine, dtype", sorted(PINNED, key=repr), ids=lambda value: str(value)
)
def test_content_addresses_are_pinned(kind, engine, dtype):
    request = BUILDERS[kind](engine=engine, dtype=dtype)
    assert (request.key(), first_task_key(request)) == PINNED[kind, engine, dtype]
