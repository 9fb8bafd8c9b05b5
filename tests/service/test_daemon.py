"""End-to-end HTTP tests: daemon + client against a live ephemeral-port server.

The acceptance contract from the service issue:

* rows fetched over HTTP are bit-identical to the same sweep run through
  the ``repro sweep`` CLI,
* re-submitting an identical job is served entirely from the result store
  (0 cache misses), and
* two concurrent identical submissions deduplicate onto one computation,
  while a full queue answers 429.
"""

from __future__ import annotations

import threading

import pytest

from repro import __version__
from repro.cli import main as cli_main
from repro.experiments import read_csv
from repro.runtime import ResultStore
from repro.service import (
    JobFailed,
    ServiceClient,
    ServiceError,
    start_daemon,
    sweep_request,
)

SWEEP_KWARGS = dict(
    options=[0.8, 0.5],
    populations=[60],
    horizon=8,
    replications=2,
    engine="loop",
)

SWEEP_CLI = [
    "sweep",
    "--options", "0.8", "0.5",
    "--populations", "60",
    "--horizon", "8",
    "--replications", "2",
    "--engine", "loop",
]


@pytest.fixture()
def daemon(tmp_path):
    store = ResultStore(tmp_path / "service.sqlite")
    with start_daemon(store=store) as handle:
        yield handle
    store.close()


@pytest.fixture()
def client(daemon):
    return ServiceClient(daemon.url)


class GatedExecute:
    """Wraps the service execute so tests control when a job finishes."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=30.0), "test never released the job"
        return self.inner(request)


def _gate(handle):
    gate = GatedExecute(handle.service.queue._execute)
    handle.service.queue._execute = gate
    return gate


class TestHealthAndStats:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok", "version": __version__}

    def test_stats_expose_store_and_queue(self, client):
        stats = client.stats()
        assert stats["version"] == __version__
        assert stats["store"]["attached"]
        assert stats["store"]["rows"] == 0
        assert stats["queue"]["capacity"] == 16
        assert stats["queue"]["completed"] == 0

    def test_stats_expose_tier_counters(self, client):
        store_stats = client.stats()["store"]
        for counter in (
            "hits",
            "misses",
            "hot_hits",
            "cold_hits",
            "evictions",
            "hot_entries",
            "hot_bytes",
        ):
            assert counter in store_stats, counter
            assert store_stats[counter] == 0
        assert not {"spills", "compactions", "segments"} & set(store_stats)

    def test_warm_job_shows_up_in_tier_counters(self, client):
        request = sweep_request(**SWEEP_KWARGS)
        client.wait(client.submit(request)["job_id"])
        client.wait(client.submit(request)["job_id"])
        store_stats = client.stats()["store"]
        # The cold job wrote its tasks; the warm one replayed them from
        # the hot tier (they were admitted on put).
        assert store_stats["rows"] == 2
        assert store_stats["hits"] == 2
        assert store_stats["hot_hits"] == 2
        assert store_stats["hot_entries"] == 2


class TestEndToEnd:
    def test_http_rows_bit_identical_to_the_cli(self, client, tmp_path):
        target = tmp_path / "cli.csv"
        assert cli_main(SWEEP_CLI + ["--output", str(target)]) == 0
        cli_rows = [dict(row) for row in read_csv(target).rows]

        http_rows = client.run(sweep_request(**SWEEP_KWARGS))

        assert len(http_rows) == len(cli_rows) == 1
        for http_row, cli_row in zip(http_rows, cli_rows):
            assert set(http_row) == set(cli_row)
            for column, cli_value in cli_row.items():
                if column == "qualities":
                    # the CSV keeps the tuple's repr; JSON carries the list
                    assert cli_value == str(tuple(http_row[column]))
                else:
                    assert http_row[column] == cli_value
                    assert type(http_row[column]) is type(cli_value)

    def test_warm_resubmission_is_served_from_cache(self, client):
        request = sweep_request(**SWEEP_KWARGS)
        cold = client.wait(client.submit(request)["job_id"])
        assert cold["cache_misses"] == 2  # one task per (point, seed)
        assert cold["cache_hits"] == 0

        warm = client.wait(client.submit(request)["job_id"])
        assert warm["cache_misses"] == 0
        assert warm["cache_hits"] == 2
        assert warm["rows"] == cold["rows"]
        assert warm["id"] != cold["id"]  # a new job, served by the store

        stats = client.stats()
        assert stats["store"]["rows"] == 2
        assert stats["queue"]["completed"] == 2

    def test_concurrent_identical_submissions_share_one_computation(
        self, daemon, client
    ):
        gate = _gate(daemon)
        request = sweep_request(**SWEEP_KWARGS)

        first = client.submit(request)
        assert gate.started.wait(timeout=30.0)
        second = client.submit(request)

        assert first["attached"] is False
        assert second["attached"] is True
        assert second["job_id"] == first["job_id"]

        gate.release.set()
        result = client.wait(first["job_id"])
        assert gate.calls == 1
        assert result["subscribers"] == 2
        assert client.stats()["queue"]["deduplicated"] == 1


class TestBackPressure:
    def test_full_queue_returns_429(self, tmp_path):
        with start_daemon(job_workers=1, queue_capacity=1) as handle:
            gate = _gate(handle)
            client = ServiceClient(handle.url)

            blocker = client.submit(sweep_request(**{**SWEEP_KWARGS, "seed": 1}))
            assert gate.started.wait(timeout=30.0)
            queued = client.submit(sweep_request(**{**SWEEP_KWARGS, "seed": 2}))

            with pytest.raises(ServiceError) as excinfo:
                client.submit(sweep_request(**{**SWEEP_KWARGS, "seed": 3}))
            assert excinfo.value.status == 429
            assert "capacity" in str(excinfo.value)

            gate.release.set()
            client.wait(blocker["job_id"])
            client.wait(queued["job_id"])


class TestErrorSurface:
    def test_malformed_request_is_a_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "montecarlo"})
        assert excinfo.value.status == 400
        assert "unknown request kind" in str(excinfo.value)

    def test_unknown_field_is_a_400(self, client):
        payload = sweep_request(**SWEEP_KWARGS).to_dict()
        payload["replciations"] = 100
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "replciations" in str(excinfo.value)

    def test_unknown_job_and_path_are_404(self, client):
        for call in (
            lambda: client.status("job-999"),
            lambda: client.result("job-999"),
            lambda: client._call("/nope"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_pending_result_is_a_202(self, daemon, client):
        gate = _gate(daemon)
        submitted = client.submit(sweep_request(**SWEEP_KWARGS))
        assert gate.started.wait(timeout=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["job_id"])
        assert excinfo.value.status == 202
        gate.release.set()
        client.wait(submitted["job_id"])

    def test_failed_job_reports_500(self, daemon, client):
        def explode(request):
            raise RuntimeError("engine blew up")

        daemon.service.queue._execute = explode
        submitted = client.submit(sweep_request(**SWEEP_KWARGS))
        with pytest.raises(JobFailed, match="engine blew up"):
            client.wait(submitted["job_id"])
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["job_id"])
        assert excinfo.value.status == 500
