"""Run one benchmark workload against the program and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-engines --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Each run sets the workload up several times (the median set-up time is
``setup_s``), measures one untraced window of ``--seconds`` seconds and
prints the end-to-end metrics.  With ``--trace 1`` it then measures a
second, traced window of the same length and prints the per-layer metrics
instead, ``bench.trace_overhead`` (traced ÷ untraced time per agent-step)
among them; the spans go to ``.perfbench_out/trace-<workload>.jsonl``.
The outputs are checked after the windows; a failed check exits 1.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--self-test`` runs every workload twice at a tiny size with a fixed job
count and checks that every metric named in ``BENCHMARK.json`` is printed
with its unit and that the deterministic counts repeat exactly.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_ROUNDS = 3

if not (ROOT / "src" / "repro").is_dir():
    print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(ROOT / "src"))

try:
    from repro.obs.metrics import get_registry  # noqa: E402

    import measure  # noqa: E402
    import tracing  # noqa: E402
    from workloads import KINDS, WORKLOADS  # noqa: E402
except ImportError as error:  # the program's sources are missing or broken
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
    raise SystemExit(2)

IMPORT_S = time.perf_counter() - PROCESS_START

LAYERS = (
    "network", "distributed", "core", "store", "driver", "executors", "service",
    "campaign", "obs",
)

#: Counts that must repeat exactly for one seed (compared by --self-test).
EXACT_COUNTS = (
    "jobs",
    "tasks",
    "agent_steps",
    "store.keys",
    "store.hot_hits",
    "store.cold_hits",
    "store.spills",
    "store.get_many.keys",
    "store.put_many.calls",
    "network.step.calls",
    "core.batched_step.calls",
    "distributed.run_round.calls",
    "driver.run_plan.tasks",
    "executors.run_shards.shards",
    "campaign.send_frame.calls",
    "campaign.send_frame.bytes",
)


def _window(workload, seconds, first, jobs):
    """Run jobs back to back from index ``first`` for ``seconds`` (or ``jobs`` jobs).

    The window closes on a whole number of the workload's job cycles.
    """
    gc.collect()  # the garbage of set-up or of the previous window is not this window's
    records = []
    start = time.perf_counter()
    while True:
        records.append(workload.run_job(first + len(records)))
        elapsed = time.perf_counter() - start
        done = (len(records) >= jobs) if jobs else (elapsed >= seconds)
        if done and len(records) % workload.cycle == 0:
            return records, elapsed


def _kind_latencies_ms(records, kind):
    """Latencies of one job kind: whole jobs, or campaign simulate nodes."""
    values = [r.latency_s * 1000.0 for r in records if r.ok and r.kind == kind]
    values += [d * 1000.0 for r in records if r.ok for k, d in r.parts if k == kind]
    return values


def _end_to_end(records, window_s, setup_s, rss_mb):
    ok = [r for r in records if r.ok]
    latencies = [r.latency_s * 1000.0 for r in ok]
    tail_ms, percentile, n = measure.tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "agent_steps_per_s": (sum(r.agent_steps for r in ok) / window_s, "1/s"),
        "tasks_per_s": (sum(r.tasks for r in ok) / window_s, "1/s"),
        "job_p50_ms": (measure.median(latencies), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
    }
    for kind in KINDS:
        metrics[f"{kind}_job_ms"] = (measure.median(_kind_latencies_ms(records, kind)), "ms")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["success_rate"] = (len(ok) / len(records), "ratio")
    return metrics, (percentile, n)


def _per_layer(summary, recorder, counters, registry, records, overhead, calibration_ms):
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def p50_ms(name):
        return measure.median(summary.get(name, {}).get("durations", [])) * 1000.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    before, after = registry
    hot, cold = counters.get("hot_hits", 0), counters.get("cold_hits", 0)
    hits, misses = counters.get("hits", 0), counters.get("misses", 0)
    simulate_ms = [d * 1000.0 for r in records if r.ok for _, d in r.parts]
    ok = [r.latency_s * 1000.0 for r in records if r.ok]
    _, tail_percentile, _ = measure.tail(ok)
    return {
        "network.step.calls": (calls("network.step"), "count"),
        "network.step.p50_ms": (p50_ms("network.step"), "ms"),
        "network.committed_neighbor_counts.p50_ms": (
            p50_ms("network.committed_neighbor_counts"),
            "ms",
        ),
        "distributed.run_round.calls": (calls("distributed.run_round"), "count"),
        "distributed.run_round.p50_ms": (p50_ms("distributed.run_round"), "ms"),
        "core.batched_step.calls": (calls("core.batched_step"), "count"),
        "core.batched_step.p50_ms": (p50_ms("core.batched_step"), "ms"),
        "store.key_for.calls": (calls("store.key_for"), "count"),
        "store.key_for.self_s": (self_s("store.key_for"), "s"),
        "store.get_many.self_s": (self_s("store.get_many"), "s"),
        "store.get_many.keys": (recorder.counts["store.get_many.keys"], "count"),
        "store.hot_hits": (hot, "count"),
        "store.cold_hits": (cold, "count"),
        "store.hot_hit_ratio": (ratio(hot, hot + cold), "ratio"),
        "store.put_many.calls": (calls("store.put_many"), "count"),
        "store.put_many.self_s": (self_s("store.put_many"), "s"),
        "store.spills": (counters.get("spills", 0), "count"),
        "store.compact.calls": (calls("store.compact"), "count"),
        "store.compact.self_s": (self_s("store.compact"), "s"),
        "driver.run_plan.self_s": (self_s("driver.run_plan"), "s"),
        "driver.run_plan.tasks": (recorder.counts["driver.run_plan.tasks"], "count"),
        "driver.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "executors.run_shards.self_s": (self_s("executors.run_shards"), "s"),
        "executors.run_shards.shards": (
            recorder.counts["executors.run_shards.shards"],
            "count",
        ),
        "service.submit.p50_ms": (p50_ms("service.submit"), "ms"),
        "service.result.p50_ms": (p50_ms("service.result"), "ms"),
        "service.result.bytes": (recorder.counts["service.result.bytes"], "bytes"),
        "service.queue_wait.p50_ms": (
            measure.median(recorder.samples["service.queue_wait"]),
            "ms",
        ),
        "service.execute_request.self_s": (self_s("service.execute_request"), "s"),
        "campaign.simulate_node.p50_ms": (measure.median(simulate_ms), "ms"),
        "campaign.run_shards.self_s": (self_s("campaign.run_shards"), "s"),
        "campaign.send_frame.calls": (calls("campaign.send_frame"), "count"),
        "campaign.send_frame.bytes": (recorder.counts["campaign.send_frame.bytes"], "bytes"),
        "campaign.requeues": (
            measure.counter_delta(before, after, "repro_broker_requeues_total"),
            "count",
        ),
        "campaign.dispatch_overhead.p50_ms": (
            measure.histogram_delta_p50_ms(
                before, after, "repro_shard_dispatch_overhead_seconds"
            ),
            "ms",
        ),
        "obs.span.calls": (calls("obs.span"), "count"),
        "obs.record_span.calls": (calls("obs.record_span"), "count"),
        "obs.record_span.self_s": (self_s("obs.record_span"), "s"),
        "bench.trace_overhead": (overhead, "ratio"),
        "bench.jobs": (len(records), "count"),
        "bench.job_tail_pct": (tail_percentile, "%"),
        "host.calibration_ms": (calibration_ms, "ms"),
    }


def _layer_shares(summary, window_s):
    """Share of the traced window's wall time each layer spent in its own code."""
    shares = {layer: 0.0 for layer in LAYERS}
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + entry["self_s"] / window_s
    return shares


def run_workload(name, seed, seconds, trace, *, profile="full", jobs=None):
    """Set up, measure and check one workload; returns a dict of everything measured."""
    workdir = OUT_DIR / f"run-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = None
    setup_times = []
    try:
        for round_index in range(SETUP_ROUNDS):
            roundir = workdir / f"setup-{round_index}"
            roundir.mkdir(parents=True)
            candidate = WORKLOADS[name](seed, profile, roundir)
            start = time.perf_counter()
            try:
                candidate.setup()
            except BaseException:
                candidate.close()
                raise
            setup_times.append(time.perf_counter() - start)
            if round_index < SETUP_ROUNDS - 1:
                candidate.close()
            else:
                workload = candidate
        setup_s = IMPORT_S + measure.median(setup_times)

        calibration = measure.calibrate()
        records, window_s = _window(workload, seconds, 0, jobs)
        calibration += measure.calibrate()
        windows = [records]
        traced = None
        if trace:
            recorder = tracing.SpanRecorder()
            workload.recorder = recorder
            counters_before = workload.store_counters()
            registry_before = get_registry().snapshot()
            restore, missing = tracing.install(recorder)
            try:
                traced_records, traced_s = _window(workload, seconds, len(records), jobs)
            finally:
                restore()
                workload.recorder = None
            counters_after = workload.store_counters()
            registry_after = get_registry().snapshot()
            calibration += measure.calibrate()
            windows.append(traced_records)
            counters = {
                key: counters_after.get(key, 0) - counters_before.get(key, 0)
                for key in counters_after
            }
            registry = (registry_before, registry_after)
            traced = (recorder, traced_records, traced_s, counters, registry, missing)
        problems = workload.check()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    # The benchmark process plus its largest reaped child (a broker, where
    # brokers run).
    rss_mb = measure.peak_rss_mb() + measure.peak_rss_mb(children=True)
    attempted = sum(len(w) for w in windows)
    failed = sum(1 for w in windows for r in w if not r.ok)
    e2e, (percentile, n) = _end_to_end(records, window_s, setup_s, rss_mb)
    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "tail": (percentile, n),
        "setup_times": setup_times,
        "window_s": window_s,
        "calibration": calibration,
        "errors": sorted({r.error for w in windows for r in w if r.error}),
    }
    if traced is not None:
        recorder, traced_records, traced_s, counters, registry, missing = traced
        result["missing"] = missing
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"trace-{name}.jsonl")
        summary = recorder.summary()
        work = sum(r.agent_steps for r in records if r.ok) / window_s
        traced_work = sum(r.agent_steps for r in traced_records if r.ok) / traced_s
        overhead = work / traced_work if traced_work else 0.0
        result["per_layer"] = _per_layer(
            summary, recorder, counters, registry, traced_records, overhead,
            measure.median(calibration),
        )
        result["shares"] = _layer_shares(summary, traced_s)
        layer = result["per_layer"]
        result["counts"] = {
            "jobs": len(traced_records),
            "tasks": sum(r.tasks for r in traced_records if r.ok),
            "agent_steps": sum(r.agent_steps for r in traced_records if r.ok),
            "store.keys": counters.get("keys", 0),
            **{key: layer[key][0] for key in EXACT_COUNTS if key in layer},
        }
    return result


def _report(name, result, trace):
    """Print the human-readable summary, then the JSON result as the last line."""
    percentile, n = result["tail"]
    calibration = result["calibration"]
    print(f"workload {name}: {result['attempted']} job(s) attempted, {result['failed']} failed")
    print(
        "set-up rounds (s): "
        + ", ".join(f"{value:.3f}" for value in result["setup_times"])
        + f"; import {IMPORT_S:.3f} s"
    )
    print(f"untraced window {result['window_s']:.3f} s; job_tail_ms is p{percentile:.1f} of n={n}")
    print(
        f"host calibration ms: min {min(calibration):.2f}, "
        f"median {measure.median(calibration):.2f}, max {max(calibration):.2f}"
    )
    for error in result["errors"]:
        print(f"job error: {error}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    metrics = result["end_to_end"]
    print(f"error_rate {1.0 - metrics['success_rate'][0]:.4f} ratio")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<42} {value:>16.6g} {unit}")
    if trace:
        for target in result["missing"]:
            print(f"not traced (no longer in the program): {target}")
        print("layer self time as a share of the traced window:")
        for layer, share in sorted(result["shares"].items(), key=lambda item: -item[1]):
            print(f"  {layer:<12} {share:7.3f}")
        for metric, (value, unit) in result["per_layer"].items():
            print(f"  {metric:<42} {value:>16.6g} {unit}")
        metrics = result["per_layer"]
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()
                },
            }
        )
    )


def self_test():
    """Every workload twice at a tiny size: names, units, outputs and exact counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    wanted_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for name in WORKLOADS:
        runs = [
            run_workload(name, 7, 0, True, profile="tiny", jobs=6) for _ in range(2)
        ]
        for run in runs:
            failures += [f"{name}: {problem}" for problem in run["problems"]]
            if run["failed"]:
                failures.append(f"{name}: {run['failed']} job(s) failed: {run['errors']}")
            got_e2e = {k: unit for k, (_, unit) in run["end_to_end"].items()}
            got_layer = {k: unit for k, (_, unit) in run["per_layer"].items()}
            if got_e2e != wanted_e2e:
                failures.append(f"{name}: end-to-end metrics {got_e2e} != {wanted_e2e}")
            if got_layer != wanted_layer:
                failures.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
        first, second = (run["counts"] for run in runs)
        if first != second:
            diff = {
                k: (first.get(k), second.get(k))
                for k in first
                if first.get(k) != second.get(k)
            }
            failures.append(f"{name}: counts differ between two runs of one seed: {diff}")
        if name == "warm-replay" and not (first["store.hot_hits"] and first["store.cold_hits"]):
            failures.append(f"{name}: reads did not hit both tiers: {first}")
        print(f"{name}: counts {json.dumps(first, sort_keys=True)}")
    for failure in failures:
        print(f"SELF-TEST FAILED: {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(args.workload, result, bool(args.trace))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
