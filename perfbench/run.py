"""The benchmark: two seeded workloads over the key-agreement ladder.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): ``ka-offline``, ``handshake-served``.  With
``--trace 0`` the last stdout line is one JSON object with every end-to-end
metric of BENCHMARK.json, in nominal time; with ``--trace 1`` it holds every
per-layer metric instead.  Human-readable detail (raw wall-clock values, the
kernel and reference-start times, layer self times) goes to stderr.  Exits
non-zero, without a result line, when the program is missing; exits 1, with
``"correct": false``, when an output check fails or any op failed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import sessions  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    REF_STARTS_PER_NOMINAL_SECOND,
    ROOT,
    SETUP_REPEATS,
    SRC,
    NominalClock,
    percentile,
    program_env,
    setup_segment,
    summarize_rounds,
    time_reference_start,
    use_program,
    warm_bytecode,
)

WORKLOADS = ("ka-offline", "handshake-served")
#: Wall-clock limit of one run; the worker is killed past it.
RUN_DEADLINE_S = 170


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def log(text: str) -> None:
    sys.stderr.write(text + "\n")
    sys.stderr.flush()


# -- ka-offline ---------------------------------------------------------------------


def run_offline(seed: int, seconds: float, trace: int) -> dict:
    """Time SETUP_REPEATS fresh worker start-ups; the last one runs the rounds."""
    setups = []
    reference = time_reference_start()
    for index in range(SETUP_REPEATS):
        last = index == SETUP_REPEATS - 1
        command = [sys.executable, str(BENCH_DIR / "worker.py"), "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace if last else 0)]
        if not last:
            command.append("--setup-only")
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=str(ROOT),
                                env=program_env(), text=True)
        watchdog = threading.Timer(RUN_DEADLINE_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            if json.loads(ready or "{}").get("event") != "ready":
                raise RuntimeError("ka-offline worker did not become ready")
            if not last:
                proc.wait()
            after = time_reference_start()
            setups.append(setup_segment(elapsed, reference, after))
            reference = after
            result = json.loads(proc.stdout.readline()) if last else None
        finally:
            proc.stdout.close()
            code = proc.wait()
            watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"ka-offline worker exited with code {code}")
    clock = NominalClock()
    clock.slices = result["slices"]
    phases = result["phases"]
    return {
        "clock": clock,
        "setups": setups,
        "rounds": phases[0]["rounds"],
        "attempted": sum(len(seg["lat"]) for p in phases for r in p["rounds"] for seg in r),
        "failed": sum(p["failed"] for p in phases),
        "rss_mb": result["rss_mb"],
        "wire": phases[0]["wire"],
        "records": result["records"],
        "layers": result.get("layers"),
        "served": False,
        "accounting": [],
        "channel_probe": None,
    }


# -- the served workloads ---------------------------------------------------------------


def run_served(seed: int, seconds: float, trace: int) -> dict:
    import served

    timer = threading.Timer(RUN_DEADLINE_S, lambda: _abort(f"run exceeded {RUN_DEADLINE_S}s"))
    timer.daemon = True
    timer.start()
    try:
        result = asyncio.run(served.run(seed, seconds, trace, SETUP_REPEATS))
    finally:
        timer.cancel()
    first = result["phases"][0]
    counters = first["counters"]
    # The scheduler counts what it accepted on its own: every request the
    # client sent must arrive there and end in a response or an explicit error.
    report = result["report"]
    sent = result["warm_ops"] + sum(p["counters"].submitted for p in result["phases"])
    accounting = []
    if report["submitted"] != sent:
        accounting.append(f"scheduler accepted {report['submitted']} requests, "
                          f"the client sent {sent}")
    if report["submitted"] != report["served"] + report["errors"]:
        accounting.append(f"scheduler: submitted {report['submitted']} != served "
                          f"{report['served']} + errors {report['errors']}")
    return {
        "clock": result["clock"],
        "setups": result["setups"],
        "rounds": first["rounds"],
        "attempted": sum(p["counters"].submitted for p in result["phases"]),
        "failed": sum(p["counters"].failed for p in result["phases"]),
        "client_cpu": first["client_cpu"],
        "rss_mb": result["rss_mb"],
        "wire": counters.wire,
        "records": result["records"],
        "layers": result["layers"],
        "served": True,
        "accounting": accounting,
        "channel_probe": result["channel_probe"],
    }


def _abort(reason: str) -> None:
    import os

    import served

    log(f"perfbench: {reason}; aborting")
    for proc in list(served.LIVE):
        proc.kill()
        proc.wait()
    os._exit(3)


# -- checks and metrics --------------------------------------------------------------------


def run_checks(result: dict) -> list:
    failures = list(result["accounting"])
    if result["failed"]:
        failures.append(f"{result['failed']} of {result['attempted']} ops failed")
    probe = result["channel_probe"]
    if probe is not None:
        if probe.failed:
            failures.append(f"channel probe: {probe.failed} requests failed")
        if not probe.records:
            failures.append("channel probe: no sampled records to check")
        for record in probe.records:
            failures += checks.check_channel_record(record)
    records = result["records"]
    if not records:
        return failures + ["no sampled ops to check"]
    torus = sorted({r["scheme"] for r in records if r["scheme"].startswith(("ceilidh", "xtr"))})
    params = sessions.torus_parameters(torus)
    for scheme in torus:
        failures += checks.check_torus_params(params[scheme])
    for record in records:
        failures += checks.check_ka_record(record, params, result["served"])
    return failures


def end_to_end(result: dict, summary: dict) -> dict:
    setups = [seg["raw"] / seg["unit"] for seg in result["setups"]]
    latencies = summary["latencies"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p99_ms": 1e3 * percentile(latencies, 99),
        "cpu_ms_per_op": summary["cpu_ms_per_op"],
        "rss_mb": result["rss_mb"],
        "wire_bytes_per_op": result["wire"] / summary["ops"],
    }


def describe(name: str, result: dict, summary: dict) -> None:
    clock = result["clock"]
    raw_latencies = [lat for r in result["rounds"] for seg in r for lat in seg["lat"]]
    log(f"perfbench {name}: {summary['ops']} ops in {len(result['rounds'])} rounds, "
        f"{summary['raw_s']:.3f} s wall timed, {len(raw_latencies)} latency samples")
    log(f"  kernel slice median {clock.slice_s * 1e3:.4f} ms over {len(clock.slices)} "
        f"slices (1 nominal s = {clock.nominal_second:.4f} wall s at the median); "
        f"median round {summary['round_s']:.4f} nominal s")
    setups = ", ".join(f"{seg['raw']:.3f}" for seg in result["setups"])
    setup_refs = ", ".join(f"{seg['unit'] / REF_STARTS_PER_NOMINAL_SECOND:.3f}"
                           for seg in result["setups"])
    log(f"  raw: setup {setups} s, reference starts {setup_refs} s, {summary['ops'] / summary['raw_s']:.3f} ops/s, "
        f"p50 {1e3 * percentile(raw_latencies, 50):.4f} ms, "
        f"p99 {1e3 * percentile(raw_latencies, 99):.4f} ms, "
        f"cpu {1e3 * summary['raw_cpu_s'] / summary['ops']:.4f} ms/op")
    if "client_cpu" in result:
        log(f"  load client cpu {1e3 * result['client_cpu'] / summary['ops']:.4f} ms/op (raw)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: the program is missing ({SRC / 'repro'} not found)")
        return 2
    metric_spec = spec()
    use_program()
    warm_bytecode()

    if args.workload == "ka-offline":
        result = run_offline(args.seed, args.seconds, args.trace)
    else:
        result = run_served(args.seed, args.seconds, args.trace)
    summary = summarize_rounds(result["rounds"])
    describe(args.workload, result, summary)

    failures = run_checks(result)
    for failure in failures:
        log(f"  CHECK FAILED: {failure}")
    probe = result["channel_probe"]
    probed = f" and {len(probe.records)} channel records" if probe is not None else ""
    log(f"  checks: {len(result['records'])} sampled ops{probed} checked independently, "
        f"{len(failures)} failures")

    if args.trace:
        layers = result["layers"]
        values = layers["metrics"]
        for process, per_layer in sorted(layers["self_times"].items()):
            for layer, times in sorted(per_layer.items()):
                log(f"  self time {process}/{layer}: {times['self_ns'] / 1e6:.3f} ms "
                    f"over {times['spans']} spans")
        log(f"  tracing overhead: {values['trace.overhead_pct']:.2f}% of ops_per_s")
        wanted = metric_spec["per_layer"]
    else:
        values = end_to_end(result, summary)
        wanted = metric_spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
