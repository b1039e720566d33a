"""The ka-offline worker: one process, no sockets, the program's schemes only.

    python3 perfbench/worker.py --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``{"event": "ready"}`` once imports, the long-term keys and one
warm-up session per scheme are done (the parent times process start to that
line), then, unless ``--setup-only``, runs whole Zipf rounds of complete
sessions and prints one ``{"event": "result", ...}`` line.
"""

from __future__ import annotations

import argparse
import os
import time

import sessions
from common import (
    MIN_ROUNDS,
    OUT_DIR,
    RSA_PLAINTEXT_BYTES,
    SCHEMES,
    SEGMENT_SESSIONS,
    NominalClock,
    emit,
    proc_peak_rss_mb,
    sub_rng,
    summarize_rounds,
    use_program,
)


def run_session(scheme, server, rng) -> tuple:
    """One complete session; returns (seconds, ok, wire bytes, half, output)."""
    if "key-agreement" not in scheme.capabilities:
        plaintext = rng.randbytes(RSA_PLAINTEXT_BYTES)
        started = time.perf_counter()
        ciphertext = scheme.encrypt(server.public_wire, plaintext, rng)
        recovered = scheme.decrypt(server, ciphertext)
        elapsed = time.perf_counter() - started
        half = {"plaintext": plaintext, "request": ciphertext}
        return elapsed, recovered == plaintext, len(ciphertext), half, recovered
    started = time.perf_counter()
    client = scheme.keygen(rng)
    server_key = scheme.key_agreement(server, client.public_wire)
    client_key = scheme.key_agreement(client, server.public_wire)
    elapsed = time.perf_counter() - started
    half = {"client": client, "request": client.public_wire, "client_key": client_key}
    wire = len(client.public_wire) + len(server.public_wire)
    return elapsed, server_key == client_key, wire, half, server_key


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    use_program()
    from repro.pkc import get_scheme

    schemes = {name: get_scheme(name) for name in SCHEMES}
    keys = sessions.server_keys()
    warm_rng = sessions.warm_up_rng()
    for name in SCHEMES:
        _, ok, *_ = run_session(schemes[name], keys[name], warm_rng)
        if not ok:
            raise SystemExit(f"warm-up session of {name} failed")
    emit({"event": "ready"})
    if args.setup_only:
        return

    clock = NominalClock()
    session_rng = sub_rng(args.seed, "sessions")
    layout_rng = sub_rng(args.seed, "layout")
    min_rounds = MIN_ROUNDS["ka-offline"]
    sampled = sessions.sample_rounds(args.seed, min_rounds)

    phases = [(args.seconds, min_rounds)]
    tracer = None
    if args.trace:
        phases = [(args.seconds / 2, min_rounds // 2)] * 2

    stats = []
    records = []
    round_index = 0
    for phase, (seconds, rounds_wanted) in enumerate(phases):
        if phase == 1:
            import tracing

            tracer = tracing.Tracer()
            tracer.install_pkc()
        rounds, failed, wire, timed = [], 0, 0, 0.0
        before = clock.slice()
        while len(rounds) < rounds_wanted or timed < seconds:
            layout = sessions.round_layout(layout_rng)
            segments = []
            seen = set()
            for start in range(0, len(layout), SEGMENT_SESSIONS):
                latencies = []
                cpu_started = time.process_time()
                started = time.perf_counter()
                for name in layout[start:start + SEGMENT_SESSIONS]:
                    elapsed, ok, nbytes, half, output = run_session(
                        schemes[name], keys[name], session_rng
                    )
                    latencies.append(elapsed)
                    failed += 0 if ok else 1
                    wire += nbytes
                    if round_index in sampled and name not in seen:
                        seen.add(name)
                        records.append(sessions.check_record(name, keys[name], half, output))
                raw = time.perf_counter() - started
                cpu = time.process_time() - cpu_started
                after = clock.slice()
                segments.append(clock.segment(raw, before, after, cpu, latencies))
                before = after
                timed += raw
            rounds.append(segments)
            round_index += 1
        stats.append({"rounds": rounds, "failed": failed, "wire": wire})
    rss = proc_peak_rss_mb(os.getpid())

    result = {
        "event": "result",
        "phases": stats,
        "records": records,
        "rss_mb": rss,
        "slices": clock.slices,
    }
    if tracer is not None:
        result["layers"] = traced_layers(tracer, clock, stats)
        tracer.dump(OUT_DIR / f"spans-worker-ka-offline-{args.seed}.jsonl")
    emit(result)


def traced_layers(tracer, clock, stats) -> dict:
    """Per-layer metrics of a traced offline run (times in nominal units)."""
    import tracing

    summary = tracer.summary()
    tracing.pkc_probe(summary)
    summary = tracer.summary()
    unit = clock.nominal_second
    out = {}
    for kind, methods, name in tracing.PKC_METRICS:
        out[f"pkc.{kind}_ms.{name}"] = tracing.pkc_ms(summary, methods, name) / unit
    tracer.uninstall()
    probes = tracing.lower_layer_probes()
    for key, value in probes.items():
        out[key] = value / unit if key.startswith(tracing.TIME_PREFIXES) else value
    untraced, traced = (summarize_rounds(s["rounds"]) for s in stats)
    out["trace.overhead_pct"] = (
        100.0 * (untraced["ops_per_s"] - traced["ops_per_s"]) / untraced["ops_per_s"]
    )
    out["load.client_cpu_ms_per_op"] = untraced["cpu_ms_per_op"]
    out["load.ref_ms"] = clock.slice_s * 1e3
    # No server, no channels: those layers do no work on this workload.
    for name in ("serve.hello_rtt_ms", "serve.pkc_ms_per_op", "serve.overhead_ms_per_op",
                 "channel.server_us_per_msg", "channel.rekeys"):
        out[name] = 0.0
    for name in SCHEMES:
        out[f"serve.batch_items.{name}"] = 0.0
    return {"metrics": out, "self_times": {"worker": tracing.layer_self_times(summary)}}


if __name__ == "__main__":
    main()
