"""The load client of handshake-served: one process, CONNECTIONS sockets.

The server runs in its own process (``launcher.py``).  This process prepares
every client half between rounds, while no request is in flight, so during
a round it only frames, sends and compares; it also times the reference
kernel at the round boundaries.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time

import sessions
from common import (
    BENCH_DIR,
    CHANNEL_SCHEME,
    CHANNELS_PER_CONNECTION,
    CONNECTIONS,
    MIN_ROUNDS,
    OUT_DIR,
    RECORD_SIZES,
    ROOT,
    SCHEMES,
    NominalClock,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    program_env,
    setup_segment,
    sub_rng,
    summarize_rounds,
    time_reference_start,
)

#: Bytes of a frame header (length:4 | version | opcode).
HEADER_BYTES = 6


#: Launcher processes not yet stopped, so a run that overruns can kill them.
LIVE = set()


class Launch:
    """One launcher process and its line protocol."""

    def __init__(self, seed: int, trace: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py"), "--seed", str(seed),
             "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT),
            env=program_env(), text=True,
        )
        LIVE.add(self.proc)

    def event(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.event()

    def stop(self) -> None:
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        LIVE.discard(self.proc)


class Counters:
    """What the load client sent and got back.

    ``submitted`` is checked after the run against the server scheduler's own
    count of the requests it accepted (see ``run.py``).
    """

    def __init__(self, request_ids=None):
        #: Traced runs pass the tracer's request-id context variable, so the
        #: client's spans of one request carry its index.
        self.request_ids = request_ids
        self.submitted = 0
        self.failed = 0  # explicit errors, plus responses whose content was wrong
        self.latencies = []
        self.wire = 0

    async def request(self, client, opcode: int, payload: bytes):
        from repro.errors import ServeError

        if self.request_ids is not None:
            self.request_ids.set(self.submitted)
        self.submitted += 1
        started = time.perf_counter()
        try:
            frame = await client.request(opcode, payload)
        except ServeError:
            self.failed += 1
            return None
        self.latencies.append(time.perf_counter() - started)
        self.wire += 2 * HEADER_BYTES + len(payload) + len(frame.payload)
        return frame


async def _hello(client, counters: Counters, name: str, server_public: bytes) -> None:
    """Negotiate ``name``; the WELCOME must carry the server's key.

    HELLO frames travel inside the timed rounds and count in wire bytes but
    are not ops: they do not land in ``counters``' latency samples.
    """
    from repro.serve.protocol import OP_HELLO, OP_WELCOME, parse_welcome

    frame = await client.request(OP_HELLO, name.encode())
    welcomed, public = parse_welcome(frame.payload)
    if frame.opcode != OP_WELCOME or welcomed != name or public != server_public:
        raise RuntimeError(f"HELLO {name}: unexpected WELCOME")
    counters.wire += 2 * HEADER_BYTES + len(name) + len(frame.payload)


# -- handshake-served ------------------------------------------------------------


class Handshakes:
    """Seeded one-shot handshakes; the server half of each Zipf session."""

    def __init__(self, seed: int):
        from repro.pkc import get_scheme

        self.seed = seed
        self.keys = sessions.server_keys()
        self.scheme = {name: get_scheme(name) for name in SCHEMES}
        self.session_rng = sub_rng(seed, "sessions")
        self.layout_rng = sub_rng(seed, "layout")
        self.sampled = sessions.sample_rounds(seed, MIN_ROUNDS["handshake-served"])
        self.records = []
        self.round_index = 0

    def _half(self, name, rng):
        return sessions.client_half(self.scheme[name], self.keys[name], rng)

    def warm_inputs(self):
        """One fresh client half per scheme per connection for set-up."""
        rng = sessions.warm_up_rng()
        return [[(name, self._half(name, rng)) for name in SCHEMES]
                for _ in range(CONNECTIONS)]

    async def warm(self, clients, inputs, counters) -> None:
        await asyncio.gather(*(
            self._run_connection(client, ops, counters, None)
            for client, ops in zip(clients, inputs)
        ))

    def prepare_round(self):
        """Split one round's sessions over the connections.

        The k-th session of a scheme goes to connection k mod CONNECTIONS,
        so every round sends the same number of frames of each kind; the
        connections then send scheme by scheme (see round_segments).
        """
        layout = sessions.round_layout(self.layout_rng)
        halves = [(name, self._half(name, self.session_rng)) for name in layout]
        per_conn = [[] for _ in range(CONNECTIONS)]
        seen = {}
        for name, half in halves:
            k = seen.get(name, 0)
            seen[name] = k + 1
            per_conn[k % CONNECTIONS].append((name, half))
        return per_conn

    def round_segments(self, clients, prepared, counters):
        """One segment per scheme: every connection's sessions of that scheme."""
        sample = self.round_index in self.sampled
        self.round_index += 1

        def segment(name):
            async def run():
                await asyncio.gather(*(
                    self._run_connection(
                        client, [op for op in ops if op[0] == name], counters, sample and i == 0
                    )
                    for i, (client, ops) in enumerate(zip(clients, prepared))
                ))
            return run

        return [segment(name) for name in SCHEMES]

    async def _run_connection(self, client, ops, counters, sample) -> None:
        from repro.serve.protocol import (
            OP_DECRYPT,
            OP_KA_CONFIRM,
            OP_KA_INIT,
            OP_PLAINTEXT_DIGEST,
        )

        current = None
        recorded = set()
        for name, half in ops:
            if name != current:
                await _hello(client, counters, name, self.keys[name].public_wire)
                current = name
            encryption = "client_key" not in half
            frame = await counters.request(
                client, OP_DECRYPT if encryption else OP_KA_INIT, half["request"]
            )
            if frame is None:
                continue
            expected = (
                (OP_PLAINTEXT_DIGEST, sessions.plaintext_digest(half["plaintext"]))
                if encryption
                else (OP_KA_CONFIRM, sessions.confirmation_tag(half["client_key"]))
            )
            if (frame.opcode, frame.payload) != expected:
                counters.failed += 1
            if sample and name not in recorded:
                recorded.add(name)
                self.records.append(
                    sessions.check_record(name, self.keys[name], half, frame.payload)
                )


# -- the channel probe of traced runs ---------------------------------------------


class ChannelProbe:
    """One round of channel traffic on the handshake server, for the channel layer.

    Each connection opens CHANNELS_PER_CONNECTION ceilidh-170 channels; each
    channel sends the RECORD_SIZES records in seeded order and rekeys once.
    Every input and every sealed record is made before the first request,
    and every reply is opened and checked after the last.
    """

    def __init__(self, seed: int, keys: dict):
        from repro.pkc import get_scheme

        self.scheme = get_scheme(CHANNEL_SCHEME)
        self.server = keys[CHANNEL_SCHEME]
        self.rng = sub_rng(seed, "records")
        #: The first record of every channel, for ``checks.check_channel_record``.
        self.records = []
        self.rekeys = 0
        self.failed = 0

    def _kex(self):
        """A fresh client key and the secret it agrees with the server key."""
        pair = self.scheme.keygen(self.rng)
        return pair.public_wire, self.scheme.key_agreement(pair, self.server.public_wire)

    def _channel(self) -> dict:
        from repro.serve.channel import CLIENT_TO_SERVER, SERVER_TO_CLIENT, ChannelCrypto

        channel_id = self.rng.randbytes(8)
        public, secret = self._kex()
        crypto = ChannelCrypto(secret, channel_id, CLIENT_TO_SERVER, SERVER_TO_CLIENT)
        sizes = list(RECORD_SIZES)
        self.rng.shuffle(sizes)
        payloads = [self.rng.randbytes(n) for n in sizes]
        rekey_public, rekey_secret = self._kex()
        return {
            "id": channel_id, "public": public, "secret": secret, "crypto": crypto,
            "epoch": crypto.epoch, "payloads": payloads,
            "sealed": [crypto.seal(payload) for payload in payloads],
            "rekey": crypto.seal(rekey_public), "rekey_secret": rekey_secret,
        }

    async def run(self, clients) -> None:
        plans = [[self._channel() for _ in range(CHANNELS_PER_CONNECTION)] for _ in clients]
        counters = Counters()
        await asyncio.gather(*(
            self._send(client, channels, counters) for client, channels in zip(clients, plans)
        ))
        for channels in plans:
            for channel in channels:
                self._check(channel)

    async def _send(self, client, channels, counters) -> None:
        from repro.serve.protocol import OP_CHAN_MSG, OP_CHAN_OPEN, OP_CHAN_REKEY, pack_channel

        await _hello(client, counters, CHANNEL_SCHEME, self.server.public_wire)
        for channel in channels:
            cid = channel["id"]
            channel["accept"] = await counters.request(
                client, OP_CHAN_OPEN, pack_channel(cid, channel["public"])
            )
            channel["replies"] = [
                await counters.request(client, OP_CHAN_MSG, pack_channel(cid, record))
                for record in channel["sealed"]
            ]
            channel["ack"] = await counters.request(
                client, OP_CHAN_REKEY, pack_channel(cid, channel["rekey"])
            )

    def _check(self, channel) -> None:
        """Open every reply and the rekey ack in order; count what is wrong,
        error replies (``None``) included."""
        from repro.errors import ReproError
        from repro.serve.protocol import (
            OP_CHAN_ACCEPT,
            OP_CHAN_REKEYED,
            OP_CHAN_REPLY,
            parse_channel,
        )

        crypto = channel["crypto"]

        def opened(frame, opcode):
            if frame is None or frame.opcode != opcode:
                return None
            try:
                return crypto.open(parse_channel(frame.payload)[1])
            except ReproError:
                return None

        accept = channel["accept"]
        if accept is None or accept.opcode != OP_CHAN_ACCEPT or parse_channel(accept.payload) != (
            channel["id"], sessions.confirmation_tag(channel["secret"])
        ):
            self.failed += 1
        for payload, frame in zip(channel["payloads"], channel["replies"]):
            self.failed += opened(frame, OP_CHAN_REPLY) != sessions.plaintext_digest(payload)
        if opened(channel["ack"], OP_CHAN_REKEYED) != sessions.confirmation_tag(
            channel["rekey_secret"]
        ):
            self.failed += 1
        crypto.rekey(channel["rekey_secret"])
        self.rekeys += 1
        first = channel["replies"][0]
        if first is not None:
            self.records.append({
                "secret": channel["secret"].hex(),
                "channel_id": channel["id"].hex(),
                "epoch": channel["epoch"],
                "payload": channel["payloads"][0].hex(),
                "request": channel["sealed"][0].hex(),
                "reply": parse_channel(first.payload)[1].hex(),
            })


# -- the run --------------------------------------------------------------------------


async def _connect(port: int, count: int):
    from repro.serve.client import ServeClient

    clients = [ServeClient("127.0.0.1", port) for _ in range(count)]
    for client in clients:
        await client.connect()
    return clients


async def _setup(workload, seed, trace):
    """Launch the server and warm every scheme on each connection.

    Returns (launch, clients, wall seconds from launch to the last warm-up
    answer).  ``launch.warm_ops`` is the number of warm-up requests sent.
    """
    inputs = workload.warm_inputs()  # input generation: untimed
    started = time.perf_counter()
    launch = Launch(seed, trace)
    listening = launch.event()
    clients = await _connect(listening["port"], CONNECTIONS)
    counters = Counters()
    await workload.warm(clients, inputs, counters)
    elapsed = time.perf_counter() - started
    if counters.failed:
        raise RuntimeError("a warm-up request failed")
    launch.pid = listening["pid"]
    launch.warm_ops = counters.submitted
    return launch, clients, elapsed


async def _close(clients, launch) -> None:
    for client in clients:
        await client.close()
    launch.stop()


async def run(seed: int, seconds: float, trace: int, repeats: int) -> dict:
    workload = Handshakes(seed)
    setups = []
    reference = time_reference_start()
    for index in range(repeats):
        last = index == repeats - 1
        launch, clients, elapsed = await _setup(workload, seed, trace if last else 0)
        after = time_reference_start()
        setups.append(setup_segment(elapsed, reference, after))
        reference = after
        if not last:
            await _close(clients, launch)
    try:
        clock = NominalClock()
        phases = [(seconds, MIN_ROUNDS["handshake-served"])]
        if trace:
            phases = [(seconds / 2, MIN_ROUNDS["handshake-served"] // 2)] * 2
        results = []
        tracer = None
        for phase, (phase_seconds, rounds_wanted) in enumerate(phases):
            if phase == 1:
                tracer = _start_tracing(launch)
                before_report = launch.command("report")
            counters = Counters(tracing_ids(tracer))
            rounds, client_cpu, timed = [], 0.0, 0.0
            while len(rounds) < rounds_wanted or timed < phase_seconds:
                prepared = workload.prepare_round()
                before = clock.slice()
                segments = []
                for run_segment in workload.round_segments(clients, prepared, counters):
                    mark = len(counters.latencies)
                    server_cpu = proc_cpu_seconds(launch.pid)
                    cpu_started = time.process_time()
                    started = time.perf_counter()
                    await run_segment()
                    raw = time.perf_counter() - started
                    client_cpu += time.process_time() - cpu_started
                    cpu = proc_cpu_seconds(launch.pid) - server_cpu
                    after = clock.slice()
                    segments.append(
                        clock.segment(raw, before, after, cpu, counters.latencies[mark:])
                    )
                    before = after
                    timed += raw
                rounds.append(segments)
            results.append({"counters": counters, "rounds": rounds, "client_cpu": client_cpu})
        rss = proc_peak_rss_mb(launch.pid)
        report = launch.command("report")
        layers, probe = None, None
        if tracer is not None:
            probe = ChannelProbe(seed, workload.keys)
            layers = await _traced_layers(
                workload, probe, launch, tracer, clients, clock, results, before_report, report
            )
    finally:
        await _close(clients, launch)
    return {
        "setups": setups, "phases": results, "rss_mb": rss, "clock": clock,
        "report": report, "warm_ops": launch.warm_ops, "records": workload.records,
        "layers": layers, "channel_probe": probe,
    }


def tracing_ids(tracer):
    if tracer is None:
        return None
    import tracing

    return tracing.REQUEST_ID


def _start_tracing(launch):
    import tracing

    if launch.command("trace")["event"] != "tracing":
        raise RuntimeError("launcher did not start tracing")
    tracer = tracing.Tracer()
    tracer.install_pkc()
    tracer.install_protocol()
    tracer.install_channel()
    tracer.install_client()
    return tracer


async def _traced_layers(workload, probe, launch, tracer, clients, clock, results, before,
                         report) -> dict:
    """Per-layer metrics of a traced served run (times in nominal units).

    handshake-served sends no channel records, so the channel layer is
    measured by one :class:`ChannelProbe` round after the timed phases.
    """
    import tracing
    from repro.serve.protocol import OP_HELLO

    unit = clock.nominal_second
    untraced, traced = results
    counters = traced["counters"]
    ops = counters.submitted
    server = report.get("summary", {})
    client = tracer.summary()
    merged = tracing.merge_summaries(server, client)
    tracing.pkc_probe(merged)
    merged = tracing.merge_summaries(server, tracer.summary())
    out = {}
    for kind, methods, name in tracing.PKC_METRICS:
        out[f"pkc.{kind}_ms.{name}"] = tracing.pkc_ms(merged, methods, name) / unit

    await probe.run(clients)
    channel_report = launch.command("report")

    # HELLO round trips on warm connections, after the timed phase.
    hellos = []
    for client_conn in clients:
        for _ in range(20):
            started = time.perf_counter()
            await client_conn.request(OP_HELLO, SCHEMES[0].encode())
            hellos.append(time.perf_counter() - started)
    tracer.uninstall()
    out["serve.hello_rtt_ms"] = 1e3 * sorted(hellos)[len(hellos) // 2] / unit

    for name in SCHEMES:
        kind = "decrypt" if name == "rsa-1024" else "key-agreement"
        now = report["groups"].get(f"{name}|{kind}", {})
        then = before["groups"].get(f"{name}|{kind}", {})
        items = now.get("served", 0) + now.get("errors", 0) - then.get("served", 0) - then.get("errors", 0)
        batches = now.get("batches", 0) - then.get("batches", 0)
        out[f"serve.batch_items.{name}"] = items / batches if batches else 0.0
    server_pkc_ns = sum(e["outer_ns"] for n, e in server.items() if n.startswith("pkc."))
    out["serve.pkc_ms_per_op"] = server_pkc_ns / 1e6 / ops / unit
    mean_rtt_ms = 1e3 * sum(counters.latencies) / len(counters.latencies) / unit
    out["serve.overhead_ms_per_op"] = mean_rtt_ms - out["serve.pkc_ms_per_op"]
    messages = channel_report["channels"]["messages"] - report["channels"]["messages"]
    channel_ns = sum(
        e["outer_ns"] for n, e in channel_report["summary"].items() if n.startswith("channel.")
    )
    out["channel.server_us_per_msg"] = channel_ns / 1e3 / messages / unit
    out["channel.rekeys"] = probe.rekeys
    summaries = [summarize_rounds(r["rounds"]) for r in results]
    out["load.client_cpu_ms_per_op"] = (
        1e3 * untraced["client_cpu"] / summaries[0]["raw_s"]
        * summaries[0]["round_s"] / summaries[0]["ops_per_round"]
    )
    out["load.ref_ms"] = clock.slice_s * 1e3
    out["trace.overhead_pct"] = 100.0 * (
        summaries[0]["ops_per_s"] - summaries[1]["ops_per_s"]
    ) / summaries[0]["ops_per_s"]

    probes = tracing.lower_layer_probes()
    for key, value in probes.items():
        out[key] = value / unit if key.startswith(tracing.TIME_PREFIXES) else value
    tracer.dump(OUT_DIR / f"spans-client-handshake-served-{workload.seed}.jsonl")
    return {
        "metrics": out,
        "self_times": {
            "server": tracing.layer_self_times(server),
            "client": tracing.layer_self_times(client),
        },
    }
