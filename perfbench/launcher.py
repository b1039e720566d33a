"""Starts the program's server for handshake-served, in its own process.

    python3 perfbench/launcher.py --seed N --trace 0|1

Builds a ``ServeServer`` for the four schemes through its public constructor,
with the benchmark's fixed long-term keys (``sessions.server_keys``), prints ``{"event": "listening", "port": P, "pid": ...}``
and then obeys one-line commands on stdin:

* ``trace``  - (traced runs only) wrap scheme methods, framing and the channel
  table at class level in this process; answers ``{"event": "tracing"}``;
* ``report`` - answers with scheduler and channel counters and, when tracing,
  the span summary;
* ``stop`` or end of input - stops the server, writes spans, exits.

The seed only names the span dump of a traced run.

Commands only arrive while no request is in flight.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

import sessions
from common import OUT_DIR, SCHEMES, emit, use_program

#: Token bucket that admits the closed-loop rate of the channel probe; with
#: the default (256 tokens, 512/s per connection) most records are refused.
CHANNEL_BUCKET = {"bucket_capacity": 1e6, "bucket_refill_per_second": 1e6}


def scheduler_counters(server) -> dict:
    stats = server.scheduler.stats
    return {
        "submitted": stats.submitted,
        "served": stats.served,
        "errors": stats.errors,
        "rejected": stats.rejected,
        "groups": {
            f"{scheme}|{kind}": {
                "served": group.served, "errors": group.errors, "batches": group.batches,
            }
            for (scheme, kind), group in stats.groups.items()
        },
        "channels": dict(vars(server.channels.stats)),
    }


async def serve(args) -> None:
    use_program()
    from repro.serve.channel import ChannelPolicy
    from repro.serve.server import ServeServer

    server = ServeServer(
        host="127.0.0.1",
        port=0,
        schemes=list(SCHEMES),
        preset_keys=sessions.server_keys(),
        channel_policy=ChannelPolicy(**CHANNEL_BUCKET),
    )
    _, port = await server.start()
    emit({"event": "listening", "port": port, "pid": os.getpid()})
    loop = asyncio.get_running_loop()
    tracer = None
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if command in ("", "stop"):
                break
            if command == "trace" and args.trace:
                import tracing

                tracer = tracing.Tracer()
                tracer.install_pkc()
                tracer.install_protocol()
                tracer.install_channel()
                emit({"event": "tracing"})
            elif command == "report":
                report = {"event": "report", **scheduler_counters(server)}
                if tracer is not None:
                    report["summary"] = tracer.summary()
                emit(report)
    finally:
        await server.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(OUT_DIR / f"spans-server-handshake-served-{args.seed}.jsonl")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
