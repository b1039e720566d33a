"""The traced mode: span recording around calls into each layer, and probes.

Only ``--trace 1`` runs import this module.  :class:`Tracer` patches, at
class or module level and only inside the benchmark's processes:

* the scheme methods of every registry adapter (``repro.pkc`` and the four
  scheme classes under it) -> ``pkc.<method>.<scheme>`` spans;
* the framing function ``encode_frame`` -> ``protocol.encode_frame`` spans
  (``read_frame`` is not wrapped: its wall time is mostly the wait for the
  peer, so :func:`frame_probe` times it on a reader that already holds the
  frame);
* the channel table's entry points and the record crypto -> ``channel.*``;
* ``ServeClient.request`` -> ``client.request.<OPCODE>`` spans.

A span is ``(name, start_ns, end_ns, parent index, request id, items)``.
The request id is the load client's index of the request; spans in the
server process carry -1, because the wire carries no request id.  Spans
live in memory and are written as JSON lines when the process ends.
Layers the workload never reaches are measured by the fixed probes at the
bottom of this file, which call the same public functions on inputs that do
not depend on the seed, so their counts repeat exactly from run to run.
"""

from __future__ import annotations

import contextvars
import functools
import json
import random
import threading
import time
from collections import defaultdict

PKC_METHODS = (
    "keygen",
    "keygen_many",
    "key_agreement",
    "key_agreement_many",
    "key_agreement_with_many",
    "encrypt",
    "decrypt",
)

#: Request id of the op a span belongs to (set by the load client).
REQUEST_ID = contextvars.ContextVar("perfbench_request_id", default=-1)


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._undo = []

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, items: int, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children point at it
        stack.append(index)
        started = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter_ns()
            stack.pop()
            self.spans[index] = (name, started, ended, parent, REQUEST_ID.get(), items)

    async def call_async(self, name: str, coro_fn, *args, **kwargs):
        # Coroutines interleave on one thread, so async spans take no part
        # in the parent stack; they are roots tagged with their request id.
        index = len(self.spans)
        self.spans.append(None)
        started = time.perf_counter_ns()
        try:
            return await coro_fn(*args, **kwargs)
        finally:
            self.spans[index] = (
                name, started, time.perf_counter_ns(), -1, REQUEST_ID.get(), 1
            )

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install_pkc(self) -> None:
        """Wrap every scheme method of the registry adapters at class level."""
        from repro.ecc.pkc import EcdhScheme
        from repro.pkc.base import PkcScheme
        from repro.rsa.pkc import RsaScheme
        from repro.torus.pkc import CeilidhScheme
        from repro.xtr.pkc import XtrScheme

        tracer = self
        for cls in (PkcScheme, CeilidhScheme, EcdhScheme, RsaScheme, XtrScheme):
            for method in PKC_METHODS:
                if method not in cls.__dict__:
                    continue
                original = cls.__dict__[method]

                def wrapper(self_, *args, _fn=original, _m=method, **kwargs):
                    items = 1
                    if _m == "keygen_many":
                        items = args[0] if args else kwargs["count"]
                    elif _m == "key_agreement_many" and len(args) > 1:
                        args = (args[0], list(args[1])) + args[2:]
                        items = len(args[1])
                    elif _m == "key_agreement_with_many" and args:
                        args = (list(args[0]),) + args[1:]
                        items = len(args[0])
                    return tracer.call(
                        f"pkc.{_m}.{self_.name}", items, _fn, self_, *args, **kwargs
                    )

                functools.update_wrapper(wrapper, original)
                self._patch(cls, method, wrapper)

    def install_protocol(self) -> None:
        from repro.serve import protocol

        tracer = self
        encode = protocol.encode_frame

        def encode_frame(*args, **kwargs):
            return tracer.call("protocol.encode_frame", 1, encode, *args, **kwargs)

        # write_frame looks encode_frame up in its module, so this covers
        # every frame the server and the client send.
        self._patch(protocol, "encode_frame", encode_frame)

    def install_channel(self) -> None:
        from repro.serve.channel import ChannelCrypto, ChannelTable

        tracer = self
        for cls, methods in (
            (ChannelTable, ("take_token", "admit", "get", "require_key_budget", "close")),
            (ChannelCrypto, ("seal", "open", "rekey")),
        ):
            for method in methods:
                original = cls.__dict__[method]

                def wrapper(self_, *args, _fn=original, _n=f"channel.{cls.__name__}.{method}", **kwargs):
                    return tracer.call(_n, 1, _fn, self_, *args, **kwargs)

                self._patch(cls, method, wrapper)

    def install_client(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.protocol import OPCODE_NAMES

        tracer = self
        original = ServeClient.__dict__["request"]

        async def request(self_, opcode, payload=b""):
            name = f"client.request.{OPCODE_NAMES.get(opcode, opcode)}"
            return await tracer.call_async(name, original, self_, opcode, payload)

        self._patch(ServeClient, "request", request)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: count, items, total and self ns; outer-only totals.

        ``outer_*`` counts only spans whose parent is not in the same layer,
        so a default ``key_agreement_many`` that loops ``key_agreement`` is
        timed once, at the call the layer above made.
        """
        by_index = {}
        child_ns = defaultdict(int)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            by_index[index] = span
            name, start, end, parent, _, _ = span
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for index, span in by_index.items():
            name, start, end, parent, _, items = span
            entry = out.setdefault(
                name,
                {"count": 0, "items": 0, "total_ns": 0, "self_ns": 0,
                 "outer_count": 0, "outer_items": 0, "outer_ns": 0},
            )
            duration = end - start
            entry["count"] += 1
            entry["items"] += items
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns.get(index, 0)
            parent_span = by_index.get(parent)
            layer = name.split(".", 1)[0]
            if parent_span is None or parent_span[0].split(".", 1)[0] != layer:
                entry["outer_count"] += 1
                entry["outer_items"] += items
                entry["outer_ns"] += duration
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")


def layer_self_times(summary: dict) -> dict:
    """Self ns and span count per layer (the prefix before the first dot)."""
    layers = defaultdict(lambda: {"self_ns": 0, "spans": 0})
    for name, entry in summary.items():
        layer = layers[name.split(".", 1)[0]]
        layer["self_ns"] += entry["self_ns"]
        layer["spans"] += entry["count"]
    return dict(layers)


def merge_summaries(*summaries) -> dict:
    merged = {}
    for summary in summaries:
        for name, entry in summary.items():
            target = merged.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                target[key] += value
    return merged


# -- pkc metrics from spans --------------------------------------------------------

DERIVE_METHODS = ("key_agreement", "key_agreement_many", "key_agreement_with_many")
KEYGEN_METHODS = ("keygen", "keygen_many")


def pkc_ms(summary: dict, methods, scheme: str):
    """Outer ms per item over the given methods, or None if never called."""
    ns = items = 0
    for method in methods:
        entry = summary.get(f"pkc.{method}.{scheme}")
        if entry:
            ns += entry["outer_ns"]
            items += entry["outer_items"]
    return ns / items / 1e6 if items else None


PKC_METRICS = (
    [("keygen", KEYGEN_METHODS, s) for s in ("ceilidh-170", "ecdh-p160", "xtr-170")]
    + [("derive", DERIVE_METHODS, s) for s in ("ceilidh-170", "ecdh-p160", "xtr-170")]
    + [("encrypt", ("encrypt",), "rsa-1024"), ("decrypt", ("decrypt",), "rsa-1024")]
)


def pkc_probe(summary: dict) -> None:
    """Call, through the wrappers, each scheme method the workload never did.

    Inputs come from a fixed seed, not the workload's.
    """
    from repro.pkc import get_scheme

    from sessions import server_key_rng

    rng = random.Random("perfbench:pkc-probe")
    for kind, methods, name in PKC_METRICS:
        if pkc_ms(summary, methods, name) is not None:
            continue
        scheme = get_scheme(name)
        server = scheme.keygen(server_key_rng(name))
        for _ in range(3):
            if kind == "keygen":
                scheme.keygen(rng)
            elif kind == "derive":
                scheme.key_agreement(server, scheme.keygen(rng).public_wire)
            elif kind == "encrypt":
                scheme.encrypt(server.public_wire, rng.randbytes(32), rng)
            else:
                scheme.decrypt(
                    server, scheme.encrypt(server.public_wire, rng.randbytes(32), rng)
                )


# -- fixed probes of the lower layers ------------------------------------------------


def _time_per_call(fn, args_list, repeat: int) -> float:
    """Median over ``repeat`` passes of the mean seconds per call."""
    passes = []
    for _ in range(repeat):
        started = time.perf_counter()
        for args in args_list:
            fn(*args)
        passes.append((time.perf_counter() - started) / len(args_list))
    passes.sort()
    return passes[len(passes) // 2]


def probe_key(name: str):
    """The server's long-term key of ``name`` (the same on every seed)."""
    from sessions import server_keys

    return server_keys((name,))[name]


def field_probe() -> dict:
    """ns per ``FieldOps.mul`` on the plain backend, per modulus size."""
    from repro.ecc.curves import get_curve
    from repro.field.backend import PlainBackend
    from repro.torus.params import get_parameters

    moduli = {
        "p170": get_parameters("ceilidh-170").p,
        "p160": get_curve("secp160r1").p,
        "p512": probe_key("rsa-1024").native.p,
    }
    rng = random.Random("perfbench:field-probe")
    out = {}
    for label, p in moduli.items():
        ops = PlainBackend().bind(p)
        pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(2000)]
        out[f"field.mul_ns.{label}"] = _time_per_call(ops.mul, pairs, 7) * 1e9
    return out


def group_probe() -> dict:
    """us per group multiply and square through the ``repro.exp`` Group protocol."""
    from repro.ecc.curves import get_curve
    from repro.exp.group import (
        ExtensionExpGroup,
        JacobianExpGroup,
        MontgomeryExpGroup,
        TorusExpGroup,
    )
    from repro.exp.strategies import exponentiate
    from repro.montgomery.domain import MontgomeryDomain
    from repro.pkc import get_scheme

    rng = random.Random("perfbench:group-probe")
    ceilidh = get_scheme("ceilidh-170")
    torus = TorusExpGroup(ceilidh.system.group)
    curve, generator = get_curve("secp160r1").build()
    jacobian = JacobianExpGroup(curve)
    xtr = get_scheme("xtr-170")
    fp2 = ExtensionExpGroup(xtr.system.context.fp2)
    rsa_p = probe_key("rsa-1024").native.p
    mont = MontgomeryExpGroup(MontgomeryDomain(rsa_p))

    def powers(group, base):
        return [exponentiate(group, base, rng.randrange(2, 1 << 64)) for _ in range(8)]

    p = xtr.params.p
    groups = {
        "ceilidh-170": (torus, powers(torus, ceilidh.system.group.generator())),
        "ecdh-p160": (jacobian, powers(jacobian, generator.to_jacobian())),
        "rsa-1024": (mont, powers(mont, mont.domain.to_montgomery(rng.randrange(2, rsa_p)))),
        "xtr-170": (fp2, [xtr.system.context.fp2([rng.randrange(p), rng.randrange(p)]) for _ in range(8)]),
    }
    out = {}
    for name, (group, elems) in groups.items():
        pairs = [(elems[i], elems[(i + 3) % len(elems)]) for i in range(len(elems))] * 25
        singles = [(e,) for e in elems] * 25
        out[f"group.mul_us.{name}"] = _time_per_call(group.op, pairs, 5) * 1e6
        out[f"group.sqr_us.{name}"] = _time_per_call(group.square, singles, 5) * 1e6
    return out


def exp_probe() -> dict:
    """OpTrace squarings + multiplications per scheme operation, fixed inputs."""
    from repro.exp.trace import OpTrace
    from repro.pkc import get_scheme

    out = {}
    for name in ("ceilidh-170", "ecdh-p160", "xtr-170"):
        scheme = get_scheme(name)
        server = probe_key(name)
        rng = random.Random(f"perfbench:exp-probe:{name}")
        keygen, derive = OpTrace(), OpTrace()
        client = scheme.keygen(rng, trace=keygen)
        scheme.key_agreement(server, client.public_wire, trace=derive)
        out[f"exp.ops.keygen.{name}"] = keygen.total
        out[f"exp.ops.derive.{name}"] = derive.total
    scheme = get_scheme("rsa-1024")
    server = probe_key("rsa-1024")
    rng = random.Random("perfbench:exp-probe:rsa-1024")
    encrypt, decrypt = OpTrace(), OpTrace()
    ciphertext = scheme.encrypt(server.public_wire, rng.randbytes(32), rng, trace=encrypt)
    scheme.decrypt(server, ciphertext, trace=decrypt)
    out["exp.ops.encrypt.rsa-1024"] = encrypt.total
    out["exp.ops.decrypt.rsa-1024"] = decrypt.total
    return out


def wordcount_probe() -> dict:
    """Fp multiplications per session, from the ``word-counting`` backend."""
    from repro.pkc import get_scheme

    from sessions import server_key_rng

    out = {}
    for name in ("ceilidh-170", "ecdh-p160", "rsa-1024", "xtr-170"):
        scheme = get_scheme(name, backend="word-counting", fresh=True)
        stream = scheme.field_backend.stream
        rng = random.Random(f"perfbench:wordcount-probe:{name}")
        server = scheme.keygen(server_key_rng(name))

        def session():
            if name == "rsa-1024":
                plaintext = rng.randbytes(32)
                ciphertext = scheme.encrypt(server.public_wire, plaintext, rng)
                return scheme.decrypt(server, ciphertext) == plaintext
            client = scheme.keygen(rng)
            ours = scheme.key_agreement(client, server.public_wire)
            return ours == scheme.key_agreement(server, client.public_wire)

        stream.counting = False  # a first session builds the lazy tables uncounted
        warm = session()
        stream.reset()
        stream.counting = True
        if not (warm and session()):
            raise RuntimeError(f"word-counting {name} session mismatch")
        out[f"field.mul_per_op.{name}"] = stream.modular_mults
    return out


def ka_frame_shapes() -> list:
    """The request/response frames of one Zipf round, as (opcode, payload bytes)."""
    from repro.pkc import get_scheme
    from repro.serve import protocol

    from common import RSA_PLAINTEXT_BYTES, ZIPF_ROUND

    shapes = []
    for name, count in ZIPF_ROUND.items():
        scheme = get_scheme(name)
        if "key-agreement" in scheme.capabilities:
            pair = [(protocol.OP_KA_INIT, scheme.public_key_size()),
                    (protocol.OP_KA_CONFIRM, protocol.TAG_LEN)]
        else:
            ciphertext = scheme.public_key_size() - 4 + 16 + RSA_PLAINTEXT_BYTES
            pair = [(protocol.OP_DECRYPT, ciphertext),
                    (protocol.OP_PLAINTEXT_DIGEST, protocol.TAG_LEN)]
        shapes.extend(pair * count)
    return shapes


def frame_probe(shapes) -> float:
    """us per frame to encode and read back the given ``(opcode, payload bytes)``.

    Frames are read with ``read_frame``, the decoder the server and the
    client run, from a ``StreamReader`` that already holds the frame, so the
    read never waits and the coroutine finishes on its first step.
    """
    import asyncio

    from repro.serve import protocol

    frames = [(opcode, bytes(size)) for opcode, size in shapes]
    encode, read_frame = protocol.encode_frame, protocol.read_frame
    loop = asyncio.new_event_loop()  # never run: the reader only needs one
    reader = asyncio.StreamReader(loop=loop)

    def both(opcode, payload):
        reader.feed_data(encode(opcode, payload))
        step = read_frame(reader)
        try:
            step.send(None)
        except StopIteration as done:
            if done.value.opcode != opcode or len(done.value.payload) != len(payload):
                raise RuntimeError("read_frame returned another frame") from None
            return
        step.close()
        raise RuntimeError("read_frame waited on a reader holding a whole frame")

    try:
        return _time_per_call(both, frames, 7) * 1e6
    finally:
        loop.close()


def lower_layer_probes() -> dict:
    """Every probe-based per-layer metric (raw seconds-based units)."""
    out = {}
    out.update(field_probe())
    out.update(wordcount_probe())
    out.update(group_probe())
    out.update(exp_probe())
    out["protocol.frame_us"] = frame_probe(ka_frame_shapes())
    return out


#: Probe metrics that are times (scaled to nominal units by the caller).
TIME_PREFIXES = ("field.mul_ns.", "group.", "protocol.frame_us")
