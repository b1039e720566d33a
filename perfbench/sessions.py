"""Seeded inputs and the per-session work of the two key-agreement workloads.

The inputs of the timed phase derive from the workload seed through
:func:`common.sub_rng`: the order of each round and the client keys and
plaintexts (one stream for the whole run).  What set-up does is the same on
every seed: the server's long-term keys and the warm-up sessions come from
fixed streams, so ``setup_s`` measures the program and not how long the
rsa-1024 prime search of one seed happens to take.  The program receives only
what these produce.
"""

from __future__ import annotations

import hashlib
import random

from common import CHECK_SAMPLES, RSA_PLAINTEXT_BYTES, SCHEMES, ZIPF_ROUND, sub_rng


def server_key_rng(name: str) -> random.Random:
    """The fixed stream the server's long-term key of ``name`` is drawn from."""
    return random.Random(f"perfbench:server-key:{name}")


def warm_up_rng() -> random.Random:
    """The fixed stream of the set-up's warm-up sessions."""
    return random.Random("perfbench:warm-up")


def server_keys(schemes=SCHEMES) -> dict:
    """The server's long-term key pair per scheme, the same on every seed."""
    from repro.pkc import get_scheme

    return {name: get_scheme(name).keygen(server_key_rng(name)) for name in schemes}


def round_layout(layout_rng) -> list:
    """One round: the Zipf session counts of ZIPF_ROUND in seeded order."""
    names = [name for name, count in ZIPF_ROUND.items() for _ in range(count)]
    layout_rng.shuffle(names)
    return names


def confirmation_tag(shared: bytes) -> bytes:
    """The serve protocol's key-agreement confirmation, recomputed with hashlib."""
    return hashlib.sha256(b"repro-serve-confirm" + shared).digest()[:16]


def plaintext_digest(plaintext: bytes) -> bytes:
    """The serve protocol's decryption digest, recomputed with hashlib."""
    return hashlib.sha256(b"repro-serve-digest" + plaintext).digest()[:16]


def client_half(scheme, server, rng) -> dict:
    """What a client prepares for one session before talking to the server.

    Key agreement: a fresh key pair and the client's own derivation.
    rsa-1024: a seeded plaintext and its encryption to the server key.
    """
    if "key-agreement" not in scheme.capabilities:
        plaintext = rng.randbytes(RSA_PLAINTEXT_BYTES)
        return {
            "scheme": scheme.name,
            "plaintext": plaintext,
            "request": scheme.encrypt(server.public_wire, plaintext, rng),
        }
    client = scheme.keygen(rng)
    return {
        "scheme": scheme.name,
        "client": client,
        "request": client.public_wire,
        "client_key": scheme.key_agreement(client, server.public_wire),
    }


def check_record(scheme_name: str, server, half: dict, server_output: bytes) -> dict:
    """The data the independent checks need for one sampled session.

    ``server_output`` is the server's derived key (offline) or its
    confirmation tag / plaintext digest (served); the check recomputes
    whichever it is from the keys alone.
    """
    if scheme_name.startswith("rsa"):
        key = server.native
        return {
            "scheme": scheme_name,
            "n": key.n, "e": key.e, "d": key.d, "p": key.p, "q": key.q,
            "ciphertext": half["request"].hex(),
            "plaintext": half["plaintext"].hex(),
            "server_output": server_output.hex(),
        }
    return {
        "scheme": scheme_name,
        "server_private": server.native.private,
        "client_private": half["client"].native.private,
        "server_public": server.public_wire.hex(),
        "client_public": half["request"].hex(),
        "client_key": half["client_key"].hex(),
        "server_output": server_output.hex(),
    }


def sample_rounds(seed: int, rounds: int) -> set:
    """Seeded rounds whose first session of each scheme is checked
    independently after the run; drawn among the first ``rounds`` rounds,
    which every run completes."""
    return set(sub_rng(seed, "check-sample").sample(range(rounds), CHECK_SAMPLES))


def torus_parameters(names) -> dict:
    """Public parameters the ceilidh/xtr checks start from: p, q, generator."""
    from repro.pkc import get_scheme
    from repro.torus.t6 import T6Group

    params = {}
    for name in names:
        scheme_params = get_scheme(name).params
        group = T6Group(scheme_params)
        params[name] = {
            "p": scheme_params.p,
            "q": scheme_params.q,
            "generator": [group.fp.exit(c) for c in group.generator().value.coeffs],
        }
    return params
