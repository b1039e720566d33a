"""Self-test of the independent output checks, on the toy schemes.

    python3 perfbench/selftest.py

For ceilidh-toy64, xtr-toy32, rsa-512 (and ecdh-p160: the registry has no
toy curve) it runs one real session through the program, offline and
served-style, and asserts that the matching check in ``checks.py`` accepts
it.  Then it flips one byte of each result the check covers and asserts
that the check rejects every corrupted copy.  Channel records get the same
treatment.  Exits 0 only when every check accepts the real result and
rejects every corruption.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import sessions  # noqa: E402
from common import use_program  # noqa: E402

KA_SCHEMES = ("ceilidh-toy64", "xtr-toy32", "ecdh-p160")
RSA_SCHEMES = ("rsa-512",)


def flip_hex(value: str) -> str:
    """The same bytes with one bit flipped in the middle byte."""
    raw = bytearray(bytes.fromhex(value))
    raw[len(raw) // 2] ^= 0x01
    return raw.hex()


def session_records(name: str, rng) -> list:
    """(label, record, served) for one real offline and one served session."""
    from repro.pkc import get_scheme

    scheme = get_scheme(name)
    server = scheme.keygen(random.Random(f"perfbench:selftest-key:{name}"))
    records = []
    for served in (False, True):
        half = sessions.client_half(scheme, server, rng)
        if "client_key" in half:
            key = scheme.key_agreement(server, half["request"])
            output = sessions.confirmation_tag(key) if served else key
        else:
            plaintext = scheme.decrypt(server, half["request"])
            output = sessions.plaintext_digest(plaintext) if served else plaintext
        records.append((f"{name} {'served' if served else 'offline'}",
                        sessions.check_record(name, server, half, output), served))
    return records


def channel_record(rng) -> dict:
    from repro.serve.channel import CLIENT_TO_SERVER, SERVER_TO_CLIENT, ChannelCrypto

    secret, channel_id = rng.randbytes(32), rng.randbytes(8)
    client = ChannelCrypto(secret, channel_id, CLIENT_TO_SERVER, SERVER_TO_CLIENT)
    server = ChannelCrypto(secret, channel_id, SERVER_TO_CLIENT, CLIENT_TO_SERVER)
    client.rekey(secret)  # exercise a non-zero epoch
    server.rekey(secret)
    payload = rng.randbytes(100)
    request = client.seal(payload)
    reply = server.seal(sessions.plaintext_digest(server.open(request)))
    return {"secret": secret.hex(), "channel_id": channel_id.hex(), "epoch": client.epoch,
            "payload": payload.hex(), "request": request.hex(), "reply": reply.hex()}


def main() -> int:
    use_program()

    rng = random.Random("perfbench:selftest")
    params = sessions.torus_parameters([n for n in KA_SCHEMES if not n.startswith("ecdh")])
    cases = []  # (label, check callable, record, fields to corrupt)
    for name in KA_SCHEMES + RSA_SCHEMES:
        for label, record, served in session_records(name, rng):
            fields = (
                ("ciphertext", "plaintext", "server_output") if name.startswith("rsa")
                else ("client_key", "server_output", "client_public", "server_public")
            )
            cases.append((label, lambda r, s=served: checks.check_ka_record(r, params, s),
                          record, fields))
    cases.append(("channel record", checks.check_channel_record, channel_record(rng),
                  ("request", "reply", "payload")))

    problems = 0
    for label, check, record, fields in cases:
        failures = check(record)
        if failures:
            problems += 1
            print(f"FAIL {label}: check rejects a real result: {failures}")
            continue
        for field in fields:
            corrupted = dict(record, **{field: flip_hex(record[field])})
            if check(corrupted):
                print(f"ok   {label}: one flipped byte in {field} is rejected")
            else:
                problems += 1
                print(f"FAIL {label}: one flipped byte in {field} passes")
    for name, values in params.items():
        bad = dict(values, generator=[values["generator"][0] ^ 1] + values["generator"][1:])
        if checks.check_torus_params(bad):
            print(f"ok   {name}: a corrupted generator is rejected")
        else:
            problems += 1
            print(f"FAIL {name}: a corrupted generator passes")
    print(f"{problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
