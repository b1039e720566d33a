"""Output checks against computations made apart from the program.

* ceilidh and xtr: the shared element g^(xy) is recomputed with sympy's
  GF(p)[z] arithmetic modulo z^6 + z^3 + 1, then compressed (ceilidh) or
  traced down to Fp2 (xtr) by formulas written here, encoded, and run
  through a hashlib KDF;
* ecdh-p160: a plain-integer affine double-and-add on secp160r1, with the
  SEC 2 constants written here;
* rsa-1024: OpenSSL, through ``cryptography``, loads the key from
  ``RSAPrivateNumbers`` (which validates it) and computes the raw private
  operation on a PKCS#1 block, which the program's CRT private operation
  must reproduce; the KEM body is then opened with hashlib/hmac;
* channel records: keys, keystream and tags rederived with hashlib/hmac.

Every check returns a list of failure strings; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from sessions import confirmation_tag, plaintext_digest


def kdf(secret: bytes, info: bytes, length: int) -> bytes:
    """SHA-256 counter-mode KDF: H(counter:4 | secret | info) blocks."""
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(counter.to_bytes(4, "big") + secret + info).digest()
        counter += 1
    return out[:length]


def _server_expectation(key: bytes, served: bool) -> bytes:
    return confirmation_tag(key) if served else key


# -- Fp6 = GF(p)[z]/(z^6 + z^3 + 1) with sympy ------------------------------------


class Fp6:
    """sympy galoistools arithmetic; elements are little-endian coefficient lists."""

    MODULUS = [1, 0, 0, 1, 0, 0, 1]  # z^6 + z^3 + 1 (a palindrome)

    def __init__(self, p: int):
        from sympy.polys.domains import ZZ
        from sympy.polys import galoistools as gf

        self.p = p
        self._gf = gf
        self._zz = ZZ

    def _dense(self, coeffs):
        return self._gf.gf_strip([c % self.p for c in reversed(coeffs)])

    def _little(self, dense):
        out = [int(c) % self.p for c in reversed(dense)]
        return out + [0] * (6 - len(out))

    def mul(self, a, b):
        gf = self._gf
        product = gf.gf_mul(self._dense(a), self._dense(b), self.p, self._zz)
        return self._little(gf.gf_rem(product, self.MODULUS, self.p, self._zz))

    def pow(self, a, e: int):
        return self._little(
            self._gf.gf_pow_mod(self._dense(a), e, self.MODULUS, self.p, self._zz)
        )

    def inv(self, a):
        s, _, h = self._gf.gf_gcdex(self._dense(a), self.MODULUS, self.p, self._zz)
        if h != [1]:
            raise ValueError("element is not invertible")
        return self._little(s)

    def sub(self, a, b):
        return [(x - y) % self.p for x, y in zip(a, b)]

    def add(self, a, b):
        return [(x + y) % self.p for x, y in zip(a, b)]

    @staticmethod
    def monomial(k: int):
        out = [0] * 6
        out[k] = 1
        return out

    def compress(self, s):
        """CEILIDH's rho: (u, v) with alpha = s, c = (alpha x^2 - x)/(1 - alpha).

        x = z^3 is the cube root of unity of the quadratic step; c lies in
        Fp3 = Fp(y), y = z + 1/z = z - z^2 - z^5, y^2 = 2 - z + z^2 - z^4,
        so c = c0 + c1 y + c2 y^2 reads off the z-coefficients directly.
        """
        p = self.p
        numerator = self.sub(self.mul(s, self._z6()), self.monomial(3))
        c = self.mul(numerator, self.inv(self.sub(self.monomial(0), s)))
        c1, c2 = (-c[5]) % p, (-c[4]) % p
        c0 = (c[0] - 2 * c2) % p
        if c[3] % p or (c1 - c2 - c[1]) % p or (c2 - c1 - c[2]) % p:
            raise ValueError("element is not in the torus T6")
        if c2 == 0:
            raise ValueError("element is on rho's exceptional line")
        c2_inv = pow(c2, -1, p)
        return (c0 - 1) * c2_inv % p, c1 * c2_inv % p

    def _z6(self):
        # z^6 = -z^3 - 1 modulo z^6 + z^3 + 1.
        return [self.p - 1, 0, 0, self.p - 1, 0, 0]

    def trace_fp2(self, s):
        """Tr_{Fp6/Fp2}(s) = s + s^(p^2) + s^(p^4), as (a, b) with a + b z^3."""
        p = self.p
        total = self.add(self.add(s, self.pow(s, p * p)), self.pow(s, p ** 4))
        if any(total[k] for k in (1, 2, 4, 5)):
            raise ValueError("trace did not land in Fp2")
        return total[0], total[3]


def _width(p: int) -> int:
    return (p.bit_length() + 7) // 8


def check_torus_params(params: dict) -> list:
    """The generator the program publishes has prime order q in Fp6*."""
    field = Fp6(params["p"])
    g = params["generator"]
    if g == Fp6.monomial(0):
        return ["torus generator is the identity"]
    if field.pow(g, params["q"]) != Fp6.monomial(0):
        return ["torus generator does not have order q"]
    return []


def check_torus_session(record: dict, params: dict, served: bool) -> list:
    """ceilidh-* and xtr-* sessions: public keys, shared element, KDF, tag."""
    p, q, g = params["p"], params["q"], params["generator"]
    field = Fp6(p)
    width = _width(p)
    xtr = record["scheme"].startswith("xtr")

    def encode(element) -> bytes:
        a, b = field.trace_fp2(element) if xtr else field.compress(element)
        return a.to_bytes(width, "big") + b.to_bytes(width, "big")

    failures = []
    x, y = record["server_private"], record["client_private"]
    try:
        if encode(field.pow(g, x)).hex() != record["server_public"]:
            failures.append(f"{record['scheme']}: server public key differs from g^x")
        if encode(field.pow(g, y)).hex() != record["client_public"]:
            failures.append(f"{record['scheme']}: client public key differs from g^y")
        shared = encode(field.pow(g, x * y % q))
    except ValueError as exc:
        return failures + [f"{record['scheme']}: {exc}"]
    key = kdf(shared, b"", 32)
    if key.hex() != record["client_key"]:
        failures.append(f"{record['scheme']}: client key differs from KDF(g^(xy))")
    if _server_expectation(key, served).hex() != record["server_output"]:
        failures.append(f"{record['scheme']}: server output differs from KDF(g^(xy))")
    return failures


# -- secp160r1, affine, plain integers -----------------------------------------------

SECP160R1 = {
    "p": 2 ** 160 - 2 ** 31 - 1,
    "a": 2 ** 160 - 2 ** 31 - 1 - 3,
    "b": 0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
    "g": (
        0x4A96B5688EF573284664698968C38BB913CBFC82,
        0x23A628553168947D59DCC912042351377AC5FB32,
    ),
    "n": 0x0100000000000000000001F4C8F927AED3CA752257,
}


def _affine_add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def affine_multiply(k: int, P, curve=SECP160R1):
    """k*P by left-to-right double-and-add in affine coordinates."""
    result = None
    for bit in bin(k)[2:]:
        result = _affine_add(result, result, curve["a"], curve["p"])
        if bit == "1":
            result = _affine_add(result, P, curve["a"], curve["p"])
    return result


def check_ecdh_session(record: dict, served: bool) -> list:
    curve = SECP160R1
    width = _width(curve["p"])
    x, y = record["server_private"], record["client_private"]

    def sec1(point) -> str:
        return (b"\x04" + point[0].to_bytes(width, "big") + point[1].to_bytes(width, "big")).hex()

    failures = []
    if sec1(affine_multiply(x, curve["g"])) != record["server_public"]:
        failures.append("ecdh-p160: server public key differs from x*G")
    if sec1(affine_multiply(y, curve["g"])) != record["client_public"]:
        failures.append("ecdh-p160: client public key differs from y*G")
    shared = affine_multiply(x * y % curve["n"], curve["g"])
    key = kdf(shared[0].to_bytes(width, "big"), b"", 32)
    if key.hex() != record["client_key"]:
        failures.append("ecdh-p160: client key differs from KDF(x(xy*G))")
    if _server_expectation(key, served).hex() != record["server_output"]:
        failures.append("ecdh-p160: server output differs from KDF(x(xy*G))")
    return failures


# -- rsa: OpenSSL through cryptography --------------------------------------------------

_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


def _pkcs1_sign_block(message: bytes, k: int) -> int:
    """EMSA-PKCS1-v1_5 encoding of SHA-256(message) in a k-byte block."""
    t = _SHA256_DIGEST_INFO + hashlib.sha256(message).digest()
    return int.from_bytes(b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t, "big")


def check_rsa_session(record: dict, served: bool, program_private_op) -> list:
    """``program_private_op(record, c)`` is the program's raw c^d mod n."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding, rsa

    n, e, d, p, q = (record[k] for k in ("n", "e", "d", "p", "q"))
    name = record["scheme"]
    k = _width(n)
    failures = []
    try:
        private_key = rsa.RSAPrivateNumbers(
            p, q, d,
            rsa.rsa_crt_dmp1(d, p), rsa.rsa_crt_dmq1(d, q), rsa.rsa_crt_iqmp(p, q),
            rsa.RSAPublicNumbers(e, n),
        ).private_key()
    except ValueError as exc:
        return [f"{name}: OpenSSL rejects the key material: {exc}"]
    ciphertext = bytes.fromhex(record["ciphertext"])
    block = _pkcs1_sign_block(ciphertext, k)
    openssl = int.from_bytes(
        private_key.sign(ciphertext, padding.PKCS1v15(), hashes.SHA256()), "big"
    )
    if program_private_op(record, block) != openssl:
        failures.append(f"{name}: raw private operation differs from OpenSSL's")
    try:
        private_key.public_key().verify(
            openssl.to_bytes(k, "big"), ciphertext, padding.PKCS1v15(), hashes.SHA256()
        )
    except InvalidSignature:
        failures.append(f"{name}: OpenSSL does not verify its own private operation")
    wrapped = int.from_bytes(ciphertext[:k], "big")
    seed = program_private_op(record, wrapped)
    if pow(seed, e, n) != wrapped:
        failures.append(f"{name}: private operation does not invert the public one")
    secret = seed.to_bytes(k, "big")
    tag, body = ciphertext[k:k + 16], ciphertext[k + 16:]
    tag_key = kdf(secret, b"rsa-kem-tag", 32)
    if not hmac.compare_digest(hmac.new(tag_key, body, hashlib.sha256).digest()[:16], tag):
        failures.append(f"{name}: KEM tag does not verify")
    stream = kdf(secret, b"rsa-kem-stream", len(body))
    plaintext = bytes(c ^ s for c, s in zip(body, stream))
    if plaintext.hex() != record["plaintext"]:
        failures.append(f"{name}: ciphertext does not open to the plaintext")
    expected = plaintext_digest(plaintext) if served else plaintext
    if expected.hex() != record["server_output"]:
        failures.append(f"{name}: server output differs from the opened plaintext")
    return failures


def program_rsa_private_op(record: dict, value: int) -> int:
    """The program's CRT private operation on the record's key."""
    from repro.rsa.keygen import RsaKeyPair
    from repro.rsa.rsa import rsa_decrypt_int_crt

    key = RsaKeyPair(
        n=record["n"], e=record["e"], d=record["d"], p=record["p"], q=record["q"],
        d_p=record["d"] % (record["p"] - 1), d_q=record["d"] % (record["q"] - 1),
        q_inv=pow(record["q"], -1, record["p"]),
    )
    return rsa_decrypt_int_crt(key, value)


# -- channel records -------------------------------------------------------------------


def _channel_keys(secret: bytes, channel_id: bytes, epoch: int, direction: bytes):
    info = b"repro-chan|" + channel_id + struct.pack(">I", epoch) + b"|" + direction
    return kdf(secret, info + b"-stream", 32), kdf(secret, info + b"-tag", 32)


def _open(record: bytes, keys, channel_id: bytes, epoch: int):
    stream_key, tag_key = keys
    (seq,) = struct.unpack_from(">Q", record)
    body, tag = record[8:-16], record[-16:]
    material = channel_id + struct.pack(">IQ", epoch, seq) + body
    if not hmac.compare_digest(hmac.new(tag_key, material, hashlib.sha256).digest()[:16], tag):
        return None
    stream = kdf(stream_key, b"rec" + struct.pack(">Q", seq), len(body))
    return bytes(c ^ s for c, s in zip(body, stream))


def check_channel_record(record: dict) -> list:
    """A sent record opens to its payload; the reply opens to its digest."""
    secret = bytes.fromhex(record["secret"])
    channel_id = bytes.fromhex(record["channel_id"])
    epoch = record["epoch"]
    payload = bytes.fromhex(record["payload"])
    failures = []
    sent = _open(bytes.fromhex(record["request"]),
                 _channel_keys(secret, channel_id, epoch, b"c2s"), channel_id, epoch)
    if sent != payload:
        failures.append("channel: request record does not open to its payload")
    reply = _open(bytes.fromhex(record["reply"]),
                  _channel_keys(secret, channel_id, epoch, b"s2c"), channel_id, epoch)
    if reply != plaintext_digest(payload):
        failures.append("channel: reply record does not open to the payload digest")
    return failures


def check_ka_record(record: dict, params: dict, served: bool) -> list:
    """Dispatch one sampled session record to its scheme's check."""
    name = record["scheme"]
    if name.startswith(("ceilidh", "xtr")):
        return check_torus_session(record, params[name], served)
    if name.startswith("ecdh"):
        return check_ecdh_session(record, served)
    return check_rsa_session(record, served, program_rsa_private_op)
