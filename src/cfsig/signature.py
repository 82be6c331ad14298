"""Process signatures: canonical strings, hashing, file format, demo ciphers.

A signature is the sorted set of digests of the canonical strings of a
graph's peeled arborescence set. The ciphers are deliberately demo-grade
(the transport model calls for a basic numeric-key scheme); they obfuscate
but do not authenticate, and wrong-key decryption surfaces as a parse
failure of the plaintext rather than an integrity error.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from .arborescence import Arborescence
from .errors import InvalidKeyError, MalformedPlaintextError

_MASK64 = (1 << 64) - 1


class HashAlgorithm(enum.Enum):
    MD5 = "MD5"
    SHA1 = "SHA1"
    SHA256 = "SHA256"

    @property
    def digest_hex_len(self) -> int:
        return {"MD5": 32, "SHA1": 40, "SHA256": 64}[self.value]

    def new(self):
        return hashlib.new(self.value.lower())


class Cipher(enum.Enum):
    NULL = "Null"
    SHIFT_BYTE = "ShiftByte"
    XOR_STREAM = "XorStream"

    @property
    def wire_tag(self) -> int:
        return {"Null": 0, "ShiftByte": 1, "XorStream": 2}[self.value]

    @classmethod
    def from_wire_tag(cls, tag: int) -> Cipher:
        for c in cls:
            if c.wire_tag == tag:
                return c
        raise MalformedPlaintextError(f"unknown cipher tag {tag}")


def hash_canonical(canonical: str, algorithm: HashAlgorithm) -> str:
    h = algorithm.new()
    h.update(canonical.encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class ProcessSignature:
    """Sorted digest set identifying one program's control-flow structure."""

    algorithm: HashAlgorithm
    digests: tuple[str, ...]
    source_label: str

    def __post_init__(self) -> None:
        want = self.algorithm.digest_hex_len
        for d in self.digests:
            if len(d) != want or any(c not in "0123456789abcdef" for c in d):
                raise MalformedPlaintextError(f"bad {self.algorithm.value} digest {d!r}")
        if list(self.digests) != sorted(set(self.digests)):
            raise MalformedPlaintextError("digests must be strictly ascending")


def build_signature(
    arbs: tuple[Arborescence, ...], algorithm: HashAlgorithm, label: str
) -> ProcessSignature:
    """Hash each arborescence's canonical string into a sorted digest set."""
    digests = sorted({hash_canonical(a.canonical(), algorithm) for a in arbs})
    return ProcessSignature(algorithm, tuple(digests), label)


# ---------------------------------------------------------------------------
# Signature file format: versioned, line-based, ASCII
# ---------------------------------------------------------------------------

_MAGIC_LINE = "cfsig/1"


def check_label(label: str) -> None:
    """Raise MalformedPlaintextError unless *label* is one line of ASCII."""
    if "\n" in label or not label.isascii():
        raise MalformedPlaintextError(f"label {label!r} must be one line of ASCII")


def serialize_signature(sig: ProcessSignature) -> bytes:
    check_label(sig.source_label)
    lines = [
        _MAGIC_LINE,
        f"alg:{sig.algorithm.value}",
        f"label:{sig.source_label}",
        f"count:{len(sig.digests)}",
        *sig.digests,
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_signature(data: bytes) -> ProcessSignature:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedPlaintextError("signature is not ASCII") from exc
    lines = text.split("\n")
    if len(lines) < 5 or lines[-1] != "":
        raise MalformedPlaintextError("truncated signature record")
    lines = lines[:-1]
    if lines[0] != _MAGIC_LINE:
        raise MalformedPlaintextError(f"bad magic line {lines[0]!r}")
    if not lines[1].startswith("alg:") or not lines[2].startswith("label:"):
        raise MalformedPlaintextError("missing alg/label header")
    try:
        algorithm = HashAlgorithm(lines[1][4:])
    except ValueError as exc:
        raise MalformedPlaintextError(f"unknown algorithm {lines[1][4:]!r}") from exc
    label = lines[2][6:]
    if not lines[3].startswith("count:"):
        raise MalformedPlaintextError("missing count header")
    try:
        count = int(lines[3][6:])
    except ValueError as exc:
        raise MalformedPlaintextError("count is not an integer") from exc
    digests = lines[4:]
    if len(digests) != count:
        raise MalformedPlaintextError(f"expected {count} digests, found {len(digests)}")
    return ProcessSignature(algorithm, tuple(digests), label)


# ---------------------------------------------------------------------------
# Demo ciphers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncryptedSignature:
    cipher: Cipher
    key_id: int  # low byte of the key; a label, not a secret
    payload: bytes


def _check_key(cipher: Cipher, key: int) -> None:
    if cipher is Cipher.SHIFT_BYTE:
        if not 1 <= key <= 255:
            raise InvalidKeyError(f"ShiftByte key must be in 1..255, got {key}")
    elif cipher is Cipher.XOR_STREAM:
        if not 0 <= key <= _MASK64:
            raise InvalidKeyError(f"XorStream key must fit in 64 bits, got {key}")
    elif key < 0:
        raise InvalidKeyError("key must be non-negative")


def _keystream(key: int, n: int) -> bytes:
    # splitmix64-style stream; fixed here forever for wire compatibility
    state = (key * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & _MASK64
    out = bytearray(n)
    for i in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out[i] = (z ^ (z >> 31)) & 0xFF
    return bytes(out)


def _apply_cipher(cipher: Cipher, key: int, data: bytes, forward: bool) -> bytes:
    if cipher is Cipher.NULL:
        return data
    if cipher is Cipher.SHIFT_BYTE:
        delta = key if forward else -key
        return bytes((b + delta) % 256 for b in data)
    stream = _keystream(key, len(data))
    return bytes(b ^ s for b, s in zip(data, stream))


def encrypt(sig: ProcessSignature, cipher: Cipher, key: int) -> EncryptedSignature:
    _check_key(cipher, key)
    payload = _apply_cipher(cipher, key, serialize_signature(sig), forward=True)
    return EncryptedSignature(cipher, key & 0xFF, payload)


def decrypt(enc: EncryptedSignature, key: int) -> ProcessSignature:
    _check_key(enc.cipher, key)
    plaintext = _apply_cipher(enc.cipher, key, enc.payload, forward=False)
    return parse_signature(plaintext)
