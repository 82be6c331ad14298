from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig import (
    Cipher,
    ControlFlowGraph,
    HashAlgorithm,
    Mutation,
    ProcessSignature,
    build_signature,
    canonical,
    decrypt,
    encrypt,
    hash_canonical,
    mutate,
    parse_signature,
    peel_edge_disjoint,
    serialize_signature,
)
from cfsig.errors import InvalidKeyError, MalformedPlaintextError
from cfsig.signature import EncryptedSignature, _apply_cipher

from .conftest import generate_synthetic

# Frozen with an external md5 tool over the exact canonical bytes.
DIAMOND_CANONICAL = "nodes:B1,B2,B3,B4;edges:B1>B2,B1>B3,B2>B4;root:B1"
DIAMOND_MD5 = "53fd392af70a1e4186cc69528111f2ca"


class TestCanonicalize:
    def test_diamond_msa(self):
        arb = ControlFlowGraph(
            frozenset({"B1", "B2", "B3", "B4"}),
            frozenset({("B1", "B2"), ("B1", "B3"), ("B2", "B4")}),
            "B1",
        )
        assert canonical(arb) == DIAMOND_CANONICAL

    def test_single_node(self):
        arb = ControlFlowGraph(frozenset({"B1"}), frozenset(), "B1")
        assert canonical(arb) == "nodes:B1;edges:;root:B1"

    def test_order_insensitive(self):
        edges = [("B2", "B4"), ("B1", "B3"), ("B1", "B2")]
        a = ControlFlowGraph({"B1", "B2", "B3", "B4"}, frozenset(edges), "B1")
        b = ControlFlowGraph({"B4", "B3", "B2", "B1"}, frozenset(reversed(edges)), "B1")
        assert canonical(a) == canonical(b)

    def test_distinct_edge_sets_distinct_strings(self):
        rng = random.Random(99)
        seen = {}
        for seed in range(200):
            g = generate_synthetic(rng.randint(2, 8), rng.random() * 0.6, seed)
            for arb in peel_edge_disjoint(g):
                key = (arb.entry, arb.nodes, arb.edges)
                c = canonical(arb)
                if c in seen:
                    assert seen[c] == key
                seen[c] = key

    def test_subset_rule_at_string_level(self):
        # a strict edge-subset can never share the canonical string
        full = ControlFlowGraph({"B1", "B2", "B3"}, {("B1", "B2"), ("B2", "B3")}, "B1")
        sub = ControlFlowGraph({"B1", "B2"}, {("B1", "B2")}, "B1")
        assert canonical(full) != canonical(sub)


class TestHash:
    def test_md5_empty_string_published_constant(self):
        assert hash_canonical("", HashAlgorithm.MD5) == "d41d8cd98f00b204e9800998ecf8427e"

    def test_md5_diamond_frozen(self):
        assert hash_canonical(DIAMOND_CANONICAL, HashAlgorithm.MD5) == DIAMOND_MD5

    def test_digest_lengths(self):
        assert len(hash_canonical(DIAMOND_CANONICAL, HashAlgorithm.SHA1)) == 40
        assert len(hash_canonical(DIAMOND_CANONICAL, HashAlgorithm.MD5)) == 32
        assert len(hash_canonical(DIAMOND_CANONICAL, HashAlgorithm.SHA256)) == 64

    def test_non_ascii_block_ids_hash_as_utf8(self):
        canonical = "nodes:B\u00e9;edges:;root:B\u00e9"
        want = hashlib.md5(canonical.encode("utf-8")).hexdigest()
        assert hash_canonical(canonical, HashAlgorithm.MD5) == want


class TestBuildSignature:
    def test_diamond_one_digest(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "diamond")
        assert sig.digests == (DIAMOND_MD5,)

    def test_unused_extra_edge_gives_equal_signature(self, diamond):
        # the peel never consumes B3->B2, so both graphs sign identically:
        # the documented blind spot of structurally distinct CFGs sharing
        # one peel result
        other = mutate(diamond, Mutation.parse("AddEdge:B3>B2"))
        a = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "x")
        b = build_signature(peel_edge_disjoint(other), HashAlgorithm.MD5, "x")
        assert a.digests == b.digests

    def test_algorithms_same_count_different_digests(self, diamond):
        arbs = peel_edge_disjoint(diamond)
        md5 = build_signature(arbs, HashAlgorithm.MD5, "d")
        sha = build_signature(arbs, HashAlgorithm.SHA256, "d")
        assert len(md5.digests) == len(sha.digests)
        assert md5.digests != sha.digests

    def test_serialization_round_trip_and_format(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "diamond")
        data = serialize_signature(sig)
        assert data == (
            b"cfsig/1\nalg:MD5\nlabel:diamond\ncount:1\n" + DIAMOND_MD5.encode() + b"\n"
        )
        assert parse_signature(data) == sig

    @pytest.mark.parametrize("label", ["d\u00e9", "a\nb", "d\udcc3\udca9"])
    def test_label_must_be_one_ascii_line(self, diamond, label):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, label)
        with pytest.raises(MalformedPlaintextError, match="must be one line of ASCII"):
            serialize_signature(sig)

    MALFORMED_RECORDS = [
        (b"", "truncated signature record"),
        (b"cfsig/2\nalg:MD5\nlabel:x\ncount:0\n", "bad magic line 'cfsig/2'"),
        (b"cfsig/1\nalg:CRC32\nlabel:x\ncount:0\n", "unknown algorithm 'CRC32'"),
        (b"cfsig/1\nalg:MD5\nlabel:x\ncount:2\n" + b"a" * 32 + b"\n", "expected 2 digests, found 1"),
        (b"cfsig/1\nalg:MD5\nlabel:x\ncount:1\nnot-a-digest-zzzz\n", "bad MD5 digest 'not-a-digest-zzzz'"),
        (b"cfsig/1\nlabel:x\nalg:MD5\ncount:0\n", "missing alg/label header"),
        (b"cfsig/1\nalg:MD5\nlabel:x\nsize:0\n", "missing count header"),
        (b"cfsig/1\nalg:MD5\nlabel:x\ncount:two\n", "count 'two' is not in canonical decimal form"),
        (b"cfsig/1\nalg:MD5\nlabel:x\ncount:2\n" + b"b" * 32 + b"\n" + b"a" * 32 + b"\n",
         "digests must be strictly ascending"),
        # Counts int() reads, but not written as canonical decimal: each record has one encoding.
        *[(b"cfsig/1\nalg:MD5\nlabel:x\ncount:" + count.encode() + b"\n" + b"a" * 32 + b"\n",
           f"count {count!r} is not in canonical decimal form") for count in ["+1", "01", " 1", "1 ", "0_1"]],
        (b"cfsig/1\nalg:MD5\nlabel:x\ncount:-0\n", "count '-0' is not in canonical decimal form"),
        (b"cfsig/1\nalg:MD5\nlabel:x\ncount:-1\n", "count '-1' is not in canonical decimal form"),
    ]

    # The ids name each case by its record, not by its message.
    @pytest.mark.parametrize(
        "data,message", MALFORMED_RECORDS, ids=[data.decode() for data, _ in MALFORMED_RECORDS]
    )
    def test_malformed_records(self, data, message):
        with pytest.raises(MalformedPlaintextError) as exc:
            parse_signature(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "digest", [DIAMOND_MD5.upper(), DIAMOND_MD5[:-1] + "g", DIAMOND_MD5[:-1] + " ", "\u0661" * 32]
    )
    def test_digest_must_be_lowercase_hex(self, digest):
        with pytest.raises(MalformedPlaintextError) as exc:
            ProcessSignature(HashAlgorithm.MD5, (digest,), "x")
        assert str(exc.value) == f"bad MD5 digest {digest!r}"

    @pytest.mark.parametrize("algorithm", list(HashAlgorithm))
    def test_digest_hex_len_is_the_hexdigest_length(self, algorithm):
        assert algorithm.digest_hex_len == len(hash_canonical("", algorithm))


class TestCiphers:
    def test_shift_byte_modular_addition(self):
        assert _apply_cipher(Cipher.SHIFT_BYTE, 3, bytes([0x61, 0xFF]), True) == bytes(
            [0x64, 0x02]
        )

    @pytest.mark.parametrize("forward", [True, False])
    def test_shift_byte_is_the_per_byte_formula(self, forward):
        data = bytes(range(256))
        for key in range(1, 256):
            delta = key if forward else -key
            expected = bytes((b + delta) % 256 for b in data)
            assert _apply_cipher(Cipher.SHIFT_BYTE, key, data, forward) == expected, key

    def test_null_payload_is_plaintext(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "d")
        assert encrypt(sig, Cipher.NULL, 0).payload == serialize_signature(sig)

    @pytest.mark.parametrize("cipher", list(Cipher))
    def test_round_trip(self, diamond, cipher):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.SHA1, "d")
        key = 42
        assert decrypt(encrypt(sig, cipher, key), key) == sig

    @given(st.integers(min_value=1, max_value=255))
    @settings(max_examples=100, deadline=None)
    def test_shift_round_trip_all_keys(self, key):
        sig = parse_signature(
            b"cfsig/1\nalg:MD5\nlabel:k\ncount:1\n" + DIAMOND_MD5.encode() + b"\n"
        )
        assert decrypt(encrypt(sig, Cipher.SHIFT_BYTE, key), key) == sig

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_xor_round_trip_64bit_keys(self, key):
        sig = parse_signature(
            b"cfsig/1\nalg:MD5\nlabel:k\ncount:1\n" + DIAMOND_MD5.encode() + b"\n"
        )
        assert decrypt(encrypt(sig, Cipher.XOR_STREAM, key), key) == sig

    @pytest.mark.parametrize(
        "key,label,payload",
        [
            (0, "diamond",
             "d134dcf3b1b44a4e0df70da6291414a40e786704d07acf197ee0edf023b4a853392157400b30cf5e"
             "17889b4eee05399c463264666aab334a92fad3e4bc31286e5922b25da5cf2d"),
            (9, "diamond",
             "f80cef0d370e9f68786906860def4515e1e3fc22d2f158252e4e15545ef00e1e99c603e655559e45"
             "35313067a86a1ac6a984ecec3721675e70b759ff9b153e762154fac86f89da"),
            # The same key at another payload length: the stream is cached per length.
            (9, "wordcount",
             "f80cef0d370e9f68786906860def4515e1e3fc22d2f14b233d4719554f94197b8fc702b210659a7c"
             "6666653aa9324e90ffd2ede832756b592be20ca5981e33752854adcb6adab3d1e4"),
            (2**64 - 1, "diamond",
             "73d421c6fdf9aa712500fc50d120652bc2037b600d8624c21172e2ecfa4ddda449223b194b300fc9"
             "0b15df9145bd02689b176230376fa23d1f92afdce8bb3b216e5975e60ca7a4"),
        ],
        ids=["key=0", "key=9", "key=9-label=wordcount", "key=2**64-1"],
    )
    def test_xor_stream_wire_bytes_are_pinned(self, diamond, key, label, payload):
        # The keystream is part of the wire format; a faster stream must give these bytes.
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, label)
        assert encrypt(sig, Cipher.XOR_STREAM, key).payload.hex() == payload

    def test_wrong_key_surfaces_as_malformed(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "d")
        enc = encrypt(sig, Cipher.SHIFT_BYTE, 7)
        with pytest.raises(MalformedPlaintextError):
            decrypt(enc, 8)  # header magic shifts out of place
        enc2 = encrypt(sig, Cipher.XOR_STREAM, 1234)
        with pytest.raises(MalformedPlaintextError):
            decrypt(enc2, 1235)

    @pytest.mark.parametrize("key", [0, 256, -1])
    def test_shift_key_space(self, diamond, key):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "d")
        with pytest.raises(InvalidKeyError):
            encrypt(sig, Cipher.SHIFT_BYTE, key)

    def test_corrupted_payload(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "d")
        enc = encrypt(sig, Cipher.SHIFT_BYTE, 7)
        corrupted = EncryptedSignature(enc.cipher, b"\x00" + enc.payload[1:])
        with pytest.raises(MalformedPlaintextError):
            decrypt(corrupted, 7)
