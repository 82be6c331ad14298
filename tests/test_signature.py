from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig import (
    Arborescence,
    Cipher,
    HashAlgorithm,
    Mutation,
    build_signature,
    decrypt,
    encrypt,
    generate_synthetic,
    hash_canonical,
    mutate,
    parse_signature,
    peel_edge_disjoint,
    serialize_signature,
)
from cfsig.errors import InvalidKeyError, MalformedPlaintextError
from cfsig.signature import EncryptedSignature, _apply_cipher

# Frozen with an external md5 tool over the exact canonical bytes.
DIAMOND_CANONICAL = "nodes:B1,B2,B3,B4;edges:B1>B2,B1>B3,B2>B4;root:B1"
DIAMOND_MD5 = "53fd392af70a1e4186cc69528111f2ca"


class TestCanonicalize:
    def test_diamond_msa(self):
        arb = Arborescence(
            "B1",
            frozenset({"B1", "B2", "B3", "B4"}),
            frozenset({("B1", "B2"), ("B1", "B3"), ("B2", "B4")}),
        )
        assert arb.canonical() == DIAMOND_CANONICAL

    def test_single_node(self):
        arb = Arborescence("B1", frozenset({"B1"}), frozenset())
        assert arb.canonical() == "nodes:B1;edges:;root:B1"

    def test_order_insensitive(self):
        edges = [("B2", "B4"), ("B1", "B3"), ("B1", "B2")]
        a = Arborescence("B1", {"B1", "B2", "B3", "B4"}, frozenset(edges))
        b = Arborescence("B1", {"B4", "B3", "B2", "B1"}, frozenset(reversed(edges)))
        assert a.canonical() == b.canonical()

    def test_distinct_edge_sets_distinct_strings(self):
        rng = random.Random(99)
        seen = {}
        for seed in range(200):
            g = generate_synthetic(rng.randint(2, 8), rng.random() * 0.6, seed)
            for arb in peel_edge_disjoint(g):
                key = (arb.root, arb.nodes, arb.edges)
                c = arb.canonical()
                if c in seen:
                    assert seen[c] == key
                seen[c] = key

    def test_subset_rule_at_string_level(self):
        # a strict edge-subset can never share the canonical string
        full = Arborescence("B1", {"B1", "B2", "B3"}, {("B1", "B2"), ("B2", "B3")})
        sub = Arborescence("B1", {"B1", "B2"}, {("B1", "B2")})
        assert full.canonical() != sub.canonical()


class TestHash:
    def test_md5_empty_string_published_constant(self):
        assert hash_canonical("", HashAlgorithm.MD5) == "d41d8cd98f00b204e9800998ecf8427e"

    def test_md5_diamond_frozen(self):
        assert hash_canonical(DIAMOND_CANONICAL, HashAlgorithm.MD5) == DIAMOND_MD5

    def test_digest_lengths(self):
        assert len(hash_canonical(DIAMOND_CANONICAL, HashAlgorithm.SHA1)) == 40
        assert len(hash_canonical(DIAMOND_CANONICAL, HashAlgorithm.MD5)) == 32
        assert len(hash_canonical(DIAMOND_CANONICAL, HashAlgorithm.SHA256)) == 64


class TestBuildSignature:
    def test_diamond_one_digest(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "diamond")
        assert sig.digests == (DIAMOND_MD5,)

    def test_unused_extra_edge_gives_equal_signature(self, diamond):
        # the peel never consumes B3->B2, so both graphs sign identically:
        # the documented blind spot of structurally distinct CFGs sharing
        # one peel result
        other = mutate(diamond, Mutation.add_edge("B3", "B2"))
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

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"cfsig/2\nalg:MD5\nlabel:x\ncount:0\n",
            b"cfsig/1\nalg:CRC32\nlabel:x\ncount:0\n",
            b"cfsig/1\nalg:MD5\nlabel:x\ncount:2\n" + b"a" * 32 + b"\n",
            b"cfsig/1\nalg:MD5\nlabel:x\ncount:1\nnot-a-digest-zzzz\n",
        ],
    )
    def test_malformed_records(self, data):
        with pytest.raises(MalformedPlaintextError):
            parse_signature(data)


class TestCiphers:
    def test_shift_byte_modular_addition(self):
        assert _apply_cipher(Cipher.SHIFT_BYTE, 3, bytes([0x61, 0xFF]), True) == bytes(
            [0x64, 0x02]
        )

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
        corrupted = EncryptedSignature(enc.cipher, enc.key_id, b"\x00" + enc.payload[1:])
        with pytest.raises(MalformedPlaintextError):
            decrypt(corrupted, 7)
