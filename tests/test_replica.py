from __future__ import annotations

import os
import re
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig import (
    Cipher,
    ClusterConfig,
    EncryptedSignature,
    HashAlgorithm,
    Mutation,
    Outcome,
    ReplicaNode,
    Scenario,
    build_signature,
    decrypt,
    encrypt,
    match_signatures,
    parse_dot,
    parse_scenario_file,
    peel_edge_disjoint,
    run_cluster_scenario,
)
from cfsig import replica
from cfsig.errors import InvalidKeyError, MalformedPlaintextError, ScenarioError, TransportError
from cfsig.replica import (
    CIPHER_TAGS,
    FRAME_MAGIC,
    MAX_NODES,
    MSG_ENVELOPE,
    MSG_VOTE,
    Frame,
    InProcessTransport,
    SocketTransport,
    Verdict,
    VoteMessage,
    conclude_round,
    decode_frame,
    envelope_frame,
    envelope_from_frame,
    vote_frame,
    votes_from_frame,
)

from .conftest import FIXTURES, UNREACHABLE_DOT, fixture_graphs


def reference_votes_from_frame(frame: Frame, subjects) -> list[VoteMessage]:
    """votes_from_frame as a loop over the unpacked pairs: the same votes, or the same TransportError."""
    if frame.msg_type != MSG_VOTE or len(frame.payload) % replica._VOTE.size:
        raise TransportError("not a vote frame")
    pairs = list(replica._VOTE.iter_unpack(frame.payload))
    if any(subject == frame.sender for subject, _ in pairs):
        raise TransportError("a node never votes about its own signature")
    if any(subject not in subjects for subject, _ in pairs):
        raise TransportError("vote subject out of range")
    for _, verdict in pairs:
        if verdict > 1:
            raise TransportError(f"bad verdict byte {verdict}")
    return [VoteMessage(frame.sender, subject, verdict == 1) for subject, verdict in pairs]


def outcome(parse, *args):
    """What *parse* returns, or the message of the TransportError it raises."""
    try:
        return parse(*args)
    except TransportError as exc:
        return f"TransportError: {exc}"


def open_fds() -> int | None:
    """This process's open file descriptors; None off Linux, where the check is skipped."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


class TestFraming:
    def test_envelope_frame_layout(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "d")
        # (cipher, key, tag byte, key byte): the key byte is the key mod 256.
        for cipher, key, tag, key_byte in [
            (Cipher.NULL, 0, 0, 0),
            (Cipher.SHIFT_BYTE, 9, 1, 9),
            (Cipher.XOR_STREAM, 300, 2, 44),
            (Cipher.XOR_STREAM, 2**64 - 1, 2, 255),
        ]:
            enc = encrypt(sig, cipher, key)
            raw = envelope_frame(3, enc, key).encode()
            assert raw[:4] == FRAME_MAGIC
            assert raw[4] == MSG_ENVELOPE
            assert int.from_bytes(raw[5:7], "big") == 3
            assert int.from_bytes(raw[7:11], "big") == len(raw) - 11
            assert (raw[11], raw[12]) == (tag, key_byte), (cipher, key)
            assert raw[13:] == enc.payload
            decoded = decode_frame(raw)
            assert decoded.sender == 3
            assert envelope_from_frame(decoded) == enc
            assert decrypt(envelope_from_frame(decoded), key) == sig

    def test_cipher_tags(self):
        assert CIPHER_TAGS == (Cipher.NULL, Cipher.SHIFT_BYTE, Cipher.XOR_STREAM)
        assert set(CIPHER_TAGS) == set(Cipher)  # every cipher has a tag
        with pytest.raises(TransportError) as exc:
            envelope_from_frame(Frame(MSG_ENVELOPE, 0, b"\x03\x07payload"))
        assert str(exc.value) == "unknown cipher tag 3"

    def test_vote_frame_layout(self):
        votes = [VoteMessage(1, 0, False), VoteMessage(1, 2, True)]
        raw = vote_frame(1, votes).encode()
        assert raw[4] == MSG_VOTE
        assert int.from_bytes(raw[5:7], "big") == 1
        assert int.from_bytes(raw[7:11], "big") == 6
        assert raw[11:] == b"\x00\x00\x00" + b"\x00\x02\x01"  # (subject, 1 for Mismatch) pairs
        assert votes_from_frame(decode_frame(raw), range(3)) == votes

    @given(st.integers(0, 0xFFFF), st.dictionaries(st.integers(0, 0xFFFF), st.booleans()))
    @settings(max_examples=200, deadline=None)
    def test_vote_frame_round_trip(self, sender, verdicts):
        votes = [VoteMessage(sender, s, m) for s, m in sorted(verdicts.items()) if s != sender]
        assert votes_from_frame(decode_frame(vote_frame(sender, votes).encode()), range(MAX_NODES)) == votes

    @given(
        st.sampled_from([MSG_VOTE, MSG_VOTE, MSG_VOTE, MSG_ENVELOPE]),
        st.integers(0, 9),
        st.lists(st.tuples(st.integers(0, 11), st.sampled_from([0, 1, 2, 255])), max_size=8),
        st.sampled_from([0, 0, 0, 1, 2, 4]),
        st.integers(2, 9),
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_votes_from_frame_matches_reference(self, msg_type, sender, pairs, cut, n, as_set):
        payload = b"".join(replica._VOTE.pack(*pair) for pair in pairs)
        frame = Frame(msg_type, sender, payload[:len(payload) - cut])
        subjects = set(range(n)) if as_set else range(n)
        got = outcome(votes_from_frame, frame, subjects)
        assert got == outcome(reference_votes_from_frame, frame, subjects)
        if isinstance(got, list):
            # == would accept 1 for True, so check the types too.
            assert all(type(v) is VoteMessage and type(v.mismatch) is bool for v in got)

    @given(st.integers(0, 0xFFFF), st.binary(max_size=40), st.integers(2, MAX_NODES))
    @settings(max_examples=300, deadline=None)
    def test_random_payload_raises_only_transport_error(self, sender, payload, n):
        parse_votes = lambda frame: votes_from_frame(frame, range(n))
        for msg_type, parse in ((MSG_VOTE, parse_votes), (MSG_ENVELOPE, envelope_from_frame)):
            for raw in (payload, Frame(msg_type, sender, payload).encode()):
                try:
                    parse(decode_frame(raw))
                except TransportError:
                    pass

    @pytest.mark.parametrize(
        "raw",
        [b"", b"XXXX\x01\x00\x00\x00\x01\x00\x00\x00\x00", b"CFS1\x09" + b"\x00" * 8],
    )
    def test_decode_rejects_garbage(self, raw):
        with pytest.raises(TransportError):
            decode_frame(raw)

    def test_node_ids_fit_the_frame_fields(self):
        ClusterConfig(n=replica.MAX_NODES)  # constructing the config builds no node
        with pytest.raises(ScenarioError, match="2..65536, got 65537"):
            ClusterConfig(n=65537)

    def test_vote_self_reference_prohibited(self):
        with pytest.raises(TransportError, match="never votes about its own signature"):
            votes_from_frame(Frame(MSG_VOTE, 2, b"\x00\x00\x00" + b"\x00\x02\x00"), range(3))

    @pytest.mark.parametrize(
        "frame,reason",
        [
            (Frame(MSG_VOTE, 0, b"\x00\x01\xff"), "bad verdict byte 255"),
            # One frame, several faults: self-votes, then subject range, then verdict bytes.
            (Frame(MSG_VOTE, 0, b"\x00\x03\x02" + b"\x00\x00\x00"), "never votes about its own"),
            (Frame(MSG_VOTE, 0, b"\x00\x01\x02" + b"\x00\x03\x00"), "vote subject out of range"),
        ],
        ids=["verdict-255", "self-first", "range-first"],
    )
    def test_votes_from_frame_rejects(self, frame, reason):
        with pytest.raises(TransportError, match=reason):
            votes_from_frame(frame, range(3))


class TestNode:
    def test_profiling_matches_library_pipeline(self, diamond):
        node = ReplicaNode(0, ClusterConfig(n=3))
        sig = node.run_profiling("diamond", diamond)
        assert sig == build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "diamond")

    def test_handle_envelope_corrupted_payload(self, diamond):
        config = ClusterConfig(n=3)
        node = ReplicaNode(0, config)
        node.run_profiling("diamond", diamond)
        enc = encrypt(node.signature, config.cipher, config.key)
        bad = type(enc)(enc.cipher, b"\x00" + enc.payload[1:])
        vote = node.handle_envelope(1, bad)
        assert vote == (0, 1, True)
        assert node.decrypt_failures

    @pytest.mark.parametrize(
        "cipher,key",
        [(Cipher.NULL, 0), (Cipher.SHIFT_BYTE, 9), (Cipher.XOR_STREAM, 300), (Cipher.XOR_STREAM, 2**64 - 1)],
    )
    def test_own_envelope_short_cut_never_changes_a_vote(self, diamond, cipher, key):
        node = ReplicaNode(0, ClusterConfig(n=3, cipher=cipher, key=key))
        node.run_profiling("diamond", diamond)
        sealed = node.sealed
        assert sealed == encrypt(node.signature, cipher, key)
        envelopes = [sealed] + [EncryptedSignature(c, sealed.payload) for c in Cipher if c is not cipher]
        for i in range(len(sealed.payload)):
            for bit in (0x01, 0x20, 0x80):
                flipped = bytearray(sealed.payload)
                flipped[i] ^= bit
                envelopes.append(EncryptedSignature(cipher, bytes(flipped)))
        for enc in envelopes:
            try:
                full_path = match_signatures(node.signature, decrypt(enc, key)).outcome is Outcome.MISMATCH
                failed = False
            except (InvalidKeyError, MalformedPlaintextError):
                full_path = failed = True
            failures = len(node.decrypt_failures)
            assert node.handle_envelope(1, enc) == (0, 1, full_path), enc
            assert len(node.decrypt_failures) == failures + failed, enc


def mismatches(*pairs: tuple[int, int]) -> list[VoteMessage]:
    """Mismatch votes, one per (sender, subject) pair."""
    return [VoteMessage(sender, subject, True) for sender, subject in pairs]


def matches(voter: int, peers) -> list[VoteMessage]:
    """Match votes from *voter*, one about each of *peers*."""
    return [VoteMessage(voter, peer, False) for peer in peers]


class TestConcludeRound:
    @pytest.mark.parametrize(
        "n_live,votes,voter,expected",
        [
            (4, mismatches((0, 3), (1, 3)), 0, Verdict("Inconclusive")),  # 2 of 4 is no majority
            (4, mismatches((0, 3), (1, 3), (2, 3)), 0, Verdict("IntrusionAt", frozenset({3}))),
            (3, mismatches((0, 2), (1, 2)), 0, Verdict("IntrusionAt", frozenset({2}))),
            (3, mismatches((0, 2), (0, 2)), 0, Verdict("Inconclusive")),  # one sender counts once
            (5, mismatches((0, 1), (2, 1)) + [VoteMessage(3, 1, False)], 0, Verdict("Inconclusive")),
            (5, mismatches((0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)), 0,
             Verdict("IntrusionAt", frozenset({3, 4}))),
            (3, [VoteMessage(s, j, False) for s in range(3) for j in range(3) if s != j], 0, Verdict("Clean")),
            (3, matches(2, [0, 1]), 2, Verdict("Clean")),  # only the voter's own votes must cover its peers
            # A voter that did not check every peer cannot vouch for the cluster.
            (3, [], 0, Verdict("Inconclusive")),
            (3, matches(0, [1]) + matches(1, [0, 2]) + matches(2, [0, 1]), 0, Verdict("Inconclusive")),
            (3, matches(1, [0, 2]) + matches(2, [0, 1]), 0, Verdict("Inconclusive")),
            # ... but what Mismatch votes decide stands, as in the rows above, whose voter checked too few peers.
            (5, mismatches((1, 4), (2, 4), (3, 4)), 0, Verdict("IntrusionAt", frozenset({4}))),
            (4, mismatches((1, 3)) + matches(0, [1]), 0, Verdict("Inconclusive")),
        ],
        ids=["2-of-4", "3-of-4", "2-of-3", "repeated-sender", "no-majority", "two-flagged",
             "all-match", "voter-covers-peers", "no-votes", "one-peer-unchecked", "others-checked",
             "intrusion-none-checked", "no-majority-one-checked"],
    )
    def test_strict_majority(self, n_live, votes, voter, expected):
        assert conclude_round(n_live, votes, voter) == expected

    @given(
        st.integers(1, 7),
        st.lists(st.builds(VoteMessage, st.integers(0, 6), st.integers(0, 6), st.booleans()), max_size=40),
        st.integers(0, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_count(self, n_live, votes, voter):
        pairs = {(v.sender, v.subject) for v in votes if v.mismatch}
        flagged = frozenset(
            subject for _, subject in pairs
            if 2 * sum(1 for _, j in pairs if j == subject) > n_live
        )
        if not pairs:
            checked = {v.subject for v in votes if v.sender == voter}
            expected = Verdict("Clean") if len(checked) >= n_live - 1 else Verdict("Inconclusive")
        else:
            expected = Verdict("IntrusionAt", flagged) if flagged else Verdict("Inconclusive")
        assert conclude_round(n_live, votes, voter) == expected


class TestScenarios:
    @pytest.mark.parametrize(
        "text,tamper",
        [
            (UNREACHABLE_DOT, None),
            ("digraph g { B1 [entry=true]; B1 -> B2; B2 -> B2; }", None),
            (None, (1, Mutation.parse("RemoveNode:B1"))),
        ],
        ids=["unreachable", "self-loop", "remove-entry"],
    )
    def test_invalid_scenario_raises(self, diamond, text, tamper):
        graph = diamond if text is None else parse_dot(text)
        with pytest.raises(ScenarioError):
            Scenario("bad", graph, tamper=tamper)

    @pytest.mark.parametrize("label", ["d\u00e9", "a\nb"])
    def test_label_that_cannot_be_signed_raises(self, diamond, label):
        with pytest.raises(ScenarioError, match="must be one line of ASCII"):
            Scenario(label, diamond)

    @pytest.mark.parametrize(
        "tamper,dead",
        [((7, Mutation.parse("RemoveEdge:B2>B4")), None), ((-1, Mutation.parse("RemoveEdge:B2>B4")), None),
         (None, 9), (None, -1)],
        ids=["tamper=7", "tamper=-1", "dead=9", "dead=-1"],
    )
    def test_out_of_range_node_raises_before_transport_opens(self, monkeypatch, diamond, tamper, dead):
        monkeypatch.setattr(replica, "SocketTransport", None)  # opening one would raise TypeError
        with pytest.raises(ScenarioError, match="out of range for n=3"):
            run_cluster_scenario(
                ClusterConfig(n=3, transport="socket"), Scenario("diamond", diamond, tamper, dead)
            )

    def test_tamper_on_the_dead_node_raises(self, diamond):
        with pytest.raises(ScenarioError, match="^tamper node 2 is the dead node$"):
            Scenario("diamond", diamond, tamper=(2, Mutation.parse("RemoveEdge:B2>B4")), dead=2)

    def test_clean_round(self, diamond):
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        assert result.consensus.verdict.kind == "Clean"
        assert not any(v.mismatch for v in result.consensus.votes)

    def test_single_tamper_isolated(self, diamond):
        tamper = (1, Mutation.parse("RemoveEdge:B2>B4"))
        result = run_cluster_scenario(
            ClusterConfig(n=3), Scenario("diamond", diamond, tamper=tamper)
        )
        assert result.consensus.verdict.kind == "IntrusionAt"
        assert result.consensus.verdict.nodes == {1}
        votes = {(v.sender, v.subject): v.mismatch for v in result.consensus.votes}
        assert votes[(0, 1)] and votes[(2, 1)]
        assert not votes[(0, 2)] and not votes[(2, 0)]

    @pytest.mark.parametrize(
        "tamper,decrypts,verdict",
        [(None, 0, "verdict CLEAN"), ("RemoveEdge:B2>B4", 4, "verdict INTRUSION node=1")],
    )
    def test_only_envelopes_unlike_a_nodes_own_are_decrypted(self, monkeypatch, diamond, tamper, decrypts, verdict):
        calls = []

        def counted(*args):
            calls.append(args)
            return decrypt(*args)

        monkeypatch.setattr(replica, "decrypt", counted)
        tamper = None if tamper is None else (1, Mutation.parse(tamper))
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond, tamper))
        # With a tamper, nodes 0 and 2 each open node 1's envelope, and node 1 opens both of theirs.
        assert len(calls) == decrypts
        assert result.transcript[-1] == verdict

    def test_n2_conflict_inconclusive(self, diamond):
        tamper = (1, Mutation.parse("RemoveEdge:B2>B4"))
        result = run_cluster_scenario(
            ClusterConfig(n=2), Scenario("diamond", diamond, tamper=tamper)
        )
        assert result.consensus.verdict.kind == "Inconclusive"

    def test_all_nodes_agree_on_verdict(self, diamond):
        tamper = (2, Mutation.parse("AddEdge:B4>B2"))
        result = run_cluster_scenario(
            ClusterConfig(n=3), Scenario("diamond", diamond, tamper=tamper)
        )
        verdicts = {r.verdict for r in result.rounds_per_node.values()}
        assert len(verdicts) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_message_complexity(self, diamond, n):
        result = run_cluster_scenario(ClusterConfig(n=n), Scenario("diamond", diamond))
        envelopes = [l for l in result.transcript if "phase=signature" in l]
        votes = [l for l in result.transcript if "phase=vote" in l]
        assert len(envelopes) == n * (n - 1)
        assert len(votes) == n * (n - 1)  # one frame per voter and peer
        # fixed transcript shape: header + n profile lines + frames + verdict
        assert len(result.transcript) == 2 + n + len(envelopes) + len(votes)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_no_tamper_specificity(self, n):
        for name, g in fixture_graphs():
            result = run_cluster_scenario(ClusterConfig(n=n), Scenario(name, g))
            assert result.consensus.verdict.kind == "Clean", (name, n)

    def test_transcript_deterministic_across_schedules(self, diamond):
        first = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        again = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        assert first.transcript == again.transcript

    def test_dead_node_round_is_prompt_and_leaves_no_threads(self, diamond):
        baseline = threading.active_count()
        start = time.monotonic()
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond, dead=2))
        assert time.monotonic() - start < 1.0
        assert result.consensus.verdict.kind == "Clean"
        assert "profile node=2 status=silent" in result.transcript
        assert threading.active_count() == baseline


class TestSocketTransport:
    def test_frames_match_inprocess(self, diamond):
        remove = (1, Mutation.parse("RemoveEdge:B2>B4"))
        for tamper, dead, verdict in [(None, None, "CLEAN"), (remove, None, "INTRUSION node=1"),
                                      (None, 3, "CLEAN"), (remove, 3, "INTRUSION node=1")]:
            scenario = Scenario("diamond", diamond, tamper, dead)
            inproc = run_cluster_scenario(ClusterConfig(n=4), scenario)
            sock = run_cluster_scenario(ClusterConfig(n=4, transport="socket"), scenario)
            assert sock.transcript == inproc.transcript
            assert sock.transcript[-1] == f"verdict {verdict}"

    def test_send_to_closed_peer_fails(self):
        transport = SocketTransport(2)
        port = transport.ports[1]
        transport.close()
        time.sleep(0.05)
        with pytest.raises(TransportError):
            transport.send(1, b"CFS1")

    def test_silent_peer_does_not_block_receiver(self):
        transport = SocketTransport(2)
        try:
            with socket.create_connection(("127.0.0.1", transport.ports[1])):
                start = time.monotonic()
                transport.send(1, b"CFS1")
                assert time.monotonic() - start < replica.SOCKET_TIMEOUT_S
                assert transport.drain(1) == [b"CFS1"]
        finally:
            transport.close()

    def test_close_ends_a_silent_peers_connection(self):
        transport = SocketTransport(2)
        with socket.create_connection(("127.0.0.1", transport.ports[1]), timeout=2.0) as silent:
            try:
                transport.send(1, b"CFS1")  # accepts the silent connection, queued first
            finally:
                transport.close()
            assert silent.recv(1) == b""  # an orderly close, not a reset of an unaccepted connection

    def test_rounds_leave_no_threads_behind(self, diamond):
        config = ClusterConfig(n=5, transport="socket")
        threads, fds = threading.active_count(), open_fds()
        for _ in range(20):
            run_cluster_scenario(config, Scenario("diamond", diamond))
            assert threading.active_count() == threads
        assert open_fds() == fds  # close() closed every listener and connection

    def test_dead_node_round_is_prompt(self, diamond):
        start = time.monotonic()
        result = run_cluster_scenario(
            ClusterConfig(n=3, transport="socket"), Scenario("diamond", diamond, dead=2)
        )
        assert time.monotonic() - start < 1.0
        assert result.consensus.verdict.kind == "Clean"

    def test_failed_listener_closes_those_opened(self, monkeypatch):
        bind, calls = socket.socket.bind, []

        def fail_second(sock, address):
            calls.append(address)
            if len(calls) == 2:
                raise OSError("address in use")
            bind(sock, address)

        monkeypatch.setattr(socket.socket, "bind", fail_second)
        fds = open_fds()
        with pytest.raises(OSError, match="address in use"):
            SocketTransport(3)
        assert open_fds() == fds

    def test_undelivered_frames_are_logged(self, monkeypatch, diamond):
        def accept(sock):
            raise TimeoutError("timed out")

        monkeypatch.setattr(socket.socket, "accept", accept)
        start = time.monotonic()
        result = run_cluster_scenario(ClusterConfig(n=3, transport="socket"), Scenario("diamond", diamond))
        assert time.monotonic() - start < 1.0
        errors = [l for l in result.transcript if " error=" in l]
        # No envelope arrived, so each vote frame's detail is an empty vote list.
        assert errors == [
            f"frame phase={phase} from={s} to={r} {detail}error=frame to peer {r} not delivered: timed out"
            for phase, detail in (("signature", ""), ("vote", "votes= "))
            for s in range(3)
            for r in range(3)
            if r != s
        ]
        assert result.transcript[-1] == "verdict INCONCLUSIVE"  # no node checked any peer

    def test_unknown_transport_rejected(self):
        with pytest.raises(ScenarioError, match="unknown transport 'udp'"):
            ClusterConfig(n=3, transport="udp")

    def test_config_has_no_accept_queue_bound(self):
        # Each send accepts its own connection, so a node's frames never queue up together.
        ClusterConfig(n=socket.SOMAXCONN + 2, transport="socket")  # constructing the config opens no transport


def mangled(msg_type: int, mangle, to: int | None = None):
    """An InProcessTransport.send that passes the first frame of *msg_type* (to node *to*, if given) through *mangle*.

    *mangle* returns the frame to send in its place, or a list of frames.
    """
    original = InProcessTransport.send
    done = []  # set once the frame is mangled

    def send(self, receiver, frame_bytes):
        if not done and frame_bytes[4] == msg_type and to in (None, receiver):
            done.append(True)
            frame_bytes = mangle(frame_bytes, receiver)
        for raw in [frame_bytes] if isinstance(frame_bytes, bytes) else frame_bytes:
            original(self, receiver, raw)

    return send


def reframed(msg_type: int, payload: bytes, sender: int | None = None):
    """A mangle that replaces the frame with one of *msg_type*, *payload* and *sender*."""
    def mangle(raw, receiver):
        old = decode_frame(raw)
        return Frame(msg_type, old.sender if sender is None else sender, payload).encode()
    return mangle


def plus(mangle):
    """A mangle that sends the frame unchanged, then what *mangle* makes of it."""
    return lambda raw, receiver: [raw, mangle(raw, receiver)]


class TestDroppedFrames:
    """A frame a receiver cannot use is dropped and logged; a round that loses one still ends CLEAN."""

    @pytest.mark.parametrize(
        "msg_type,mangle,phase,reason",
        [
            (MSG_ENVELOPE, lambda raw, r: raw[:5], "signature", "frame shorter than header"),
            (MSG_ENVELOPE, lambda raw, r: raw[:-1], "signature", "frame length mismatch"),
            (MSG_VOTE, lambda raw, r: raw[:-1], "vote", "frame length mismatch"),
            (MSG_VOTE, lambda raw, r: raw[:5], "vote", "frame shorter than header"),
            (MSG_ENVELOPE, lambda raw, r: raw[:11] + b"\xee" + raw[12:], "signature", "unknown cipher tag 238"),
            (MSG_ENVELOPE, lambda raw, r: b"XXXX" + raw[4:], "signature", "bad frame magic"),
            (MSG_ENVELOPE, lambda raw, r: raw[:4] + b"\x02" + raw[5:], "signature", "not a signature envelope"),
            (MSG_VOTE, lambda raw, r: raw[:4] + b"\x01" + raw[5:], "vote", "not a vote frame"),
            (MSG_VOTE, reframed(MSG_VOTE, b"\x00"), "vote", "not a vote frame"),
            (MSG_VOTE, reframed(MSG_VOTE, b"\x00\x00\x01", sender=0), "vote", "never votes about its own"),
            (MSG_VOTE, reframed(MSG_VOTE, b"\x00\x07\x01"), "vote", "vote subject out of range"),
            (MSG_VOTE, reframed(MSG_VOTE, b"\x00\x02\x02"), "vote", "bad verdict byte 2"),
            (MSG_ENVELOPE, reframed(MSG_ENVELOPE, b"\x01\x07", sender=3), "signature", "bad sender 3"),
            (MSG_VOTE, lambda raw, r: Frame(MSG_VOTE, r, b"").encode(), "vote", "bad sender"),
            (MSG_ENVELOPE, lambda raw, r: raw[:4] + b"\x03" + raw[5:], "signature", "unknown message type 3"),
        ],
        ids=["sig-short", "sig-truncated", "vote-truncated", "vote-short", "cipher-tag", "magic",
             "sig-type", "vote-type", "vote-length", "self-vote", "vote-subject", "verdict-byte",
             "sender-range", "own-sender", "unknown-type"],
    )
    def test_bad_frame_is_dropped(self, monkeypatch, diamond, msg_type, mangle, phase, reason):
        monkeypatch.setattr(InProcessTransport, "send", mangled(msg_type, mangle))
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        drops = [l for l in result.transcript if l.startswith("drop ")]
        assert len(drops) == 1, drops
        assert drops[0].startswith(f"drop phase={phase} node=") and reason in drops[0]
        assert result.consensus.verdict.kind == "Clean"

    def test_vote_under_the_dead_nodes_id_is_dropped(self, monkeypatch, diamond):
        # A second Mismatch vote against node 0 would make a majority of the two live nodes.
        forged = plus(reframed(MSG_VOTE, b"\x00\x00\x01", sender=2))
        monkeypatch.setattr(InProcessTransport, "send", mangled(MSG_VOTE, forged, to=0))
        tamper = (1, Mutation.parse("RemoveEdge:B2>B4"))
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond, tamper, dead=2))
        assert [l for l in result.transcript if l.startswith("drop ")] == [
            "drop phase=vote node=0 reason=bad sender 2"
        ]
        assert result.transcript[-1] == "verdict INCONCLUSIVE"

    def test_vote_about_the_dead_node_is_dropped(self, monkeypatch, diamond):
        # Two Mismatch votes against silent node 3 would make a majority of the three live nodes.
        original = InProcessTransport.send

        def send(self, receiver, frame_bytes):
            original(self, receiver, frame_bytes)
            if receiver == 0 and frame_bytes[4] == MSG_VOTE:
                original(self, receiver, reframed(MSG_VOTE, b"\x00\x03\x01")(frame_bytes, receiver))

        monkeypatch.setattr(InProcessTransport, "send", send)
        result = run_cluster_scenario(ClusterConfig(n=4), Scenario("diamond", diamond, dead=3))
        assert [l for l in result.transcript if l.startswith("drop ")] == [
            "drop phase=vote node=0 reason=vote subject out of range"
        ] * 2
        assert result.transcript[-1] == "verdict CLEAN"

    def test_envelope_under_the_dead_nodes_id_is_dropped(self, monkeypatch, diamond):
        # The forged envelope does not decrypt, so tallying it would be a Mismatch vote against node 2.
        forged = plus(reframed(MSG_ENVELOPE, b"\x01\x07garbage", sender=2))
        monkeypatch.setattr(InProcessTransport, "send", mangled(MSG_ENVELOPE, forged, to=0))
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond, dead=2))
        assert [l for l in result.transcript if l.startswith("drop ")] == [
            "drop phase=signature node=0 reason=bad sender 2"
        ]
        assert result.consensus.votes == ((0, 1, False), (1, 0, False))
        assert result.transcript[-1] == "verdict CLEAN"

    def test_conflicting_votes_tally_match_first(self, monkeypatch, diamond):
        # Node 0's frame to node 1 votes both Match and Mismatch about node 2 (and
        # nothing about node 1). The tally keeps both, Match first, whatever the hash seed.
        receivers = []

        def mangle(raw, receiver):
            receivers.append(receiver)
            return reframed(MSG_VOTE, b"\x00\x02\x00" + b"\x00\x02\x01", sender=0)(raw, receiver)

        monkeypatch.setattr(InProcessTransport, "send", mangled(MSG_VOTE, mangle))
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        assert receivers == [1]
        votes = result.rounds_per_node[1].votes
        assert votes == (
            (0, 2, False), (0, 2, True),
            (1, 0, False), (1, 2, False),
            (2, 0, False), (2, 1, False),
        )

    def test_repeated_vote_is_tallied_once(self, monkeypatch, diamond):
        # Node 0's frame to node 1 repeats its one vote about node 2.
        monkeypatch.setattr(
            InProcessTransport, "send", mangled(MSG_VOTE, reframed(MSG_VOTE, b"\x00\x02\x01" * 3, sender=0))
        )
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        votes = result.rounds_per_node[1].votes
        assert votes.count((0, 2, True)) == 1 and len(votes) == len(set(votes)) == 5
        assert result.rounds_per_node[1].verdict.kind == "Inconclusive"

    def test_send_error_is_logged(self, monkeypatch, diamond):
        original = InProcessTransport.send

        def send(self, receiver, frame_bytes):
            if receiver == 1 and frame_bytes[4] == MSG_ENVELOPE:
                raise TransportError("peer unreachable")
            original(self, receiver, frame_bytes)

        monkeypatch.setattr(InProcessTransport, "send", send)
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        errors = [l for l in result.transcript if " error=" in l]
        assert errors == [
            f"frame phase=signature from={s} to=1 error=peer unreachable" for s in (0, 2)
        ]
        assert result.rounds_per_node[1].verdict.kind == "Inconclusive"  # node 1 checked no peer
        assert result.consensus.verdict.kind == "Clean"

    def test_failed_vote_frames_keep_their_votes(self, monkeypatch, diamond):
        # Node 0's own votes decide its fail-safe; the transcript must hold them even when no peer hears them.
        original = InProcessTransport.send

        def send(self, receiver, frame_bytes):
            frame = decode_frame(frame_bytes)
            if frame.msg_type == MSG_VOTE and frame.sender == 0:
                raise TransportError("peer unreachable")
            original(self, receiver, frame_bytes)

        monkeypatch.setattr(InProcessTransport, "send", send)
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        assert [l for l in result.transcript if " error=" in l] == [
            f"frame phase=vote from=0 to={r} votes=1:Match,2:Match error=peer unreachable" for r in (1, 2)
        ]

    def test_round_that_loses_every_frame_is_inconclusive(self, monkeypatch, diamond):
        # An intrusion detector that hears from no peer cannot report a clean cluster.
        def send(self, receiver, frame_bytes):
            raise TransportError("peer unreachable")

        monkeypatch.setattr(InProcessTransport, "send", send)
        tamper = (1, Mutation.parse("RemoveEdge:B2>B4"))
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond, tamper=tamper))
        assert sum(" error=" in l for l in result.transcript) == 12
        assert {r.verdict for r in result.rounds_per_node.values()} == {Verdict("Inconclusive")}
        assert result.transcript[-1] == "verdict INCONCLUSIVE"

    def test_peer_on_another_cipher_gets_a_mismatch_vote(self, monkeypatch, diamond):
        # ShiftByte cannot take key 300, so this envelope cannot even be decrypted.
        mangle = lambda raw, r: raw[:11] + bytes([CIPHER_TAGS.index(Cipher.SHIFT_BYTE)]) + raw[12:]
        monkeypatch.setattr(InProcessTransport, "send", mangled(MSG_ENVELOPE, mangle))
        config = ClusterConfig(n=3, cipher=Cipher.XOR_STREAM, key=300)
        result = run_cluster_scenario(config, Scenario("diamond", diamond))
        assert not any(l.startswith("drop ") for l in result.transcript)
        assert sum(v.mismatch for v in result.consensus.votes) == 1
        assert result.consensus.verdict.kind == "Inconclusive"


class TestScenarioFiles:
    def test_parse_and_run(self, tmp_path, fixtures_dir):
        (tmp_path / "diamond.dot").write_text((fixtures_dir / "diamond.dot").read_text())
        scn = tmp_path / "tamper.scn"
        scn.write_text(
            "n=3\nfixture=diamond.dot\ntamper=1:RemoveEdge:B2>B4\nalg=MD5\nkey=9\n"
        )
        config, scenario = parse_scenario_file(scn)
        assert config.n == 3 and config.key == 9
        result = run_cluster_scenario(config, scenario)
        assert result.consensus.verdict.kind == "IntrusionAt"

    def test_readme_example_parses(self, tmp_path, fixtures_dir):
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        example = re.search(r"### Scenario files\n.*?\n```\n(.*?)```\n", readme, re.S).group(1)
        (tmp_path / "diamond.dot").write_bytes((fixtures_dir / "diamond.dot").read_bytes())
        (tmp_path / "s.scn").write_text(example)
        config, scenario = parse_scenario_file(tmp_path / "s.scn")
        assert config.n == 3 and scenario.tamper[0] == 1 and scenario.dead == 2

    BAD_SCENARIOS = [
        ("fixture=diamond.dot\n", "scenario missing required key 'n'"),
        ("n=3\n", "scenario missing required key 'fixture'"),
        ("n=3\nfixture=missing.dot\n", "cannot read fixture missing.dot: "),
        # Only node ranges, which need the round's n, are left to the round to check.
        ("n=3\nfixture=diamond.dot\ntamper=7:RemoveEdge:B2>B4\n", "tamper node 7 out of range for n=3"),
        ("n=3\nfixture=diamond.dot\nbogus=1\n", "unknown scenario keys: ['bogus']"),
        ("n=1\nfixture=diamond.dot\n", "replication factor must be in 2..65536, got 1"),
        ("n=3\nfixture=diamond.dot\ndead=x\n", "bad scenario value: invalid literal for int() with base 10: 'x'"),
        ("n=3\nfixture=diamond.dot\ntamper=1:RemoveEdge:B4>B1\n", "bad tamper spec: edge B4>B1 not present"),
        ("n=3\nfixture=diamond.dot\ntamper=1:RemoveNode:B1\n", "bad tamper spec: cannot remove the entry node"),
        ("n=3\nfixture=diamond.dot\ntamper=x:RemoveEdge:B2>B4\n",
         "bad tamper spec: invalid literal for int() with base 10: 'x'"),
        ("n=3\nfixture=diamond.dot\ntamper=1:Frobnicate:B1\n",
         "bad tamper spec: unknown mutation kind in 'Frobnicate:B1'"),
        ("n=3\nfixture=unreachable.dot\n", "bad fixture unreachable.dot: invalid CFG: UnreachableNode(B3)"),
        ("n=3\nfixture=diamond.txt\n", "bad fixture diamond.txt: unsupported input extension '.txt'"),
        ("n=3\nfixture=diamond.dot\nkey=0\n", "ShiftByte key must be in 1..255, got 0"),
        ("n=3\nfixture=diamond.dot\nkey=300\n", "ShiftByte key must be in 1..255, got 300"),
        ("n=3\nfixture=diamond.dot\ncipher=XorStream\nkey=-1\n", "XorStream key must fit in 64 bits, got -1"),
        ("n=x\nfixture=diamond.dot\n", "bad n value: invalid literal for int() with base 10: 'x'"),
        ("n=3\nfixture=diamond.dot\ntamper=1\n", "tamper must look like <node>:<mutation-spec>"),
        ("n=3\nfixture=diamond.dot\ntamper=2:RemoveEdge:B2>B4\ndead=2\n", "tamper node 2 is the dead node"),
    ]

    # The ids name each case by its scenario text; an OS error's own wording is not pinned.
    @pytest.mark.parametrize("text,message", BAD_SCENARIOS, ids=[text for text, _ in BAD_SCENARIOS])
    def test_rejects_bad_scenarios(self, tmp_path, fixtures_dir, text, message):
        diamond = (fixtures_dir / "diamond.dot").read_text()
        (tmp_path / "diamond.dot").write_text(diamond)
        (tmp_path / "diamond.txt").write_text(diamond)
        (tmp_path / "unreachable.dot").write_text(UNREACHABLE_DOT)
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        with pytest.raises(ScenarioError) as rejected:
            run_cluster_scenario(*parse_scenario_file(scn))
        assert str(rejected.value).replace(f"{tmp_path}{os.sep}", "").startswith(message)


class TestGoldenTranscripts:
    @pytest.mark.parametrize(
        "golden_name,tamper",
        [
            ("n3_diamond_clean.transcript", None),
            ("n3_diamond_tamper1.transcript", (1, Mutation.parse("RemoveEdge:B2>B4"))),
        ],
    )
    def test_matches_golden(self, diamond, golden_name, tamper):
        golden = (FIXTURES.parent / "tests" / "golden" / golden_name).read_text()
        result = run_cluster_scenario(
            ClusterConfig(n=3), Scenario("diamond", diamond, tamper=tamper)
        )
        assert result.transcript_text() == golden
