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
    HashAlgorithm,
    Mutation,
    Outcome,
    ReplicaNode,
    Scenario,
    build_signature,
    encrypt,
    parse_dot,
    parse_scenario_file,
    peel_edge_disjoint,
    run_cluster_scenario,
)
from cfsig import replica
from cfsig.errors import ScenarioError, TransportError
from cfsig.replica import (
    FRAME_MAGIC,
    MSG_ENVELOPE,
    MSG_VOTE,
    Frame,
    InProcessTransport,
    SocketTransport,
    VoteMessage,
    decode_frame,
    envelope_frame,
    envelope_from_frame,
    vote_frame,
    votes_from_frame,
)

from .conftest import FIXTURES, UNREACHABLE_DOT, fixture_graphs


def open_fds() -> int | None:
    """This process's open file descriptors; None off Linux, where the check is skipped."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


class TestFraming:
    def test_envelope_frame_layout(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "d")
        enc = encrypt(sig, Cipher.SHIFT_BYTE, 9)
        raw = envelope_frame(3, enc).encode()
        assert raw[:4] == FRAME_MAGIC
        assert raw[4] == MSG_ENVELOPE
        assert int.from_bytes(raw[5:7], "big") == 3
        assert int.from_bytes(raw[7:11], "big") == len(raw) - 11
        assert raw[11] == Cipher.SHIFT_BYTE.wire_tag
        assert raw[12] == 9
        decoded = decode_frame(raw)
        assert decoded.sender == 3
        assert envelope_from_frame(decoded) == enc

    def test_vote_frame_layout(self):
        votes = [VoteMessage(1, 0, Outcome.MATCH), VoteMessage(1, 2, Outcome.MISMATCH)]
        raw = vote_frame(1, votes).encode()
        assert raw[4] == MSG_VOTE
        assert int.from_bytes(raw[5:7], "big") == 1
        assert int.from_bytes(raw[7:11], "big") == 6
        assert raw[11:] == b"\x00\x00\x00" + b"\x00\x02\x01"  # (subject, 1 for Mismatch) pairs
        assert votes_from_frame(decode_frame(raw)) == votes

    @given(st.integers(0, 0xFFFF), st.dictionaries(st.integers(0, 0xFFFF), st.sampled_from(Outcome)))
    @settings(max_examples=200, deadline=None)
    def test_vote_frame_round_trip(self, sender, verdicts):
        votes = [VoteMessage(sender, s, v) for s, v in sorted(verdicts.items()) if s != sender]
        assert votes_from_frame(decode_frame(vote_frame(sender, votes).encode())) == votes

    @given(st.integers(0, 0xFFFF), st.binary(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_random_payload_raises_only_transport_error(self, sender, payload):
        for msg_type, parse in ((MSG_VOTE, votes_from_frame), (MSG_ENVELOPE, envelope_from_frame)):
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

    def test_vote_self_reference_prohibited(self):
        with pytest.raises(ValueError):
            VoteMessage(2, 2, Outcome.MATCH)


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
        bad = type(enc)(enc.cipher, enc.key_id, b"\x00" + enc.payload[1:])
        vote = node.handle_envelope(1, bad)
        assert vote.verdict is Outcome.MISMATCH
        assert node.decrypt_failures


class TestScenarios:
    @pytest.mark.parametrize(
        "text,tamper",
        [
            (UNREACHABLE_DOT, None),
            ("digraph g { B1 [entry=true]; B1 -> B2; B2 -> B2; }", None),
            (None, (1, Mutation.remove_node("B1"))),
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
        [((7, Mutation.remove_edge("B2", "B4")), None), ((-1, Mutation.remove_edge("B2", "B4")), None),
         (None, 9), (None, -1)],
        ids=["tamper=7", "tamper=-1", "dead=9", "dead=-1"],
    )
    def test_out_of_range_node_raises_before_transport_opens(self, monkeypatch, diamond, tamper, dead):
        monkeypatch.setattr(replica, "SocketTransport", None)  # opening one would raise TypeError
        with pytest.raises(ScenarioError, match="out of range for n=3"):
            run_cluster_scenario(
                ClusterConfig(n=3, transport="socket"), Scenario("diamond", diamond, tamper, dead)
            )

    def test_clean_round(self, diamond):
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        assert result.consensus.verdict.kind == "Clean"
        assert all(v.verdict is Outcome.MATCH for v in result.consensus.votes)

    def test_single_tamper_isolated(self, diamond):
        tamper = (1, Mutation.remove_edge("B2", "B4"))
        result = run_cluster_scenario(
            ClusterConfig(n=3), Scenario("diamond", diamond, tamper=tamper)
        )
        assert result.consensus.verdict.kind == "IntrusionAt"
        assert result.consensus.verdict.nodes == {1}
        votes = {(v.sender, v.subject): v.verdict for v in result.consensus.votes}
        assert votes[(0, 1)] is Outcome.MISMATCH and votes[(2, 1)] is Outcome.MISMATCH
        assert votes[(0, 2)] is Outcome.MATCH and votes[(2, 0)] is Outcome.MATCH

    def test_n2_conflict_inconclusive(self, diamond):
        tamper = (1, Mutation.remove_edge("B2", "B4"))
        result = run_cluster_scenario(
            ClusterConfig(n=2), Scenario("diamond", diamond, tamper=tamper)
        )
        assert result.consensus.verdict.kind == "Inconclusive"

    def test_all_nodes_agree_on_verdict(self, diamond):
        tamper = (2, Mutation.add_edge("B4", "B2"))
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
        inproc = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        sock = run_cluster_scenario(
            ClusterConfig(n=3, transport="socket"), Scenario("diamond", diamond)
        )
        def frames(result):
            return sorted(l.split("hex=")[1] for l in result.transcript if "hex=" in l)
        assert frames(inproc) == frames(sock)
        assert sock.consensus.verdict.kind == "Clean"

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
                transport.send(1, b"CFS1")
                start = time.monotonic()
                transport.wait_for({1: 1}, 2.0)
                assert time.monotonic() - start < replica.SOCKET_TIMEOUT_S
                assert transport.drain(1) == [b"CFS1"]
        finally:
            transport.close()

    def test_close_ends_a_silent_peers_connection(self):
        transport = SocketTransport(2)
        with socket.create_connection(("127.0.0.1", transport.ports[1]), timeout=2.0) as silent:
            try:
                transport.send(1, b"CFS1")
                transport.wait_for({1: 1}, 2.0)  # accepts the silent connection, queued first
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

    def test_accept_queue_bound_is_checked_at_config(self):
        n = socket.SOMAXCONN + 2  # one node receives n-1 frames per phase
        ClusterConfig(n=n)  # the in-process transport queues nothing
        ClusterConfig(n=n - 1, transport="socket")  # constructing the config opens no transport
        with pytest.raises(ScenarioError, match=f"n={n}"):
            ClusterConfig(n=n, transport="socket")


def mangled(msg_type: int, mangle):
    """An InProcessTransport.send that passes the first frame of *msg_type* through *mangle*."""
    original = InProcessTransport.send
    done = []  # set once the frame is mangled

    def send(self, receiver, frame_bytes):
        if not done and frame_bytes[4] == msg_type:
            done.append(True)
            frame_bytes = mangle(frame_bytes, receiver)
        original(self, receiver, frame_bytes)

    return send


def reframed(msg_type: int, payload: bytes, sender: int | None = None):
    """A mangle that replaces the frame with one of *msg_type*, *payload* and *sender*."""
    def mangle(raw, receiver):
        old = decode_frame(raw)
        return Frame(msg_type, old.sender if sender is None else sender, payload).encode()
    return mangle


class TestDroppedFrames:
    """A frame a receiver cannot use is dropped and logged; the round still ends CLEAN."""

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
            (MSG_ENVELOPE, reframed(MSG_ENVELOPE, b"\x01\x07", sender=3), "signature", "bad sender 3"),
            (MSG_VOTE, lambda raw, r: Frame(MSG_VOTE, r, b"").encode(), "vote", "bad sender"),
        ],
        ids=["sig-short", "sig-truncated", "vote-truncated", "vote-short", "cipher-tag", "magic",
             "sig-type", "vote-type", "vote-length", "self-vote", "vote-subject", "sender-range",
             "own-sender"],
    )
    def test_bad_frame_is_dropped(self, monkeypatch, diamond, msg_type, mangle, phase, reason):
        monkeypatch.setattr(InProcessTransport, "send", mangled(msg_type, mangle))
        result = run_cluster_scenario(ClusterConfig(n=3), Scenario("diamond", diamond))
        drops = [l for l in result.transcript if l.startswith("drop ")]
        assert len(drops) == 1, drops
        assert drops[0].startswith(f"drop phase={phase} node=") and reason in drops[0]
        assert result.consensus.verdict.kind == "Clean"

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
        assert result.consensus.verdict.kind == "Clean"

    def test_peer_on_another_cipher_gets_a_mismatch_vote(self, monkeypatch, diamond):
        # ShiftByte cannot take key 300, so this envelope cannot even be decrypted.
        mangle = lambda raw, r: raw[:11] + bytes([Cipher.SHIFT_BYTE.wire_tag]) + raw[12:]
        monkeypatch.setattr(InProcessTransport, "send", mangled(MSG_ENVELOPE, mangle))
        config = ClusterConfig(n=3, cipher=Cipher.XOR_STREAM, key=300)
        result = run_cluster_scenario(config, Scenario("diamond", diamond))
        assert not any(l.startswith("drop ") for l in result.transcript)
        assert sum(v.verdict is Outcome.MISMATCH for v in result.consensus.votes) == 1
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

    @pytest.mark.parametrize(
        "text",
        [
            "fixture=diamond.dot\n",
            "n=3\n",
            "n=3\nfixture=missing.dot\n",
            "n=3\nfixture=diamond.dot\ntamper=7:RemoveEdge:B2>B4\n",
            "n=3\nfixture=diamond.dot\nbogus=1\n",
            "n=1\nfixture=diamond.dot\n",
            "n=3\nfixture=diamond.dot\ndead=x\n",
            "n=3\nfixture=diamond.dot\ntamper=1:RemoveEdge:B4>B1\n",
            "n=3\nfixture=diamond.dot\ntamper=1:RemoveNode:B1\n",
            "n=3\nfixture=unreachable.dot\n",
            "n=3\nfixture=diamond.txt\n",
            "n=3\nfixture=diamond.dot\nkey=0\n",
            "n=3\nfixture=diamond.dot\nkey=300\n",
            "n=3\nfixture=diamond.dot\ncipher=XorStream\nkey=-1\n",
        ],
    )
    def test_rejects_bad_scenarios(self, tmp_path, fixtures_dir, text):
        diamond = (fixtures_dir / "diamond.dot").read_text()
        (tmp_path / "diamond.dot").write_text(diamond)
        (tmp_path / "diamond.txt").write_text(diamond)
        (tmp_path / "unreachable.dot").write_text(UNREACHABLE_DOT)
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        with pytest.raises(ScenarioError) as rejected:
            run_cluster_scenario(*parse_scenario_file(scn))
        # Only node ranges, which need the round's n, are left to the round to check.
        assert ("out of range for n=3" in str(rejected.value)) == ("tamper=7:" in text)


class TestGoldenTranscripts:
    @pytest.mark.parametrize(
        "golden_name,tamper",
        [
            ("n3_diamond_clean.transcript", None),
            ("n3_diamond_tamper1.transcript", (1, Mutation.remove_edge("B2", "B4"))),
        ],
    )
    def test_matches_golden(self, diamond, golden_name, tamper):
        golden = (FIXTURES.parent / "tests" / "golden" / golden_name).read_text()
        result = run_cluster_scenario(
            ClusterConfig(n=3), Scenario("diamond", diamond, tamper=tamper)
        )
        assert result.transcript_text() == golden
