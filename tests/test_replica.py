from __future__ import annotations

import socket
import threading
import time

import pytest

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
    SocketTransport,
    VoteMessage,
    decode_frame,
    envelope_frame,
    envelope_from_frame,
    vote_frame,
)

from .conftest import FIXTURES, UNREACHABLE_DOT, fixture_graphs


class TestFraming:
    def test_envelope_frame_layout(self, diamond):
        sig = build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "d")
        enc = encrypt(sig, Cipher.SHIFT_BYTE, 9)
        raw = envelope_frame(3, enc).encode()
        assert raw[:4] == FRAME_MAGIC
        assert raw[4] == MSG_ENVELOPE
        assert int.from_bytes(raw[5:7], "big") == 3
        assert raw[7:9] == b"\xff\xff"  # subject absent
        assert int.from_bytes(raw[9:13], "big") == len(raw) - 13
        assert raw[13] == Cipher.SHIFT_BYTE.wire_tag
        assert raw[14] == 9
        decoded = decode_frame(raw)
        assert decoded.sender == 3 and decoded.subject is None
        assert envelope_from_frame(decoded) == enc

    def test_vote_frame_layout(self):
        raw = vote_frame(1, 2, Outcome.MISMATCH).encode()
        assert raw[4] == MSG_VOTE
        assert int.from_bytes(raw[5:7], "big") == 1
        assert int.from_bytes(raw[7:9], "big") == 2
        assert raw[13] == 1
        match_raw = vote_frame(1, 2, Outcome.MATCH).encode()
        assert match_raw[13] == 0

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
    def test_profiling_matches_library_pipeline(self, fixtures_dir, diamond):
        node = ReplicaNode(0, ClusterConfig(n=3))
        sig = node.run_profiling("diamond", (fixtures_dir / "diamond.dot").read_text())
        assert sig == build_signature(peel_edge_disjoint(diamond), HashAlgorithm.MD5, "diamond")

    def test_profiling_failure_recorded(self):
        node = ReplicaNode(0, ClusterConfig(n=3))
        assert node.run_profiling("bad", "digraph g { B1 -> ; }") is None
        assert "bad" in node.profiling_failed
        assert node.envelope("bad") is None

    def test_handle_envelope_corrupted_payload(self, fixtures_dir):
        config = ClusterConfig(n=3)
        node = ReplicaNode(0, config)
        node.run_profiling("diamond", (fixtures_dir / "diamond.dot").read_text())
        enc = encrypt(node.signatures["diamond"], config.cipher, config.key)
        bad = type(enc)(enc.cipher, enc.key_id, b"\x00" + enc.payload[1:])
        vote = node.handle_envelope("diamond", 1, bad)
        assert vote.verdict is Outcome.MISMATCH
        assert node.decrypt_failures


class TestScenarios:
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

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_message_complexity(self, diamond, n):
        result = run_cluster_scenario(ClusterConfig(n=n), Scenario("diamond", diamond))
        envelopes = [l for l in result.transcript if "phase=signature" in l]
        votes = [l for l in result.transcript if "phase=vote" in l]
        assert len(envelopes) == n * (n - 1)
        assert len(votes) == n * (n - 1) ** 2
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

    def test_silent_peer_does_not_block_receiver(self, monkeypatch):
        monkeypatch.setattr(replica, "SOCKET_TIMEOUT_S", 0.1)
        transport = SocketTransport(2)
        try:
            with socket.create_connection(("127.0.0.1", transport.ports[1])):
                transport.send(1, b"CFS1")
                deadline = time.monotonic() + 2.0
                while transport.pending(1) == 0 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert transport.drain(1) == [b"CFS1"]
        finally:
            transport.close()

    def test_rounds_leave_no_threads_behind(self, diamond):
        config = ClusterConfig(n=5, transport="socket")
        baseline = threading.active_count()
        for _ in range(20):
            run_cluster_scenario(config, Scenario("diamond", diamond))
            assert threading.active_count() == baseline  # close() joined the accept threads


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
        with pytest.raises(ScenarioError):
            parse_scenario_file(scn)


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
