"""Replica-cluster simulation: profile, exchange signatures, vote, conclude.

Every replica profiles its own copy of the program, broadcasts the encrypted
signature to all peers, matches what it receives against its local version,
and shares its votes. A tampered replica is isolated when a strict majority
of participating nodes vote Mismatch against it.

One phase engine runs the round's four phases (profile, signature, vote,
tally): it runs a per-node action on each live node in id order (a dead node
runs none), sends every frame an action returned to every peer in (sender,
receiver) order, logs each frame and waits for delivery before the next phase
starts, so the transcript is a deterministic function of (config, scenario).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

# parse_graphml is unused here, but perfbench's traced run patches replica.parse_graphml.
from .cfg import ControlFlowGraph, Mutation, load_graph, mutate, parse_dot, parse_graphml, serialize_dot, validate_cfg
from .arborescence import peel_edge_disjoint
from .errors import CfsigError, InvalidKeyError, MalformedPlaintextError, ScenarioError, TransportError
from .matcher import Outcome, match_signatures
from .signature import (
    Cipher,
    EncryptedSignature,
    HashAlgorithm,
    ProcessSignature,
    _check_key,
    build_signature,
    decrypt,
    encrypt,
)

NodeId = int

FRAME_MAGIC = b"CFS1"
MSG_ENVELOPE = 1
MSG_VOTE = 2
NO_SUBJECT = 0xFFFF
_HEADER = struct.Struct("!4sBHHI")

# Bounds connecting to a peer, reading a frame from one and waiting for a phase's
# frames to be delivered, so a silent peer cannot block a receiver or a round.
SOCKET_TIMEOUT_S = 2.0


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    msg_type: int
    sender: NodeId
    subject: NodeId | None
    payload: bytes

    def encode(self) -> bytes:
        subject = NO_SUBJECT if self.subject is None else self.subject
        return _HEADER.pack(
            FRAME_MAGIC, self.msg_type, self.sender, subject, len(self.payload)
        ) + self.payload


def decode_frame(data: bytes) -> Frame:
    if len(data) < _HEADER.size:
        raise TransportError("frame shorter than header")
    magic, msg_type, sender, subject, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    if len(data) != _HEADER.size + length:
        raise TransportError("frame length mismatch")
    if msg_type not in (MSG_ENVELOPE, MSG_VOTE):
        raise TransportError(f"unknown message type {msg_type}")
    payload = data[_HEADER.size:]
    return Frame(msg_type, sender, None if subject == NO_SUBJECT else subject, payload)


def envelope_frame(sender: NodeId, enc: EncryptedSignature) -> Frame:
    payload = bytes([enc.cipher.wire_tag, enc.key_id & 0xFF]) + enc.payload
    return Frame(MSG_ENVELOPE, sender, None, payload)


def vote_frame(sender: NodeId, subject: NodeId, outcome: Outcome) -> Frame:
    verdict_byte = 0 if outcome is Outcome.MATCH else 1
    return Frame(MSG_VOTE, sender, subject, bytes([verdict_byte]))


def envelope_from_frame(frame: Frame) -> EncryptedSignature:
    if frame.msg_type != MSG_ENVELOPE or len(frame.payload) < 2:
        raise TransportError("not a signature envelope frame")
    cipher = Cipher.from_wire_tag(frame.payload[0])
    return EncryptedSignature(cipher, frame.payload[1], frame.payload[2:])


# ---------------------------------------------------------------------------
# Messages and round records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoteMessage:
    sender: NodeId
    subject: NodeId
    verdict: Outcome

    def __post_init__(self) -> None:
        if self.sender == self.subject:
            raise ValueError("a node never votes about its own signature")


@dataclass(frozen=True)
class Verdict:
    kind: str  # Clean | IntrusionAt | Inconclusive
    nodes: frozenset[NodeId] = frozenset()

    def __str__(self) -> str:
        if self.kind == "IntrusionAt":
            return "INTRUSION node=" + ",".join(str(i) for i in sorted(self.nodes))
        return self.kind.upper()


@dataclass(frozen=True)
class ConsensusRound:
    process_label: str
    local_digests: dict[NodeId, tuple[str, ...] | None]
    votes: tuple[VoteMessage, ...]
    verdict: Verdict


@dataclass(frozen=True)
class ClusterConfig:
    n: int
    algorithm: HashAlgorithm = HashAlgorithm.MD5
    cipher: Cipher = Cipher.SHIFT_BYTE
    key: int = 7
    transport: str = "inprocess"  # inprocess | socket

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ScenarioError(f"replication factor must be >= 2, got {self.n}")
        try:
            _check_key(self.cipher, self.key)
        except InvalidKeyError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.transport not in ("inprocess", "socket"):
            raise ScenarioError(f"unknown transport {self.transport!r}")


def conclude_round(n_participating: int, votes: list[VoteMessage]) -> Verdict:
    """Per-subject strict-majority tally with fail-safe Inconclusive.

    A node lands in the intrusion set when more than half of the
    participating nodes voted Mismatch against it. Mismatch votes that form
    no majority anywhere escalate to Inconclusive rather than being dropped.
    """
    mismatch_voters: dict[NodeId, set[NodeId]] = {}
    for v in votes:
        if v.verdict is Outcome.MISMATCH:
            mismatch_voters.setdefault(v.subject, set()).add(v.sender)
    if not mismatch_voters:
        return Verdict("Clean")
    flagged = frozenset(
        subject
        for subject, voters in mismatch_voters.items()
        if len(voters) * 2 > n_participating
    )
    if flagged:
        return Verdict("IntrusionAt", flagged)
    return Verdict("Inconclusive")


# ---------------------------------------------------------------------------
# Replica node state machine
# ---------------------------------------------------------------------------


class ReplicaNode:
    """One simulated datanode; holds its own state, talks only in messages."""

    def __init__(self, node_id: NodeId, config: ClusterConfig):
        self.id = node_id
        self.config = config
        self.signatures: dict[str, ProcessSignature] = {}
        self.profiling_failed: dict[str, str] = {}
        self.decrypt_failures: list[tuple[NodeId, str]] = []
        self.votes: list[VoteMessage] = []  # cast by this node and received from peers

    def run_profiling(self, process_label: str, cfg_text: str) -> ProcessSignature | None:
        """Parse DOT, validate, peel, and hash; cache the signature per process."""
        try:
            graph = parse_dot(cfg_text)
            report = validate_cfg(graph)
            if not report.ok:
                raise CfsigError(
                    "invalid CFG: " + ", ".join(str(v) for v in report.violations)
                )
            sig = build_signature(peel_edge_disjoint(graph), self.config.algorithm, process_label)
        except CfsigError as exc:
            self.profiling_failed[process_label] = str(exc)
            return None
        self.signatures[process_label] = sig
        return sig

    def envelope(self, process_label: str) -> bytes | None:
        """The encoded signature frame this node broadcasts; None when profiling failed."""
        sig = self.signatures.get(process_label)
        if sig is None:
            return None
        enc = encrypt(sig, self.config.cipher, self.config.key)
        return envelope_frame(self.id, enc).encode()

    def handle_envelope(
        self, process_label: str, sender: NodeId, payload: EncryptedSignature
    ) -> VoteMessage:
        """Decrypt and match a peer signature against the local version."""
        try:
            remote = decrypt(payload, self.config.key)
        except MalformedPlaintextError as exc:
            self.decrypt_failures.append((sender, str(exc)))
            return VoteMessage(self.id, sender, Outcome.MISMATCH)
        local = self.signatures.get(process_label)
        if local is None:
            self.decrypt_failures.append((sender, "no local signature"))
            return VoteMessage(self.id, sender, Outcome.MISMATCH)
        verdict = match_signatures(local, remote)
        return VoteMessage(self.id, sender, verdict.outcome)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class Transport:
    """Per-node inboxes of received frames; subclasses implement ``send``."""

    def __init__(self, n: int):
        self._inboxes: dict[NodeId, list[bytes]] = {i: [] for i in range(n)}
        self._lock = threading.Lock()

    def _deliver(self, receiver: NodeId, frame_bytes: bytes) -> None:
        with self._lock:
            self._inboxes[receiver].append(frame_bytes)

    def drain(self, receiver: NodeId) -> list[bytes]:
        with self._lock:
            out = self._inboxes[receiver]
            self._inboxes[receiver] = []
        return out

    def pending(self, receiver: NodeId) -> int:
        with self._lock:
            return len(self._inboxes[receiver])

    def close(self) -> None:
        pass


class InProcessTransport(Transport):
    """Deterministic per-node FIFO queues; never fails."""

    def send(self, receiver: NodeId, frame_bytes: bytes) -> None:
        self._deliver(receiver, frame_bytes)


class SocketTransport(Transport):
    """Loopback TCP transport; one connection per frame, length-framed."""

    def __init__(self, n: int):
        super().__init__(n)
        self._servers = []
        self.ports: dict[NodeId, int] = {}
        for i in range(n):
            srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind(("127.0.0.1", 0))
            srv.listen(16)
            self.ports[i] = srv.getsockname()[1]
            thread = threading.Thread(target=self._serve, args=(i, srv), daemon=True)
            thread.start()
            self._servers.append((srv, thread))

    def _serve(self, node: NodeId, srv) -> None:
        while True:
            try:
                conn, _ = srv.accept()
            except OSError:
                return  # close() shut the listener down
            chunks = []
            with conn:
                conn.settimeout(SOCKET_TIMEOUT_S)
                try:
                    while data := conn.recv(65536):
                        chunks.append(data)
                except OSError:
                    continue  # silent or broken peer: drop its partial frame
            if chunks:
                self._deliver(node, b"".join(chunks))

    def send(self, receiver: NodeId, frame_bytes: bytes) -> None:
        try:
            with socket.create_connection(
                ("127.0.0.1", self.ports[receiver]), timeout=SOCKET_TIMEOUT_S
            ) as conn:
                conn.sendall(frame_bytes)
        except OSError as exc:
            raise TransportError(f"peer {receiver} unreachable: {exc}") from exc

    def close(self) -> None:
        for srv, _ in self._servers:
            try:
                # Closing alone leaves _serve blocked in accept(); shutdown wakes it.
                srv.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            srv.close()
        for _, thread in self._servers:  # after every shutdown, so the threads exit together
            thread.join(SOCKET_TIMEOUT_S)  # no accept thread outlives the round


# ---------------------------------------------------------------------------
# Scenario driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    process_label: str
    graph: ControlFlowGraph
    tamper: tuple[NodeId, Mutation] | None = None
    dead: NodeId | None = None


def parse_scenario_file(path: str | Path) -> tuple[ClusterConfig, Scenario]:
    """Parse the plain-text scenario format (``key=value`` lines).

    Keys: ``n``, ``fixture`` (a ``.dot`` or ``.graphml`` path relative to the
    scenario file; it must be a valid CFG), optional
    ``tamper=<node>:<mutation-spec>`` (it must apply to the fixture),
    ``alg``, ``cipher``, ``key`` (it must suit the cipher), ``dead=<node>``.
    """
    path = Path(path)
    fields: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioError(f"bad scenario line {line!r}")
        fields[key.strip()] = value.strip()

    known = {"n", "fixture", "tamper", "alg", "cipher", "key", "dead"}
    unknown = set(fields) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    try:
        n = int(fields["n"])
        fixture = fields["fixture"]
    except KeyError as exc:
        raise ScenarioError(f"scenario missing required key {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"bad n value: {exc}") from exc

    fixture_path = path.parent / fixture
    try:
        graph = load_graph(fixture_path)
    except OSError as exc:
        raise ScenarioError(f"cannot read fixture {fixture_path}: {exc}") from exc
    except CfsigError as exc:
        raise ScenarioError(f"bad fixture {fixture_path}: {exc}") from exc

    tamper = None
    if "tamper" in fields:
        node_text, sep, mut_text = fields["tamper"].partition(":")
        if not sep:
            raise ScenarioError("tamper must look like <node>:<mutation-spec>")
        try:
            tamper_node = int(node_text)
            mutation = Mutation.parse(mut_text)
            mutate(graph, mutation)
        except (ValueError, CfsigError) as exc:
            raise ScenarioError(f"bad tamper spec: {exc}") from exc
        if not 0 <= tamper_node < n:
            raise ScenarioError(f"tamper node {tamper_node} out of range for n={n}")
        tamper = (tamper_node, mutation)

    try:
        dead = int(fields["dead"]) if "dead" in fields else None
        config = ClusterConfig(
            n=n,
            algorithm=HashAlgorithm(fields.get("alg", "MD5")),
            cipher=Cipher(fields.get("cipher", "ShiftByte")),
            key=int(fields.get("key", "7")),
        )
    except ValueError as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc
    if dead is not None and not 0 <= dead < n:
        raise ScenarioError(f"dead node {dead} out of range for n={n}")
    return config, Scenario(fixture_path.stem, graph, tamper, dead)


@dataclass
class RoundResult:
    consensus: ConsensusRound
    transcript: list[str]
    phase_seconds: dict[str, float]
    rounds_per_node: dict[NodeId, ConsensusRound] = field(default_factory=dict)

    def transcript_text(self) -> str:
        return "\n".join(self.transcript) + "\n"


def run_cluster_scenario(config: ClusterConfig, scenario: Scenario) -> RoundResult:
    """Boot n replicas, run one full detection round, return the verdict.

    The transcript logs every frame in a deterministic order (sorted by
    sender then receiver per phase). ``phase_seconds`` has one entry per
    phase: profile, signature, vote, tally.
    """
    n = config.n
    label = scenario.process_label
    nodes = [ReplicaNode(i, config) for i in range(n)]

    transcript = [
        f"scenario label={label} n={n} alg={config.algorithm.value} "
        f"cipher={config.cipher.value} key_id={config.key & 0xFF}"
    ]
    phase_seconds: dict[str, float] = {}
    live = [node for node in nodes if node.id != scenario.dead]
    transport = (
        SocketTransport(n) if config.transport == "socket" else InProcessTransport(n)
    )

    def run_phase(name: str, action: Callable[[ReplicaNode], list[tuple[str, bytes]]]) -> None:
        """Run *action* on each live node, then broadcast what each returned and wait.

        An action returns (transcript detail, encoded frame) pairs; each frame
        goes to every peer. Delivery waits at most ``SOCKET_TIMEOUT_S``.
        """
        t0 = time.perf_counter()
        outboxes = [(node.id, action(node)) for node in live]
        delivered: dict[NodeId, int] = {}
        for sender, outbox in outboxes:
            for receiver in range(n):
                if receiver == sender:
                    continue
                for detail, frame_bytes in outbox:
                    line = f"frame phase={name} from={sender} to={receiver}"
                    try:
                        transport.send(receiver, frame_bytes)
                    except TransportError as exc:
                        transcript.append(f"{line} error={exc}")
                        continue
                    delivered[receiver] = delivered.get(receiver, 0) + 1
                    transcript.append(f"{line} {detail}hex={frame_bytes.hex()}")
        deadline = time.monotonic() + SOCKET_TIMEOUT_S
        while any(transport.pending(r) < c for r, c in delivered.items()):
            if time.monotonic() >= deadline:
                break
            time.sleep(0.005)
        phase_seconds[name] = time.perf_counter() - t0

    def profile(node: ReplicaNode):
        graph = scenario.graph
        if scenario.tamper is not None and scenario.tamper[0] == node.id:
            graph = mutate(graph, scenario.tamper[1])
        node.run_profiling(label, serialize_dot(graph))
        return []

    def signature(node: ReplicaNode):
        frame_bytes = node.envelope(label)
        return [] if frame_bytes is None else [("", frame_bytes)]

    def vote(node: ReplicaNode):
        frames = sorted(
            (decode_frame(b) for b in transport.drain(node.id)),
            key=lambda f: f.sender,
        )
        if label not in node.signatures:
            return []  # profiling failed: abstain from voting
        votes = [
            node.handle_envelope(label, frame.sender, envelope_from_frame(frame))
            for frame in frames
            if frame.msg_type == MSG_ENVELOPE
        ]
        node.votes.extend(votes)
        return [
            (f"subject={v.subject} verdict={v.verdict.value} ",
             vote_frame(v.sender, v.subject, v.verdict).encode())
            for v in votes
        ]

    rounds: dict[NodeId, ConsensusRound] = {}

    def tally(node: ReplicaNode):
        for raw in transport.drain(node.id):
            frame = decode_frame(raw)
            if frame.msg_type != MSG_VOTE or frame.subject is None:
                continue
            outcome = Outcome.MATCH if frame.payload[0] == 0 else Outcome.MISMATCH
            node.votes.append(VoteMessage(frame.sender, frame.subject, outcome))
        votes = sorted(set(node.votes), key=lambda v: (v.sender, v.subject))
        verdict = conclude_round(len(participating), votes)
        rounds[node.id] = ConsensusRound(label, local_digests, tuple(votes), verdict)
        return []

    try:
        run_phase("profile", profile)
        local_digests: dict[NodeId, tuple[str, ...] | None] = {}
        for node in nodes:
            sig = node.signatures.get(label)
            local_digests[node.id] = sig.digests if sig else None
            if node.id == scenario.dead:
                status = "silent"
            elif sig is None:
                status = "failed"
            else:
                status = f"ok digests={len(sig.digests)}"
            transcript.append(f"profile node={node.id} status={status}")
        run_phase("signature", signature)
        run_phase("vote", vote)
        participating = [node.id for node in live if local_digests[node.id] is not None]
        run_phase("tally", tally)
    finally:
        transport.close()

    primary = rounds[min(rounds)]
    transcript.append(f"verdict {primary.verdict}")
    return RoundResult(primary, transcript, phase_seconds, rounds)
