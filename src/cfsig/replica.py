"""Replica-cluster simulation: profile, exchange signatures, vote, conclude.

Every replica signs the scenario's graph value (the tampered node, the
tampered graph), broadcasts the encrypted signature to all peers, matches
what it receives against its local version, and shares its votes. A tampered
replica is isolated when a strict majority of live nodes vote Mismatch
against it.

A round runs its steps in order, each over the live nodes in id order (a dead
node takes no step): profile, broadcast the signatures, receive them and cast
votes, broadcast the votes, tally. ``broadcast`` sends each frame to every peer
in (sender, receiver) order and logs each. A frame is in its receiver's inbox,
or logged as an error, when ``send`` returns, so no step waits for delivery and
the transcript is a deterministic function of (config, scenario).
A receiver drops, and logs, any frame it cannot decode or that names an
impossible or dead node id, and the round goes on without it.
"""

from __future__ import annotations

import socket
import struct
from collections.abc import Callable, Container, Iterable
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from .cfg import ControlFlowGraph, Mutation, check_cfg, load_graph, mutate, read_utf8
# parse_dot, parse_graphml, serialize_dot and validate_cfg are unused here, but
# perfbench's traced run patches them on this module.
from .cfg import parse_dot, parse_graphml, serialize_dot, validate_cfg
from .arborescence import peel_edge_disjoint
from .errors import CfsigError, InvalidKeyError, MalformedPlaintextError, ScenarioError, TransportError
from .matcher import Outcome, match_signatures
from .signature import (
    Cipher,
    EncryptedSignature,
    HashAlgorithm,
    ProcessSignature,
    build_signature,
    check_key,
    check_label,
    decrypt,
    encrypt,
)

NodeId = int

FRAME_MAGIC = b"CFS1"
MSG_ENVELOPE = 1
MSG_VOTE = 2
_HEADER = struct.Struct("!4sBHI")  # magic, message type, sender, payload length
_VOTE = struct.Struct("!HB")  # subject, verdict (1 for Mismatch)
# Node ids travel as the 16-bit sender and subject fields above.
MAX_NODES = 1 << 16
# An envelope's payload is [cipher tag, key & 0xFF] + ciphertext; a cipher's tag is its index here.
CIPHER_TAGS = (Cipher.NULL, Cipher.SHIFT_BYTE, Cipher.XOR_STREAM)

# Bounds each connect, accept and read of a socket frame's delivery, so a
# silent peer cannot block a round.
SOCKET_TIMEOUT_S = 2.0


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    msg_type: int
    sender: NodeId
    payload: bytes

    def encode(self) -> bytes:
        return _HEADER.pack(FRAME_MAGIC, self.msg_type, self.sender, len(self.payload)) + self.payload


def decode_frame(data: bytes) -> Frame:
    if len(data) < _HEADER.size:
        raise TransportError("frame shorter than header")
    magic, msg_type, sender, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    if len(data) != _HEADER.size + length:
        raise TransportError("frame length mismatch")
    if msg_type not in (MSG_ENVELOPE, MSG_VOTE):
        raise TransportError(f"unknown message type {msg_type}")
    return Frame(msg_type, sender, data[_HEADER.size:])


def envelope_frame(sender: NodeId, enc: EncryptedSignature, key: int) -> Frame:
    payload = bytes([CIPHER_TAGS.index(enc.cipher), key & 0xFF]) + enc.payload
    return Frame(MSG_ENVELOPE, sender, payload)


def vote_frame(sender: NodeId, votes: Iterable[VoteMessage]) -> Frame:
    """All of *sender*'s votes in one frame: a (subject, mismatch) pair each, in the given order."""
    payload = b"".join(_VOTE.pack(v.subject, v.mismatch) for v in votes)
    return Frame(MSG_VOTE, sender, payload)


def envelope_from_frame(frame: Frame) -> EncryptedSignature:
    if frame.msg_type != MSG_ENVELOPE or len(frame.payload) < 2:
        raise TransportError("not a signature envelope frame")
    if frame.payload[0] >= len(CIPHER_TAGS):
        raise TransportError(f"unknown cipher tag {frame.payload[0]}")
    return EncryptedSignature(CIPHER_TAGS[frame.payload[0]], frame.payload[2:])


def votes_from_frame(frame: Frame, subjects: Container[NodeId]) -> list[VoteMessage]:
    """The votes in a vote frame; TransportError for a vote about its sender or about a node not in *subjects*."""
    if frame.msg_type != MSG_VOTE or len(frame.payload) % _VOTE.size:
        raise TransportError("not a vote frame")
    subject_ids, verdicts = zip(*_VOTE.iter_unpack(frame.payload)) if frame.payload else ((), ())
    if frame.sender in subject_ids:
        raise TransportError("a node never votes about its own signature")
    if not all(map(subjects.__contains__, subject_ids)):
        raise TransportError("vote subject out of range")
    if bad := frame.payload[2::3].translate(None, b"\x00\x01"):  # the verdict bytes other than 0 and 1
        raise TransportError(f"bad verdict byte {bad[0]}")
    # tuple.__new__ builds each VoteMessage without a Python-level call per vote.
    return list(map(tuple.__new__, repeat(VoteMessage), zip(repeat(frame.sender), subject_ids, map(bool, verdicts))))


# ---------------------------------------------------------------------------
# Messages and verdicts
# ---------------------------------------------------------------------------


class VoteMessage(NamedTuple):
    """*sender*'s vote about *subject*'s signature; as tuples, Match (False) sorts before Mismatch."""

    sender: NodeId
    subject: NodeId
    mismatch: bool


@dataclass(frozen=True)
class Verdict:
    kind: str  # Clean | IntrusionAt | Inconclusive
    nodes: frozenset[NodeId] = frozenset()

    def __str__(self) -> str:
        if self.kind == "IntrusionAt":
            return "INTRUSION node=" + ",".join(str(i) for i in sorted(self.nodes))
        return self.kind.upper()


@dataclass(frozen=True)
class ClusterConfig:
    n: int
    algorithm: HashAlgorithm = HashAlgorithm.MD5
    cipher: Cipher = Cipher.SHIFT_BYTE
    key: int = 7
    transport: str = "inprocess"  # inprocess | socket

    def __post_init__(self) -> None:
        if not 2 <= self.n <= MAX_NODES:
            raise ScenarioError(f"replication factor must be in 2..{MAX_NODES}, got {self.n}")
        try:
            check_key(self.cipher, self.key)
        except InvalidKeyError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.transport not in ("inprocess", "socket"):
            raise ScenarioError(f"unknown transport {self.transport!r}")


def conclude_round(n_live: int, votes: Iterable[VoteMessage], voter: NodeId) -> Verdict:
    """*voter*'s decision: a per-subject strict-majority tally with fail-safe Inconclusive.

    A node lands in the intrusion set when more than half of the *n_live*
    live nodes voted Mismatch against it. Mismatch votes that form
    no majority anywhere escalate to Inconclusive rather than being dropped.
    With no Mismatch vote the tally is Clean only if *voter*'s own votes cover
    all n_live - 1 of its peers: it cannot vouch for a peer it did not check.
    """
    mismatch_voters: dict[NodeId, set[NodeId]] = {}
    checked: set[NodeId] = set()
    for v in votes:
        if v.sender == voter:
            checked.add(v.subject)
        if v.mismatch:
            mismatch_voters.setdefault(v.subject, set()).add(v.sender)
    if not mismatch_voters:
        return Verdict("Clean") if len(checked) >= n_live - 1 else Verdict("Inconclusive")
    flagged = frozenset(s for s, voters in mismatch_voters.items() if len(voters) * 2 > n_live)
    return Verdict("IntrusionAt", flagged) if flagged else Verdict("Inconclusive")


# ---------------------------------------------------------------------------
# Replica node state machine
# ---------------------------------------------------------------------------


class ReplicaNode:
    """One simulated datanode; holds its own state, talks only in messages."""

    def __init__(self, node_id: NodeId, config: ClusterConfig):
        self.id = node_id
        self.config = config
        self.signature: ProcessSignature | None = None  # None until profiled; a dead node never is
        self.sealed: EncryptedSignature | None = None  # the signature encrypted for broadcast, set with it
        self.decrypt_failures: list[tuple[NodeId, str]] = []
        self.votes: tuple[VoteMessage, ...] = ()  # after the round, its tally in tuple order
        self.verdict: Verdict | None = None  # set by the round's tally; a dead node never is

    def run_profiling(self, process_label: str, graph: ControlFlowGraph) -> ProcessSignature:
        """Peel and hash a valid graph; keep the signature as this node's own, and seal it."""
        self.signature = build_signature(peel_edge_disjoint(graph), self.config.algorithm, process_label)
        self.sealed = encrypt(self.signature, self.config.cipher, self.config.key)
        return self.signature

    def handle_envelope(self, sender: NodeId, payload: EncryptedSignature) -> VoteMessage:
        """Decrypt and match a peer signature against the local version, unless it is sealed as this node's own."""
        # Each cipher is deterministic under the cluster's one key and each signature has one record,
        # so an envelope equal to this node's own holds its signature: a Match, without decrypting.
        if payload == self.sealed:
            return VoteMessage(self.id, sender, False)
        try:
            remote = decrypt(payload, self.config.key)
        except (InvalidKeyError, MalformedPlaintextError) as exc:  # e.g. a peer on another cipher
            self.decrypt_failures.append((sender, str(exc)))
            return VoteMessage(self.id, sender, True)
        verdict = match_signatures(self.signature, remote)
        return VoteMessage(self.id, sender, verdict.outcome is Outcome.MISMATCH)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class Transport:
    """Per-node inboxes of received frames; subclasses implement ``send``, which delivers."""

    def __init__(self, n: int):
        self._inboxes: dict[NodeId, list[bytes]] = {i: [] for i in range(n)}

    def drain(self, receiver: NodeId) -> list[bytes]:
        out = self._inboxes[receiver]
        self._inboxes[receiver] = []
        return out

    def close(self) -> None:
        pass


class InProcessTransport(Transport):
    """Deterministic per-node FIFO queues; never fails."""

    def send(self, receiver: NodeId, frame_bytes: bytes) -> None:
        self._inboxes[receiver].append(frame_bytes)


class SocketTransport(Transport):
    """Loopback TCP transport; one connection per frame, which ends at EOF.

    Nothing reads the listeners in the background: ``send`` accepts and reads
    its own connection on the calling thread, so the program starts no threads.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self._listeners: list[socket.socket] = []
        self.ports: dict[NodeId, int] = {}
        try:
            for i in range(n):
                srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                self._listeners.append(srv)
                srv.settimeout(SOCKET_TIMEOUT_S)
                srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                srv.bind(("127.0.0.1", 0))
                srv.listen()
                self.ports[i] = srv.getsockname()[1]
        except BaseException:
            self.close()  # the listeners opened so far
            raise

    def send(self, receiver: NodeId, frame_bytes: bytes) -> None:
        """Connect, write and close, then accept that connection and read it into *receiver*'s inbox."""
        srv = self._listeners[receiver]
        try:
            with socket.create_connection(("127.0.0.1", self.ports[receiver]), timeout=SOCKET_TIMEOUT_S) as out:
                out.sendall(frame_bytes)
                sent_from = out.getsockname()
            conn, peer = srv.accept()
            while peer != sent_from:  # e.g. a silent peer queued first
                conn.close()
                conn, peer = srv.accept()
            with conn:
                conn.settimeout(SOCKET_TIMEOUT_S)
                chunks = []
                while data := conn.recv(65536):
                    chunks.append(data)
        except OSError as exc:
            raise TransportError(f"frame to peer {receiver} not delivered: {exc}") from exc
        self._inboxes[receiver].append(b"".join(chunks))

    def close(self) -> None:
        """Close the listeners; ``send`` closes each connection it accepts."""
        for sock in self._listeners:
            sock.close()


# ---------------------------------------------------------------------------
# Scenario driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One round's input, valid by construction.

    Raises ScenarioError unless the label is one line of ASCII, the graph is
    a valid CFG, the tamper applies and the tampered node is not the dead one.
    """

    process_label: str
    graph: ControlFlowGraph
    tamper: tuple[NodeId, Mutation] | None = None
    dead: NodeId | None = None
    tampered_graph: ControlFlowGraph | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            check_label(self.process_label)
            check_cfg(self.graph)
        except CfsigError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.tamper is not None:
            if self.tamper[0] == self.dead:  # a dead node signs nothing, so its tamper would go unseen
                raise ScenarioError(f"tamper node {self.dead} is the dead node")
            try:
                object.__setattr__(self, "tampered_graph", mutate(self.graph, self.tamper[1]))
            except CfsigError as exc:
                raise ScenarioError(f"bad tamper spec: {exc}") from exc


def parse_scenario_file(path: str | Path) -> tuple[ClusterConfig, Scenario]:
    """Parse the plain-text scenario format (``key=value`` lines).

    Keys: ``n``, ``fixture`` (a ``.dot`` or ``.graphml`` path relative to the
    scenario file; it must be a valid CFG), optional
    ``tamper=<node>:<mutation-spec>`` (it must apply to the fixture),
    ``alg`` (any case), ``cipher``, ``key`` (it must suit the cipher),
    ``dead=<node>``. Each key appears at most once.
    """
    config_keys = {  # each key that sets a ClusterConfig field -> (the field, the reader of the key's text)
        "alg": ("algorithm", lambda text: HashAlgorithm(text.upper())), "cipher": ("cipher", Cipher), "key": ("key", int)
    }
    path = Path(path)
    fields: dict[str, str] = {}
    try:
        text = read_utf8(path)
    except (OSError, CfsigError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioError(f"bad scenario line {line!r}")
        key = key.strip()
        if key in fields:
            raise ScenarioError(f"repeated scenario key {key!r}")
        fields[key] = value.strip()

    unknown = set(fields) - {"n", "fixture", "tamper", "dead", *config_keys}
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
            tamper = (int(node_text), Mutation.parse(mut_text))
        except (ValueError, CfsigError) as exc:
            raise ScenarioError(f"bad tamper spec: {exc}") from exc

    try:
        dead = int(fields["dead"]) if "dead" in fields else None
        config = ClusterConfig(n, **{name: read(fields[k]) for k, (name, read) in config_keys.items() if k in fields})
    except ValueError as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc
    return config, Scenario(fixture_path.stem, graph, tamper, dead)


@dataclass
class RoundResult:
    consensus: ReplicaNode  # the lowest live node, whose verdict is the round's
    transcript: list[str]
    rounds_per_node: dict[NodeId, ReplicaNode]  # every live node, by id

    def transcript_text(self) -> str:
        return "\n".join(self.transcript) + "\n"


def run_cluster_scenario(config: ClusterConfig, scenario: Scenario) -> RoundResult:
    """Boot n replicas, run one full detection round, return the verdict.

    The transcript logs every frame in a deterministic order (sorted by
    sender then receiver per broadcast). After the round each live node holds
    its tally in ``votes`` and its ``verdict``.
    """
    n = config.n
    tamper_node = None if scenario.tamper is None else scenario.tamper[0]
    for role, node_id in (("tamper", tamper_node), ("dead", scenario.dead)):
        if node_id is not None and not 0 <= node_id < n:
            raise ScenarioError(f"{role} node {node_id} out of range for n={n}")
    label = scenario.process_label
    nodes = [ReplicaNode(i, config) for i in range(n)]

    transcript = [
        f"scenario label={label} n={n} alg={config.algorithm.value} "
        f"cipher={config.cipher.value} key_id={config.key & 0xFF}"
    ]
    live = [node for node in nodes if node.id != scenario.dead]
    live_ids = {node.id for node in live}  # the only valid senders and vote subjects
    transport = SocketTransport(n) if config.transport == "socket" else InProcessTransport(n)

    def broadcast(phase: str, outboxes: list[tuple[NodeId, str, bytes]]) -> None:
        """Send each (sender, transcript detail, frame) to every peer; log each frame or its send error."""
        for sender, detail, frame_bytes in outboxes:
            for receiver in range(n):
                if receiver == sender:
                    continue
                line = f"frame phase={phase} from={sender} to={receiver}"
                try:
                    transport.send(receiver, frame_bytes)
                except TransportError as exc:
                    transcript.append(f"{line} {detail}error={exc}")
                    continue
                transcript.append(f"{line} {detail}hex={frame_bytes.hex()}")

    def receive(node: ReplicaNode, phase: str, parse: Callable[[Frame], object]) -> list:
        """Parse the frames *node* received in *phase*; drop and log each that fails."""
        parsed = []
        for raw in sorted(transport.drain(node.id)):  # frames of one type sort by sender
            try:
                frame = decode_frame(raw)
                if frame.sender == node.id or frame.sender not in live_ids:
                    raise TransportError(f"bad sender {frame.sender}")
                parsed.append(parse(frame))
            except TransportError as exc:
                transcript.append(f"drop phase={phase} node={node.id} reason={exc}")
        return parsed

    try:
        for node in live:
            node.run_profiling(label, scenario.tampered_graph if node.id == tamper_node else scenario.graph)
        for node in nodes:
            sig = node.signature  # None only for the dead node
            status = "silent" if sig is None else f"ok digests={len(sig.digests)}"
            transcript.append(f"profile node={node.id} status={status}")
        broadcast("signature", [(node.id, "", envelope_frame(node.id, node.sealed, config.key).encode()) for node in live])

        outboxes = []
        for node in live:
            envelopes = receive(node, "signature", lambda f: (f.sender, envelope_from_frame(f)))
            node.votes = tuple(node.handle_envelope(sender, enc) for sender, enc in envelopes)
            detail = ",".join(f"{v.subject}:{'Mismatch' if v.mismatch else 'Match'}" for v in node.votes)
            outboxes.append((node.id, f"votes={detail} ", vote_frame(node.id, node.votes).encode()))
        broadcast("vote", outboxes)
        for node in live:
            received = receive(node, "vote", lambda f: votes_from_frame(f, live_ids))
            node.votes = tuple(sorted(set(node.votes).union(*received)))  # receive drops frames under its own id
            node.verdict = conclude_round(len(live), node.votes, node.id)
    finally:
        transport.close()

    transcript.append(f"verdict {live[0].verdict}")
    return RoundResult(live[0], transcript, {node.id: node for node in live})
