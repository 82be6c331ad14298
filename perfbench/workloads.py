"""Workload set-up, timed operations and output checks.

This module runs inside a worker process: importing it imports the program,
and that import is part of the set-up time. Operations call the program only
through module attributes (``cfg.parse_dot``, ``replica.run_cluster_scenario``
...), so a traced run sees every call once its wrappers are installed.
"""

from __future__ import annotations

import math
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from cfsig import arborescence, cfg, matcher, replica, signature
from cfsig.errors import CfsigError

import calibrate
import inputs
from spans import Tracer

CORPUS = Path(__file__).resolve().parent.parent / "fixtures" / "bench"
ALGORITHM = signature.HashAlgorithm.MD5
SIGN_LABEL = "bench"
SCHEDULE_CYCLES = 64

# SocketTransport.close() never wakes its accept() threads, so each socket
# round leaks n threads (a known defect of the program, reported as
# threads_leaked_per_round and not worked around here). A worker stops after
# this many socket rounds, warm-up included, to stay near 500 leaked threads;
# the run goes on in a fresh worker process.
SOCKET_ROUNDS_PER_WORKER = 96


class CheckFailed(Exception):
    """An output check found a wrong result."""


@dataclass
class Tally:
    """Outcome of a stretch of operations."""

    attempted: int = 0
    failed: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    # Reference call time measured right after each sampled operation.
    call_ns: list[int] = field(default_factory=list)
    loop_ns: int = 0
    edges: int = 0
    threads_leaked: int = 0
    problems: list[str] = field(default_factory=list)

    def record_failure(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# Signs
# ---------------------------------------------------------------------------


def parse(item: dict) -> cfg.ControlFlowGraph:
    return cfg.parse_dot(item["text"]) if item["fmt"] == "dot" else cfg.parse_graphml(item["text"])


def sign_graph(graph: cfg.ControlFlowGraph) -> signature.ProcessSignature:
    return signature.build_signature(arborescence.peel_edge_disjoint(graph), ALGORITHM, SIGN_LABEL)


def sign(item: dict) -> signature.ProcessSignature:
    """Input text to signature: parse, validate, peel, hash (no file I/O)."""
    graph = parse(item)
    report = cfg.validate_cfg(graph)
    if not report.ok:
        raise CheckFailed("graph does not validate: " + ", ".join(map(str, report.violations)))
    return sign_graph(graph)


class SignWorkload:
    """Signs one cycle of seeded graphs over and over.

    The first pass over each input (the warm-up) keeps its signature bytes
    as the reference every later pass must reproduce.
    """

    max_cycles = None

    def __init__(self, spec: dict, seed: int):
        self.items = inputs.sign_inputs(spec["shape"], seed)
        self.cycle = len(self.items)
        self.reference: dict[int, bytes] = {}
        self.next = 0

    def op(self, tally: Tally) -> None:
        i = self.next % self.cycle
        self.next += 1
        item = self.items[i]
        t0 = time.perf_counter_ns()
        sig = sign(item)
        elapsed = time.perf_counter_ns() - t0
        data = signature.serialize_signature(sig)
        if self.reference.setdefault(i, data) != data:
            raise CheckFailed(f"input {i}: signature bytes differ from the first pass")
        if signature.parse_signature(data) != sig:
            raise CheckFailed(f"input {i}: parse_signature does not round-trip")
        tally.latencies_ns.append(elapsed)
        tally.edges += item["edges"]

    def one_off_checks(self, tally: Tally) -> None:
        """Each graph with one non-entry block removed must sign differently."""
        for i, item in enumerate(self.items):
            tally.attempted += 1
            try:
                smaller = cfg.mutate(parse(item), cfg.Mutation.remove_node(item["drop"]), prune=True)
                digests = sign_graph(smaller).digests
            except CfsigError as exc:
                tally.record_failure(f"input {i}: removing {item['drop']} raised {exc}")
                continue
            if digests == signature.parse_signature(self.reference[i]).digests:
                tally.record_failure(f"input {i}: removing {item['drop']} leaves the signature unchanged")


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def removal_is_valid(graph: cfg.ControlFlowGraph, block: str) -> bool:
    try:
        cfg.mutate(graph, cfg.Mutation.remove_node(block))
    except CfsigError:
        return False
    return True


def check_round(result, expected: str, n: int) -> None:
    """Raise CheckFailed unless the round gave *expected* and every node ran cleanly."""
    verdict = str(result.consensus.verdict)
    if verdict != expected:
        raise CheckFailed(f"verdict {verdict!r}, expected {expected!r}")
    lines = result.transcript
    for i in range(n):
        if not any(line.startswith(f"profile node={i} status=ok ") for line in lines):
            raise CheckFailed(f"node {i} did not report status=ok")
    bad = next((line for line in lines if "error=" in line), None)
    if bad is not None:
        raise CheckFailed(f"transcript reports an error: {bad[:120]}")


class RoundWorkload:
    """Runs replica rounds over the bench corpus, each cycle visiting every graph once."""

    def __init__(self, spec: dict, seed: int):
        paths = sorted(CORPUS.glob("*.dot"))
        if not paths:
            raise FileNotFoundError(f"no .dot fixtures in {CORPUS}")
        self.graphs = {p.stem: cfg.parse_dot(p.read_text()) for p in paths}
        candidates = {
            label: [b for b in sorted(g.nodes - {g.entry}) if removal_is_valid(g, b)]
            for label, g in self.graphs.items()
        }
        self.n = spec["n"]
        self.config = replica.ClusterConfig(n=self.n, transport=spec["transport"])
        self.schedule = inputs.round_schedule(
            sorted(self.graphs), candidates, self.n, seed, SCHEDULE_CYCLES, spec["tamper_every"]
        )
        self.cycle = len(self.graphs)
        # Measured cycles one worker may run after its warm-up cycle.
        self.max_cycles = (
            SOCKET_ROUNDS_PER_WORKER // self.cycle - 1 if spec["transport"] == "socket" else None
        )
        self.next = 0

    def one_off_checks(self, tally: Tally) -> None:
        """Every round is checked as it runs; nothing is left to check once."""

    def op(self, tally: Tally) -> None:
        label, tamper, expected = self.schedule[self.next % len(self.schedule)]
        self.next += 1
        mutation = None
        if tamper is not None:
            mutation = (tamper[0], cfg.Mutation.remove_node(tamper[1]))
        scenario = replica.Scenario(label, self.graphs[label], mutation)
        threads_before = threading.active_count()
        t0 = time.perf_counter_ns()
        result = replica.run_cluster_scenario(self.config, scenario)
        elapsed = time.perf_counter_ns() - t0
        tally.threads_leaked += threading.active_count() - threads_before
        check_round(result, expected, self.n)
        tally.latencies_ns.append(elapsed)


def make_workload(name: str, seed: int):
    spec = inputs.WORKLOADS[name]
    return (SignWorkload if spec["kind"] == "sign" else RoundWorkload)(spec, seed)


# ---------------------------------------------------------------------------
# Measurement loop and tracing
# ---------------------------------------------------------------------------


def run_cycles(workload, budget_s: float, tally: Tally, max_cycles: int | None = None,
               tracer: Tracer | None = None, calibrator: calibrate.Calibrator | None = None) -> int:
    """Closed loop, one operation in flight, in whole cycles of the workload's inputs.

    Cycles start until the budget is spent or *max_cycles* have run; whole
    cycles keep every input's share of the samples fixed. An operation that
    raises or fails a check counts as failed; its latency is not sampled.
    With a *calibrator*, reference calls follow the sampled operations (see
    ``Calibrator.call_ns``), and the reference time that goes with each
    sampled latency goes to ``tally.call_ns``. Returns the number of cycles run.
    """
    start = time.perf_counter_ns()
    deadline = start + budget_s * 1e9
    cycles = 0
    while time.perf_counter_ns() < deadline and cycles != max_cycles:
        for _ in range(workload.cycle):
            tally.attempted += 1
            sampled = len(tally.latencies_ns)
            if tracer is not None:
                tracer.op = tally.attempted
            try:
                workload.op(tally)
            except Exception as exc:  # the loop must go on and report every failure
                where = traceback.extract_tb(exc.__traceback__)[-1]
                tally.record_failure(f"{type(exc).__name__}: {exc} "
                                     f"({Path(where.filename).name}:{where.lineno})")
            if tracer is not None:
                tracer.run_deferred()
            if calibrator is not None and len(tally.latencies_ns) > sampled:
                tally.call_ns.append(calibrator.call_ns(tally.latencies_ns[-1]))
        cycles += 1
    tally.loop_ns += time.perf_counter_ns() - start
    return cycles


def run_alternating(workload, budget_s: float, tracer: Tracer) -> tuple[Tally, Tally]:
    """Alternate untraced and traced cycles, so both see the same inputs.

    Stops when the budget is spent, the workload's cycle limit is reached or
    the tracer is full. The difference between the two tallies is the
    tracing overhead.
    """
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + budget_s
    cycles = 0
    while time.perf_counter() < deadline and cycles != workload.max_cycles and not tracer.full():
        cycles += run_cycles(workload, math.inf, plain, 1)
        if cycles == workload.max_cycles:
            break
        instrument(tracer)
        try:
            cycles += run_cycles(workload, math.inf, traced, 1, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def instrument(tracer: Tracer) -> None:
    """Wrap each public function at the attribute its callers look up."""

    def count_found(args, result):
        tracer.add("arborescence.found", result is not None)

    def count_digests(args, result):
        tracer.add("signature.digests", len(result.digests))

    def count_encrypted(args, result):
        tracer.add("signature.bytes", len(result.payload))

    def count_match(args, result):
        tracer.add("matcher.mismatches", result.outcome is matcher.Outcome.MISMATCH)
        local, remote = args
        # match_cost repeats the comparison, so it runs after the operation,
        # outside every span.
        tracer.deferred.append(
            lambda: tracer.add("matcher.comparisons", matcher.match_cost(local, remote))
        )

    def count_frame(args, result):
        tracer.add("replica.frames")
        tracer.add("replica.bytes", len(args[2]))

    for owner in (cfg, replica):
        tracer.install(owner, "parse_dot", "cfg.parse_dot")
        tracer.install(owner, "parse_graphml", "cfg.parse_graphml")
        tracer.install(owner, "validate_cfg", "cfg.validate_cfg")
    tracer.install(replica, "serialize_dot", "cfg.serialize_dot")
    tracer.install(replica, "mutate", "cfg.mutate")
    for owner in (arborescence, replica):
        tracer.install(owner, "peel_edge_disjoint", "arborescence.peel_edge_disjoint")
    tracer.install(arborescence, "find_arborescence", "arborescence.find_arborescence", count_found)
    for owner in (signature, replica):
        tracer.install(owner, "build_signature", "signature.build_signature", count_digests)
    tracer.install(replica, "encrypt", "signature.encrypt", count_encrypted)
    tracer.install(replica, "decrypt", "signature.decrypt")
    tracer.install(replica, "match_signatures", "matcher.match_signatures", count_match)
    tracer.install(replica.ReplicaNode, "run_profiling", "replica.run_profiling")
    tracer.install(replica.ReplicaNode, "handle_envelope", "replica.handle_envelope")
    tracer.install(replica.Frame, "encode", "replica.frame_encode")
    tracer.install(replica, "decode_frame", "replica.decode_frame")
    tracer.install(replica, "conclude_round", "replica.conclude_round")
    for transport in (replica.InProcessTransport, replica.SocketTransport):
        tracer.install(transport, "send", "replica.transport_send", count_frame)
        tracer.install(transport, "drain", "replica.transport_drain")
    tracer.install(replica, "run_cluster_scenario", "replica.round")
