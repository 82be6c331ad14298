"""Scale guard: signing a V=5000 CFG stays linear-time.

The sign path (parse, validate, peel, hash) is O(V+E). A quadratic step at
V=5000 costs tens of seconds, so a generous wall-clock budget catches it
without depending on the host's exact speed.
"""

from __future__ import annotations

import random
import time

import pytest

from cfsig import (
    ControlFlowGraph,
    HashAlgorithm,
    build_signature,
    parse_dot,
    parse_graphml,
    peel_edge_disjoint,
    serialize_dot,
    serialize_graphml,
    validate_cfg,
)

V = 5000
BUDGET_S = 5.0


def wide_graph(v: int, rng: random.Random) -> ControlFlowGraph:
    """Entry fans out to 8 heads, every later block hangs off an earlier
    non-entry block, and random extra edges bring E to 3V: few BFS layers."""
    names = [f"B{i:04d}" for i in range(1, v + 1)]
    edges = {(names[0], head) for head in names[1:9]}
    for i in range(9, v):
        edges.add((names[rng.randrange(1, i)], names[i]))
    while len(edges) < 3 * v:
        src, dst = rng.sample(names[1:], 2)
        edges.add((src, dst))
    return ControlFlowGraph(frozenset(names), frozenset(edges), names[0])


def deep_graph(v: int, rng: random.Random) -> ControlFlowGraph:
    """A chain with a back-edge from each block into the 20 before it and a
    skip edge over the next block half the time: about V/2 BFS layers."""
    names = [f"B{i:04d}" for i in range(1, v + 1)]
    edges = set()
    for i in range(1, v):
        edges.add((names[i - 1], names[i]))
        if i >= 2:
            edges.add((names[i], names[rng.randrange(max(1, i - 20), i)]))
        if i + 1 < v and rng.random() < 0.5:
            edges.add((names[i - 1], names[i + 1]))
    return ControlFlowGraph(frozenset(names), frozenset(edges), names[0])


@pytest.mark.parametrize(
    "build,serialize,parse",
    [(wide_graph, serialize_graphml, parse_graphml), (deep_graph, serialize_dot, parse_dot)],
    ids=["wide-graphml", "deep-dot"],
)
def test_v5000_signs_within_budget(build, serialize, parse):
    graph = build(V, random.Random(5))
    text = serialize(graph)

    start = time.perf_counter()
    parsed = parse(text)
    report = validate_cfg(parsed)
    arbs = peel_edge_disjoint(parsed)
    sig = build_signature(arbs, HashAlgorithm.MD5, "scale")
    elapsed = time.perf_counter() - start

    assert parsed == graph and report.ok
    assert len(sig.digests) == len(arbs) >= 1
    assert elapsed < BUDGET_S, f"signing V={V} took {elapsed:.2f} s"
