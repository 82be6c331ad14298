"""Spanning arborescence extraction over validated CFGs.

A spanning arborescence is a `ControlFlowGraph` whose entry is its root and
whose edges, drawn from one CFG, give every other node exactly one parent.
With every edge weighing 1 a spanning arborescence is automatically minimum,
so extraction reduces to deterministic rooted BFS with lexicographic parent
selection. The exhaustive enumeration and the packing search are test
oracles for small graphs, not a production path.
"""

from __future__ import annotations

import itertools

from .cfg import BlockId, ControlFlowGraph, Edge, reachable_from, successor_index
from .errors import TooLargeError
from .signature import canonical

ENUMERATION_BUDGET = 10**6


def find_arborescence(
    g: ControlFlowGraph, available: frozenset[Edge] | None = None
) -> ControlFlowGraph | None:
    """Deterministic BFS spanning arborescence from entry, or None.

    Nodes are reached layer by layer. Each layer scans the out-edges in
    *available* of its own nodes once, and each newly reached node keeps the
    lexicographically smallest (src, dst) parent edge among them, so the
    whole search is O(V+E). Returns None when some node is unreachable using
    only the available edges.
    """
    succ = successor_index(g.edges if available is None else available)
    reached = {g.entry}
    layer = [g.entry]
    chosen: list[Edge] = []
    while layer:
        parent: dict[BlockId, BlockId] = {}
        for src in layer:
            for dst in succ.get(src, ()):
                if dst not in reached and (dst not in parent or src < parent[dst]):
                    parent[dst] = src
        chosen.extend((src, dst) for dst, src in parent.items())
        reached.update(parent)
        layer = list(parent)
    if reached != g.nodes:
        return None
    return ControlFlowGraph(g.nodes, frozenset(chosen), g.entry)


def peel_edge_disjoint(g: ControlFlowGraph) -> tuple[ControlFlowGraph, ...]:
    """Greedily peel edge-disjoint spanning arborescences off the graph.

    Repeatedly extracts the deterministic BFS arborescence from the edges
    still unused and removes its edges, until the remainder no longer spans.
    The trees come in the order they are found. Greedy peeling may fall
    short of the theoretical maximum packing; both ends of a comparison run
    the same procedure, so signatures still agree.
    """
    remaining = set(g.edges)
    found: list[ControlFlowGraph] = []
    while True:
        arb = find_arborescence(g, frozenset(remaining))
        if arb is None:
            break
        found.append(arb)
        remaining -= arb.edges
        if not arb.edges:  # single-node graph: one empty arborescence
            break
    return tuple(found)


def enumerate_all_arborescences(g: ControlFlowGraph) -> list[ControlFlowGraph]:
    """Exhaustively enumerate every spanning arborescence (test oracle).

    Chooses one incoming edge per non-root node and keeps combinations that
    are connected from the root, in canonical-string order. Refuses when the
    choice product exceeds ENUMERATION_BUDGET.
    """
    others = sorted(g.nodes - {g.entry})
    incoming = {
        n: sorted(e for e in g.edges if e[1] == n and e[0] != n) for n in others
    }
    budget = 1
    for n in others:
        budget *= len(incoming[n])
        if budget > ENUMERATION_BUDGET:
            raise TooLargeError(
                f"in-degree product exceeds {ENUMERATION_BUDGET}; oracle refused"
            )
    if budget == 0:
        return []

    result: list[ControlFlowGraph] = []
    for combo in itertools.product(*(incoming[n] for n in others)):
        edges = frozenset(combo)
        if reachable_from(g.entry, edges) == g.nodes:
            result.append(ControlFlowGraph(g.nodes, edges, g.entry))
    result.sort(key=canonical)
    return result


def max_edge_disjoint_packing(g: ControlFlowGraph) -> int:
    """Maximum pairwise edge-disjoint subset of the enumeration (test oracle)."""
    arbs = enumerate_all_arborescences(g)
    if not arbs:
        return 0
    per_arb = max(len(g.nodes) - 1, 1)
    # each arborescence consumes one incoming edge of every non-root node,
    # so the minimum in-degree caps the packing alongside the edge budget
    indeg = {n: 0 for n in g.nodes}
    for src, dst in g.edges:
        if src != dst:
            indeg[dst] += 1
    min_indeg = min((indeg[n] for n in g.nodes if n != g.entry), default=1)
    cap = max(min(len(g.edges) // per_arb, min_indeg), 1)
    edge_sets = [a.edges for a in arbs]
    best = 0

    def search(idx: int, used: frozenset[Edge], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if best >= cap:
            return
        for i in range(idx, len(edge_sets)):
            # bound: even taking every remaining candidate cannot beat best
            if count + (len(edge_sets) - i) <= best:
                return
            if not (edge_sets[i] & used):
                search(i + 1, used | edge_sets[i], count + 1)

    search(0, frozenset(), 0)
    return best
