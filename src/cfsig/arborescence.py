"""Spanning arborescence extraction over validated CFGs.

A spanning arborescence is a `ControlFlowGraph` whose entry is its root and
whose edges, drawn from one CFG, give every other node exactly one parent.
With every edge weighing 1 a spanning arborescence is automatically minimum,
so extraction reduces to deterministic rooted BFS with lexicographic parent
selection.
"""

from __future__ import annotations

from .cfg import BlockId, ControlFlowGraph, Edge, successor_index


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

