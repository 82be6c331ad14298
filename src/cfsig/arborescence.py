"""Spanning arborescence extraction over validated CFGs.

A spanning arborescence is a `ControlFlowGraph` whose entry is its root and
whose edges, drawn from one CFG, give every other node exactly one parent.
With every edge weighing 1 a spanning arborescence is automatically minimum,
so extraction reduces to deterministic rooted BFS with lexicographic parent
selection.
"""

from __future__ import annotations

from .cfg import ControlFlowGraph, Edge, _declared_graph, bfs_tree


def find_arborescence(
    g: ControlFlowGraph, available: frozenset[Edge] | None = None
) -> ControlFlowGraph | None:
    """Deterministic BFS spanning arborescence from entry, or None.

    Nodes are reached layer by layer, and each newly reached node keeps the
    lexicographically smallest (src, dst) parent edge from the layer above,
    so the whole search is O(V+E). *available*, a subset of ``g.edges``,
    limits the edges the search may use; None means all of them, and then
    the tree is the graph's cached ``bfs_parents``. Returns None when some
    node is unreachable using only the available edges.
    """
    parents = g.bfs_parents if available is None else bfs_tree(g, available)
    if len(parents) != len(g.nodes):
        return None
    edges = frozenset((src, dst) for dst, src in parents.items() if src is not None)
    return _declared_graph(g.nodes, edges, g.entry)  # g's nodes and some of its edges


def peel_edge_disjoint(g: ControlFlowGraph) -> tuple[ControlFlowGraph, ...]:
    """Greedily peel edge-disjoint spanning arborescences off the graph.

    Repeatedly extracts the deterministic BFS arborescence from the edges
    still unused and removes its edges, until the remainder no longer spans.
    The trees come in the order they are found. Greedy peeling may fall
    short of the theoretical maximum packing; both ends of a comparison run
    the same procedure, so signatures still agree.
    """
    found: list[ControlFlowGraph] = []
    available = None
    while (arb := find_arborescence(g, available)) is not None:
        found.append(arb)
        if not arb.edges:  # single-node graph: one empty arborescence
            break
        available = (g.edges if available is None else available) - arb.edges
    return tuple(found)
