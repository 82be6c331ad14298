from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig import ControlFlowGraph, find_arborescence, parse_dot, peel_edge_disjoint, serialize_dot, validate_cfg

from .conftest import enumerate_all_arborescences, fixture_graphs, generate_synthetic, reachable_from


def check_arborescence(tree):
    """Assert that *tree* is a spanning arborescence rooted at its entry."""
    assert len(tree.edges) == len(tree.nodes) - 1
    indeg = {n: 0 for n in tree.nodes}
    for _, dst in tree.edges:
        indeg[dst] += 1
    assert indeg[tree.entry] == 0
    assert all(indeg[n] == 1 for n in tree.nodes if n != tree.entry)
    assert reachable_from(tree.entry, tree.edges) == tree.nodes


def assert_one_tree_in_enumeration(g, name=""):
    """The peel of a valid CFG is exactly one tree, and an enumerated one: for
    V >= 2 the first BFS tree takes every out-edge of the entry."""
    peeled = peel_edge_disjoint(g)
    assert len(peeled) == 1, name
    assert peeled[0] in enumerate_all_arborescences(g), name


def reference_find_arborescence(g, available=None):
    """The layer-rescanning BFS, kept as the reference: at each layer every
    unreached destination takes its smallest parent edge from that layer."""
    if available is None:
        available = g.edges
    by_dst = {}
    for edge in available:
        by_dst.setdefault(edge[1], []).append(edge)

    reached = {g.entry}
    layer = [g.entry]
    chosen = set()
    while layer:
        layer_set = set(layer)
        newly = []
        for dst in sorted(set(by_dst) - reached):
            candidates = [e for e in by_dst[dst] if e[0] in layer_set]
            if candidates:
                chosen.add(min(candidates))
                newly.append(dst)
        reached.update(newly)
        layer = newly
    if reached != set(g.nodes):
        return None
    return ControlFlowGraph(g.nodes, frozenset(chosen), g.entry)


def assert_matches_reference_warm_and_cold(g, available):
    """find_arborescence agrees with the reference on a copy of *g* whose
    cached successors and BFS tree are already filled and on a fresh one."""
    want = reference_find_arborescence(g, available)
    warm = ControlFlowGraph(g.nodes, g.edges, g.entry)
    validate_cfg(warm)
    peel_edge_disjoint(warm)
    assert "bfs_parents" in vars(warm) and "successors" in vars(warm)
    assert find_arborescence(warm, available) == want
    cold = ControlFlowGraph(g.nodes, g.edges, g.entry)
    assert find_arborescence(cold, available) == want


@st.composite
def graphs_with_available(draw):
    """A random graph (self-loops and cycles allowed, any entry) and either
    None or a random subset of its edges."""
    n = draw(st.integers(min_value=1, max_value=9))
    names = [f"B{i}" for i in range(n)]
    pairs = [(a, b) for a in names for b in names]
    edges = frozenset(draw(st.sets(st.sampled_from(pairs), max_size=30)))
    g = ControlFlowGraph(frozenset(names), edges, draw(st.sampled_from(names)))
    available = None
    if edges and draw(st.booleans()):
        available = frozenset(draw(st.sets(st.sampled_from(sorted(edges)))))
    return g, available


def spanning_tree_count_by_growth(graph) -> int:
    """Independent oracle: count spanning arborescences by growing edge sets
    outward from the root, deduplicating complete trees."""
    found: set[frozenset] = set()

    def grow(reached: frozenset, edges: frozenset):
        if reached == graph.nodes:
            found.add(edges)
            return
        for src, dst in graph.edges:
            if src in reached and dst not in reached:
                grow(reached | {dst}, edges | {(src, dst)})

    grow(frozenset({graph.entry}), frozenset())
    return len(found)


class TestFindArborescence:
    def test_diamond_lexicographic_parent(self, diamond):
        arb = find_arborescence(diamond)
        assert arb.edges == {("B1", "B2"), ("B1", "B3"), ("B2", "B4")}

    def test_single_node(self):
        g = parse_dot("digraph g { B1; }")
        arb = find_arborescence(g)
        assert arb.edges == frozenset() and arb.entry == "B1"

    def test_debug_dot_export_round_trips(self, diamond):
        arb = find_arborescence(diamond)
        assert parse_dot(serialize_dot(arb)) == arb

    def test_not_spanning(self, diamond):
        assert find_arborescence(diamond, frozenset({("B1", "B2"), ("B2", "B4")})) is None

    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.0, max_value=0.6),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_on_synthetic(self, n, density, seed):
        g = generate_synthetic(n, density, seed)
        arb = find_arborescence(g)
        assert arb is not None
        check_arborescence(arb)
        assert arb.edges <= g.edges

    @given(graphs_with_available())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_random_graphs(self, case):
        assert_matches_reference_warm_and_cold(*case)

    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.0, max_value=0.8),
        st.integers(min_value=0, max_value=2**32),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_synthetic_subsets(self, n, density, seed, rnd):
        g = generate_synthetic(n, density, seed)
        for available in (None, frozenset(e for e in g.edges if rnd.random() < 0.7)):
            assert_matches_reference_warm_and_cold(g, available)

    def test_matches_reference_on_fixtures(self):
        for name, g in fixture_graphs():
            assert find_arborescence(g) == reference_find_arborescence(g), name


class TestPeel:
    def test_diamond_yields_one(self, diamond):
        peeled = peel_edge_disjoint(diamond)
        assert len(peeled) == 1
        assert peeled[0].edges == {("B1", "B2"), ("B1", "B3"), ("B2", "B4")}

    def test_fanout_within_packing_bound(self, fixtures_dir):
        g = parse_dot((fixtures_dir / "fanout.dot").read_text())
        assert_one_tree_in_enumeration(g)

    def test_single_node_convention(self):
        g = parse_dot("digraph g { B1; }")
        peeled = peel_edge_disjoint(g)
        assert len(peeled) == 1 and peeled[0].edges == frozenset()

    def test_pairwise_disjoint_and_deterministic(self):
        g = generate_synthetic(8, 0.5, seed=11)
        a = peel_edge_disjoint(g)
        b = peel_edge_disjoint(g)
        assert a == b
        items = list(a)
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                assert not (items[i].edges & items[j].edges)


class TestEnumerate:
    def test_diamond_has_two(self, diamond):
        arbs = enumerate_all_arborescences(diamond)
        assert [sorted(a.edges) for a in arbs] == [
            [("B1", "B2"), ("B1", "B3"), ("B2", "B4")],
            [("B1", "B2"), ("B1", "B3"), ("B3", "B4")],
        ]

    def test_single_node(self):
        g = parse_dot("digraph g { B1; }")
        assert len(enumerate_all_arborescences(g)) == 1

    def test_complete_3_matches_independent_count(self, fixtures_dir):
        g = parse_dot((fixtures_dir / "triangle.dot").read_text())
        arbs = enumerate_all_arborescences(g)
        assert len(arbs) == 3  # frozen from the growth oracle below
        assert len(arbs) == spanning_tree_count_by_growth(g)

    def test_growth_oracle_agrees_on_fixtures(self):
        for name, g in fixture_graphs():
            assert len(enumerate_all_arborescences(g)) == spanning_tree_count_by_growth(g), name

    def test_unit_weight_minimality(self):
        for name, g in fixture_graphs():
            for arb in enumerate_all_arborescences(g):
                assert len(arb.edges) == len(g.nodes) - 1, name

    def test_too_large_guard(self):
        g = generate_synthetic(14, 1.0, seed=1)  # complete digraph: 13^13 choices
        with pytest.raises(ValueError, match="oracle refused"):
            enumerate_all_arborescences(g)


class TestPacking:
    def test_peel_in_enumeration_and_bounded(self):
        for name, g in fixture_graphs():
            assert_one_tree_in_enumeration(g, name)
