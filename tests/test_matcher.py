from __future__ import annotations

import random

from cfsig import (
    HashAlgorithm,
    Mutation,
    MutationKind,
    Outcome,
    build_signature,
    match_signatures,
    mutate,
    peel_edge_disjoint,
)
from cfsig.errors import CfsigError
from cfsig.matcher import DetailKind, match_cost
from cfsig.signature import ProcessSignature

from .conftest import fixture_graphs, generate_synthetic


def sign(graph, alg=HashAlgorithm.MD5, label="x"):
    return build_signature(peel_edge_disjoint(graph), alg, label)


def single_edge_mutations(graph):
    """Every applicable AddEdge/RemoveEdge/RedirectEdge on the graph."""
    muts = []
    nodes = sorted(graph.nodes)
    for u in nodes:
        for v in nodes:
            if u != v and (u, v) not in graph.edges:
                muts.append(Mutation(MutationKind.ADD_EDGE, (u, v)))
    for src, dst in sorted(graph.edges):
        muts.append(Mutation(MutationKind.REMOVE_EDGE, (src, dst)))
        for v in nodes:
            if v != dst and (src, v) not in graph.edges:
                muts.append(Mutation(MutationKind.REDIRECT_EDGE, (src, dst, v)))
    return muts


def mutation_pairs(max_graphs=40, seed=5):
    """(original, mutated) signature pairs over a synthetic corpus."""
    rng = random.Random(seed)
    pairs = []
    for i in range(max_graphs):
        g = generate_synthetic(rng.randint(3, 7), rng.random() * 0.4, 7000 + i)
        base = sign(g)
        for m in single_edge_mutations(g):
            try:
                mutated = mutate(g, m)
            except CfsigError:
                continue
            pairs.append((g, m, base, sign(mutated)))
    return pairs


class TestMatch:
    def test_identical_signatures(self, diamond):
        a, b = sign(diamond), sign(diamond)
        v = match_signatures(a, b)
        assert v.outcome is Outcome.MATCH and v.detail is DetailKind.EQUAL

    def test_detects_differing_peel(self, diamond):
        mutated = mutate(diamond, Mutation.parse("RemoveEdge:B2>B4"))
        v = match_signatures(sign(diamond), sign(mutated))
        assert v.outcome is Outcome.MISMATCH
        assert v.detail is DetailKind.MISSING_DIGEST

    def test_size_differ(self):
        a = ProcessSignature(HashAlgorithm.MD5, ("a" * 32, "b" * 32), "x")
        b = ProcessSignature(HashAlgorithm.MD5, ("a" * 32,), "x")
        v = match_signatures(a, b)
        assert v.outcome is Outcome.MISMATCH and v.detail is DetailKind.SIZE_DIFFER

    def test_algorithm_differ(self, diamond):
        v = match_signatures(sign(diamond, HashAlgorithm.MD5), sign(diamond, HashAlgorithm.SHA1))
        assert v.detail is DetailKind.ALGORITHM_DIFFER

    def test_reflexive_on_fixtures(self):
        for name, g in fixture_graphs():
            s = sign(g)
            assert match_signatures(s, s).outcome is Outcome.MATCH, name

    def test_symmetric_outcome(self):
        pairs = mutation_pairs(max_graphs=10)
        for _, _, a, b in pairs:
            assert match_signatures(a, b).outcome is match_signatures(b, a).outcome

    def test_soundness_and_evasions_on_corpus(self):
        pairs = mutation_pairs()
        evasions = 0
        for g, m, base, mutated_sig in pairs:
            v = match_signatures(base, mutated_sig)
            if base.digests == mutated_sig.digests:
                # evasion: tamper left the peeled set unchanged -- the
                # method's documented blind spot
                assert v.outcome is Outcome.MATCH
                evasions += 1
            else:
                assert v.outcome is Outcome.MISMATCH
        assert pairs
        print(f"\nevasion cases: {evasions} of {len(pairs)} mutation pairs")


class TestCost:
    def test_single_digest_pair(self, diamond):
        s = sign(diamond)
        assert match_cost(s, s) <= 2

    def test_equal_k_digest_signatures(self):
        digests = tuple(sorted(f"{i:032x}" for i in range(5)))
        s = ProcessSignature(HashAlgorithm.MD5, digests, "x")
        assert match_cost(s, s) <= 2 * len(digests)

    def test_bounds_on_corpus(self):
        sigs = [sign(g, label=name) for name, g in fixture_graphs()]
        for a in sigs:
            for b in sigs:
                cost = match_cost(a, b)
                s1, s2 = len(a.digests), len(b.digests)
                assert cost <= s1 + s2
                if s1 >= 2 and s2 >= 2:
                    assert cost <= s1 * s2
