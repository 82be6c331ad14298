"""Golden signatures: the digests of every fixture under every algorithm.

`tests/golden/signatures.txt` holds one line per input and algorithm,
`<repo-relative path> <alg> <digests>`, the digests joined by commas. It is
the signing contract in bytes, so it changes only on purpose: a change that
alters what a signature hashes regenerates it and says so. To regenerate:

    PYTHONPATH=src python -m tests.test_golden_signatures > tests/golden/signatures.txt
"""

from __future__ import annotations

from pathlib import Path

from cfsig import HashAlgorithm, build_signature, load_graph, peel_edge_disjoint

REPO = Path(__file__).resolve().parent.parent
GOLDEN_SIGNATURES = REPO / "tests" / "golden" / "signatures.txt"
INPUTS = ["fixtures/*.dot", "fixtures/*.graphml", "fixtures/bench/*.dot"]


def signature_lines() -> list[str]:
    lines = []
    for pattern in INPUTS:
        for path in sorted(REPO.glob(pattern)):
            trees = peel_edge_disjoint(load_graph(path))
            name = path.relative_to(REPO).as_posix()
            for alg in HashAlgorithm:
                sig = build_signature(trees, alg, path.stem)
                lines.append(f"{name} {alg.value} {','.join(sig.digests)}")
    return lines


def test_signatures_match_golden():
    want = GOLDEN_SIGNATURES.read_text(encoding="ascii").splitlines()
    assert len(want) == 84
    assert signature_lines() == want


if __name__ == "__main__":
    print("\n".join(signature_lines()))
