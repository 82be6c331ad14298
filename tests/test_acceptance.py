"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cfsig import (
    Cipher,
    ClusterConfig,
    HashAlgorithm,
    Mutation,
    Scenario,
    build_signature,
    decrypt,
    encrypt,
    mutate,
    parse_dot,
    peel_edge_disjoint,
    run_cluster_scenario,
)
from cfsig.errors import CfsigError
from cfsig.matcher import match_cost

from .conftest import FIXTURES, GOLDEN, enumerate_all_arborescences, fixture_graphs, generate_synthetic
from .test_matcher import single_edge_mutations

ALL_FIXTURES = sorted(FIXTURES.glob("*.dot")) + sorted((FIXTURES / "bench").glob("*.dot"))


def report(name: str) -> None:
    print(f"\nACCEPTANCE PASS: {name}")


def test_fig2_reproduction(diamond):
    start = time.perf_counter()
    arbs = enumerate_all_arborescences(diamond)
    assert [sorted(a.edges) for a in arbs] == [
        [("B1", "B2"), ("B1", "B3"), ("B2", "B4")],
        [("B1", "B2"), ("B1", "B3"), ("B3", "B4")],
    ]
    assert len(peel_edge_disjoint(diamond)) == 1
    assert time.perf_counter() - start < 1.0
    report("Fig. 2 reproduction: 2 enumerated arborescences, 1 peeled")


def test_oracle_equivalence_on_random_corpus():
    start = time.perf_counter()
    rng = random.Random(20260826)
    checked = 0
    for i in range(220):
        n = rng.randint(1, 8)
        g = generate_synthetic(n, rng.random() * 0.5, seed=31337 + i)
        peeled = peel_edge_disjoint(g)
        assert len(peeled) == 1
        assert peeled[0] in enumerate_all_arborescences(g)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 200
    assert elapsed < 60.0
    report(f"oracle equivalence on {checked} random CFGs in {elapsed:.1f}s, 0 violations")


def test_signing_determinism_across_processes(tmp_path):
    # The subprocess does not see pytest's pythonpath setting, so src/ goes on its PYTHONPATH.
    paths = [str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    diffs = 0
    for fixture in ALL_FIXTURES:
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{fixture.stem}.{run}.sig"
            proc = subprocess.run(
                [sys.executable, "-m", "cfsig", "sign", str(fixture), "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            diffs += 1
    assert diffs == 0
    report(f"determinism: {len(ALL_FIXTURES)} fixtures signed twice in separate processes, 0 diffs")


def test_transcript_determinism_across_hash_seeds(tmp_path):
    # Each run sees one string-hash seed; only separate processes can see two.
    paths = [str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    (tmp_path / "diamond.dot").write_bytes((FIXTURES / "diamond.dot").read_bytes())
    scenarios = {
        "clean": ("n=3\n", 0),
        "tamper": ("n=3\ntamper=1:RemoveEdge:B2>B4\n", 2),
        "dead": ("n=4\ntamper=1:RemoveEdge:B2>B4\ndead=3\n", 2),
    }
    for name, (text, code) in scenarios.items():
        scn = tmp_path / f"{name}.scn"
        scn.write_text(text + "fixture=diamond.dot\n")
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"{name}.{seed}.transcript"
            proc = subprocess.run(
                [sys.executable, "-m", "cfsig", "simulate", str(scn), "--transcript", str(out)],
                capture_output=True,
                text=True,
                env={**env, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == code, (name, proc.stderr)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
    report(f"determinism: {len(scenarios)} scenarios simulated at PYTHONHASHSEED=0 and 1, 0 diffs")


def test_single_tamper_detection_soundness():
    rng = random.Random(7)
    detected = 0
    evasions = 0
    needed = 50
    config = ClusterConfig(n=3)
    i = 0
    while detected < needed and i < 500:
        g = generate_synthetic(rng.randint(4, 7), rng.random() * 0.4, seed=52000 + i)
        i += 1
        base = build_signature(peel_edge_disjoint(g), HashAlgorithm.MD5, "p")
        for m in single_edge_mutations(g):
            try:
                mutated = mutate(g, m)
            except CfsigError:
                continue
            changed = build_signature(peel_edge_disjoint(mutated), HashAlgorithm.MD5, "p")
            if changed.digests == base.digests:
                evasions += 1  # published count; the method's blind spot
                continue
            node = rng.randrange(3)
            result = run_cluster_scenario(config, Scenario("p", g, tamper=(node, m)))
            assert result.consensus.verdict.kind == "IntrusionAt", (m, node)
            assert result.consensus.verdict.nodes == {node}, (m, node)
            detected += 1
            if detected >= needed:
                break
    assert detected >= needed
    report(
        f"detection soundness: {detected}/{detected} signature-changing tampers "
        f"isolated at the tampered node; {evasions} evasion cases logged"
    )


@pytest.mark.parametrize("n", [2, 3, 5])
def test_no_tamper_specificity(n):
    for name, g in fixture_graphs():
        result = run_cluster_scenario(ClusterConfig(n=n), Scenario(name, g))
        assert result.consensus.verdict.kind == "Clean", (name, n)
    report(f"no-tamper specificity: 0 false alarms over all fixtures at n={n}")


def test_crypto_round_trip_all_ciphers():
    rng = random.Random(1234)
    sigs = [
        build_signature(peel_edge_disjoint(g), HashAlgorithm.MD5, name)
        for name, g in fixture_graphs()
    ]
    failures = 0
    for cipher in Cipher:
        if cipher is Cipher.SHIFT_BYTE:
            keys = [rng.randint(1, 255) for _ in range(100)]
        else:
            keys = [rng.randrange(2**64) for _ in range(100)]
        for key in keys:
            for sig in sigs:
                if decrypt(encrypt(sig, cipher, key), key) != sig:
                    failures += 1
    assert failures == 0
    report(
        f"crypto round-trip: {len(sigs)} fixtures x 100 keys x {len(list(Cipher))} ciphers, 0 failures"
    )


def test_matcher_complexity_bound():
    sigs = [
        build_signature(peel_edge_disjoint(parse_dot(p.read_text())), HashAlgorithm.MD5, p.stem)
        for p in ALL_FIXTURES
    ]
    pairs = 0
    for a in sigs:
        for b in sigs:
            assert match_cost(a, b) <= len(a.digests) + len(b.digests)
            pairs += 1
    report(f"complexity bound: comparisons <= s1+s2 on all {pairs} corpus pairs")


def test_overhead_report_shape(tmp_path, capsys):
    import csv

    from cfsig.cli import main

    refs = tmp_path / "refs.txt"
    refs.write_text(
        "\n".join(f"{p.stem}={6.988 + i}" for i, p in enumerate(sorted((FIXTURES / 'bench').glob('*.dot'))))
    )
    csv_path = tmp_path / "report.csv"
    code = main(
        ["bench", str(FIXTURES / "bench"), "--reference", str(refs), "--csv", str(csv_path)]
    )
    capsys.readouterr()
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 17 and rows[-1]["label"] == "average"
    for row in rows:
        sign_ms, round_ms, total = (float(row[c]) for c in ("sign_ms", "round_ms", "total_ms"))
        assert min(sign_ms, round_ms, total) > 0
        assert total == pytest.approx(sign_ms + round_ms, abs=2e-3)  # three cells rounded to .3f
    overheads = [float(row["overhead_percent"]) for row in rows]
    for row, overhead in zip(rows[:-1], overheads):
        total = float(row["total_ms"])
        # three significant digits (.3g) of a ratio whose total_ms cell is rounded to .3f
        assert overhead == pytest.approx(
            total / 1000 / float(row["reference_exec_s"]) * 100, rel=5e-3 + 5e-4 / total
        ), row["label"]
    # the average of the rows' ratios, each cell rounded to .3g
    assert overheads[-1] == pytest.approx(sum(overheads[:-1]) / 16, rel=1e-2)
    report(
        "overhead report shape: 16-row Table-style report, arithmetic invariants hold;"
        f" {rows[-1]['total_ms']} ms per job on average"
    )


def test_transcript_golden_files(diamond):
    cases = [
        ("n3_diamond_clean.transcript", None),
        ("n3_diamond_tamper1.transcript", (1, Mutation.parse("RemoveEdge:B2>B4"))),
    ]
    for golden_name, tamper in cases:
        golden = (GOLDEN / golden_name).read_text()
        result = run_cluster_scenario(
            ClusterConfig(n=3), Scenario("diamond", diamond, tamper=tamper)
        )
        assert result.transcript_text() == golden, golden_name
    report("transcript golden tests: byte-identical to the golden files")
