"""Command-line front end: sign, match, simulate, bench.

Exit codes are a stable contract: 0 match/clean/success, 1 bad input,
2 mismatch, 3 bad signature file, 4 scenario error, 5 empty corpus.
The subcommands raise; `main` alone turns an error into an `error:` line
and an exit code.
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
import time
from pathlib import Path

from . import cfg as cfg_mod
from .arborescence import peel_edge_disjoint
from .errors import CfsigError, ScenarioError
from .matcher import Outcome, match_signatures
from .replica import ClusterConfig, Scenario, parse_scenario_file, run_cluster_scenario
from .signature import (
    HashAlgorithm,
    build_signature,
    parse_signature,
    serialize_signature,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2
EXIT_BAD_SIGFILE = 3
EXIT_SCENARIO = 4
EXIT_EMPTY_CORPUS = 5


def cmd_sign(args) -> int:
    path = Path(args.input)
    graph = cfg_mod.load_graph(path, prune=args.prune_unreachable)
    sig = build_signature(peel_edge_disjoint(graph), HashAlgorithm(args.alg), path.stem)
    out = Path(args.out) if args.out else path.with_suffix(".sig")
    out.write_bytes(serialize_signature(sig))
    print(f"digests: {len(sig.digests)}")
    return EXIT_OK


def cmd_match(args) -> int:
    a, b = (parse_signature(Path(name).read_bytes()) for name in (args.sig_a, args.sig_b))
    verdict = match_signatures(a, b)
    print(verdict)
    return EXIT_OK if verdict.outcome is Outcome.MATCH else EXIT_MISMATCH


def cmd_simulate(args) -> int:
    config, scenario = parse_scenario_file(args.scenario)
    result = run_cluster_scenario(config, scenario)
    out = Path(args.transcript or Path(args.scenario).with_suffix(".transcript"))
    out.write_text(result.transcript_text())
    print(result.consensus.verdict)
    return EXIT_OK if result.consensus.verdict.kind == "Clean" else EXIT_MISMATCH


# Each bench timing is the median of this many runs: a single shot also times
# one-off warm-up (the first fixture's read 2-3x the rest) and host noise.
BENCH_REPEATS = 5


def _median_ms(step) -> float:
    """Median wall time of *step* in ms, with garbage collection on as in a job (timeit turns it off)."""
    times = []
    for _ in range(BENCH_REPEATS):
        t = time.perf_counter()
        step()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1000


def _bench_fixture(path: Path, config: ClusterConfig) -> dict:
    """Time what the technique adds to a job: one sign (as `cfsig sign`, minus the write) and one round."""
    scenario = Scenario(path.stem, cfg_mod.load_graph(path))
    sign_ms = _median_ms(
        lambda: build_signature(peel_edge_disjoint(cfg_mod.load_graph(path)), config.algorithm, path.stem)
    )
    round_ms = _median_ms(lambda: run_cluster_scenario(config, scenario))
    return {"label": path.stem, "sign_ms": sign_ms, "round_ms": round_ms, "total_ms": sign_ms + round_ms}


CSV_COLUMNS = ["label", "sign_ms", "round_ms", "total_ms", "reference_exec_s", "overhead_percent"]
CELL_FORMATS = {"label": "", "reference_exec_s": ".4f", "overhead_percent": ".3g"}


def _read_reference_times(path: Path, labels: set[str]) -> dict[str, float]:
    refs: dict[str, float] = {}
    for lineno, raw in enumerate(cfg_mod.read_utf8(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, _, value = line.partition("=")
        label = label.strip()
        if label in refs:
            raise CfsigError(f"{path}:{lineno}: repeated label {label!r}")
        if label not in labels:
            raise CfsigError(f"{path}:{lineno}: unknown label {label!r}")
        try:
            seconds = float(value)
        except ValueError:
            seconds = math.nan
        if not 0 < seconds < math.inf:  # also rejects nan, which fails every comparison
            raise CfsigError(f"{path}:{lineno}: bad reference time {value.strip()!r}")
        refs[label] = seconds
    return refs


def cmd_bench(args) -> int:
    config = ClusterConfig(n=3, algorithm=HashAlgorithm(args.alg))
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise CfsigError(f"corpus {corpus} is not a directory")
    fixtures = sorted(
        p for p in corpus.glob("*") if p.suffix in (".dot", ".graphml")
    )
    if not fixtures:
        print(f"error: no .dot/.graphml fixtures in {corpus}", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
    by_label: dict[str, Path] = {}
    for path in fixtures:  # a row is known by its label, so one label must name one file
        if by_label.setdefault(path.stem, path) is not path:
            raise CfsigError(f"{by_label[path.stem].name} and {path.name} share the label {path.stem!r}")
    refs = _read_reference_times(Path(args.reference), set(by_label)) if args.reference else {}

    rows = []
    for path in fixtures:
        try:
            row = _bench_fixture(path, config)
        except (CfsigError, OSError) as exc:  # a ScenarioError here is still bad input
            raise CfsigError(f"{path.name}: {exc}") from exc
        ref = refs.get(row["label"])
        if ref is not None:
            row["reference_exec_s"] = ref
            row["overhead_percent"] = row["total_ms"] / 1000 / ref * 100
        rows.append(row)

    avg = {c: sum(r[c] for r in rows) / len(rows) for c in CSV_COLUMNS[1:] if all(c in r for r in rows)}
    avg["label"] = "average"

    grid = [CSV_COLUMNS] + [
        [format(row[c], CELL_FORMATS.get(c, ".3f")) if c in row else "" for c in CSV_COLUMNS]
        for row in rows + [avg]
    ]
    widths = [max(map(len, column)) for column in zip(*grid)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in grid]
    print(lines[0])
    print("-" * len(lines[0]))
    print(*lines[1:], sep="\n")
    print(
        f"note: median of {BENCH_REPEATS} runs; sign_ms = load + peel + sign, round_ms = one clean n=3"
        f" in-process round ({config.cipher.value}, key {config.key});"
        " overhead_percent = total_ms / 1000 / reference_exec_s * 100"
    )

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(grid)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfsig",
        description="Control-flow process signatures and replica-cluster tamper detection",
    )
    # Each option lives only on the subcommands that read it.
    alg = argparse.ArgumentParser(add_help=False)
    alg.add_argument("--alg", default="MD5", type=str.upper, choices=[a.value for a in HashAlgorithm])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sign", parents=[alg], help="derive a signature file from a CFG export")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--prune-unreachable", action="store_true")
    p.set_defaults(func=cmd_sign, error_exit=EXIT_BAD_INPUT)

    p = sub.add_parser("match", help="compare two signature files")
    p.add_argument("sig_a")
    p.add_argument("sig_b")
    p.set_defaults(func=cmd_match, error_exit=EXIT_BAD_SIGFILE)

    p = sub.add_parser("simulate", help="run a replica-cluster scenario")
    p.add_argument("scenario")
    p.add_argument("--transcript")
    p.set_defaults(func=cmd_simulate, error_exit=EXIT_BAD_INPUT)

    p = sub.add_parser("bench", parents=[alg], help="sign and round timing report over a fixture corpus")
    p.add_argument("corpus")
    p.add_argument("--reference", help="file of label=<exec seconds> lines")
    p.add_argument("--csv", help="write machine-readable report here")
    p.set_defaults(func=cmd_bench, error_exit=EXIT_BAD_INPUT)
    return parser


# The subcommands that take each option, named when the option comes first.
OPTION_HOMES = {"--alg": "'sign' or 'bench'"}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        first = argv[0].partition("=")[0] if argv else ""
        if first in OPTION_HOMES:
            parser.error(f"{first} belongs after {OPTION_HOMES[first]}")
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, but 2 means mismatch here
        return EXIT_BAD_INPUT if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except (CfsigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO if isinstance(exc, ScenarioError) else args.error_exit


if __name__ == "__main__":
    raise SystemExit(main())
