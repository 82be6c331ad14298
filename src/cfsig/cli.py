"""Command-line front end: sign, match, simulate, bench, oracle.

Exit codes are a stable contract: 0 match/clean/success, 1 bad input,
2 mismatch, 3 bad signature file, 4 scenario error, 5 empty corpus.
The subcommands raise; `main` alone turns an error into an `error:` line
and an exit code.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from . import cfg as cfg_mod
from .arborescence import (
    enumerate_all_arborescences,
    max_edge_disjoint_packing,
    peel_edge_disjoint,
)
from .errors import CfsigError, InvalidKeyError, ScenarioError
from .matcher import Outcome, match_signatures
from .replica import ClusterConfig, Scenario, parse_scenario_file, run_cluster_scenario
from .signature import (
    Cipher,
    HashAlgorithm,
    _check_key,
    build_signature,
    decrypt,
    encrypt,
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
    sig = build_signature(peel_edge_disjoint(graph), HashAlgorithm(args.alg.upper()), path.stem)
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


def _bench_fixture(path: Path, algorithm: HashAlgorithm, cipher: Cipher, key: int) -> dict:
    t = time.perf_counter()
    graph = cfg_mod.load_graph(path)
    arbs = peel_edge_disjoint(graph)
    cfg_to_msa_s = time.perf_counter() - t

    t = time.perf_counter()
    sig = build_signature(arbs, algorithm, path.stem)
    hashing_s = time.perf_counter() - t

    t = time.perf_counter()
    remote = decrypt(encrypt(sig, cipher, key), key)
    match_signatures(sig, remote)
    matching_s = time.perf_counter() - t

    config = ClusterConfig(n=3, algorithm=algorithm, cipher=cipher, key=key)
    result = run_cluster_scenario(config, Scenario(path.stem, graph))
    consensus_s = result.phase_seconds["vote"] + result.phase_seconds["tally"]

    profiling_s = cfg_to_msa_s + hashing_s
    return {
        "label": path.stem,
        "profiling_s": profiling_s,
        "cfg_to_msa_s": cfg_to_msa_s,
        "hashing_s": hashing_s,
        "matching_s": matching_s,
        "consensus_s": consensus_s,
        "proposed_total_s": profiling_s + matching_s + consensus_s,
    }


CSV_COLUMNS = [
    "label",
    "profiling_s",
    "cfg_to_msa_s",
    "hashing_s",
    "matching_s",
    "consensus_s",
    "proposed_total_s",
    "reference_exec_s",
    "overhead_percent",
]


def _read_reference_times(path: Path) -> dict[str, float]:
    refs: dict[str, float] = {}
    for lineno, raw in enumerate(cfg_mod.read_utf8(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, _, value = line.partition("=")
        try:
            refs[label.strip()] = float(value)
        except ValueError:
            raise CfsigError(f"{path}:{lineno}: bad reference time {value.strip()!r}") from None
    return refs


def cmd_bench(args) -> int:
    cipher = Cipher(args.cipher)
    try:
        _check_key(cipher, args.key)
    except InvalidKeyError as exc:
        raise CfsigError(f"--key: {exc}") from exc
    corpus = Path(args.corpus)
    fixtures = sorted(
        p for p in corpus.glob("*") if p.suffix in (".dot", ".graphml")
    )
    if not fixtures:
        print(f"error: no .dot/.graphml fixtures in {corpus}", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
    refs = _read_reference_times(Path(args.reference)) if args.reference else {}

    algorithm = HashAlgorithm(args.alg.upper())
    rows = []
    for path in fixtures:
        try:
            row = _bench_fixture(path, algorithm, cipher, args.key)
        except (CfsigError, OSError) as exc:  # a ScenarioError here is still bad input
            raise CfsigError(f"{path.name}: {exc}") from exc
        ref = refs.get(row["label"])
        if ref is not None:
            row["reference_exec_s"] = ref
            row["overhead_percent"] = row["proposed_total_s"] / ref * 100.0
        rows.append(row)

    numeric = [c for c in CSV_COLUMNS if c != "label"]
    avg = {"label": "average"}
    for col in numeric:
        values = [r[col] for r in rows if col in r]
        if len(values) == len(rows):
            avg[col] = sum(values) / len(values)

    def fmt(row: dict, col: str) -> str:
        if col not in row:
            return ""
        if col == "label":
            return row[col]
        if col == "overhead_percent":
            return f"{row[col]:.2f}"
        return f"{row[col]:.4f}"

    widths = {c: max(len(c), *(len(fmt(r, c)) for r in rows + [avg])) for c in CSV_COLUMNS}
    header = "  ".join(c.ljust(widths[c]) for c in CSV_COLUMNS)
    print(header)
    print("-" * len(header))
    for row in rows + [avg]:
        print("  ".join(fmt(row, c).ljust(widths[c]) for c in CSV_COLUMNS))
    print(
        "note: consensus_s covers vote exchange and tally of one n=3 in-process round;"
        " overhead_percent = proposed_total_s / reference_exec_s * 100"
    )

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in rows + [avg]:
                writer.writerow({c: fmt(row, c) for c in CSV_COLUMNS})
    return EXIT_OK


def cmd_oracle(args) -> int:
    graph = cfg_mod.load_graph(args.input)
    enumerated = enumerate_all_arborescences(graph)
    packing = max_edge_disjoint_packing(graph)
    peeled = peel_edge_disjoint(graph)
    enumerated_strings = {a.canonical() for a in enumerated}
    contained = all(a.canonical() in enumerated_strings for a in peeled)
    print(f"enumerated: {len(enumerated)}")
    print(f"max_packing: {packing}")
    print(f"peeled: {len(peeled)}")
    print(f"peel_in_enumeration: {contained}")
    print(f"peel_within_packing: {len(peeled) <= packing}")
    return EXIT_OK if contained and len(peeled) <= packing else EXIT_BAD_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfsig",
        description="Control-flow process signatures and replica-cluster tamper detection",
    )
    # Each option lives only on the subcommands that read it.
    alg = argparse.ArgumentParser(add_help=False)
    alg.add_argument("--alg", default="MD5", choices=["MD5", "SHA1", "SHA256", "md5", "sha1", "sha256"])
    crypto = argparse.ArgumentParser(add_help=False)
    crypto.add_argument("--key", type=int, default=7)
    crypto.add_argument("--cipher", default="ShiftByte", choices=[c.value for c in Cipher])
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

    p = sub.add_parser("bench", parents=[alg, crypto], help="per-phase timing report over a fixture corpus")
    p.add_argument("corpus")
    p.add_argument("--reference", help="file of label=<exec seconds> lines")
    p.add_argument("--csv", help="write machine-readable report here")
    p.set_defaults(func=cmd_bench, error_exit=EXIT_BAD_INPUT)

    p = sub.add_parser("oracle", help="exhaustive arborescence checks on one fixture")
    p.add_argument("input")
    p.set_defaults(func=cmd_oracle, error_exit=EXIT_BAD_INPUT)
    return parser


# The subcommands that take each option, named when the option comes first.
OPTION_HOMES = {"--alg": "'sign' or 'bench'", "--cipher": "'bench'", "--key": "'bench'"}


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
