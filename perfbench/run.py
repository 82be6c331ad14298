"""cfsig benchmark: seeded sign and replica-round workloads.

Run one workload, or every workload one after another:

    python3 perfbench/run.py --workload sign-wide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

A run starts worker processes one after another, so one operation is in
flight at a time. Each worker imports the program from this checkout's
``src/``, builds its inputs from the seed, warms up (together: the set-up
time), then measures its share of ``--seconds``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics: end-to-end with ``--trace 0``, per layer with ``--trace 1``. The
end-to-end times are scaled to a nominal host speed (``calibrate.py``). The
lines before it print the same figures by name, with units, sample counts
and the wall-clock times. The exit code is non-zero when any output check
failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import calibrate
from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

WORKERS = 5  # set-up is measured once per worker; setup_s is their median
MAX_WORKERS = 64
WORKER_TIMEOUT_S = 150
SPAN_CAP = 100_000  # spans one traced worker keeps in memory

# A percentile is reported only with at least TAIL_SAMPLES samples beyond
# it; with MIN_SAMPLES samples that holds for p90.
TAIL_SAMPLES = 10
MIN_SAMPLES = 100

# Per-layer spans, in pipeline order; each yields <name>.calls and <name>.self_ms.
LAYERS = [
    "cfg.parse_dot",
    "cfg.parse_graphml",
    "cfg.validate_cfg",
    "cfg.serialize_dot",
    "cfg.mutate",
    "arborescence.peel_edge_disjoint",
    "arborescence.find_arborescence",
    "signature.build_signature",
    "signature.encrypt",
    "signature.decrypt",
    "matcher.match_signatures",
    "replica.run_profiling",
    "replica.frame_encode",
    "replica.decode_frame",
    "replica.handle_envelope",
    "replica.conclude_round",
    "replica.transport_send",
    "replica.transport_drain",
]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q at or below it.

    Raises ValueError when fewer than TAIL_SAMPLES samples lie beyond it,
    because such a percentile would rest on a handful of outliers.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    rank = math.ceil(q * len(samples))
    if len(samples) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} needs {TAIL_SAMPLES} samples beyond it; "
            f"{len(samples)} samples leave {len(samples) - rank}"
        )
    return sorted(samples)[rank - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def worker_main(args) -> None:
    """Set up one workload, measure it, print one JSON line of raw results."""
    calibrator = calibrate.Calibrator()
    call_before = calibrator.call_ns(0)  # fills the window
    t0 = time.perf_counter_ns()
    sys.path.insert(0, str(SRC))
    import cfsig
    import workloads
    from spans import Tracer, layer_totals

    if not Path(cfsig.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cfsig was imported from {cfsig.__file__}, not from {SRC}")
    workload = workloads.make_workload(args.workload, args.seed)
    warm = workloads.Tally()
    workloads.run_cycles(workload, math.inf, warm, 1)
    if warm.failed:
        raise SystemExit("warm-up failed: " + "; ".join(warm.problems))
    setup_ns = time.perf_counter_ns() - t0
    call_after = calibrator.call_ns(setup_ns)
    out = {"setup_ns": setup_ns, "setup_call_ns": (call_before + call_after) / 2}

    if args.trace:
        tracer = Tracer(SPAN_CAP)
        untraced, traced = workloads.run_alternating(workload, args.seconds, tracer)
        out["traced"] = asdict(traced)
        out["layers"] = layer_totals(tracer)
        out["counts"] = tracer.counts
        with open(args.spans, "a") as fh:
            fh.write(json.dumps({"worker": args.index, "spans": len(tracer)}) + "\n")
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    else:
        untraced = workloads.Tally()
        workloads.run_cycles(workload, args.seconds, untraced, workload.max_cycles,
                             calibrator=calibrator)
    if args.index == 0:
        workload.one_off_checks(untraced)
    out["untraced"] = asdict(untraced)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def spawn_worker(name: str, seed: int, seconds: float, trace: int, index: int,
                 spans: Path) -> dict:
    cmd = [
        sys.executable, "-B", str(Path(__file__).resolve()), "--worker",
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--index", str(index), "--spans", str(spans),
    ]
    # A fixed hash seed keeps set iteration order, and with it the work an
    # operation does, the same in every worker.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-5:]
        raise SystemExit(f"{name}: worker {index} exited with {proc.returncode}: " + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Run workers until --seconds are measured and MIN_SAMPLES ops sampled.

    A traced run stops after WORKERS workers, because a worker whose tracer
    is full ends before its share of the time. A failed check also ends the
    run, since its result is then wrong anyway.
    """
    spans = SPAN_DIR / f"{name}.spans.jsonl"
    if trace:
        SPAN_DIR.mkdir(exist_ok=True)
        spans.write_text("")
    results: list[dict] = []
    measured_ns = samples = failed = 0
    while not failed and (len(results) < WORKERS or samples < MIN_SAMPLES
                          or (not trace and measured_ns < seconds * 1e9)):
        if len(results) == MAX_WORKERS:
            raise SystemExit(f"{name}: {MAX_WORKERS} workers sampled only {samples} operations")
        out = spawn_worker(name, seed, seconds / WORKERS, trace, len(results), spans)
        results.append(out)
        for key in ("untraced", "traced"):
            if key in out:
                measured_ns += out[key]["loop_ns"]
                samples += len(out[key]["latencies_ns"])
                failed += out[key]["failed"]
    return results


def merged(results: list[dict], key: str) -> dict:
    tallies = [r[key] for r in results]
    return {
        "latencies_ns": [x for t in tallies for x in t["latencies_ns"]],
        "call_ns": [x for t in tallies for x in t["call_ns"]],
        **{f: sum(t[f] for t in tallies) for f in ("attempted", "failed", "edges", "threads_leaked")},
        "problems": [p for t in tallies for p in t["problems"]],
    }


def end_to_end(name: str, results: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and the same figures under their workload names."""
    run = merged(results, "untraced")
    lat = run["latencies_ns"]
    n = len(lat)
    if n < MIN_SAMPLES:
        raise SystemExit(f"{name}: {run['failed']} operations failed; "
                         f"only {n} succeeded, {MIN_SAMPLES} are needed")
    # Timings are scaled to the nominal host (see calibrate.py); the wall-clock
    # figures are printed beside them.
    scaled = [calibrate.scaled(x, c) for x, c in zip(lat, run["call_ns"], strict=True)]
    p50, p90 = percentile(scaled, 0.5) / 1e6, percentile(scaled, 0.9) / 1e6
    busy_s = sum(scaled) / 1e9
    rate = n / busy_s
    setups = [calibrate.scaled(r["setup_ns"], r["setup_call_ns"]) / 1e9 for r in results]
    setup = statistics.median(setups)
    rss = max(r["rss_kb"] for r in results) / 1024
    metrics = {
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ops_per_s": (rate, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    kind = WORKLOADS[name]["kind"]
    wall_setup = statistics.median(r["setup_ns"] for r in results) / 1e9
    lines = [
        f"setup_s = {setup:.4f} s (median of {len(results)} worker set-ups; wall clock {wall_setup:.4f} s)",
        f"{kind}_p50_ms = {p50:.4f} ms (n={n}; wall clock {percentile(lat, 0.5) / 1e6:.4f} ms)",
        f"{kind}_p90_ms = {p90:.4f} ms (n={n}; wall clock {percentile(lat, 0.9) / 1e6:.4f} ms)",
    ]
    if kind == "sign":
        lines.append(f"sign_edges_per_s = {run['edges'] / busy_s:.1f} edges/s (n={n})")
    else:
        lines.append(f"rounds_per_s = {rate:.3f} rounds/s (n={n})")
    lines.append(f"reference call = {statistics.median(run['call_ns']) / 1e6:.4f} ms wall clock "
                 f"(median of {n}; {calibrate.NOMINAL_NS / 1e6:g} ms on the nominal host)")
    lines.append(f"error_rate = {ratio(run['failed'], run['attempted']):.6f} "
                 f"({run['failed']} failed of {run['attempted']} attempted)")
    lines.append(f"peak_rss_mb = {rss:.2f} MB (max of {len(results)} workers)")
    if kind == "round":
        lines.append(
            f"threads_leaked_per_round = {ratio(run['threads_leaked'], run['attempted']):.3f} "
            f"threads (n={run['attempted']})"
            + ("  [known defect: SocketTransport.close() leaves its accept() threads blocked]"
               if run["threads_leaked"] else "")
        )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(results: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced halves, per traced operation."""
    plain, traced = merged(results, "untraced"), merged(results, "traced")
    ops = len(traced["latencies_ns"])
    layers: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for r in results:
        for layer, (calls, self_ns) in r["layers"].items():
            entry = layers.setdefault(layer, [0, 0])
            entry[0] += calls
            entry[1] += self_ns
        for key, value in r["counts"].items():
            counts[key] = counts.get(key, 0) + value
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls, self_ns = layers.get(layer, (0, 0))
        metrics[f"{layer}.calls"] = (ratio(calls, ops), "calls/op")
        metrics[f"{layer}.self_ms"] = (ratio(self_ns, ops) / 1e6, "ms/op")

    def calls(layer: str) -> int:
        return layers.get(layer, (0, 0))[0]

    def mean(lat: list[int]) -> float:
        return ratio(sum(lat), len(lat))

    rounds = calls("replica.round")
    metrics.update({
        "replica.round.self_ms": (ratio(layers.get("replica.round", (0, 0))[1], ops) / 1e6, "ms/op"),
        "arborescence.useful_ratio": (
            ratio(counts.get("arborescence.found", 0), calls("arborescence.find_arborescence")), "ratio"),
        "signature.digests_per_sign": (
            ratio(counts.get("signature.digests", 0), calls("signature.build_signature")), "digests"),
        "signature.bytes_per_round": (ratio(counts.get("signature.bytes", 0), rounds), "bytes"),
        "matcher.comparisons_per_match": (
            ratio(counts.get("matcher.comparisons", 0), calls("matcher.match_signatures")), "comparisons"),
        "matcher.mismatch_share": (
            ratio(counts.get("matcher.mismatches", 0), calls("matcher.match_signatures")), "ratio"),
        "replica.frames_per_round": (ratio(counts.get("replica.frames", 0), rounds), "frames"),
        "replica.bytes_per_round": (ratio(counts.get("replica.bytes", 0), rounds), "bytes"),
        "replica.threads_leaked_per_round": (
            ratio(plain["threads_leaked"] + traced["threads_leaked"],
                  plain["attempted"] + traced["attempted"]), "threads"),
        "trace.overhead_pct": (
            (ratio(mean(traced["latencies_ns"]), mean(plain["latencies_ns"])) - 1) * 100, "%"),
    })
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"(per-layer figures over {ops} traced operations; spans in {SPAN_DIR.name}/)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def report(name: str, results: list[dict], trace: int) -> bool:
    keys = ("untraced", "traced") if trace else ("untraced",)
    attempted = sum(r[k]["attempted"] for r in results for k in keys)
    failed = sum(r[k]["failed"] for r in results for k in keys)
    for r in results:
        for k in keys:
            for problem in r[k]["problems"]:
                print(f"{name}  check failed: {problem}")
    metrics, lines = per_layer(results) if trace else end_to_end(name, results)
    for line in lines:
        print(f"{name}  {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spans", default=str(SPAN_DIR / "spans.jsonl"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker_main(args)
        return 0
    if not (SRC / "cfsig" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'cfsig'} is missing")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        results = run_workload(name, args.seed, args.seconds, args.trace)
        ok = report(name, results, args.trace) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
