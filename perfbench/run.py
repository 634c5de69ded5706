"""Benchmark for twinfield-qka: simulate, plan and keyrate through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this single process for about S seconds of whole
rounds of operations, checks every output against an independent
computation, and prints one JSON line: whether the outputs were correct,
operations attempted and failed, and the metrics listed in BENCHMARK.json
(end-to-end ones with --trace 0, per-layer ones with --trace 1).  The
traced run also writes its spans to perfbench/out/.  See README.md.
"""

import os

# Must precede the first numpy import: one BLAS/OpenMP thread, so that the
# single-threaded program does not share the two cores with idle pool threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from oracle import Mismatch
from spans import TRACED, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import twinfield_qka.cli as cli
    import twinfield_qka.keyrate as keyrate

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"twinfield_qka imported from {cli.__file__}, not from {src}")
    return SimpleNamespace(cli=cli, keyrate=keyrate)


def set_up(workload_name, seed):
    """Import, generate the inputs and run the warm-up operations untimed."""
    workload = WORKLOADS[workload_name](load_program(), seed)
    for op in workload.warmup():
        try:
            op.run()
        except Exception:  # the measured rounds run the same code and count it
            pass
    return workload


def probe_setup(argv):
    """Median wall time of fresh processes that only set up (import to warm)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms.
        subprocess.run([sys.executable, __file__, *argv, "--setup-only"], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, seconds, tracer):
    """Whole rounds until `seconds` have passed; only op.run is timed.

    best[j] is the fastest time of the round's j-th operation over all
    rounds.  On a shared host the speed of the same work drifts, by up to
    half over stretches of seconds, so the fastest of many repeats is the
    steady estimate of what the work costs; a mean or a median mixes in
    the drift.
    """
    stats = {"attempted": 0, "failed": 0, "correct": True, "busy_s": 0.0,
             "rounds": 0, "errors": []}
    best, items, kinds = [], [], []
    t_start = time.perf_counter()
    while stats["rounds"] == 0 or time.perf_counter() - t_start < seconds:
        for j, op in enumerate(workload.round()):
            if j == len(best):
                best.append(math.inf)
                items.append(op.items)
                kinds.append(op.kind)
            stats["attempted"] += 1
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(f"bench.{op.kind}", op.run) if tracer else op.run()
            except Exception as exc:  # the program crashed or exited non-zero
                stats["busy_s"] += time.perf_counter() - t0
                stats["failed"] += 1
                stats["errors"].append(f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            stats["busy_s"] += dt
            try:
                op.check(out)
            except (Mismatch, KeyError, ValueError, TypeError) as exc:
                stats["failed"] += 1
                stats["correct"] = False
                stats["errors"].append(f"check: {type(exc).__name__}: {exc}")
                continue
            best[j] = min(best[j], dt)
        stats["rounds"] += 1
        if stats["rounds"] == 1:
            # A CLI user runs one operation per process.  Later rounds can
            # raise the high-water mark through heap reuse that differs
            # from seed to seed, not through the operation's own needs.
            stats["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats["wall_s"] = time.perf_counter() - t_start
    done = [j for j, t in enumerate(best) if t < math.inf]
    stats["items"] = sum(items[j] for j in done)
    stats["best_s"] = sum(best[j] for j in done)
    stats["cli_best_ms"] = [best[j] * 1e3 for j in done if kinds[j] == "cli"]
    return stats


def per_layer(tracer, stats, workload):
    totals = tracer.totals()
    ops = max(stats["attempted"], 1)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    values = {f"{name}.self_s": 0.0 for _, _, name in TRACED}
    values.update({f"{name}.self_s": own / ops for name, (_, _, own) in totals.items()})
    for name in ("keyrate.asymptotic_rate", "keyrate.symmetric_rate",
                 "simulation.session_result_to_dict"):
        values[f"{name}.calls"] = calls(name) / ops
    counts = tracer.counts
    pulses = counts["pulses"]
    sessions = calls("simulation.run_session")
    networks = calls("network.PartyGraph.from_json")
    values.update({
        "simulation.ns_per_pulse": total_s("simulation.run_session") / pulses * 1e9 if pulses else 0.0,
        "simulation.conclusive_per_pulse": counts["conclusive"] / (2 * pulses) if pulses else 0.0,
        "simulation.sifted_bits": counts["sifted_bits"] / sessions if sessions else 0.0,
        "network.parties": counts["parties"] / networks if networks else 0.0,
        "network.candidate_edges": counts["candidate_edges"] / networks if networks else 0.0,
        "network.segments": counts["segments"] / max(calls("network.segment_tree"), 1),
        "keyrate.us_per_point": (stats["best_s"] / stats["items"] * 1e6
                                 if workload.item == "rate point" and stats["items"] else 0.0),
        "trace.items_per_s": stats["items"] / stats["best_s"] if stats["best_s"] else 0.0,
        "trace.spans_per_op": len(tracer.start) / ops,
    })
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.setup_only:
            set_up(args.workload, args.seed)
            return 0
        setup_s = None if args.trace else probe_setup(sys.argv[1:])
        workload = set_up(args.workload, args.seed)
    except (ImportError, OSError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot set up {args.workload!r}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install("twinfield_qka")
    stats = measure(workload, args.seconds, tracer)

    if tracer:
        values = per_layer(tracer, stats, workload)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        cli_ms = stats["cli_best_ms"]
        values = {
            "setup_s": setup_s,
            "items_per_s": stats["items"] / stats["best_s"] if stats["best_s"] else 0.0,
            "op_p50_ms": statistics.median(cli_ms) if cli_ms else 0.0,
            "peak_rss_mb": stats["rss_mb"],
        }
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for err in stats["errors"][:5]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {stats['rounds']} rounds, "
          f"{stats['attempted']} ops, {stats['items']} {workload.item}s per round in "
          f"{stats['best_s']:.4f} s best; {stats['busy_s']:.2f} s busy, "
          f"{stats['wall_s']:.2f} s wall", file=sys.stderr)
    print(json.dumps({"correct": stats["correct"], "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
