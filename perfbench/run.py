"""normgcd benchmark: ext_gcd throughput, one-shot CLI latency, layer timings.

Usage:
    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is lib-small, lib-large, cli-oneshot, or all (each in turn, in
its own process).  Inputs are a pure function of (workload, seed).  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
records spans around each layer and reports the per-layer metrics.  Every
output is checked; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics, and the exit code
is 1 if any check failed.  Summaries and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

START = time.perf_counter()

import measure  # noqa: E402
import program  # noqa: E402
import workloads  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _run_all(args) -> int:
    """Each workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {w} printed no result (exit code {r.returncode})",
                  file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    try:
        prog = program.load_program()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_in_process = time.perf_counter() - START
    env = measure.child_env()
    timer_ns = measure.timer_overhead_ns()
    spans = None
    counts_repeat = True
    raw = {}
    if args.trace:
        metrics, tallies, spans, counts_repeat = measure.run_layers(
            prog, inputs, args.seconds, timer_ns, env)
    else:
        probes = measure.Tally("setup", None)
        setup = measure.setup_probes(args.workload, args.seed, env, probes)
        if args.workload == "cli-oneshot":
            metrics, raw, tallies = measure.run_cli(inputs, args.seconds, env)
        else:
            metrics, raw, tallies = measure.run_lib(prog, inputs, args.seconds, timer_ns)
        tallies.append(probes)
        metrics["setup_s"] = measure.Metric(
            statistics.median(setup) if setup else 0.0, "s", len(setup))

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0 and counts_repeat
    env_record = measure.environment(timer_ns)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env_record))
    for name, m in {**metrics, **raw}.items():
        print(f"{name} {m.value:.6g} {m.unit} (n={m.n})")
    if args.workload == "cli-oneshot" and not args.trace:
        for q in ("p50", "p90"):
            print(f"cli_{q}_ms {metrics[f'pair_{q}_us'].value / 1e3:.6g} ms "
                  f"(n={metrics[f'pair_{q}_us'].n})")
    if not args.trace:
        print(f"setup_in_process_s {setup_in_process:.6g} s (n=1)")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    if not counts_repeat:
        print("FAIL exact counts differ from an earlier run of the same source and seed")
    for t in tallies:
        for problem in t.problems:
            print(f"FAIL {t.name}: {problem}")

    os.makedirs(measure.OUT_DIR, exist_ok=True)
    stem = os.path.join(measure.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record, "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": {k: vars(m) for k, m in metrics.items()},
        "uncalibrated": {k: vars(m) for k, m in raw.items()},
        "problems": {t.name: t.problems for t in tallies if t.problems},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if spans is not None:
        spans.write(os.path.join(measure.OUT_DIR, f"{args.workload}.spans.jsonl.gz"),
                    {"workload": args.workload, "seed": args.seed, "env": env_record})

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
