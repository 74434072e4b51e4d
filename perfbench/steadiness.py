"""Steadiness check: two sets of benchmark runs of the same code.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --trace

It runs every workload in BENCHMARK.json. Every run uses a seed of its
own; the two sets alternate run by run so that drift in the machine's
load hits both. For each workload and end-to-end metric it prints both
sets' medians and quartiles, the spread (Q3 - Q1) / median of each set,
and whether the sets agree within the metric's bound from
BENCHMARK.json: the two medians apart by no more than the bound,
whichever of them is the better, and each set's spread within the
bound. ``setup_s`` is held to the medians test only: ``oecd_embodied``
sets up once per run, an 18 s write that cannot be repeated within the
run's time budget, so its spread carries the machine's run-to-run drift
in full; the bound on ``setup_s`` guards its median.

With ``--trace`` it also makes one traced run per workload, with the
first seed, and prints the largest per-layer self times and the tracing
overhead: the traced run's median operation wall time minus the
untraced median of both sets. The last line of output is the whole
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def bench_run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2, "values": values}


def worse_by(metric, first, second):
    """Relative change of the second median, positive when worse."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs per set")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: ([], []) for w in names}
    failed = 0
    for i in range(args.runs):
        for s in (0, 1):
            for workload in names:
                seed = args.first_seed + s * args.runs + i
                result = bench_run(spec, workload, seed, 0)
                failed += result["failed"]
                results[workload][s].append(result)
                print(f"set {s + 1} run {i + 1} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in result["metrics"].items()),
                      flush=True)

    summary = {"runs_per_set": args.runs, "failed_operations": failed,
               "workloads": {}}
    all_agree = failed == 0
    for workload in names:
        rows = summary["workloads"][workload] = {}
        print(f"\n{workload}")
        for metric in metrics:
            name = metric["name"]
            sets = [summarize([r["metrics"][name]["value"] for r in runs])
                    for runs in results[workload]]
            change = worse_by(metric, sets[0]["median"], sets[1]["median"])
            spreads_ok = name == "setup_s" or all(
                s["spread"] <= metric["bound"] for s in sets)
            agree = spreads_ok and abs(change) <= metric["bound"]
            all_agree = all_agree and agree
            rows[name] = {"unit": metric["unit"], "bound": metric["bound"],
                          "sets": sets, "second_worse_by": change,
                          "agree": agree}
            print(f"  {name:12s} " + "  ".join(
                f"set{k + 1} median {s['median']:.4g} [{s['q1']:.4g}, "
                f"{s['q3']:.4g}] spread {s['spread']:.3f}"
                for k, s in enumerate(sets))
                + f"  worse by {change:+.3f}  bound {metric['bound']}"
                f"  {'agree' if agree else 'DISAGREE'}")

    if args.trace:
        print("\ntraced runs")
        for workload in names:
            traced = bench_run(spec, workload, args.first_seed, 1)["metrics"]
            untraced = statistics.median(
                r["metrics"]["wall_s"]["value"]
                for runs in results[workload] for r in runs)
            self_times = sorted(
                ((m["value"], name) for name, m in traced.items()
                 if m["unit"] == "s" and name.endswith("_s")
                 and not name.startswith(("trace.", "ingest.save_icio"))),
                reverse=True)
            overhead = traced["trace.wall_s"]["value"] - untraced
            summary["workloads"][workload]["traced"] = {
                "per_layer": traced, "overhead_s": overhead}
            top = ", ".join(f"{name} {value:.3g} s"
                            for value, name in self_times[:4])
            print(f"  {workload}: largest self times {top}; overhead "
                  f"{overhead:+.3f} s on an untraced median of {untraced:.3f} s")

    summary["agree"] = all_agree
    print(json.dumps(summary))
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
