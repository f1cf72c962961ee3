#!/usr/bin/env python3
"""Runs every workload over several seeds and summarises the results.

    python3 chainbench/sweep.py [--workloads ref-ig,wide-cr] [--seeds 1-10]
                                [--seconds 60] [--traced-seed 1]

For each workload, one untraced run.py invocation per seed, one after
the other, then one traced invocation.  Prints every end-to-end metric
with its unit, median, quartiles and spread (interquartile distance over
median), the operations attempted and failed, the per-layer metrics of
the traced run and the tracing overhead: the traced run's chain time
minus the median chain time of the untraced runs.  The full summary is
written to .chainbench/sweep.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def invoke(workload, seed, seconds, traced):
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return env, json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="ref-ig,wide-cr")
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--traced-seed", type=int, default=1)
    args = parser.parse_args()

    summary = {}
    for name in args.workloads.split(","):
        runs = [invoke(name, s, args.seconds, False) for s in args.seeds]
        env, traced = invoke(name, args.traced_seed, args.seconds, True)
        e2e = {k: dict(summarise([r["metrics"][k]["value"] for _, r in runs]),
                       unit=runs[0][1]["metrics"][k]["unit"])
               for k in runs[0][1]["metrics"]}
        layers = traced["metrics"]
        overhead = layers["trace.total_s"]["value"] - e2e["total_s"]["median"]
        summary[name] = {
            "end_to_end": e2e,
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "correct": all(r["correct"] for _, r in runs) and traced["correct"],
            "per_layer": layers,
            "trace_overhead_s": overhead,
            "env": {k: env[k] for k in ("python", "numpy", "blas", "threads",
                                         "nproc", "affinity",
                                         "probe_checkpoint_sha256")},
            "seeds": args.seeds,
        }
        print(f"== {name}  (seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{args.seconds:g} s each)")
        for k, s in e2e.items():
            print(f"  {k:<24} median {s['median']:>12.6g} {s['unit']:<10} "
                  f"q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  "
                  f"spread {s['spread']:.3f}")
        print(f"  operations attempted {sum(summary[name]['attempted'])}, "
              f"failed {sum(summary[name]['failed'])}, correct "
              f"{summary[name]['correct']}")
        print(f"  traced run, seed {args.traced_seed}:")
        for k, m in layers.items():
            print(f"    {k:<36} {m['value']:>14.6g} {m['unit']}")
        print(f"  tracing overhead {overhead:.3f} s "
              f"({overhead / e2e['total_s']['median']:.1%} of total_s)")
        print(f"  probe checkpoint sha256 {env['probe_checkpoint_sha256']}")
        sys.stdout.flush()
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "sweep.json").write_text(json.dumps(summary, indent=2) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
