#!/usr/bin/env python3
"""Benchmark of the fiqlab CLI chain synth -> train -> score -> erc.

    python3 chainbench/run.py --workload ref-ig --seed 1 --seconds 60 --trace 0

Run from the root of a source tree: the program is imported from
``src/`` and nothing is installed.  One invocation runs one workload
(see workloads.py) as a single closed-loop process: whole rounds of the
four commands, in-process through ``fiqlab.cli.main``, until the next
round would overrun ``--seconds``; a workload may run score and erc more
than once a round.  Each command run is one operation; it
fails on a non-zero exit code or when its outputs fail a check from
checks.py.  Before the rounds a pinned replay probe runs a tiny chain
twice and requires byte-identical outputs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
the medians over the rounds.  With ``--trace 1`` the rounds are traced and the
last line reports per-layer self times and counts (spans.py), and the
traced chain time ``trace.total_s``; its excess over the untraced
``total_s`` is the tracing overhead (sweep.py reports it).  The BLAS/OpenMP
thread environment is inherited as it is and recorded.  Outputs go to
``.chainbench/`` at the root; spans of traced runs stay there as
``spans.npz``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".chainbench"
OPS = ("synth", "train", "score", "erc")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "score_samples_per_s": "samples/s",
    "erc_pairs_per_s": "pairs/s",
    "total_s": "s",
    "peak_rss_mib": "MiB",
}


def import_program():
    src = ROOT / "src"
    if not (src / "fiqlab" / "__init__.py").is_file():
        raise SystemExit(f"chainbench: no fiqlab sources under {src}; run "
                         "from the root of a fiqlab source tree")
    sys.path.insert(0, str(src))
    import fiqlab
    from fiqlab import cli
    if Path(fiqlab.__file__).resolve().parent != (src / "fiqlab").resolve():
        raise SystemExit(f"chainbench: imported fiqlab from {fiqlab.__file__}, "
                         f"not from {src}")
    return cli


def write_cfg(path, fields):
    path.write_text("".join(f"{k}={v}\n" for k, v in fields.items()),
                    encoding="utf-8")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Chain:
    """Runs CLI commands in-process; the tracer, if any, records only
    while a command runs, never while the checks run."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer

    def call(self, argv):
        """Returns (seconds, error message or None)."""
        out = io.StringIO()
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            out.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        if code != 0:
            return seconds, f"exit {code}: {argv[0]}: {out.getvalue()[-400:]}"
        return seconds, None


class CheckWorker:
    """checks.py as a child process that runs the checks, so that their
    memory does not count in this process's peak RSS, which measures the
    program.  It gets one BLAS thread: idle BLAS threads spin, and its
    spinning would compete with the timed commands on a small machine.
    Leaving the ``with`` block, on any path, closes its stdin and waits
    for it to end."""

    def __enter__(self):
        env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "checks.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __call__(self, fn, *args):
        pickle.dump((fn.__name__, args), self.proc.stdin)
        self.proc.stdin.flush()
        try:
            reply = pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError("the check worker exited") from None
        if reply is not None:
            raise checks.CheckFailed(reply)

    def __exit__(self, *exc):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def expected_pairs(wl):
    ds = wl.datasets[wl.eval_set]
    k = ds["samples_per_class"]
    mated = ds["num_classes"] * min(k * (k - 1) // 2, wl.erc["max_per_class"])
    return mated + wl.erc["nonmated"]


def run_round(chain, check, wl, seeds, rdir):
    """One pass of the four commands, each followed by its check, which
    ``check(fn, *args)`` runs; score and erc run ``wl.eval_repeats`` times.
    Every run of a command is one operation.  Returns {op: [seconds of
    each run that passed]}, which stops at the first failure, and the
    failure messages."""
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir(parents=True)
    cfgs = {}
    for name, fields in wl.datasets.items():
        cfgs[name] = dict(fields, seed=seeds[name])
        write_cfg(rdir / f"synth-{name}.cfg", cfgs[name])
    write_cfg(rdir / "train.cfg", dict(wl.train, seed=seeds["train"]))
    data = {name: rdir / name / "ds.bin" for name in wl.datasets}
    ckpt = rdir / "run" / "checkpoint.bin"
    scores = rdir / "score" / "scores.csv"
    erc = wl.erc
    steps = [
        ("synth",
         [["synth", "--config", rdir / f"synth-{n}.cfg", "--out", p]
          for n, p in data.items()],
         [(checks.check_synth, p, cfgs[n], rdir) for n, p in data.items()]),
        ("train",
         [["train", "--config", rdir / "train.cfg", "--dataset",
           data[wl.train_set], "--out", rdir / "run", "--variant",
           wl.variant]],
         [(checks.check_train, rdir / "run", data[wl.train_set],
           wl.train["epochs"], wl.train["batch_size"])]),
        ("score",
         [["score", "--checkpoint", ckpt, "--dataset", data[wl.eval_set],
           "--out", scores]],
         [(checks.check_score, scores, ckpt, data[wl.eval_set])]),
        ("erc",
         [["erc", "--checkpoint", ckpt, "--dataset", data[wl.eval_set],
           "--scores", scores, "--fmr", erc["fmr"], "--max-per-class",
           erc["max_per_class"], "--nonmated", erc["nonmated"],
           "--seed", seeds["pairs"], "--out", rdir / "erc"]],
         [(checks.check_erc, rdir / "erc", ckpt, data[wl.eval_set], scores,
           erc["fmr"], erc["max_per_class"], erc["nonmated"])]),
    ]
    times = {op: [] for op in OPS}
    failures = []
    for op, commands, op_checks in steps:
        for _ in range(runs_per_round(wl, op)):
            seconds = 0.0
            for argv in commands:
                dt, err = chain.call(argv)
                seconds += dt
                if err is not None:
                    failures.append(f"{op}: {err}")
                    return times, failures
            try:
                for fn, *args in op_checks:
                    check(fn, *args)
            except Exception as exc:  # an unreadable output fails its check too
                failures.append(
                    f"{op}: check failed: {type(exc).__name__}: {exc}")
                return times, failures
            times[op].append(seconds)
    return times, failures


def runs_per_round(wl, op):
    return wl.eval_repeats if op in ("score", "erc") else 1


def chain_seconds(wl, times):
    """One pass of the chain in a round: synth and train, plus the median
    of the round's score and erc runs; None if the round did not end."""
    if any(len(times[op]) != runs_per_round(wl, op) for op in OPS):
        return None
    return sum(statistics.median(times[op]) for op in OPS)


def replay_probe(chain, pdir):
    """Run the pinned criterion-9-size chain twice.  Returns (checkpoint
    sha256, whether every output file is byte-identical)."""
    digests = []
    for side in ("a", "b"):
        root = pdir / side
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        write_cfg(root / "synth.cfg", workloads.PROBE_SYNTH)
        write_cfg(root / "train.cfg", workloads.PROBE_TRAIN)
        ckpt = root / "run" / "checkpoint.bin"
        for argv in (
                ["synth", "--config", root / "synth.cfg",
                 "--out", root / "data" / "ds.bin"],
                ["train", "--config", root / "train.cfg", "--dataset",
                 root / "data" / "ds.bin", "--out", root / "run",
                 "--variant", "ig"],
                ["score", "--checkpoint", ckpt, "--dataset",
                 root / "data" / "ds.bin", "--out",
                 root / "score" / "scores.csv"],
                ["erc", "--checkpoint", ckpt, "--dataset",
                 root / "data" / "ds.bin", "--scores",
                 root / "score" / "scores.csv", *workloads.PROBE_ERC,
                 "--out", root / "erc"]):
            _, err = chain.call(argv)
            if err is not None:
                print(f"probe: {err}", file=sys.stderr)
                return None, False
        # manifests record wall-clock times and paths, so they differ
        digests.append({str(p.relative_to(root)): sha256(p)
                        for p in sorted(root.rglob("*"))
                        if p.is_file() and p.name != "manifest.json"
                        and p.suffix != ".cfg"})
    return sha256(pdir / "a" / "run" / "checkpoint.bin"), digests[0] == digests[1]


def environment(args, wl, seeds):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy builds without a BLAS record
        deps = {}
    blas = {k: deps.get(k) for k in ("name", "version",
                                     "openblas configuration")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": wl.name,
        "seed": args.seed,
        "program_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(wl, rounds):
    def rate(op, work):
        values = [work / dt for t in rounds for dt in t[op]]
        return statistics.median(values) if values else None

    per_epoch = (wl.datasets[wl.train_set]["num_classes"]
                 * wl.datasets[wl.train_set]["samples_per_class"]
                 // wl.train["batch_size"] * wl.train["batch_size"])
    ev = wl.datasets[wl.eval_set]
    values = {
        "setup_s": median_or_none(dt for t in rounds for dt in t["synth"]),
        "train_samples_per_s": rate("train", per_epoch * wl.train["epochs"]),
        "score_samples_per_s": rate("score", ev["num_classes"]
                                    * ev["samples_per_class"]),
        "erc_pairs_per_s": rate("erc", expected_pairs(wl)),
        "total_s": median_or_none(chain_seconds(wl, t) for t in rounds),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def per_layer(tracer, wl, rounds):
    by_round = tracer.per_round()
    metrics, repeat = {}, True
    for name in spans.metric_names():
        seen = [by_round.get(r, {}).get(name, 0) for r in range(len(rounds))]
        if name.endswith("_s"):
            value, unit = statistics.median(seen), "s"
        else:
            value, unit = seen[0], "count"
            repeat = repeat and len(set(seen)) == 1
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.total_s"] = {
        "value": median_or_none(chain_seconds(wl, t) for t in rounds),
        "unit": "s"}
    return metrics, repeat


class Terminated(BaseException):
    """SIGTERM, raised past the handlers of Chain.call, which catch the
    program's own SystemExit, so that a terminated run leaves through the
    with block that stops the check worker."""


def terminate(signum, frame):
    raise Terminated


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, terminate)

    cli = import_program()
    wl = workloads.WORKLOADS[args.workload]
    seeds = wl.seeds(args.seed)
    rdir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(rdir, ignore_errors=True)
    env = environment(args, wl, seeds)

    chain = Chain(cli)
    digest, identical = replay_probe(chain, rdir / "probe")
    print(f"probe checkpoint sha256 {digest} "
          f"({'replays byte-identically' if identical else 'REPLAY DIFFERS'})")
    env["probe_checkpoint_sha256"] = digest
    env["probe_replay_identical"] = identical

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        chain = Chain(cli, tracer)

    with CheckWorker() as check:
        check(checks.expect, True, "")  # worker started and imported
        rounds, failures, check_s = [], [], []
        started = time.perf_counter()
        longest = 0.0
        while True:
            gc.collect()
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.round = len(rounds)
            times, failed = run_round(chain, check, wl, seeds, rdir / "round")
            wall = time.perf_counter() - t0
            rounds.append(times)
            failures += failed
            check_s.append(wall - sum(map(sum, times.values())))
            longest = max(longest, wall)
            if time.perf_counter() - started + longest > args.seconds:
                break

    attempted = sum(runs_per_round(wl, op) for op in OPS) * len(rounds)
    failed = attempted - sum(len(v) for t in rounds for v in t.values())
    for msg in failures[:5]:
        print(f"FAILED {msg}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(wl, rounds)
        repeat = True
    else:
        metrics, repeat = per_layer(tracer, wl, rounds)
        tracer.save(rdir / "spans.npz")
    env.update(rounds=len(rounds), attempted=attempted, failed=failed,
               round_s=rounds,
               check_s=statistics.median(check_s), counts_repeat=repeat,
               failures=failures)

    shutil.rmtree(rdir / "round", ignore_errors=True)
    shutil.rmtree(rdir / "probe", ignore_errors=True)
    missing = [k for k, m in metrics.items()
               if m["value"] is None or not math.isfinite(m["value"])]
    if missing:
        print(f"chainbench: no value for {', '.join(missing)}; every round "
              "failed a command", file=sys.stderr)
        return 1

    result = {"correct": bool(identical and repeat), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (rdir / "result.json").write_text(
        json.dumps({"env": env, "result": result}, indent=2) + "\n",
        encoding="utf-8")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{wl.name:>10}  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{wl.name:>10}  operations attempted {attempted}, failed {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
