#!/usr/bin/env python3
"""Shows that the output checks catch wrong outputs.

    python3 chainbench/mutations.py [--workload ref-ig] [--seed 0]

Runs one round of the workload, confirms that its outputs pass every
check, then corrupts one output at a time (one score row, one genuine
flag, one class weight, ...), reruns the check that owns that output and
restores the file.  Exits non-zero if the clean outputs fail or if any
corruption goes unnoticed.
"""

import argparse
import shutil
import struct
import sys

import checks
import run
import workloads


def edit_csv(row, col, change):
    def mutate(raw):
        lines = raw.decode().splitlines()
        cells = lines[row].split(",")
        cells[col] = change(cells[col])
        lines[row] = ",".join(cells)
        return ("\n".join(lines) + "\n").encode()
    return mutate


def edit_csv_rows(change):
    def mutate(raw):
        lines = raw.decode().splitlines()
        return ("\n".join(change(lines)) + "\n").encode()
    return mutate


def set_f32(offset, value):
    def mutate(raw):
        return raw[:offset] + struct.pack("<f", value) + raw[offset + 4:]
    return mutate


def add_to_tracker_step(raw):
    head = list(struct.unpack_from(checks.CKPT_HEADER, raw, 0))
    head[10] += 1
    return struct.pack(checks.CKPT_HEADER, *head) + raw[
        struct.calcsize(checks.CKPT_HEADER):]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="ref-ig",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cli = run.import_program()
    wl = workloads.WORKLOADS[args.workload]
    seeds = wl.seeds(args.seed)
    rdir = run.OUT / f"mutations-{wl.name}-seed{args.seed}"
    times, failures = run.run_round(run.Chain(cli), lambda fn, *a: fn(*a), wl,
                                    seeds, rdir)
    if failures:
        print("clean outputs fail their checks:", *failures, sep="\n  ")
        return 1

    ckpt = rdir / "run" / "checkpoint.bin"
    train_file = rdir / wl.train_set / "ds.bin"
    eval_file = rdir / wl.eval_set / "ds.bin"
    erc, epochs = wl.erc, wl.train["epochs"]
    train_cfg = dict(wl.datasets[wl.train_set], seed=seeds[wl.train_set])

    def synth():
        checks.check_synth(train_file, train_cfg, rdir)

    def train():
        checks.check_train(rdir / "run", train_file, epochs,
                           wl.train["batch_size"])

    def score():
        checks.check_score(rdir / "score" / "scores.csv", ckpt, eval_file)

    def erc_check():
        checks.check_erc(rdir / "erc", ckpt, eval_file,
                         rdir / "score" / "scores.csv", erc["fmr"],
                         erc["max_per_class"], erc["nonmated"])

    ds = checks.read_dataset(train_file)
    record = 8 + 4 * ds["side"] ** 2
    dup = int(ds["flags"].argmax())
    dup_sample = dup * ds["per_class"] + 1
    flag_offset = 19 + record * ds["labels"].size + dup

    mutations = [
        ("pixel above 1", train_file, set_f32(19 + 8, 1.5), synth),
        ("duplicate class widened", train_file,
         set_f32(19 + record * dup_sample + 8 + 40,
                 float(ds["pixels"][dup_sample, 10]) + 0.01), synth),
        ("duplicate flag cleared", train_file,
         lambda raw: raw[:flag_offset] + b"\0" + raw[flag_offset + 1:], synth),
        ("tracker step off by one", ckpt,
         add_to_tracker_step, train),
        ("loss not finite", rdir / "run" / "report.csv",
         edit_csv(1, 1, lambda s: "nan"), train),
        ("class weight lowered", rdir / "run" / "class_weights.csv",
         edit_csv(4, 2, lambda s: repr(float(s) - 0.01)), train),
        ("score row perturbed", rdir / "score" / "scores.csv",
         edit_csv(6, 1, lambda s: repr(float(s) + 1e-3)), score),
        ("genuine flag flipped", rdir / "erc" / "pairs.csv",
         edit_csv(-1, 2, lambda s: str(1 - int(s))), erc_check),
        ("pair repeated", rdir / "erc" / "pairs.csv",
         edit_csv_rows(lambda ls: ls[:-1] + [ls[-2]]), erc_check),
        ("pair dropped", rdir / "erc" / "pairs.csv",
         edit_csv_rows(lambda ls: ls[:-1]), erc_check),
        ("curve point raised", rdir / "erc" / "erc_curve.csv",
         edit_csv(11, 1, lambda s: repr(float(s) + 0.01)), erc_check),
        ("auc changed", rdir / "erc" / "erc_auc.csv",
         edit_csv(1, 2, lambda s: repr(float(s) * 1.001)), erc_check),
    ]
    missed = 0
    for name, path, mutate, check in mutations:
        original = path.read_bytes()
        path.write_bytes(mutate(original))
        try:
            check()
        except checks.CheckFailed as exc:
            print(f"caught  {name}: {exc}")
        else:
            missed += 1
            print(f"MISSED  {name}")
        finally:
            path.write_bytes(original)
    shutil.rmtree(rdir, ignore_errors=True)
    print(f"{len(mutations) - missed} of {len(mutations)} corruptions caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
