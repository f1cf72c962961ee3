"""The benchmark's workloads: which datasets the chain synthesises, how it
trains, and what score and erc evaluate.

Every seed given to the program is derived from the benchmark seed, so
the same benchmark seed gives the same inputs.  Training sets carry
duplicate classes but no degradation, and the held-out sets carry
degradation but no duplicate classes: with both, the number of
generator streams would depend on the seed through the duplicate-class
degradation draw, and the per-layer counts would no longer repeat.
"""

from dataclasses import dataclass

import numpy as np

# The desk-scale training settings of fiqlab.reference (reference runs,
# both acceptance fixtures and both experiment scripts).
REFERENCE_TRAIN = {"lr": 0.02, "scale": 12.0, "margin": 0.5,
                   "lig_reduction": "mean"}

# 50 classes x 40 samples, 20% duplicate classes: the reference dataset.
REFERENCE_SET = {"num_classes": 50, "samples_per_class": 40, "side": 24,
                 "duplicate_class_fraction": 0.2, "pose_spread": 1.0,
                 "degrade_fraction": 0.0}


def heldout_mixed(classes, per_class):
    """Held-out identities, half the samples degraded."""
    return {"num_classes": classes, "samples_per_class": per_class,
            "side": 24, "duplicate_class_fraction": 0.0, "pose_spread": 0.6,
            "degrade_fraction": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: dict          # dataset name -> SynthConfig fields but seed
    train_set: str
    eval_set: str
    variant: str
    train: dict             # TrainConfig fields but seed
    erc: dict               # fmr, max_per_class, nonmated
    eval_repeats: int = 1   # score and erc runs per round

    def seeds(self, seed):
        """Program seeds for one benchmark seed: one per dataset, in
        declaration order, then the training seed, then the pair seed."""
        state = np.random.SeedSequence([abs(int(seed)), 0x0F1C]).generate_state(
            len(self.datasets) + 2)
        values = [int(s) & 0x7FFFFFFF for s in state]
        out = dict(zip(self.datasets, values))
        out["train"] = values[-2]
        out["pairs"] = values[-1]
        return out


# BENCHMARK.json lists ref-ig and wide-cr.  eval-heavy runs the same way
# but is left out of it: with three workloads a comparison that fits in an
# hour leaves about 44 s a run, and on a 2-vCPU machine a 40 s run fitted
# 3-5 eval-heavy rounds, whose ten-seed spreads reached 0.29, above the
# largest bound allowed.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ref-ig",
        why="ig on the reference set, batch 8, 10 epochs: per-step Python "
            "work (flip+augment batch build, tracker, SGD) dominates",
        datasets={"train": REFERENCE_SET, "heldout": heldout_mixed(100, 30)},
        train_set="train", eval_set="heldout", variant="ig",
        train=dict(REFERENCE_TRAIN, batch_size=8, epochs=10),
        erc={"fmr": 0.01, "max_per_class": 40, "nonmated": 6000}),
    Workload(
        name="wide-cr",
        why="cr, 500 classes, batch 256, hidden 256: backbone matmuls, "
            "wide margin loss, per-class tracker loop, per-epoch oracle",
        datasets={"train": dict(REFERENCE_SET, num_classes=500)},
        train_set="train", eval_set="train", variant="cr",
        train=dict(REFERENCE_TRAIN, batch_size=256, hidden_dim=256, epochs=2),
        erc={"fmr": 0.01, "max_per_class": 60, "nonmated": 5000},
        # Their 20,000-row forward pass swings by up to 3x from one run to
        # the next with two BLAS threads on a shared 2-vCPU host; a median
        # over three runs a round steadies them.
        eval_repeats=3),
    Workload(
        name="eval-heavy",
        why="one ig epoch, then score and erc on 300x60 held-out samples, "
            "120k pairs at FMR 1e-3: synthesis, dataset I/O, pairs and ERC",
        datasets={"train": REFERENCE_SET, "heldout": heldout_mixed(300, 60)},
        train_set="train", eval_set="heldout", variant="ig",
        train=dict(REFERENCE_TRAIN, batch_size=8, epochs=1),
        erc={"fmr": 0.001, "max_per_class": 300, "nonmated": 30000}),
)}

# A chain of the size of acceptance criterion 9, pinned: its checkpoint
# digest is the reference figure a byte-preserving change must keep.
PROBE_SYNTH = {"num_classes": 8, "samples_per_class": 6, "side": 12,
               "duplicate_class_fraction": 0.25, "pose_spread": 0.8,
               "degrade_fraction": 0.3, "seed": 17}
PROBE_TRAIN = {"batch_size": 8, "epochs": 2, "lr": 0.03, "scale": 8.0,
               "margin": 0.3, "embed_dim": 16, "hidden_dim": 24,
               "lig_reduction": "mean", "seed": 3}
PROBE_ERC = ["--fmr", "0.05", "--nonmated", "150"]
