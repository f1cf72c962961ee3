"""Reference experiment configurations and protocols.

These are the pinned desk-scale setups used by the acceptance suite and
the runnable scripts: a tracker-correlation experiment (pretrained
oracle model, scheduled-vs-fixed momentum), and a variant-comparison
experiment (rejection-curve AUC under a fixed evaluation model, plus
clean-pair verification of each variant's own backbone).

The production-scale optimizer settings (lr 0.1, softmax scale 64,
batch 1024) remain the package defaults; the reference runs use smaller
values because a two-layer perceptron on 2000 samples neither needs nor
tolerates ResNet-scale hyperparameters.  Every deviation is a config
value here, not a code fork.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import evalkit, quality, synthdata, trainer, variance

# The fixed tracker momenta the scheduled one is compared against
FIXED_ALPHAS = (0.9, 0.99)

# The compared variants; ig and cr are also scored on the rejection curve
COMPARED_VARIANTS = ("ig", "cr", "cr-aug")


def reference_synth_config(seed, degrade_fraction=0.0, pose_spread=1.0):
    """The 50-class/40-sample dataset with 20% duplicate classes used by
    the tracker-correlation and weight-zeroing experiments."""
    return synthdata.SynthConfig(
        num_classes=50, samples_per_class=40, side=24,
        duplicate_class_fraction=0.2, pose_spread=pose_spread,
        degrade_fraction=degrade_fraction, seed=seed)


def reference_train_config(seed, epochs=10, **overrides):
    """Desk-scale training defaults shared by the reference runs."""
    base = dict(batch_size=8, lr=0.02, scale=12.0, margin=0.5,
                lig_reduction="mean", epochs=epochs, seed=seed)
    base.update(overrides)
    return trainer.TrainConfig(**base)


# ---------------------------------------------------------------------------
# tracker-correlation experiment (scheduled vs fixed momentum)

@dataclass
class CorrelationRun:
    seed: int
    rho_epoch2: float
    rho_final_scheduled: float
    rho_final_fixed: dict
    dup_zero_fraction: float
    normal_high_fraction: float


def run_correlation_experiment(seed, epochs=10):
    """Train on the reference dataset and correlate the tracker against
    exact per-class variance under a pretrained reference model (trained
    on the same dataset with the margin loss only), per epoch.
    """
    ds = synthdata.gen_dataset(reference_synth_config(100 + seed))
    pre_cfg = reference_train_config(900 + seed, epochs=10, lam=0.0)
    pre_state, _ = trainer.run_training(pre_cfg, ds)
    ref_var = evalkit.oracle_variance(ds, pre_state.model)

    sched_cfg = reference_train_config(seed, epochs=epochs)
    state, logs = trainer.run_training(sched_cfg, ds)
    rho2 = evalkit.pearson(ref_var, logs[1].tracker_v)
    rho_final = evalkit.pearson(ref_var, logs[-1].tracker_v)

    fixed = {}
    for alpha in FIXED_ALPHAS:
        cfg = reference_train_config(seed, epochs=epochs,
                                     alpha_start=alpha, alpha_end=alpha)
        _, flogs = trainer.run_training(cfg, ds)
        fixed[alpha] = evalkit.pearson(ref_var, flogs[-1].tracker_v)

    w = variance.weights(state.tracker).w
    dup = ds.class_flags == synthdata.FLAG_DUPLICATE
    return CorrelationRun(
        seed=seed, rho_epoch2=rho2, rho_final_scheduled=rho_final,
        rho_final_fixed=fixed,
        dup_zero_fraction=float(np.mean(w[dup] == 0.0)),
        normal_high_fraction=float(np.mean(w[~dup] > 0.5)))


# ---------------------------------------------------------------------------
# variant-comparison experiment (rejection AUC and backbone protection)

def comparison_train_config(seed, variant, epochs=20):
    """Variant training for the rejection-curve and backbone-protection
    comparisons.  Regression gradients propagate into the backbone for
    every variant (the joint reading of the combined objective), so the
    variants differ only in weighting, augmentation, and batch split.
    """
    cfg = reference_train_config(seed, epochs=epochs, hidden_dim=256,
                                 lam=5.0, propagate_lig_to_backbone=True)
    return trainer.apply_variant(cfg, variant)


def _heldout_dataset(seed, degrade_fraction):
    """Held-out identities, none of them duplicates."""
    return synthdata.gen_dataset(synthdata.SynthConfig(
        num_classes=50, samples_per_class=12, side=24,
        duplicate_class_fraction=0.0, pose_spread=0.6,
        degrade_fraction=degrade_fraction, seed=seed))


def train_eval_reference_model(seed=77):
    """The fixed recognition model used to score verification pairs in
    the cross-model rejection protocol: margin-only training on a clean
    dataset of separate identities."""
    ds = synthdata.gen_dataset(synthdata.SynthConfig(
        num_classes=80, samples_per_class=30, side=24,
        duplicate_class_fraction=0.0, pose_spread=0.8,
        degrade_fraction=0.0, seed=9100))
    cfg = reference_train_config(seed, epochs=15, lam=0.0, hidden_dim=256)
    state, _ = trainer.run_training(cfg, ds)
    return state.model


def _pair_similarities(model, dataset, seed):
    """The verification pairs of ``dataset`` and their similarities
    under ``model``."""
    emb = evalkit.embed_dataset(model, dataset.images)
    pairs = evalkit.gen_pairs(dataset, max_per_class=40, nonmated_count=6000,
                              seed=seed)
    return pairs, evalkit.pair_similarities(emb, pairs)


@dataclass
class VariantComparison:
    seed: int
    auc: dict
    clean_fnmr: dict
    score_quality_rank: dict


def run_variant_comparison(seed, eval_model, fmr=1e-2, epochs=20):
    """Train the COMPARED_VARIANTS on one seed and evaluate both the
    cross-model rejection AUC (mixed-quality held-out split) and the
    own-backbone clean-pair FNMR."""
    train_ds = synthdata.gen_dataset(reference_synth_config(
        3000 + seed, degrade_fraction=0.3, pose_spread=0.8))
    mixed = _heldout_dataset(4000 + seed, 0.5)
    clean = _heldout_dataset(5000 + seed, 0.0)
    eval_pairs, eval_sims = _pair_similarities(eval_model, mixed, seed)
    aucs, fnmrs, ranks = {}, {}, {}
    for variant in COMPARED_VARIANTS:
        cfg = comparison_train_config(seed, variant, epochs=epochs)
        state, _ = trainer.run_training(cfg, train_ds)
        pairs, sims = _pair_similarities(state.model, clean, seed)
        threshold = evalkit.fmr_threshold(sims[~pairs.genuine], fmr)
        fnmrs[variant] = evalkit.fnmr(sims[pairs.genuine], threshold)
        if variant in ("ig", "cr"):
            emb = evalkit.embed_dataset(state.model, mixed.images)
            scores = quality.predict(state.head, emb)
            aucs[variant] = evalkit.erc(eval_pairs, eval_sims, scores,
                                        fmr).auc
            ranks[variant] = evalkit.spearman(
                scores, 1.0 - mixed.degradation_level)
    return VariantComparison(seed=seed, auc=aucs, clean_fnmr=fnmrs,
                             score_quality_rank=ranks)


def sign_test_pvalue(wins, n):
    """One-sided sign test: probability of >= wins successes out of n
    fair coin flips."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n
