"""Acceptance suite.

Each criterion prints one PASS/FAIL line.  The heavy experiments are
shared through session-scoped fixtures: criteria 3 and 4 read the same
tracker-correlation runs, criteria 5 and 6 the same variant-comparison
runs.  Run with `pytest tests/test_acceptance.py -s` to see the lines
as they complete.
"""

import time

import numpy as np
import pytest

from fiqlab import backbone as bb
from fiqlab import cli, evalkit, margin, quality, reference, synthdata, variance
from fiqlab.evalkit import PairSet
from fiqlab.rngstreams import rng_for

SEEDS = (0, 1, 2, 3, 4)


def pair_set(rows):
    """A PairSet from (index_a, index_b, genuine) rows."""
    a, b, g = zip(*rows)
    return PairSet(index_a=np.array(a, dtype=np.int64),
                   index_b=np.array(b, dtype=np.int64),
                   genuine=np.array(g, dtype=bool))


def record(criterion, ok, detail):
    line = f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity

def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    # Seeded instance checked to sit away from the rectifier and margin
    # kinks, where the central-difference oracle is valid.
    rng = rng_for(6, 500)
    d, c, b = 16, 8, 8
    model = bb.init_backbone(36, hidden_dim=20, embed_dim=d, rng=rng)
    batch = rng.uniform(0, 1, (b, 36))
    bank = margin.init_bank(d, c, scale=12.0, margin=0.4, rng=rng)
    labels = rng.integers(0, c, b)
    head = quality.RegressionHead(weight=rng.standard_normal(d) * 0.2)
    targets = rng.uniform(0, 1, b)
    weights = rng.uniform(0, 1, b)
    step = 1e-4

    pre_hidden = (batch - 0.5) @ model.w1 + model.b1
    assert np.abs(pre_hidden).min() > 50 * step

    worst = {}

    # L_Arc: embeddings and prototypes
    emb = rng.standard_normal((b, d))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    res = margin.arcface_loss(bank, emb, labels)

    def arc_at(e, w):
        b2 = margin.PrototypeBank(weights=w, scale=bank.scale,
                                  margin=bank.margin)
        return margin.arcface_loss(b2, e, labels).loss

    err = 0.0
    for k in rng.choice(emb.size, 50, replace=False):
        e1 = emb.copy().reshape(-1); e1[k] += step
        e2 = emb.copy().reshape(-1); e2[k] -= step
        num = (arc_at(e1.reshape(emb.shape), bank.weights)
               - arc_at(e2.reshape(emb.shape), bank.weights)) / (2 * step)
        ana = res.grad_emb.reshape(-1)[k]
        err = max(err, abs(ana - num) / max(abs(ana), abs(num), 1e-6))
    for k in rng.choice(bank.weights.size, 50, replace=False):
        w1 = bank.weights.copy().reshape(-1); w1[k] += step
        w2 = bank.weights.copy().reshape(-1); w2[k] -= step
        num = (arc_at(emb, w1.reshape(bank.weights.shape))
               - arc_at(emb, w2.reshape(bank.weights.shape))) / (2 * step)
        ana = res.grad_bank.reshape(-1)[k]
        err = max(err, abs(ana - num) / max(abs(ana), abs(num), 1e-6))
    worst["L_Arc"] = err

    # smooth-l1 regression loss: head weight and embeddings
    rres = quality.weighted_regression_loss(head, emb, targets, weights)
    err = 0.0
    for k in range(d):
        w1 = head.weight.copy(); w1[k] += step
        w2 = head.weight.copy(); w2[k] -= step
        num = (quality.weighted_regression_loss(
                   quality.RegressionHead(weight=w1), emb, targets, weights).loss
               - quality.weighted_regression_loss(
                   quality.RegressionHead(weight=w2), emb, targets, weights).loss
               ) / (2 * step)
        ana = rres.grad_weight[k]
        err = max(err, abs(ana - num) / max(abs(ana), abs(num), 1e-6))
    for k in rng.choice(emb.size, 40, replace=False):
        e1 = emb.copy().reshape(-1); e1[k] += step
        e2 = emb.copy().reshape(-1); e2[k] -= step
        num = (quality.weighted_regression_loss(
                   head, e1.reshape(emb.shape), targets, weights).loss
               - quality.weighted_regression_loss(
                   head, e2.reshape(emb.shape), targets, weights).loss
               ) / (2 * step)
        ana = rres.grad_emb.reshape(-1)[k]
        err = max(err, abs(ana - num) / max(abs(ana), abs(num), 1e-6))
    worst["smooth_l1"] = err

    # combined objective through every backbone parameter (pseudo-labels
    # and class weights held constant)
    lam = 10.0

    def combined(e):
        arc = margin.arcface_loss(bank, e, labels)
        reg = quality.weighted_regression_loss(head, e, targets, weights)
        return arc.loss + lam * reg.loss, arc.grad_emb + lam * reg.grad_emb

    report = bb.grad_check(model, combined, batch, step=step,
                           n_samples=120, rng=rng_for(1, 501))
    worst["combined objective"] = report.max_rel_err

    elapsed = time.perf_counter() - started
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 10.0
    record(1, ok, "gradient fidelity "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + f" (tol 1e-4), runtime {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# criterion 2: formula unit suite

def test_criterion_2_formula_unit_suite():
    started = time.perf_counter()
    checks = []

    # certainty ratio
    checks.append(abs(margin.cr(0.8, 0.2) - 0.6666666661) < 1e-9)
    checks.append(abs(margin.cr(1.0, 0.0) - 0.999999999) < 1e-9)
    checks.append(margin.cr(0.0, 0.5) == 0.0)

    # smooth l1 and branch-boundary continuity
    checks.append(abs(float(quality.smooth_l1(0.1, 1.0)) - 0.005) < 1e-9)
    for beta in (0.5, 1.0, 2.0):
        inner = float(quality.smooth_l1(beta - 1e-12, beta))
        outer = float(quality.smooth_l1(beta + 1e-12, beta))
        checks.append(abs(inner - 0.5 * beta) < 1e-9)
        checks.append(abs(outer - 0.5 * beta) < 1e-9)

    # EMA identity at alpha=1 and convexity bounds
    frozen = variance.init_tracker(3, total_steps=4, alpha_start=1.0,
                                   alpha_end=1.0)
    before = frozen.v.copy()
    variance.update(frozen, variance.group_ccs_by_class([0, 2, 2],
                                                        [0.3, -0.5, 0.9]))
    checks.append(np.array_equal(frozen.v, before))
    t = variance.init_tracker(1, total_steps=10 ** 9)
    variance.update(t, variance.group_ccs_by_class([0], [0.8]))
    checks.append(abs(float(t.v[0]) - 0.92) < 1e-9)
    t2 = variance.init_tracker(1, total_steps=100)
    t2.v[0] = 0.4
    t2.step = 50
    variance.update(t2, variance.group_ccs_by_class([0, 0], [0.1, -0.3]))
    obs = np.mean([0.9, 1.3])
    checks.append(min(0.4, obs) - 1e-12 <= t2.v[0] <= max(0.4, obs) + 1e-12)

    # weight clamp floor/ceiling and degenerate sigma rule
    tr = variance.init_tracker(6, total_steps=4)
    tr.v = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    w = variance.weights(tr).w
    checks.append(w[0] == 0.0)
    checks.append(np.all(w[1:] == 1.0))
    flat = variance.init_tracker(5, total_steps=4)
    checks.append(np.all(variance.weights(flat).w == 1.0))
    gauss = variance.init_tracker(200_000, total_steps=4)
    gauss.v = rng_for(0, 502).standard_normal(200_000)
    frac = float(np.mean(variance.weights(gauss).w == 0.0))
    checks.append(abs(frac - 0.1587) < 0.01)

    # CCS drift hand example
    checks.append(abs(evalkit.ccs_dist([0.2, 0.8], [0.4, 0.7]) - 0.15) < 1e-9)

    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 1.0
    record(2, ok, f"{sum(checks)}/{len(checks)} formula checks exact "
           f"(zero-weight fraction {frac:.4f} ~ 0.1587), "
           f"runtime {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# criteria 3 and 4: shared tracker-correlation runs

@pytest.fixture(scope="session")
def correlation_runs():
    started = time.perf_counter()
    runs = [reference.run_correlation_experiment(seed) for seed in SEEDS]
    return runs, time.perf_counter() - started


def test_criterion_3_tracker_vs_oracle_correlation(correlation_runs):
    runs, elapsed = correlation_runs
    rho2 = float(np.mean([r.rho_epoch2 for r in runs]))
    sched = float(np.mean([r.rho_final_scheduled for r in runs]))
    fixed = {a: float(np.mean([r.rho_final_fixed[a] for r in runs]))
             for a in runs[0].rho_final_fixed}
    ok = (rho2 > 0.7
          and all(sched >= v for v in fixed.values())
          and elapsed < 300.0)
    record(3, ok, f"mean rho@2epochs={rho2:.3f} > 0.7; scheduled final "
           f"{sched:.3f} >= fixed " +
           ", ".join(f"alpha={a}:{v:.3f}" for a, v in fixed.items()) +
           f"; runtime {elapsed:.0f}s < 300s")


def test_criterion_4_weight_zeroing(correlation_runs):
    runs, _ = correlation_runs
    dup_zero = float(np.mean([r.dup_zero_fraction for r in runs]))
    norm_high = float(np.mean([r.normal_high_fraction for r in runs]))
    ok = dup_zero >= 0.9 and norm_high >= 0.9
    record(4, ok, f"duplicate classes at weight 0: {dup_zero:.2f} >= 0.9; "
           f"normal classes above 0.5: {norm_high:.2f} >= 0.9 (5 seeds)")


# ---------------------------------------------------------------------------
# criteria 5 and 6: shared variant-comparison runs

@pytest.fixture(scope="session")
def variant_runs():
    started = time.perf_counter()
    eval_model = reference.train_eval_reference_model()
    runs = [reference.run_variant_comparison(seed, eval_model)
            for seed in SEEDS]
    return runs, time.perf_counter() - started


def test_criterion_5_variance_guidance_benefit(variant_runs):
    runs, elapsed = variant_runs
    auc_ig = np.array([r.auc["ig"] for r in runs])
    auc_cr = np.array([r.auc["cr"] for r in runs])
    rank_ig = float(np.mean([r.score_quality_rank["ig"] for r in runs]))
    wins = int(np.sum(auc_ig < auc_cr))
    pvalue = reference.sign_test_pvalue(wins, len(runs))
    ok = (auc_ig.mean() < auc_cr.mean() and pvalue <= 0.05
          and rank_ig > 0.0 and elapsed < 900.0)
    record(5, ok, f"ERC AUC at FMR=1e-2: ig {auc_ig.mean():.4f} < cr "
           f"{auc_cr.mean():.4f}; wins {wins}/{len(runs)}, sign test "
           f"p={pvalue:.4f} <= 0.05; mean score-vs-quality rank "
           f"{rank_ig:.2f} > 0; runtime {elapsed:.0f}s < 900s")


def test_criterion_6_split_batch_protection(variant_runs):
    runs, _ = variant_runs
    fn_ig = float(np.mean([r.clean_fnmr["ig"] for r in runs]))
    fn_cr = float(np.mean([r.clean_fnmr["cr"] for r in runs]))
    fn_craug = float(np.mean([r.clean_fnmr["cr-aug"] for r in runs]))
    ok = abs(fn_ig - fn_cr) <= 0.01 and (fn_craug - fn_cr) > 0.01
    record(6, ok, f"clean FNMR at FMR=1e-2: ig {fn_ig:.4f} vs cr "
           f"{fn_cr:.4f} (|diff|={abs(fn_ig - fn_cr):.4f} <= 0.01); "
           f"cr-aug {fn_craug:.4f} degrades by "
           f"{fn_craug - fn_cr:.4f} > 0.01 (5 seeds)")


# ---------------------------------------------------------------------------
# criterion 7: EMA efficiency

def test_criterion_7_ema_efficiency():
    cfg = synthdata.SynthConfig(num_classes=500, samples_per_class=40,
                                side=24, duplicate_class_fraction=0.1,
                                pose_spread=0.8, degrade_fraction=0.2, seed=0)
    dataset = synthdata.gen_dataset(cfg)
    assert dataset.num_samples >= 20_000
    model = bb.init_backbone(dataset.side ** 2, rng=rng_for(0, 900),
                             dtype=np.float32)
    tracker = variance.init_tracker(dataset.num_classes, total_steps=1000)
    report = evalkit.tracker_cost_probe(dataset, model, tracker,
                                        batch_size=64)
    ok = report.ratio >= 10.0
    record(7, ok, f"naive/EMA per-iteration cost ratio {report.ratio:.0f}x "
           f">= 10 on {dataset.num_samples} samples "
           f"(ema {report.ema_step_cost * 1e3:.2f}ms, naive "
           f"{report.naive_step_cost * 1e3:.0f}ms)")


# ---------------------------------------------------------------------------
# criterion 8: evaluator correctness

def test_criterion_8_evaluator_correctness():
    checks = []

    thr = evalkit.fmr_threshold([0.1, 0.2, 0.3, 0.4], 0.25)
    checks.append(abs(thr - 0.35) < 1e-12)
    checks.append(float(np.mean(np.array([0.1, 0.2, 0.3, 0.4]) >= thr)) == 0.25)

    tie = evalkit.fmr_threshold([0.7] * 6, 0.5)
    checks.append(tie > 0.7)

    checks.append(evalkit.fnmr([0.9, 0.8, 0.3, 0.2], 0.5) == 0.5)
    checks.append(evalkit.fnmr([0.9, 0.8], 0.5) == 0.0)
    checks.append(evalkit.fnmr([0.1, 0.2], 0.5) == 1.0)

    pairs = pair_set([
        (0, 1, True), (2, 3, True), (4, 5, True), (6, 7, True),
        (0, 2, False), (1, 4, False),
    ])
    sims = np.array([0.9, 0.8, 0.3, 0.2, 0.4, 0.6])
    scores = np.array([0.9, 0.95, 0.8, 0.85, 0.7, 0.75, 0.1, 0.2])
    curve = evalkit.erc(pairs, sims, scores, fmr_target=0.5, grid_step=0.25,
                        max_reject=0.5)
    checks.append(curve.threshold == 0.5)
    checks.append(tuple(curve.points[0]) == (0.0, 0.5))
    checks.append(abs(curve.points[1, 1] - 1.0 / 3.0) < 1e-15)
    checks.append(curve.auc == evalkit.auc(curve.points))

    fine = evalkit.erc(pairs, sims, scores, 0.5, grid_step=0.01)
    transformed = evalkit.erc(pairs, sims, 2.0 * scores + 3.0, 0.5,
                              grid_step=0.01)
    checks.append(fine.points.tobytes() == transformed.points.tobytes())
    checks.append(fine.auc == transformed.auc)

    record(8, all(checks),
           f"{sum(checks)}/{len(checks)} hand-enumerated evaluator oracles "
           "exact; monotone-transform invariance bitwise on the grid")


# ---------------------------------------------------------------------------
# criterion 9: manifest determinism

def test_criterion_9_manifest_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text("num_classes=8\nsamples_per_class=6\nside=12\n"
                         "duplicate_class_fraction=0.25\npose_spread=0.8\n"
                         "degrade_fraction=0.3\nseed=17\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("batch_size=8\nepochs=2\nlr=0.03\nscale=8.0\n"
                         "margin=0.3\nembed_dim=16\nhidden_dim=24\n"
                         "lig_reduction=mean\nseed=3\n")

    def run_chain(root):
        root.mkdir()
        ds = root / "ds.bin"
        assert cli.main(["synth", "--config", str(synth_cfg),
                         "--out", str(ds)]) == 0
        run_dir = root / "run"
        assert cli.main(["train", "--config", str(train_cfg),
                         "--dataset", str(ds), "--out", str(run_dir),
                         "--variant", "ig"]) == 0
        scores = root / "scores.csv"
        assert cli.main(["score", "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--dataset", str(ds), "--out", str(scores)]) == 0
        erc_dir = root / "erc"
        assert cli.main(["erc", "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--dataset", str(ds), "--scores", str(scores),
                         "--fmr", "0.05", "--nonmated", "150",
                         "--out", str(erc_dir)]) == 0
        # every record of every manifest: synth's and score's share root's
        digests = {}
        for mdir in (root, run_dir, erc_dir):
            for m in cli.load_manifest(mdir / "manifest.json")["commands"]:
                for path, digest in m["outputs"].items():
                    digests[path.replace(str(root), "")] = digest
        return digests

    first = run_chain(tmp_path / "a")
    second = run_chain(tmp_path / "b")
    ok = first == second and len(first) > 0
    record(9, ok, f"replayed synth/train/score/erc chain reproduces all "
           f"{len(first)} output files bit-identically (sha256)")
