import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiqlab import backbone as bb
from fiqlab import evalkit, synthdata, variance
from fiqlab.errors import (
    DomainError,
    StructuralError,
    UndefinedCorrelationError,
    UndefinedFnmrError,
)
from fiqlab.evalkit import VerificationPair
from fiqlab.rngstreams import rng_for


def tiny_dataset(num_classes=3, samples=4, seed=2):
    cfg = synthdata.SynthConfig(num_classes=num_classes,
                                samples_per_class=samples, side=8,
                                pose_spread=0.4, seed=seed)
    return synthdata.gen_dataset(cfg)


class TestGenPairs:
    def test_triangle_combinatorics(self):
        ds = tiny_dataset(num_classes=2, samples=3)
        pairs = evalkit.gen_pairs(ds, nonmated_count=0)
        genuine = [p for p in pairs if p.genuine]
        assert len(genuine) == 2 * 3  # C(3,2) per class

    def test_nonmated_zero(self):
        ds = tiny_dataset()
        pairs = evalkit.gen_pairs(ds, nonmated_count=0)
        assert all(p.genuine for p in pairs)

    def test_genuine_iff_same_label(self):
        ds = tiny_dataset(num_classes=4, samples=3)
        pairs = evalkit.gen_pairs(ds, nonmated_count=30, seed=5)
        labels = ds.labels.astype(int)
        for p in pairs:
            assert p.index_a != p.index_b
            assert p.genuine == (labels[p.index_a] == labels[p.index_b])

    def test_max_per_class_cap(self):
        ds = tiny_dataset(num_classes=2, samples=6)
        pairs = evalkit.gen_pairs(ds, max_per_class=4, nonmated_count=0)
        assert len(pairs) == 8

    def test_deterministic_per_seed(self):
        ds = tiny_dataset()
        a = evalkit.gen_pairs(ds, nonmated_count=20, seed=9)
        b = evalkit.gen_pairs(ds, nonmated_count=20, seed=9)
        assert a == b

    def test_more_nonmated_than_exist_rejected(self):
        # 2 classes x 2 samples: exactly 4 distinct cross-class pairs
        ds = tiny_dataset(num_classes=2, samples=2)
        with pytest.raises(DomainError):
            evalkit.gen_pairs(ds, nonmated_count=5)
        pairs = evalkit.gen_pairs(ds, nonmated_count=4, seed=3)
        impostors = {(p.index_a, p.index_b) for p in pairs if not p.genuine}
        assert impostors == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_mated_pairs_in_combination_order(self):
        ds = tiny_dataset(num_classes=3, samples=5)
        got = [(p.index_a, p.index_b) for p in
               evalkit.gen_pairs(ds, max_per_class=4, nonmated_count=0,
                                 seed=7)]
        rng = rng_for(7, evalkit.T_PAIRS)
        expected = []
        for c in range(3):
            combos = list(itertools.combinations(range(5 * c, 5 * c + 5), 2))
            picks = rng.choice(len(combos), size=4, replace=False)
            expected += [combos[int(i)] for i in sorted(picks)]
        assert got == expected


class TestFmrThreshold:
    def test_hand_enumerated(self):
        sims = [0.1, 0.2, 0.3, 0.4]
        thr = evalkit.fmr_threshold(sims, 0.25)
        assert thr == pytest.approx(0.35)
        accepted = sum(s >= thr for s in sims)
        assert accepted == 1
        assert accepted / 4 == 0.25

    def test_all_equal_ties_rejected(self):
        thr = evalkit.fmr_threshold([0.7] * 8, 0.5)
        assert thr > 0.7
        assert np.mean(np.array([0.7] * 8) >= thr) == 0.0

    def test_near_one_target_accepts_all_but_floor(self):
        # floor(k) keeps the realized FMR at or below the target, so the
        # threshold lands just above the smallest similarity.
        sims = [0.1, 0.2, 0.3, 0.4]
        thr = evalkit.fmr_threshold(sims, 1 - 1e-9)
        assert thr < 0.2
        realized = np.mean(np.array(sims) >= thr)
        assert realized <= 1 - 1e-9
        assert realized == 0.75

    def test_tiny_target_accepts_none(self):
        sims = [0.1, 0.5, 0.9]
        thr = evalkit.fmr_threshold(sims, 0.01)
        assert thr > 0.9

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            evalkit.fmr_threshold([], 0.1)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 2.0])
    def test_target_domain(self, target):
        with pytest.raises(DomainError):
            evalkit.fmr_threshold([0.5, 0.6], target)

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=60),
           st.floats(0.01, 0.99))
    @settings(max_examples=200)
    def test_realized_fmr_never_exceeds_target(self, sims, target):
        thr = evalkit.fmr_threshold(sims, target)
        realized = float(np.mean(np.asarray(sims) >= thr))
        assert realized <= target + 1e-12


class TestFnmr:
    def test_all_above(self):
        assert evalkit.fnmr([0.9, 0.8], 0.5) == 0.0

    def test_all_below(self):
        assert evalkit.fnmr([0.1, 0.2], 0.5) == 1.0

    def test_hand_counted_half(self):
        assert evalkit.fnmr([0.9, 0.8, 0.3, 0.2], 0.5) == 0.5

    def test_mask_mismatch(self):
        with pytest.raises(StructuralError):
            evalkit.fnmr([0.1, 0.2], 0.5, keep_mask=np.array([True]))

    def test_empty_kept_set_is_undefined(self):
        with pytest.raises(UndefinedFnmrError):
            evalkit.fnmr([0.1, 0.2], 0.5, keep_mask=np.array([False, False]))


class TestAuc:
    def test_constant(self):
        xs = np.linspace(0, 1, 11)
        pts = np.stack([xs, np.full(11, 0.3)], axis=1)
        assert evalkit.auc(pts) == pytest.approx(0.3, abs=1e-12)

    def test_linear(self):
        xs = np.linspace(0, 1, 101)
        pts = np.stack([xs, xs], axis=1)
        assert evalkit.auc(pts) == pytest.approx(0.5, abs=1e-9)

    def test_two_points(self):
        assert evalkit.auc([(0.0, 0.0), (1.0, 1.0)]) == pytest.approx(0.5)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            evalkit.auc([(0.0, 1.0)])

    def test_non_increasing_x(self):
        with pytest.raises(DomainError):
            evalkit.auc([(0.0, 1.0), (0.0, 0.5)])


class TestCorrelations:
    def test_pearson_self(self):
        a = rng_for(0, 80).standard_normal(30)
        assert evalkit.pearson(a, a) == pytest.approx(1.0, abs=1e-12)
        assert evalkit.pearson(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_hand_value(self):
        assert evalkit.pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(
            0.9819805060619656, abs=1e-9)

    def test_pearson_constant_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            evalkit.pearson([1.0, 1.0, 1.0], [1, 2, 3])

    def test_spearman_monotone_transform(self):
        a = rng_for(0, 81).standard_normal(25)
        b = np.exp(2.0 * a) + 5.0
        assert evalkit.spearman(a, b) == pytest.approx(1.0, abs=1e-12)
        assert evalkit.spearman(a, -b) == pytest.approx(-1.0, abs=1e-12)

    def test_spearman_hand_value(self):
        assert evalkit.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(
            0.8, abs=1e-12)

    def test_spearman_tie_ranks(self):
        # ranks of b: [1.5, 1.5, 3]; hand Pearson of ranks vs [1,2,3]
        got = evalkit.spearman([1, 2, 3], [5, 5, 9])
        expected = evalkit.pearson([1, 2, 3], [1.5, 1.5, 3.0])
        assert got == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40),
           st.lists(st.floats(-100, 100), min_size=2, max_size=40))
    @settings(max_examples=150)
    def test_bounded(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        try:
            assert -1.0 <= evalkit.pearson(a, b) <= 1.0
            assert -1.0 <= evalkit.spearman(a, b) <= 1.0
        except (DomainError, UndefinedCorrelationError):
            pass


class TestCcsDist:
    def test_identical(self):
        assert evalkit.ccs_dist([0.1, 0.5], [0.1, 0.5]) == 0.0

    def test_uniform_shift(self):
        assert evalkit.ccs_dist([0.0] * 5, [0.1] * 5) == pytest.approx(0.1)

    def test_hand_value(self):
        assert evalkit.ccs_dist([0.2, 0.8], [0.4, 0.7]) == pytest.approx(
            0.15, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            evalkit.ccs_dist([0.1], [0.1, 0.2])


def hand_erc_inputs():
    """Six pairs: 4 mated sims [0.9, 0.8, 0.3, 0.2], 2 non-mated
    [0.4, 0.6] calibrating the threshold to exactly 0.5 at fmr=0.5.
    Sample scores rank the 0.2-sim pair's quality lowest."""
    pairs = [
        VerificationPair(0, 1, True),    # sim 0.9
        VerificationPair(2, 3, True),    # sim 0.8
        VerificationPair(4, 5, True),    # sim 0.3
        VerificationPair(6, 7, True),    # sim 0.2  <- unique lowest quality
        VerificationPair(0, 2, False),   # sim 0.4
        VerificationPair(1, 4, False),   # sim 0.6
    ]
    sims = np.array([0.9, 0.8, 0.3, 0.2, 0.4, 0.6])
    scores = np.array([0.9, 0.95, 0.8, 0.85, 0.7, 0.75, 0.1, 0.2])
    return pairs, sims, scores


class TestErc:
    def test_hand_enumerated_curve(self):
        pairs, sims, scores = hand_erc_inputs()
        curve = evalkit.erc(pairs, sims, scores, fmr_target=0.5,
                            grid_step=0.25, max_reject=0.5)
        assert curve.threshold == pytest.approx(0.5)
        # r=0: FNMR = 2/4; r=0.25 drops floor(1.5)=1 pair (the 0.2 one)
        np.testing.assert_allclose(curve.points[0], [0.0, 0.5])
        np.testing.assert_allclose(curve.points[1], [0.25, 1.0 / 3.0])

    def test_reject_zero_equals_plain_fnmr(self):
        pairs, sims, scores = hand_erc_inputs()
        curve = evalkit.erc(pairs, sims, scores, 0.5, grid_step=0.1)
        mated = np.array([p.genuine for p in pairs])
        assert curve.points[0, 1] == evalkit.fnmr(sims[mated], curve.threshold)

    def test_flat_curve_constant_outcome(self):
        # every mated sim fails: FNMR pinned at 1 across the grid
        pairs = [VerificationPair(i, i + 1, True) for i in range(0, 8, 2)]
        pairs += [VerificationPair(0, 2, False), VerificationPair(4, 6, False)]
        sims = np.array([0.1, 0.12, 0.11, 0.13, 0.4, 0.6])
        scores = rng_for(0, 82).uniform(0, 1, 8)
        curve = evalkit.erc(pairs, sims, scores, 0.5, grid_step=0.05)
        assert np.all(curve.points[:, 1] == 1.0)
        assert curve.auc == pytest.approx(curve.points[-1, 0] * 1.0)

    def test_monotone_transform_leaves_curve_bitwise(self):
        pairs, sims, scores = hand_erc_inputs()
        a = evalkit.erc(pairs, sims, scores, 0.5, grid_step=0.05)
        b = evalkit.erc(pairs, sims, 2.0 * scores + 3.0, 0.5, grid_step=0.05)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.auc == b.auc

    def test_auc_recomputable_from_points(self):
        pairs, sims, scores = hand_erc_inputs()
        curve = evalkit.erc(pairs, sims, scores, 0.5, grid_step=0.05)
        assert curve.auc == evalkit.auc(curve.points)

    def test_no_nonmated_pairs_rejected(self):
        pairs = [VerificationPair(0, 1, True)]
        with pytest.raises(DomainError):
            evalkit.erc(pairs, [0.5], [0.1, 0.2], 0.5)


class TestOracleVariance:
    def test_zero_spread_class(self):
        ds = tiny_dataset(num_classes=2, samples=3)
        model = bb.init_backbone(64, hidden_dim=12, embed_dim=6,
                                 rng=rng_for(0, 83))
        ds.images[3:] = ds.images[3]
        var = evalkit.oracle_variance(ds, model)
        assert var[1] == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_pair_variance_one(self):
        # two unit embeddings e and -e: centroid 0, var = 1
        class FakeModel:
            embed_dim = 4

        e = np.array([[0.5, 0.5, 0.5, 0.5], [-0.5, -0.5, -0.5, -0.5]])

        def fake_embed(model, images, batch_size=256):
            return e

        import fiqlab.evalkit as ek
        orig = ek.embed_dataset
        ek.embed_dataset = fake_embed
        try:
            class DS:
                images = np.zeros((2, 2, 2))
                labels = np.array([0, 0])
                num_classes = 1
                num_samples = 2
            var = ek.oracle_variance(DS(), FakeModel())
        finally:
            ek.embed_dataset = orig
        assert var[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_two_pass_oracle(self):
        ds = tiny_dataset(num_classes=4, samples=6, seed=7)
        model = bb.init_backbone(64, hidden_dim=16, embed_dim=8,
                                 rng=rng_for(1, 84))
        var = evalkit.oracle_variance(ds, model)
        emb = evalkit.embed_dataset(model, ds.images).astype(np.float64)
        labels = ds.labels.astype(int)
        for c in range(4):
            rows = emb[labels == c]
            # independent identity: mean ||e||^2 - ||mean e||^2
            alt = float(np.mean(np.sum(rows * rows, axis=1))
                        - np.sum(rows.mean(axis=0) ** 2))
            assert var[c] == pytest.approx(alt, abs=1e-10)

    def test_permutation_invariant(self):
        ds = tiny_dataset(num_classes=3, samples=5, seed=8)
        model = bb.init_backbone(64, hidden_dim=16, embed_dim=8,
                                 rng=rng_for(1, 85))
        var = evalkit.oracle_variance(ds, model)
        perm = rng_for(1, 86).permutation(ds.num_samples)
        ds2 = synthdata.IdentityDataset(images=ds.images[perm],
                                        labels=ds.labels[perm],
                                        degradation_level=ds.degradation_level[perm],
                                        class_flags=ds.class_flags)
        var2 = evalkit.oracle_variance(ds2, model)
        np.testing.assert_allclose(var, var2, atol=1e-12)

    def test_same_bytes_as_mask_loop_on_shuffled_labels(self):
        ds = tiny_dataset(num_classes=6, samples=30, seed=9)
        perm = rng_for(1, 87).permutation(ds.num_samples)
        shuffled = synthdata.IdentityDataset(
            images=ds.images[perm], labels=ds.labels[perm],
            degradation_level=ds.degradation_level[perm],
            class_flags=ds.class_flags)
        model = bb.init_backbone(64, hidden_dim=16, embed_dim=8,
                                 rng=rng_for(1, 88))
        got = evalkit.oracle_variance(shuffled, model)
        # one boolean mask per class, rows in dataset order
        emb = evalkit.embed_dataset(model, shuffled.images)
        labels = np.asarray(shuffled.labels, dtype=np.int64)
        want = np.zeros(6)
        for c in range(6):
            rows = emb[labels == c].astype(np.float64)
            mu = rows.mean(axis=0)
            want[c] = float(np.mean(np.sum((rows - mu) ** 2, axis=1)))
        assert np.array_equal(got, want)


class TestOracleVsRandomQuality:
    def test_true_quality_rejects_better_than_random(self):
        # On a trained model, rejecting by true quality (1 - degradation)
        # must beat rejecting by random scores, across seeds.
        from fiqlab import trainer
        wins = 0
        seeds = 5
        for s in range(seeds):
            cfg = synthdata.SynthConfig(num_classes=12, samples_per_class=10,
                                        side=16, pose_spread=0.6,
                                        degrade_fraction=0.5, seed=30 + s)
            ds = synthdata.gen_dataset(cfg)
            tc = trainer.TrainConfig(batch_size=8, epochs=4, seed=s, lr=0.02,
                                     scale=12.0, embed_dim=32, hidden_dim=64,
                                     lam=0.0, lig_reduction="mean")
            state, _ = trainer.run_training(tc, ds)
            emb = evalkit.embed_dataset(state.model, ds.images)
            pairs = evalkit.gen_pairs(ds, max_per_class=30,
                                      nonmated_count=800, seed=s)
            sims = evalkit.pair_similarities(emb, pairs)
            oracle = evalkit.erc(pairs, sims, 1.0 - ds.degradation_level,
                                 0.05).auc
            random_scores = rng_for(7, 88, s).uniform(0, 1, ds.num_samples)
            random_auc = evalkit.erc(pairs, sims, random_scores, 0.05).auc
            wins += oracle < random_auc
        assert wins >= 4, f"oracle quality won only {wins}/{seeds}"


class TestCostProbe:
    def test_semantic_outputs_present(self):
        ds = tiny_dataset(num_classes=3, samples=6, seed=9)
        model = bb.init_backbone(64, hidden_dim=16, embed_dim=8,
                                 rng=rng_for(2, 87))
        tracker = variance.init_tracker(3, total_steps=10)
        report = evalkit.tracker_cost_probe(ds, model, tracker, batch_size=4,
                                            repeats=2)
        assert report.ema_step_cost > 0
        assert report.naive_step_cost > 0
        assert report.ratio == pytest.approx(
            report.naive_step_cost / report.ema_step_cost, rel=1e-9)
        assert report.naive_var.shape == (3,)
        assert report.ema_v.shape == (3,)
        assert np.all(np.isfinite(report.ema_v))
