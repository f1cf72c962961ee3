import itertools
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiqlab import backbone as bb
from fiqlab import evalkit, synthdata, variance
from fiqlab.errors import (
    DomainError,
    StructuralError,
    UndefinedCorrelationError,
    UndefinedFnmrError,
)
from fiqlab.evalkit import PairSet
from fiqlab.rngstreams import T_PAIRS, rng_for


def tiny_dataset(num_classes=3, samples=4, seed=2):
    cfg = synthdata.SynthConfig(num_classes=num_classes,
                                samples_per_class=samples, side=8,
                                pose_spread=0.4, seed=seed)
    return synthdata.gen_dataset(cfg)


def pair_set(rows):
    """A PairSet from (index_a, index_b, genuine) rows."""
    a, b, g = zip(*rows)
    return PairSet(index_a=np.array(a, dtype=np.int64),
                   index_b=np.array(b, dtype=np.int64),
                   genuine=np.array(g, dtype=bool))


def pair_rows(pairs):
    return list(zip(pairs.index_a.tolist(), pairs.index_b.tolist(),
                    pairs.genuine.tolist()))


def gen_pairs_loop(dataset, max_per_class=None, nonmated_count=0, seed=0):
    """The object-at-a-time pair generator gen_pairs replaced: members by
    boolean mask, one integers(0, n, 2) draw per non-mated candidate.
    Returns (index_a, index_b, genuine) rows."""
    rng = rng_for(seed, T_PAIRS)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = labels.shape[0]
    rows = []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(labels == c).tolist()
        first, second = np.triu_indices(len(members), k=1)
        if max_per_class is not None and first.size > max_per_class:
            picks = sorted(rng.choice(first.size, size=max_per_class,
                                      replace=False))
            first, second = first[picks], second[picks]
        rows += [(members[a], members[b], True)
                 for a, b in zip(first.tolist(), second.tolist())]
    seen = set()
    while len(seen) < nonmated_count:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a == b or labels[a] == labels[b]:
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        rows.append((key[0], key[1], False))
    return rows


def cross_pair_count(labels):
    n = len(labels)
    sizes = np.bincount(np.asarray(labels, dtype=np.int64))
    return n * (n - 1) // 2 - int(np.sum(sizes * (sizes - 1) // 2))


@st.composite
def label_sets(draw):
    """Shuffled labels of 1-6 classes of uneven sizes, classes of one
    sample included."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    perm = rng_for(draw(st.integers(0, 2**32 - 1)), 0).permutation(
        labels.size)
    return SimpleNamespace(labels=labels[perm], num_classes=len(sizes))


class TestGenPairs:
    def test_triangle_combinatorics(self):
        ds = tiny_dataset(num_classes=2, samples=3)
        pairs = evalkit.gen_pairs(ds, nonmated_count=0)
        assert np.count_nonzero(pairs.genuine) == 2 * 3  # C(3,2) per class

    def test_nonmated_zero(self):
        ds = tiny_dataset()
        pairs = evalkit.gen_pairs(ds, nonmated_count=0)
        assert pairs.genuine.all()

    def test_genuine_iff_same_label(self):
        ds = tiny_dataset(num_classes=4, samples=3)
        pairs = evalkit.gen_pairs(ds, nonmated_count=30, seed=5)
        labels = ds.labels.astype(int)
        assert np.all(pairs.index_a != pairs.index_b)
        assert np.array_equal(
            pairs.genuine, labels[pairs.index_a] == labels[pairs.index_b])

    def test_max_per_class_cap(self):
        ds = tiny_dataset(num_classes=2, samples=6)
        pairs = evalkit.gen_pairs(ds, max_per_class=4, nonmated_count=0)
        assert len(pairs) == 8

    def test_deterministic_per_seed(self):
        ds = tiny_dataset()
        a = evalkit.gen_pairs(ds, nonmated_count=20, seed=9)
        b = evalkit.gen_pairs(ds, nonmated_count=20, seed=9)
        assert pair_rows(a) == pair_rows(b)

    def test_more_nonmated_than_exist_rejected(self):
        # 2 classes x 2 samples: exactly 4 distinct cross-class pairs
        ds = tiny_dataset(num_classes=2, samples=2)
        with pytest.raises(DomainError):
            evalkit.gen_pairs(ds, nonmated_count=5)
        pairs = evalkit.gen_pairs(ds, nonmated_count=4, seed=3)
        impostors = {(a, b) for a, b, g in pair_rows(pairs) if not g}
        assert impostors == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_mated_pairs_in_combination_order(self):
        ds = tiny_dataset(num_classes=3, samples=5)
        got = [(a, b) for a, b, _ in
               pair_rows(evalkit.gen_pairs(ds, max_per_class=4,
                                           nonmated_count=0, seed=7))]
        rng = rng_for(7, evalkit.T_PAIRS)
        expected = []
        for c in range(3):
            combos = list(itertools.combinations(range(5 * c, 5 * c + 5), 2))
            picks = rng.choice(len(combos), size=4, replace=False)
            expected += [combos[int(i)] for i in sorted(picks)]
        assert got == expected


    @given(label_sets(), st.sampled_from([None, 0, 1, 2, 5]),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_pairs_as_draw_at_a_time_loop(self, dataset, max_per_class,
                                               fill, seed):
        # nonmated_count from 0 up to exactly the cross-pair cap
        count = round(fill * cross_pair_count(dataset.labels))
        got = evalkit.gen_pairs(dataset, max_per_class=max_per_class,
                                nonmated_count=count, seed=seed)
        assert got.index_a.dtype == got.index_b.dtype == np.int64
        assert got.genuine.dtype == bool
        assert pair_rows(got) == gen_pairs_loop(
            dataset, max_per_class=max_per_class, nonmated_count=count,
            seed=seed)

    @pytest.mark.parametrize("count", [5000, 9000])
    def test_two_large_classes_same_pairs_as_loop(self, count):
        ds = SimpleNamespace(labels=np.repeat([0, 1], 100), num_classes=2)
        got = evalkit.gen_pairs(ds, max_per_class=50, nonmated_count=count,
                                seed=11)
        assert pair_rows(got) == gen_pairs_loop(
            ds, max_per_class=50, nonmated_count=count, seed=11)

    def test_every_cross_pair_drawn(self):
        # 2 x 100 samples: all 10,000 cross pairs, each once
        ds = SimpleNamespace(labels=np.repeat([0, 1], 100), num_classes=2)
        pairs = evalkit.gen_pairs(ds, nonmated_count=10000, seed=11)
        impostors = {(a, b) for a, b, g in pair_rows(pairs) if not g}
        assert len(pairs) == 2 * 4950 + 10000
        assert impostors == {(a, b) for a in range(100)
                             for b in range(100, 200)}

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_per_class": -1}, "max_per_class=-1"),
        ({"nonmated_count": -1}, "nonmated_count=-1"),
    ])
    def test_negative_counts_rejected(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            evalkit.gen_pairs(tiny_dataset(), **kwargs)

    @pytest.mark.parametrize("n", [7, 3000, 2**31 + 5, 2**32 - 1, 2**32,
                                   2**32 + 3, 2**40])
    def test_block_draw_equals_successive_draws(self, n):
        # gen_pairs relies on numpy drawing the rows of one (k, 2) call
        # exactly as k successive calls of 2, state included, also after
        # a choice call has left a buffered half word behind
        one, many = rng_for(5, T_PAIRS), rng_for(5, T_PAIRS)
        for rng in (one, many):
            rng.choice(45, size=7, replace=False)
        block = one.integers(0, n, (33, 2))
        rows = np.array([many.integers(0, n, 2) for _ in range(33)])
        assert np.array_equal(block, rows)
        assert one.integers(0, n, 5).tolist() == many.integers(0, n, 5).tolist()
        assert one.bit_generator.state == many.bit_generator.state


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
    # adjacent doubles whose midpoint rounds down to the lower one
    @example([0.0, 5e-324], 0.5)
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

    def test_empty_kept_set_is_undefined(self):
        with pytest.raises(UndefinedFnmrError):
            evalkit.fnmr([], 0.5)


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
    pairs = pair_set([
        (0, 1, True),    # sim 0.9
        (2, 3, True),    # sim 0.8
        (4, 5, True),    # sim 0.3
        (6, 7, True),    # sim 0.2  <- unique lowest quality
        (0, 2, False),   # sim 0.4
        (1, 4, False),   # sim 0.6
    ])
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
        mated = pairs.genuine
        assert curve.points[0, 1] == evalkit.fnmr(sims[mated], curve.threshold)

    def test_flat_curve_constant_outcome(self):
        # every mated sim fails: FNMR pinned at 1 across the grid
        pairs = pair_set([(i, i + 1, True) for i in range(0, 8, 2)]
                         + [(0, 2, False), (4, 6, False)])
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
        pairs = pair_set([(0, 1, True)])
        with pytest.raises(DomainError):
            evalkit.erc(pairs, [0.5], [0.1, 0.2], 0.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"grid_step": 1e-12}, "grid_step must lie in [1e-05, 1)"),
        ({"grid_step": 9.99e-6}, "grid_step must lie in [1e-05, 1)"),
        ({"grid_step": float("nan")}, "grid_step must lie in [1e-05, 1)"),
        ({"max_reject": 1e9}, "max_reject must lie in [0, 1]"),
    ])
    def test_grid_too_large_to_build_rejected(self, kwargs, message):
        # unguarded, a 1e-12 step asks numpy for about 7 TiB at once
        pairs, sims, scores = hand_erc_inputs()
        with pytest.raises(DomainError, match=re.escape(message)):
            evalkit.erc(pairs, sims, scores, 0.5, **kwargs)

    def test_finest_grid_built(self):
        pairs, sims, scores = hand_erc_inputs()
        curve = evalkit.erc(pairs, sims, scores, 0.5,
                            grid_step=evalkit.MIN_GRID_STEP)
        assert curve.points[1, 0] == evalkit.MIN_GRID_STEP

    @pytest.mark.parametrize("index", [-1, 8])
    def test_pair_index_outside_scores_rejected(self, index):
        pairs, sims, scores = hand_erc_inputs()
        a = pairs.index_a.copy()
        a[2] = index
        with pytest.raises(StructuralError, match=r"in \[0, 8\)"):
            evalkit.erc(PairSet(a, pairs.index_b, pairs.genuine), sims,
                        scores, 0.5)


def erc_grid_loop(pairs, sims, scores, threshold, grid_step, max_reject):
    """The ERC grid loop erc replaced: re-index the survivors and take
    np.mean of their outcomes at every grid point."""
    pair_quality = np.minimum(scores[pairs.index_a], scores[pairs.index_b])
    order = np.lexsort((pairs.index_b, pairs.index_a, pair_quality))
    points = []
    n_grid = int(np.floor(max_reject / grid_step + 1e-9))
    for k in range(n_grid + 1):
        r = k * grid_step
        n_drop = int(np.floor(r * len(pairs) + 1e-9))
        survivors = order[n_drop:]
        kept_mated = survivors[pairs.genuine[survivors]]
        if kept_mated.size == 0:
            break
        points.append((r, float(np.mean(sims[kept_mated] < threshold))))
    return np.asarray(points)


class TestErcAgainstGridLoop:
    @given(st.integers(0, 2**32 - 1), st.integers(3, 150), st.integers(2, 12),
           st.sampled_from([0.01, 0.05, 0.1, 0.3]),
           st.sampled_from([0.5, 0.95, 0.99]))
    # r * P just below an integer at some grid points, e.g. 0.58 * 50
    @example(seed=1, n_pairs=100, levels=5, grid_step=0.01, max_reject=0.95)
    @settings(max_examples=150, deadline=None)
    def test_same_points_and_auc(self, seed, n_pairs, levels, grid_step,
                                 max_reject):
        rng = rng_for(seed, 89)
        n = 12
        a = rng.integers(0, n, n_pairs)
        b = rng.integers(0, n, n_pairs)
        genuine = rng.random(n_pairs) < 0.5
        genuine[:2] = [True, False]
        pairs = PairSet(index_a=a, index_b=b, genuine=genuine)
        # few distinct values, so similarities and qualities tie
        sims = rng.integers(0, levels, n_pairs) / levels
        scores = rng.integers(0, levels, n) / levels
        try:
            curve = evalkit.erc(pairs, sims, scores, 0.3,
                                grid_step=grid_step, max_reject=max_reject)
        except UndefinedFnmrError:
            assert len(erc_grid_loop(pairs, sims, scores, 0.0, grid_step,
                                     max_reject)) < 2
            return
        want = erc_grid_loop(pairs, sims, scores, curve.threshold,
                             grid_step, max_reject)
        assert np.array_equal(curve.points, want)
        assert curve.auc == evalkit.auc(want)


def oracle_mask_loop(dataset, model):
    """The class-at-a-time oracle_variance replaced: one boolean mask
    per class, rows in dataset order; a class with no rows gives the
    NaN of np.mean over nothing."""
    emb = evalkit.embed_dataset(model, dataset.images)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    out = np.zeros(dataset.num_classes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # mean of nothing
        for c in range(dataset.num_classes):
            rows = emb[labels == c].astype(np.float64)
            mu = rows.mean(axis=0)
            out[c] = float(np.mean(np.sum((rows - mu) ** 2, axis=1)))
    return out


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

        def fake_embed(model, images):
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
        assert np.array_equal(got, oracle_mask_loop(shuffled, model))

    @pytest.mark.parametrize("block_rows", [512, 7, 1])
    def test_same_bytes_as_mask_loop_on_unequal_classes(self, monkeypatch,
                                                        block_rows):
        # classes of 1 to 12 rows, repeated sizes and a class of none,
        # shuffled, in passes of at most block_rows rows
        monkeypatch.setattr(evalkit, "_CLASS_BLOCK_ROWS", block_rows)
        sizes = np.array([5, 1, 12, 0, 5, 3, 9, 5, 2, 12])
        rng = rng_for(2, 87)
        labels = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
        ds = SimpleNamespace(images=rng.uniform(0, 1, (labels.size, 8, 8)),
                             labels=labels, num_classes=sizes.size)
        model = bb.init_backbone(64, hidden_dim=16, embed_dim=8,
                                 rng=rng_for(1, 88))
        got = evalkit.oracle_variance(ds, model)
        want = oracle_mask_loop(ds, model)
        assert np.isnan(got[3])
        assert got.tobytes() == want.tobytes()


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


def traced_peak(fn, *args):
    """``fn(*args)`` and the most bytes that were allocated at once while
    it ran, counting only allocations made after the call began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def random_pairs(n, m, seed):
    rng = rng_for(seed, 61)
    return PairSet(index_a=rng.integers(0, n, m), index_b=rng.integers(0, n, m),
                   genuine=np.arange(m) < m // 2)


class TestBoundedMemory:
    """The evaluation kit's memory does not grow with the pair or row
    count beyond its outputs; the byte pins show that its blocks leave
    every output byte as it was."""

    def test_pair_similarities_within_block_budget(self):
        emb = rng_for(3, 60).standard_normal((1000, 16)).astype(np.float32)
        pairs = random_pairs(1000, 100_000, 1)
        sims, peak = traced_peak(evalkit.pair_similarities, emb, pairs)
        # gathering every pair's two rows at once would take 12.8 MB
        assert peak <= sims.nbytes + (1 << 20)

    def test_embed_dataset_holds_output_and_one_chunk(self):
        rng = rng_for(3, 62)
        model = bb.init_backbone(16, rng, hidden_dim=32, embed_dim=64,
                                 dtype=np.float32)
        images = rng.uniform(0.0, 1.0, (20_000, 4, 4)).astype(np.float32)
        _, chunk = traced_peak(bb.forward, model, images[:256])
        emb, peak = traced_peak(evalkit.embed_dataset, model, images)
        assert emb.shape == (20_000, 64)
        assert peak <= emb.nbytes + chunk + (64 << 10)

    def test_write_pairs_csv_within_fixed_bound(self, tmp_path):
        pairs = random_pairs(5000, 100_000, 2)
        _, peak = traced_peak(evalkit.write_pairs_csv, pairs,
                              tmp_path / "pairs.csv")
        # the (m, 3) int64 rows, and blocks of them as text
        assert peak <= 24 * len(pairs) + (1 << 20)

    @pytest.mark.parametrize("m", [0, 1, 4095, 4096, 4097, 10_001])
    def test_blocks_equal_one_pass(self, m):
        emb = rng_for(4, 63).standard_normal((300, 64)).astype(np.float32)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        pairs = random_pairs(300, m, 3)
        want = np.sum(emb[pairs.index_a] * emb[pairs.index_b], axis=1)
        got = evalkit.pair_similarities(emb, pairs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_embed_chunks_equal_one_list(self):
        rng = rng_for(5, 64)
        model = bb.init_backbone(36, rng, hidden_dim=20, embed_dim=8,
                                 dtype=np.float32)
        images = rng.uniform(0.0, 1.0, (700, 6, 6)).astype(np.float32)
        want = np.concatenate([bb.forward(model, images[s:s + 256])[0]
                               for s in range(0, 700, 256)])
        got = evalkit.embed_dataset(model, images)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [0, 5, 4096, 9000])
    def test_csv_blocks_equal_one_string(self, tmp_path, m):
        pairs = random_pairs(50, m, 4)
        evalkit.write_pairs_csv(pairs, tmp_path / "pairs.csv")
        rows = np.stack([pairs.index_a, pairs.index_b, pairs.genuine], axis=1)
        want = "idx_a,idx_b,genuine\n" + "%d,%d,%d\n" * m % tuple(
            rows.ravel().tolist())
        assert (tmp_path / "pairs.csv").read_bytes() == want.encode()


class TestStreamedEmbedding:
    @pytest.mark.parametrize("n,classes", [(255, 3), (256, 2), (258, 3),
                                           (514, 2)])
    def test_same_bytes_as_the_loaded_array(self, tmp_path, n, classes):
        # hidden width 256, where grouping rows differently changes bytes;
        # a stream ends on a block of n % 256 rows, as slicing does
        rng = rng_for(6, 65)
        model = bb.init_backbone(24 * 24, rng, hidden_dim=256, embed_dim=64,
                                 dtype=np.float32)
        ds = synthdata.IdentityDataset(
            images=rng.uniform(0.0, 1.0, (n, 24, 24)).astype(np.float32),
            labels=np.repeat(np.arange(classes, dtype=np.uint32),
                             n // classes),
            degradation_level=np.zeros(n, dtype=np.float32),
            class_flags=np.zeros(classes, dtype=np.uint8))
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        want = evalkit.embed_dataset(model, synthdata.load_dataset(path).images)
        with synthdata.DatasetStream(path) as stream:
            got = evalkit.embed_dataset(model, stream)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert stream.labels.tobytes() == ds.labels.tobytes()


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
        assert np.all(np.isfinite(tracker.v))
