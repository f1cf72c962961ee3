import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fiqlab import variance
from fiqlab.errors import DomainError, StructuralError
from fiqlab.rngstreams import rng_for


def grouped(batch):
    """{class: [ccs values]} -> update()'s input for that batch."""
    labels = [c for c, values in batch.items() for _ in values]
    ccs = [v for values in batch.values() for v in values]
    return variance.group_ccs_by_class(labels, ccs)


class TestInit:
    def test_all_ones(self):
        tracker = variance.init_tracker(7, total_steps=10)
        assert np.all(tracker.v == 1.0)
        assert tracker.step == 0

    def test_total_steps_positive(self):
        with pytest.raises(DomainError):
            variance.init_tracker(3, total_steps=0)


class TestAlphaSchedule:
    def test_endpoints_and_midpoint(self):
        tracker = variance.init_tracker(2, total_steps=100)
        assert variance.alpha_at(tracker) == 0.9
        tracker.step = 100
        assert variance.alpha_at(tracker) == 1.0
        tracker.step = 50
        assert variance.alpha_at(tracker) == pytest.approx(0.95, abs=1e-12)

    def test_clamped_past_end(self):
        tracker = variance.init_tracker(2, total_steps=10)
        tracker.step = 25
        assert variance.alpha_at(tracker) == 1.0


class TestUpdate:
    def test_alpha_one_is_identity(self):
        tracker = variance.init_tracker(4, total_steps=5,
                                        alpha_start=1.0, alpha_end=1.0)
        before = tracker.v.copy()
        variance.update(tracker, grouped({0: [0.1], 2: [-0.9, 0.5]}))
        assert np.array_equal(tracker.v, before)
        assert tracker.step == 1

    def test_hand_evaluated_single_sample(self):
        tracker = variance.init_tracker(1, total_steps=10**9)
        variance.update(tracker, grouped({0: [0.8]}))
        assert tracker.v[0] == pytest.approx(0.92, abs=1e-9)

    def test_absent_class_bit_identical(self):
        tracker = variance.init_tracker(5, total_steps=10)
        variance.update(tracker, grouped({1: [0.3]}))
        raw = tracker.v.copy()
        variance.update(tracker, grouped({2: [0.5]}))
        assert tracker.v[1].tobytes() == raw[1].tobytes()
        assert tracker.v[0].tobytes() == raw[0].tobytes()

    def test_unknown_class_rejected(self):
        tracker = variance.init_tracker(3, total_steps=10)
        with pytest.raises(StructuralError):
            variance.update(tracker, grouped({3: [0.1]}))
        with pytest.raises(StructuralError):
            variance.update(tracker, grouped({-1: [0.1]}))

    def test_same_class_samples_averaged_once(self):
        t1 = variance.init_tracker(1, total_steps=10**9)
        variance.update(t1, grouped({0: [0.2, 0.6]}))
        t2 = variance.init_tracker(1, total_steps=10**9)
        variance.update(t2, grouped({0: [0.6, 0.2]}))
        assert t1.v[0] == t2.v[0]
        expected = 0.9 * 1.0 + 0.1 * np.mean([0.8, 0.4])
        assert t1.v[0] == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=8),
           st.floats(0, 2))
    @settings(max_examples=150)
    def test_convexity_bounds(self, ccs_values, v0):
        tracker = variance.init_tracker(1, total_steps=100)
        tracker.v[0] = v0
        tracker.step = 37
        obs = float(np.mean([1.0 - c for c in ccs_values]))
        variance.update(tracker, grouped({0: ccs_values}))
        lo, hi = min(v0, obs), max(v0, obs)
        assert lo - 1e-12 <= tracker.v[0] <= hi + 1e-12

    def test_replay_bit_identical(self):
        rng = rng_for(0, 60)
        stream = [{int(rng.integers(0, 6)): rng.uniform(-1, 1, 3).tolist()}
                  for _ in range(40)]
        t1 = variance.init_tracker(6, total_steps=40)
        t2 = variance.init_tracker(6, total_steps=40)
        for batch in stream:
            variance.update(t1, grouped(batch))
        for batch in stream:
            variance.update(t2, grouped(batch))
        assert t1.v.tobytes() == t2.v.tobytes()

    def test_v_stays_in_range(self):
        tracker = variance.init_tracker(3, total_steps=50)
        rng = rng_for(0, 61)
        for _ in range(50):
            variance.update(tracker, grouped({int(rng.integers(0, 3)):
                                              rng.uniform(-1, 1, 2).tolist()}))
        assert np.all(tracker.v >= 0.0) and np.all(tracker.v <= 2.0)


def dict_loop_obs(labels, ccs):
    """{class: mean of 1 - CCS}, grouped by the dict of lists that
    group_ccs_by_class replaced, kept as the oracle for its bytes."""
    by_class = {}
    for label, value in zip(labels, ccs):
        by_class.setdefault(int(label), []).append(float(value))
    return {label: float(np.mean([1.0 - v for v in values]))
            for label, values in by_class.items()}


def dict_loop_update(tracker, labels, ccs):
    """The per-class Python loop that update() replaced."""
    alpha = variance.alpha_at(tracker)
    for label, obs in dict_loop_obs(labels, ccs).items():
        tracker.v[label] = alpha * tracker.v[label] + (1.0 - alpha) * obs
    tracker.step += 1


@st.composite
def crowded_batches(draw):
    """(num_classes, labels, ccs): a shuffled batch in which at least one
    class has 8 or more samples, the size where pairwise summation
    starts to differ from a running sum.  CCS values come from a drawn
    stream, as float32 (what training feeds, whose sums in float64 are
    exact in any order) or float64 (whose sums round, so the order
    shows)."""
    num_classes = draw(st.integers(2, 40))
    label = st.integers(0, num_classes - 1)
    labels = draw(st.lists(label, max_size=120))
    labels += [draw(label)] * draw(st.integers(8, 160))
    labels = np.array(draw(st.permutations(labels)), dtype=np.int64)
    stream = rng_for(draw(st.integers(0, 2 ** 32 - 1)), 64)
    ccs = stream.uniform(-1.0, 1.0, labels.size).astype(
        draw(st.sampled_from([np.float32, np.float64])))
    return num_classes, labels, ccs


class TestGroupedUpdate:
    @given(crowded_batches(), st.sampled_from([np.float32, np.float64]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_dict_loop(self, batch, dtype, seed):
        num_classes, labels, ccs = batch
        rng = rng_for(seed, 63)
        fast = variance.init_tracker(num_classes, total_steps=50, dtype=dtype)
        fast.v[:] = rng.uniform(0.0, 2.0, num_classes)
        fast.step = int(rng.integers(0, 60))
        oracle = variance.init_tracker(num_classes, total_steps=50,
                                       dtype=dtype)
        oracle.v[:] = fast.v
        oracle.step = fast.step
        classes, obs = variance.group_ccs_by_class(labels, ccs)
        expected = dict_loop_obs(labels, ccs)
        assert classes.tolist() == sorted(expected)
        assert obs.tolist() == [expected[c] for c in sorted(expected)]
        variance.update(fast, (classes, obs))
        dict_loop_update(oracle, labels, ccs)
        assert fast.v.tobytes() == oracle.v.tobytes()
        assert fast.step == oracle.step

    def test_classes_ascending_with_batch_order_means(self):
        classes, obs = variance.group_ccs_by_class([3, 1, 3], [0.5, 0.2, 0.1])
        assert classes.tolist() == [1, 3]
        assert obs.tolist() == [0.8, np.mean([0.5, 0.9])]

    def test_empty_batch_only_advances_step(self):
        tracker = variance.init_tracker(3, total_steps=10)
        variance.update(tracker, variance.group_ccs_by_class([], []))
        assert np.all(tracker.v == 1.0)
        assert tracker.step == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            variance.group_ccs_by_class([0, 1], [0.5])


class TestWeights:
    def test_all_equal_gives_ones(self):
        tracker = variance.init_tracker(5, total_steps=10)
        wv = variance.weights(tracker)
        assert np.all(wv.w == 1.0)
        assert wv.sigma < variance.SIGMA_FLOOR

    def test_clamp_floor_and_ceiling_exact(self):
        tracker = variance.init_tracker(4, total_steps=10)
        # mean 1.0, population std 1.0: z-scores are (v - 1) exactly
        tracker.v = np.array([-1.0, 1.0, 1.0 + np.sqrt(2.0), 1.0 - np.sqrt(2.0)])
        tracker.v = np.array([0.0, 1.0, 1.0, 2.0])  # mu=1, sigma=sqrt(0.5)
        wv = variance.weights(tracker)
        sigma = np.sqrt(0.5)
        assert wv.w[0] == 0.0                     # z = -1/sigma < -1 -> exact 0
        assert wv.w[3] == 1.0                     # z > 0 -> exact 1
        assert 0.0 < wv.w[1] <= 1.0

    def test_zscore_minus_two_and_plus_one(self):
        tracker = variance.init_tracker(6, total_steps=10)
        v = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        tracker.v = v
        wv = variance.weights(tracker)
        z = (v - v.mean()) / v.std()
        assert z[0] < -1
        assert wv.w[0] == 0.0
        assert np.all(wv.w[1:] == 1.0)

    def test_unit_gaussian_zero_fraction_near_16_percent(self):
        tracker = variance.init_tracker(200_000, total_steps=10)
        tracker.v = rng_for(0, 62).standard_normal(200_000)
        wv = variance.weights(tracker)
        frac = float(np.mean(wv.w == 0.0))
        assert abs(frac - 0.1587) < 0.01

    @given(st.lists(st.floats(0, 2), min_size=3, max_size=30))
    @settings(max_examples=150)
    def test_weights_nondecreasing_in_v(self, values):
        tracker = variance.init_tracker(len(values), total_steps=10)
        tracker.v = np.array(values)
        wv = variance.weights(tracker)
        order = np.argsort(tracker.v)
        assert np.all(np.diff(wv.w[order]) >= 0.0)
        assert np.all(wv.w >= 0.0) and np.all(wv.w <= 1.0)

    def test_export_csv(self, tmp_path):
        tracker = variance.init_tracker(3, total_steps=10)
        tracker.v = np.array([0.5, 1.0, 1.5])
        path = tmp_path / "weights.csv"
        variance.export_weights_csv(tracker, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class_id,v,weight"
        assert len(lines) == 4
        assert lines[1].startswith("0,0.5,")


class TestWeightStatistics:
    @given(st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(1, 600),
                                 elements=st.floats(-1e6, 1e6, width=32))),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_mu_sigma_bitwise_as_mean_and_std(self, v, constant):
        if constant:
            v[:] = v[0]
        wv = variance.weights(variance.VarianceTracker(v=v))
        assert np.float64(wv.mu).tobytes() == np.float64(v.mean()).tobytes()
        assert np.float64(wv.sigma).tobytes() == np.float64(v.std()).tobytes()
