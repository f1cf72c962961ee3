import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiqlab import margin
from fiqlab.errors import DomainError, NumericError
from fiqlab.rngstreams import rng_for


def unit_rows(rng, b, d):
    x = rng.standard_normal((b, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_bank(d=6, c=4, s=64.0, m=0.5, seed=0):
    return margin.init_bank(d, c, scale=s, margin=m, rng=rng_for(seed, 30))


class TestCosines:
    def test_identical_unit_vectors(self):
        bank = make_bank()
        wn = bank.weights / np.linalg.norm(bank.weights, axis=0)
        cos = margin.cosines(bank, wn[:, 1][None, :])
        np.testing.assert_allclose(cos[0, 1], 1.0, atol=1e-12)

    def test_orthogonal(self):
        bank = margin.PrototypeBank(weights=np.eye(4))
        emb = np.array([[0.0, 0.0, 0.0, 1.0]])
        np.testing.assert_allclose(margin.cosines(bank, emb)[0, :3], 0.0,
                                   atol=1e-15)

    def test_antipodal(self):
        bank = make_bank()
        wn = bank.weights / np.linalg.norm(bank.weights, axis=0)
        cos = margin.cosines(bank, -wn[:, 2][None, :])
        np.testing.assert_allclose(cos[0, 2], -1.0, atol=1e-12)

    def test_clamped_to_unit_interval(self):
        bank = make_bank()
        emb = unit_rows(rng_for(0, 31), 20, 6)
        cos = margin.cosines(bank, emb)
        assert cos.min() >= -1.0 and cos.max() <= 1.0

    def test_zero_norm_prototype_rejected(self):
        bank = make_bank()
        bank.weights[:, 0] = 0.0
        with pytest.raises(NumericError):
            margin.cosines(bank, unit_rows(rng_for(0, 32), 2, 6))


def ccs_nnccs(cos_row, label):
    """Own-class cosine and the maximum cosine over the other classes, one
    row at a time: the oracle for margin.ccs_nnccs_batch."""
    row = np.asarray(cos_row)
    if row.shape[0] < 2:
        raise DomainError("NNCCS is undefined with fewer than 2 classes")
    ccs = row[label]
    nnccs = max(row[j] for j in range(row.shape[0]) if j != label)
    return float(ccs), float(nnccs)


class TestCcsNnccs:
    def test_direct_selection(self):
        assert ccs_nnccs([0.9, 0.1, -0.3], 0) == (0.9, 0.1)

    def test_tie_case(self):
        assert ccs_nnccs([0.2, 0.2], 1) == (0.2, 0.2)

    def test_all_equal_row(self):
        assert ccs_nnccs([0.4, 0.4, 0.4], 2) == (0.4, 0.4)

    def test_single_class_undefined(self):
        with pytest.raises(DomainError):
            ccs_nnccs([0.5], 0)

    def test_batch_matches_scalar(self):
        rng = rng_for(0, 33)
        cos = rng.uniform(-1, 1, (10, 5))
        labels = rng.integers(0, 5, 10)
        ccs, nnccs = margin.ccs_nnccs_batch(cos, labels)
        for i in range(10):
            c, n = ccs_nnccs(cos[i], int(labels[i]))
            assert ccs[i] == c and nnccs[i] == n


class TestCr:
    def test_zero_numerator(self):
        assert margin.cr(0.0, 0.73) == 0.0

    def test_near_identity(self):
        np.testing.assert_allclose(margin.cr(1.0, 0.0), 1.0 / (1.0 + 1e-9),
                                   rtol=0, atol=1e-15)
        assert margin.cr(1.0, 0.0) == pytest.approx(0.999999999, abs=1e-9)

    def test_hand_evaluated(self):
        assert margin.cr(0.8, 0.2) == pytest.approx(0.6666666661, abs=1e-9)

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=200)
    def test_strictly_increasing_in_ccs(self, a, b, nn):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        assert margin.cr(lo, nn) < margin.cr(hi, nn)

    @given(st.floats(1e-3, 1), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=200)
    def test_strictly_decreasing_in_nnccs_for_positive_ccs(self, ccs, a, b):
        # Strict for positive ccs; the published ratio is flat in nnccs
        # when ccs is 0 and increasing when ccs is negative.
        lo, hi = sorted((a, b))
        if hi - lo < 1e-6:
            return
        assert margin.cr(ccs, hi) < margin.cr(ccs, lo)

    def test_brute_force_crbatch_matches_exactly(self):
        rng = rng_for(0, 34)
        cos = rng.uniform(-1, 1, (32, 7))
        labels = rng.integers(0, 7, 32)
        batch = margin.cr_batch(cos, labels)
        for i in range(32):
            ccs = cos[i, labels[i]]
            nnccs = max(cos[i, j] for j in range(7) if j != labels[i])
            assert batch.ccs[i] == ccs
            assert batch.nnccs[i] == nnccs
            assert batch.cr[i] == ccs / (nnccs + (1.0 + 1e-9))


class TestArcfaceLoss:
    def test_margin_zero_scale_one_is_plain_softmax(self):
        bank = make_bank(s=1.0, m=0.0)
        emb = unit_rows(rng_for(1, 35), 12, 6)
        labels = rng_for(1, 36).integers(0, 4, 12)
        result = margin.arcface_loss(bank, emb, labels)
        cos = margin.cosines(bank, emb)
        shifted = cos - cos.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = float(-logp[np.arange(12), labels].mean())
        assert abs(result.loss - expected) < 1e-10

    def test_uniform_cosines_give_log_c(self):
        # all prototypes identical direction -> all cosines equal
        w = np.tile(rng_for(1, 37).standard_normal(5)[:, None], (1, 8))
        bank = margin.PrototypeBank(weights=w, scale=1.0, margin=0.0)
        emb = unit_rows(rng_for(1, 38), 3, 5)
        result = margin.arcface_loss(bank, emb, np.array([0, 3, 7]))
        assert result.loss == pytest.approx(math.log(8), abs=1e-10)

    def test_hand_computed_single_sample(self):
        # C=2, cos=[1, 0], y=0, s=64, m=0.5
        bank = margin.PrototypeBank(weights=np.eye(2), scale=64.0, margin=0.5)
        emb = np.array([[1.0, 0.0]])
        result = margin.arcface_loss(bank, emb, np.array([0]))
        z0 = 64.0 * math.cos(0.5)
        expected = math.log1p(math.exp(0.0 - z0))
        assert result.loss == pytest.approx(expected, rel=1e-12)

    def test_cr_uses_unmargined_cosines(self):
        # the trainer takes its certainty ratios from the cosine matrix
        # whose rows it passes to the margin loss, which must not margin it
        bank = make_bank(s=64.0, m=0.5, seed=2)
        emb = unit_rows(rng_for(2, 39), 10, 6)
        labels = rng_for(2, 40).integers(0, 4, 10)
        cos = margin.cosines(bank, emb)
        margin.arcface_loss(bank, emb, labels, cos=cos)
        assert cos.tobytes() == margin.cosines(bank, emb).tobytes()

    def test_prototype_scale_invariance_bitwise(self):
        bank = make_bank(seed=3)
        emb = unit_rows(rng_for(3, 41), 8, 6)
        labels = rng_for(3, 42).integers(0, 4, 8)
        base = margin.arcface_loss(bank, emb, labels)
        scaled = margin.PrototypeBank(weights=bank.weights * 2.0,
                                      scale=bank.scale, margin=bank.margin)
        res = margin.arcface_loss(scaled, emb, labels)
        assert res.loss == base.loss
        assert np.array_equal(res.grad_emb, base.grad_emb)
        assert np.array_equal(
            margin.cr_batch(margin.cosines(scaled, emb), labels).cr,
            margin.cr_batch(margin.cosines(bank, emb), labels).cr)
        # gradient wrt prototypes scales inversely with the column norm
        np.testing.assert_allclose(res.grad_bank, base.grad_bank / 2.0,
                                   rtol=1e-12)

    def _fd_check(self, bank, emb, labels, step=1e-4, tol=1e-4):
        result = margin.arcface_loss(bank, emb, labels)

        def loss_at(e, w):
            b2 = margin.PrototypeBank(weights=w, scale=bank.scale,
                                      margin=bank.margin)
            return margin.arcface_loss(b2, e, labels).loss

        worst = 0.0
        rng = rng_for(9, 43)
        flat_e = emb.size
        for k in rng.choice(flat_e, size=min(40, flat_e), replace=False):
            e1 = emb.copy().reshape(-1); e1[k] += step
            e2 = emb.copy().reshape(-1); e2[k] -= step
            num = (loss_at(e1.reshape(emb.shape), bank.weights)
                   - loss_at(e2.reshape(emb.shape), bank.weights)) / (2 * step)
            ana = result.grad_emb.reshape(-1)[k]
            worst = max(worst, abs(ana - num) / max(abs(ana), abs(num), 1e-6))
        flat_w = bank.weights.size
        for k in rng.choice(flat_w, size=min(40, flat_w), replace=False):
            w1 = bank.weights.copy().reshape(-1); w1[k] += step
            w2 = bank.weights.copy().reshape(-1); w2[k] -= step
            num = (loss_at(emb, w1.reshape(bank.weights.shape))
                   - loss_at(emb, w2.reshape(bank.weights.shape))) / (2 * step)
            ana = result.grad_bank.reshape(-1)[k]
            worst = max(worst, abs(ana - num) / max(abs(ana), abs(num), 1e-6))
        assert worst < tol, worst

    def test_gradients_match_finite_differences(self):
        bank = make_bank(d=16, c=8, seed=4)
        emb = unit_rows(rng_for(4, 44), 8, 16)
        labels = rng_for(4, 45).integers(0, 8, 8)
        self._fd_check(bank, emb, labels)

    def test_gradients_match_fd_small_scale(self):
        bank = make_bank(d=5, c=3, s=4.0, m=0.3, seed=5)
        emb = unit_rows(rng_for(5, 46), 6, 5)
        labels = rng_for(5, 47).integers(0, 3, 6)
        self._fd_check(bank, emb, labels)


def arcface_loss_with_wrappers(bank, emb, labels):
    """The margin loss as it was written with numpy's Python-level
    wrappers (np.clip, .max, .sum, .mean), one bank normalisation per
    call: the oracle for the wrapper-free margin.arcface_loss.  Returns
    the loss result and the CrBatch of its cosines."""
    emb = np.asarray(emb)
    labels = np.asarray(labels)
    norms = np.sqrt(np.add.reduce(bank.weights * bank.weights, axis=0))
    normalized = bank.weights / norms
    cos = np.clip(emb @ normalized, -1.0, 1.0)
    cr_stats = margin.cr_batch(cos, labels)
    b = emb.shape[0]
    rows = np.arange(b)
    cos_y = cos[rows, labels]
    sin_y = np.sqrt(np.maximum(1.0 - cos_y * cos_y, 0.0))
    cos_m = np.cos(bank.margin)
    sin_m = np.sin(bank.margin)
    wrap = cos_y <= np.cos(np.pi - bank.margin)
    target = np.where(wrap, cos_y - bank.margin * sin_m,
                      cos_y * cos_m - sin_y * sin_m)
    logits = bank.scale * cos
    logits[rows, labels] = bank.scale * target
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = float(-log_probs[rows, labels].mean())
    d_logits = np.exp(log_probs)
    d_logits[rows, labels] -= 1.0
    d_logits /= b
    d_cos = d_logits * bank.scale
    sin_safe = np.maximum(sin_y, margin.SIN_FLOOR)
    d_target = np.where(wrap, 1.0, cos_m + sin_m * cos_y / sin_safe)
    d_cos[rows, labels] = d_logits[rows, labels] * bank.scale * d_target
    grad_emb = d_cos @ normalized.T
    d_normalized = emb.T @ d_cos
    radial = np.sum(d_normalized * normalized, axis=0, keepdims=True)
    grad_bank = (d_normalized - radial * normalized) / norms
    return margin.MarginLossResult(loss=loss, grad_emb=grad_emb,
                                   grad_bank=grad_bank), cr_stats


class TestWrapperFree:
    """cosines and arcface_loss call ufuncs directly; every float op
    keeps its order and dtype, so results are bitwise those of the
    wrapper calls."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(2, 7),
           st.sampled_from([np.float32, np.float64]),
           st.floats(0.0, 1.4), st.floats(1.0, 64.0), st.floats(0.5, 2.0))
    @settings(max_examples=200, deadline=None)
    # in float32 a row at -1 to every prototype has CR ccs / 0
    @pytest.mark.filterwarnings("ignore:divide by zero encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_same_bytes_as_wrapper_version(self, seed, b, c, dtype, m, s,
                                           stretch):
        rng = rng_for(seed, 48)
        bank = margin.PrototypeBank(
            weights=rng.standard_normal((5, c)).astype(dtype), scale=s,
            margin=m)
        labels = rng.integers(0, c, b)
        # rows pointing away from their own prototype reach the
        # wrapped branch; stretched rows give cosines beyond [-1, 1]
        emb = unit_rows(rng, b, 5)
        emb[::2] = -(bank.weights / np.linalg.norm(bank.weights, axis=0)
                     )[:, labels[::2]].T
        emb = (emb * stretch).astype(dtype)
        want, want_cr = arcface_loss_with_wrappers(bank, emb, labels)
        columns = margin.normalized_columns(bank)
        cos = margin.cosines(bank, emb, columns[0])
        assert cos.tobytes() == np.clip(emb @ columns[0], -1.0,
                                        1.0).tobytes()
        got_cr = margin.cr_batch(cos, labels)
        for name in ("ccs", "nnccs", "cr"):
            assert (getattr(got_cr, name).tobytes()
                    == getattr(want_cr, name).tobytes()), name
        grad_bank = np.empty_like(bank.weights)
        for got in (margin.arcface_loss(bank, emb, labels),
                    margin.arcface_loss(bank, emb, labels, cos=cos,
                                        columns=columns,
                                        grad_bank=grad_bank)):
            assert np.float64(got.loss).tobytes() == np.float64(
                want.loss).tobytes()
            for name in ("grad_emb", "grad_bank"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert (getattr(got, name).tobytes()
                        == getattr(want, name).tobytes()), name
        assert got.grad_bank is grad_bank
