import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiqlab import quality
from fiqlab.errors import DomainError, StructuralError
from fiqlab.rngstreams import rng_for


def unit_rows(rng, b, d):
    x = rng.standard_normal((b, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestPredict:
    def test_zero_weight_all_zero(self):
        head = quality.RegressionHead(weight=np.zeros(8))
        emb = unit_rows(rng_for(0, 70), 5, 8)
        assert np.all(quality.predict(head, emb) == 0.0)

    def test_basis_weight_projects_coordinate(self):
        head = quality.RegressionHead(weight=np.zeros(6))
        head.weight[2] = 1.0
        emb = unit_rows(rng_for(0, 71), 4, 6)
        np.testing.assert_array_equal(quality.predict(head, emb), emb[:, 2])

    def test_duplicated_rows_identical_scores(self):
        head = quality.RegressionHead(weight=rng_for(0, 72).standard_normal(6))
        emb = unit_rows(rng_for(0, 73), 3, 6)
        scores = quality.predict(head, np.vstack([emb, emb]))
        assert np.array_equal(scores[:3], scores[3:])

    def test_dim_mismatch(self):
        head = quality.RegressionHead(weight=np.zeros(8))
        with pytest.raises(StructuralError):
            quality.predict(head, np.zeros((2, 5)))


class TestSmoothL1:
    def test_zero(self):
        assert quality.smooth_l1(0.0) == 0.0

    def test_branch_boundary_identity(self):
        for beta in (0.5, 1.0, 2.0):
            quad = 0.5 / beta * beta * beta
            lin = beta - 0.5 * beta
            assert quad == pytest.approx(lin, abs=1e-15)
            assert quality.smooth_l1(beta, beta) == pytest.approx(0.5 * beta,
                                                                  abs=1e-12)

    def test_hand_evaluated(self):
        assert quality.smooth_l1(0.1, 1.0) == pytest.approx(0.005, abs=1e-12)

    def test_beta_positive(self):
        with pytest.raises(DomainError):
            quality.smooth_l1(0.5, 0.0)
        with pytest.raises(DomainError):
            quality.smooth_l1_grad(0.5, -1.0)

    @given(st.floats(0.01, 5.0), st.floats(-10, 10))
    @settings(max_examples=200)
    def test_continuity_and_slope(self, beta, d):
        eps = 1e-7
        f = quality.smooth_l1
        jump = abs(float(f(d + eps, beta)) - float(f(d - eps, beta)))
        assert jump < 1e-5
        slope = (float(f(d + eps, beta)) - float(f(d - eps, beta))) / (2 * eps)
        assert slope == pytest.approx(float(quality.smooth_l1_grad(d, beta)),
                                      abs=1e-4)

    def test_derivative_continuous_at_boundary(self):
        beta = 1.3
        inside = quality.smooth_l1_grad(beta - 1e-12, beta)
        outside = quality.smooth_l1_grad(beta + 1e-12, beta)
        assert inside == pytest.approx(outside, abs=1e-9)
        assert outside == 1.0


class TestWeightedRegressionLoss:
    def setup_method(self):
        rng = rng_for(1, 74)
        self.emb = unit_rows(rng, 10, 6)
        self.targets = rng.uniform(0, 1, 10)
        self.head = quality.RegressionHead(weight=rng.standard_normal(6) * 0.1)

    def test_all_zero_weights_annihilate(self):
        res = quality.weighted_regression_loss(self.head, self.emb,
                                               self.targets, np.zeros(10))
        assert res.loss == 0.0
        assert np.all(res.grad_weight == 0.0)
        assert np.all(res.grad_emb == 0.0)

    def test_zero_residual_zero_loss(self):
        targets = quality.predict(self.head, self.emb)
        res = quality.weighted_regression_loss(self.head, self.emb, targets,
                                               np.ones(10))
        assert res.loss == 0.0

    def test_zero_weighted_samples_leak_nothing(self):
        w = np.ones(10)
        w[3] = 0.0
        w[7] = 0.0
        res_a = quality.weighted_regression_loss(self.head, self.emb,
                                                 self.targets, w)
        emb_garbled = self.emb.copy()
        emb_garbled[3] = 123.0
        targets_garbled = self.targets.copy()
        targets_garbled[7] = -999.0
        res_b = quality.weighted_regression_loss(self.head, emb_garbled,
                                                 targets_garbled, w)
        assert res_a.loss == res_b.loss
        assert np.array_equal(res_a.grad_weight, res_b.grad_weight)

    def test_permutation_invariance(self):
        w = rng_for(1, 75).uniform(0, 1, 10)
        perm = rng_for(1, 76).permutation(10)
        res_a = quality.weighted_regression_loss(self.head, self.emb,
                                                 self.targets, w)
        res_b = quality.weighted_regression_loss(self.head, self.emb[perm],
                                                 self.targets[perm], w[perm])
        assert res_a.loss == pytest.approx(res_b.loss, rel=1e-12)

    def test_homogeneous_in_weights(self):
        w = rng_for(1, 77).uniform(0, 1, 10)
        base = quality.weighted_regression_loss(self.head, self.emb,
                                                self.targets, w)
        doubled = quality.weighted_regression_loss(self.head, self.emb,
                                                   self.targets, 2.0 * w)
        assert doubled.loss == 2.0 * base.loss
        halved = quality.weighted_regression_loss(self.head, self.emb,
                                                  self.targets, 0.5 * w)
        assert halved.loss == 0.5 * base.loss

    def test_mean_reduction_scales_by_batch(self):
        w = np.ones(10)
        s = quality.weighted_regression_loss(self.head, self.emb,
                                             self.targets, w, reduction="sum")
        m = quality.weighted_regression_loss(self.head, self.emb,
                                             self.targets, w, reduction="mean")
        assert m.loss == pytest.approx(s.loss / 10.0, rel=1e-12)

    def test_unknown_reduction(self):
        with pytest.raises(DomainError):
            quality.weighted_regression_loss(self.head, self.emb,
                                             self.targets, np.ones(10),
                                             reduction="median")

    def test_gradients_match_finite_differences(self):
        rng = rng_for(2, 78)
        emb = unit_rows(rng, 8, 5)
        targets = rng.uniform(-0.5, 1.5, 8)
        w = rng.uniform(0, 1, 8)
        head = quality.RegressionHead(weight=rng.standard_normal(5) * 0.3)
        res = quality.weighted_regression_loss(head, emb, targets, w)
        step = 1e-4

        def loss_of(weight, e):
            h = quality.RegressionHead(weight=weight)
            return quality.weighted_regression_loss(h, e, targets, w).loss

        worst = 0.0
        for k in range(5):
            w1 = head.weight.copy(); w1[k] += step
            w2 = head.weight.copy(); w2[k] -= step
            num = (loss_of(w1, emb) - loss_of(w2, emb)) / (2 * step)
            worst = max(worst, abs(num - res.grad_weight[k])
                        / max(abs(num), abs(res.grad_weight[k]), 1e-6))
        flat = emb.size
        for k in rng_for(2, 79).choice(flat, size=20, replace=False):
            e1 = emb.copy().reshape(-1); e1[k] += step
            e2 = emb.copy().reshape(-1); e2[k] -= step
            num = (loss_of(head.weight, e1.reshape(emb.shape))
                   - loss_of(head.weight, e2.reshape(emb.shape))) / (2 * step)
            ana = res.grad_emb.reshape(-1)[k]
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-6))
        assert worst < 1e-4, worst
