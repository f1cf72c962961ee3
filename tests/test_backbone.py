import numpy as np
import pytest

from fiqlab import backbone as bb
from fiqlab.errors import (
    DegenerateEmbeddingError,
    StaleCacheError,
    StructuralError,
)
from fiqlab.rngstreams import rng_for


@pytest.fixture
def model():
    return bb.init_backbone(20, hidden_dim=16, embed_dim=8, rng=rng_for(1, 0))


@pytest.fixture
def batch():
    return rng_for(1, 1).uniform(0, 1, (6, 20))


class TestForward:
    def test_rows_unit_norm(self, model, batch):
        emb, _ = bb.forward(model, batch)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)

    def test_duplicated_inputs_identical_embeddings(self, model, batch):
        doubled = np.vstack([batch, batch])
        emb, _ = bb.forward(model, doubled)
        assert np.array_equal(emb[:6], emb[6:])

    def test_image_stack_flattened(self, model):
        imgs = rng_for(1, 2).uniform(0, 1, (3, 4, 5))
        emb, _ = bb.forward(model, imgs)
        assert emb.shape == (3, 8)

    def test_dim_mismatch(self, model):
        with pytest.raises(StructuralError):
            bb.forward(model, np.zeros((2, 7)))

    def test_empty_batch(self, model):
        with pytest.raises(StructuralError):
            bb.forward(model, np.zeros((0, 20)))

    def test_zero_final_layer_raises_degeneracy(self, model, batch):
        model.w2[:] = 0.0
        model.b2[:] = 0.0
        with pytest.raises(DegenerateEmbeddingError):
            bb.forward(model, batch)


class TestBackward:
    def test_zero_gradient_in_zero_out(self, model, batch):
        emb, cache = bb.forward(model, batch)
        grads = bb.backward(model, cache, np.zeros_like(emb))
        for arr in grads.values():
            assert np.all(arr == 0.0)

    def test_linearity(self, model, batch):
        emb, cache = bb.forward(model, batch)
        rng = rng_for(1, 3)
        g1 = rng.standard_normal(emb.shape)
        g2 = rng.standard_normal(emb.shape)
        a, b = 0.3, -1.7
        lhs = bb.backward(model, cache, a * g1 + b * g2)
        r1 = bb.backward(model, cache, g1)
        r2 = bb.backward(model, cache, g2)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_allclose(
                lhs[name],
                a * r1[name] + b * r2[name], atol=1e-10)

    def test_radial_gradient_annihilated(self, model, batch):
        emb, cache = bb.forward(model, batch)
        grads = bb.backward(model, cache, emb.copy())
        for arr in grads.values():
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)

    def test_stale_cache_rejected(self, model, batch):
        emb, cache = bb.forward(model, batch)
        other = bb.init_backbone(20, hidden_dim=16, embed_dim=8,
                                 rng=rng_for(2, 0))
        with pytest.raises(StaleCacheError):
            bb.backward(other, cache, np.zeros_like(emb))
        with pytest.raises(StaleCacheError):
            bb.backward(model, cache, np.zeros((3, 8)))

    def test_stale_cache_rejected_after_its_model_is_freed(self, batch):
        def cache_of_dropped_model():
            dropped = bb.init_backbone(20, hidden_dim=16, embed_dim=8,
                                       rng=rng_for(1, 0))
            return bb.forward(dropped, batch)[1]

        cache = cache_of_dropped_model()
        # same shapes, so only the model check stands between a new model,
        # which may take the dropped one's memory and id, and the cache
        for seed in range(20):
            other = bb.init_backbone(20, hidden_dim=16, embed_dim=8,
                                     rng=rng_for(2, seed))
            with pytest.raises(StaleCacheError):
                bb.backward(other, cache, np.zeros((6, 8)))


class TestGradCheck:
    def test_quadratic_toy_loss(self, model, batch):
        target = rng_for(1, 4).standard_normal((6, 8))

        def loss_fn(emb):
            diff = emb - target
            return 0.5 * float(np.sum(diff * diff)), diff

        report = bb.grad_check(model, loss_fn, batch)
        assert report.max_rel_err < 1e-6, report.worst

    def test_report_fields(self, model, batch):
        def loss_fn(emb):
            return float(emb.sum()), np.ones_like(emb)

        report = bb.grad_check(model, loss_fn, batch, n_samples=10)
        assert report.n_checked == 10
        assert len(report.worst) == 4

    def test_detects_injected_sign_error(self, model, batch):
        def bad_loss(emb):
            return float(emb.sum()), -np.ones_like(emb)  # wrong sign

        report = bb.grad_check(model, bad_loss, batch)
        assert report.max_rel_err >= 1e-4
