"""Compact feed-forward embedding network with explicit gradients.

Architecture is fixed at input -> hidden (rectifier) -> embed, followed
by row-wise L2 normalization, so every embedding lands on the unit
hypersphere.  Inputs are shifted by INPUT_CENTER before the first
layer: with raw [0, 1] pixels the constant component otherwise
dominates every pre-normalization vector and the normalized embeddings
of different classes start out nearly parallel.  Forward and backward
are hand-written numpy; the backward pass projects the radial component
out of the incoming gradient, per the normalization Jacobian.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEmbeddingError, StaleCacheError, StructuralError
from .rngstreams import T_GRADCHECK, rng_for

NORM_FLOOR = 1e-8
INPUT_CENTER = 0.5


@dataclass
class MlpBackbone:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def input_dim(self):
        return self.w1.shape[0]

    @property
    def hidden_dim(self):
        return self.w1.shape[1]

    @property
    def embed_dim(self):
        return self.w2.shape[1]

    def params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass
class ForwardCache:
    x: np.ndarray
    pre_hidden: np.ndarray
    hidden: np.ndarray
    embeddings: np.ndarray
    norms: np.ndarray
    # the model itself, not its id: a freed model's id can be reused
    model: object = None

    def rows(self, index):
        """The cache of the rows a slice selects, as views."""
        return ForwardCache(self.x[index], self.pre_hidden[index],
                            self.hidden[index], self.embeddings[index],
                            self.norms[index], self.model)


def init_backbone(input_dim, hidden_dim=128, embed_dim=64, rng=None,
                  dtype=np.float64):
    """Uniform fan-in-scaled weights, zero biases."""
    if rng is None:
        rng = rng_for(0, T_GRADCHECK)
    lim1 = 1.0 / np.sqrt(input_dim)
    lim2 = 1.0 / np.sqrt(hidden_dim)
    return MlpBackbone(
        w1=rng.uniform(-lim1, lim1, (input_dim, hidden_dim)).astype(dtype),
        b1=np.zeros(hidden_dim, dtype=dtype),
        w2=rng.uniform(-lim2, lim2, (hidden_dim, embed_dim)).astype(dtype),
        b2=np.zeros(embed_dim, dtype=dtype),
    )


def forward(model, batch):
    """Embed a batch of images (or pre-flattened rows).

    Returns (embeddings, cache); every embedding row has unit norm.
    Raises DegenerateEmbeddingError if a pre-normalization vector has
    norm below NORM_FLOOR instead of silently dividing.
    """
    x = np.asarray(batch)
    if x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    if x.ndim != 2 or x.shape[0] == 0:
        raise StructuralError("batch must be a non-empty 2-D array or image stack")
    if x.shape[1] != model.input_dim:
        raise StructuralError(
            f"input dim {x.shape[1]} does not match model dim {model.input_dim}")
    x = x.astype(model.w1.dtype, copy=False) - model.w1.dtype.type(INPUT_CENTER)
    pre_hidden = x @ model.w1 + model.b1
    hidden = np.maximum(pre_hidden, 0.0)
    pre_norm = hidden @ model.w2 + model.b2
    norms = np.sqrt(np.add.reduce(pre_norm * pre_norm, axis=1))
    if np.logical_or.reduce(norms < NORM_FLOOR):
        raise DegenerateEmbeddingError(
            f"pre-normalization norm below {NORM_FLOOR}")
    embeddings = pre_norm / norms[:, None]
    cache = ForwardCache(x=x, pre_hidden=pre_hidden, hidden=hidden,
                         embeddings=embeddings, norms=norms, model=model)
    return embeddings, cache


def backward(model, cache, grad_wrt_embeddings, out=None):
    """Backpropagate a gradient on the unit-norm embeddings to all
    parameters, keyed like ``MlpBackbone.params()``.  The radial
    component of the gradient is removed per sample before entering the
    linear layers.  ``out``, a dict keyed the same way, receives the
    gradients in place and is returned.
    """
    if cache.model is not model:
        raise StaleCacheError("cache was produced by a different model")
    g = np.asarray(grad_wrt_embeddings)
    if g.shape != cache.embeddings.shape:
        raise StaleCacheError(
            f"gradient shape {g.shape} does not match cached "
            f"embeddings {cache.embeddings.shape}")
    e = cache.embeddings
    radial = np.add.reduce(g * e, axis=1, keepdims=True)
    d_pre_norm = (g - radial * e) / cache.norms[:, None]
    out = dict.fromkeys(model.params()) if out is None else out
    out["w2"] = np.matmul(cache.hidden.T, d_pre_norm, out=out["w2"])
    out["b2"] = np.add.reduce(d_pre_norm, axis=0, out=out["b2"])
    d_hidden = d_pre_norm @ model.w2.T
    d_pre_hidden = d_hidden * (cache.pre_hidden > 0)
    out["w1"] = np.matmul(cache.x.T, d_pre_hidden, out=out["w1"])
    out["b1"] = np.add.reduce(d_pre_hidden, axis=0, out=out["b1"])
    return out


@dataclass
class GradCheckReport:
    max_rel_err: float
    n_checked: int
    tol: float
    worst: tuple = field(default=())

    @property
    def passed(self):
        return self.max_rel_err < self.tol


def _rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_check(model, loss_fn, batch, tol=1e-4, step=1e-4, n_samples=60,
               rng=None):
    """Compare analytic parameter gradients against central finite
    differences on a random parameter subsample.

    ``loss_fn(embeddings) -> (loss, grad_wrt_embeddings)`` must be a
    deterministic function of the embeddings alone.
    """
    if rng is None:
        rng = rng_for(0, T_GRADCHECK, 1)
    emb, cache = forward(model, batch)
    _, g_emb = loss_fn(emb)
    analytic = backward(model, cache, g_emb)

    def total_loss():
        e, _ = forward(model, batch)
        return loss_fn(e)[0]

    names = sorted(analytic)
    sizes = np.array([model.params()[n].size for n in names])
    flat_total = int(sizes.sum())
    picks = rng.choice(flat_total, size=min(n_samples, flat_total),
                       replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    max_err = 0.0
    worst = ()
    for flat in sorted(int(p) for p in picks):
        layer = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[layer]
        idx = flat - offsets[layer]
        param = model.params()[name].reshape(-1)
        orig = param[idx]
        param[idx] = orig + step
        up = total_loss()
        param[idx] = orig - step
        down = total_loss()
        param[idx] = orig
        numeric = (up - down) / (2.0 * step)
        err = _rel_err(float(analytic[name].reshape(-1)[idx]), float(numeric))
        if err > max_err:
            max_err = err
            worst = (name, int(idx), float(analytic[name].reshape(-1)[idx]),
                     float(numeric))
    return GradCheckReport(max_rel_err=max_err, n_checked=len(picks), tol=tol,
                           worst=worst)

