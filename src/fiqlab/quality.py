"""Single-linear-layer quality regressor and its weighted Smooth-L1 loss.

The head maps a unit-norm embedding to a scalar score; that scalar is
the image-quality estimate at inference.  Training minimizes the
per-class-weighted Smooth-L1 distance between the score and the
certainty-ratio pseudo-label, with the pseudo-label treated as a
constant (no gradient flows into the label path).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError


@dataclass
class RegressionHead:
    weight: np.ndarray
    # None, or a (1,) array of the weight's dtype, updated in place
    bias: np.ndarray | None = None
    beta: float = 1.0

    def __post_init__(self):
        if self.beta <= 0.0:
            raise DomainError("beta must be positive")

    @property
    def embed_dim(self):
        return self.weight.shape[0]


def init_head(embed_dim, with_bias=False, beta=1.0, dtype=np.float64):
    return RegressionHead(weight=np.zeros(embed_dim, dtype=dtype),
                          bias=np.zeros(1, dtype=dtype) if with_bias else None,
                          beta=beta)


def predict(head, emb):
    """Scalar quality score per embedding row."""
    emb = np.asarray(emb)
    if emb.ndim != 2 or emb.shape[1] != head.embed_dim:
        raise StructuralError(
            f"embeddings of shape {emb.shape} do not match head dim "
            f"{head.embed_dim}")
    scores = emb @ head.weight
    if head.bias is not None:
        scores = scores + head.bias
    return scores


def smooth_l1(d, beta=1.0):
    """0.5/beta * d^2 inside |d| < beta, |d| - 0.5*beta outside; the two
    branches and their slopes agree at the boundary."""
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    d = np.asarray(d)
    ad = np.abs(d)
    return np.where(ad < beta, 0.5 / beta * d * d, ad - 0.5 * beta)


def smooth_l1_grad(d, beta=1.0):
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    d = np.asarray(d)
    return np.where(np.abs(d) < beta, d / beta, np.sign(d))


@dataclass
class RegressionLossResult:
    loss: float
    grad_weight: np.ndarray
    grad_bias: float | None
    grad_emb: np.ndarray


def weighted_regression_loss(head, emb, cr_targets, class_weights,
                             reduction="sum"):
    """Weighted Smooth-L1 between predictions and pseudo-labels.

    reduction="sum" follows the literal per-batch summation; "mean"
    divides by the batch size (exposed because the published formulation
    leaves the reduction ambiguous and sum couples the gradient scale to
    the batch size).  Zero-weighted samples contribute exactly zero to
    the loss and to every gradient.
    """
    if reduction not in ("sum", "mean"):
        raise DomainError(f"unknown reduction {reduction!r}")
    emb = np.asarray(emb)
    targets = np.asarray(cr_targets)
    w = np.asarray(class_weights)
    preds = predict(head, emb)
    if targets.shape != preds.shape or w.shape != preds.shape:
        raise StructuralError("targets/weights must be one value per sample")

    resid = targets - preds
    per_sample = w * smooth_l1(resid, head.beta)
    scale = 1.0 if reduction == "sum" else 1.0 / emb.shape[0]
    loss = float(np.add.reduce(per_sample) * scale)

    # d loss / d pred_i; the residual enters as (target - pred).
    d_pred = -scale * w * smooth_l1_grad(resid, head.beta)
    grad_weight = emb.T @ d_pred
    grad_bias = None if head.bias is None else float(np.add.reduce(d_pred))
    grad_emb = d_pred[:, None] * head.weight[None, :]
    return RegressionLossResult(loss=loss, grad_weight=grad_weight,
                                grad_bias=grad_bias, grad_emb=grad_emb)
