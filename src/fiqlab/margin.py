"""Prototype bank and additive-angular-margin classification loss.

The bank stores one unnormalized prototype column per class and
normalizes at use.  Alongside the margin loss this module computes, per
sample, the cosine to the own-class prototype (CCS), the maximum cosine
to any other prototype (NNCCS), and their certainty ratio
CR = CCS / (NNCCS + 1 + eps), the pseudo-label used to train the
quality regressor.  CR always derives from the pre-margin cosines.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .rngstreams import T_INIT_BANK, rng_for

CR_EPS = 1e-9

# sin(theta) in the margin gradient is clamped away from the
# theta in {0, pi} singularity.
SIN_FLOOR = 1e-7

_PROTO_NORM_FLOOR = 1e-12


@dataclass
class PrototypeBank:
    """Class-prototype matrix (embed_dim x num_classes) with the margin
    loss hyperparameters."""

    weights: np.ndarray
    scale: float = 64.0
    margin: float = 0.5

    def __post_init__(self):
        if self.scale <= 0.0:
            raise DomainError("scale must be positive")
        if not 0.0 <= self.margin < np.pi / 2:
            raise DomainError("margin must lie in [0, pi/2)")

    @property
    def embed_dim(self):
        return self.weights.shape[0]

    @property
    def num_classes(self):
        return self.weights.shape[1]


@dataclass
class CrBatch:
    """Per-sample CCS, NNCCS and certainty-ratio pseudo-labels."""

    ccs: np.ndarray
    nnccs: np.ndarray
    cr: np.ndarray


def init_bank(embed_dim, num_classes, scale=64.0, margin=0.5, rng=None,
              dtype=np.float64):
    """Random unit prototype columns."""
    if rng is None:
        rng = rng_for(0, T_INIT_BANK)
    w = rng.standard_normal((embed_dim, num_classes))
    w = w / np.linalg.norm(w, axis=0, keepdims=True)
    return PrototypeBank(weights=w.astype(dtype), scale=scale, margin=margin)


def normalized_columns(bank):
    """Unit prototype columns and the norms they were divided by."""
    norms = np.sqrt(np.add.reduce(bank.weights * bank.weights, axis=0))
    if np.logical_or.reduce(norms < _PROTO_NORM_FLOOR):
        raise NumericError("prototype column with (near-)zero norm")
    return bank.weights / norms, norms


def cosines(bank, emb, normalized=None):
    """Cosine of every (sample, class) pair, clamped to [-1, 1].

    Embeddings are expected row-unit-norm; prototypes are normalized
    here regardless of their stored scale, or passed as ``normalized``.
    """
    if normalized is None:
        normalized, _ = normalized_columns(bank)
    cos = np.asarray(emb) @ normalized
    np.maximum(cos, -1.0, out=cos)  # np.clip without its wrapper
    return np.minimum(cos, 1.0, out=cos)


def ccs_nnccs_batch(cos, labels):
    """Per row: own-class cosine and the largest other-class cosine."""
    cos = np.asarray(cos)
    if cos.shape[1] < 2:
        raise DomainError("NNCCS is undefined with fewer than 2 classes")
    rows = np.arange(cos.shape[0])
    ccs = cos[rows, labels]
    masked = cos.copy()
    masked[rows, labels] = -np.inf
    nnccs = np.maximum.reduce(masked, axis=1)
    return ccs, nnccs


def cr(ccs, nnccs):
    """Certainty ratio ccs / (nnccs + 1 + eps); no clamping is applied,
    so the caller owns any magnitude handling when nnccs approaches -1.
    """
    return ccs / (nnccs + (1.0 + CR_EPS))


def cr_batch(cos, labels):
    ccs, nnccs = ccs_nnccs_batch(cos, labels)
    return CrBatch(ccs=ccs, nnccs=nnccs, cr=cr(ccs, nnccs))


@dataclass
class MarginLossResult:
    loss: float
    grad_emb: np.ndarray
    grad_bank: np.ndarray
    cr: CrBatch


def arcface_loss(bank, emb, labels, cos=None, columns=None, grad_bank=None):
    """Additive-angular-margin cross-entropy, averaged over the batch.

    Target logit is scale*cos(theta_y + margin), the rest are
    scale*cos(theta_j).  Once theta_y + margin would exceed pi the
    margined cosine stops being monotone in the angle, so past that
    point the target logit switches to the standard linear extension
    cos(theta_y) - margin*sin(margin); without this guard training has
    an antipodal collapse attractor.  Returns analytic gradients with
    respect to the embeddings and the (unnormalized) prototype matrix,
    plus the CrBatch computed from the unmargined cosines.

    ``cos`` and ``columns`` pass in the cosines of ``emb`` and the
    bank's normalized_columns; ``grad_bank`` receives that gradient.
    """
    emb = np.asarray(emb)
    labels = np.asarray(labels)
    normalized, norms = columns or normalized_columns(bank)
    if cos is None:
        cos = cosines(bank, emb, normalized)
    cr_stats = cr_batch(cos, labels)

    b = emb.shape[0]
    rows = np.arange(b)
    cos_y = cr_stats.ccs
    sin_y = np.sqrt(np.maximum(1.0 - cos_y * cos_y, 0.0))
    cos_m = np.cos(bank.margin)
    sin_m = np.sin(bank.margin)
    wrap = cos_y <= np.cos(np.pi - bank.margin)
    target = np.where(wrap, cos_y - bank.margin * sin_m,
                      cos_y * cos_m - sin_y * sin_m)

    logits = bank.scale * cos
    logits[rows, labels] = bank.scale * target

    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1))
    log_probs = shifted - log_z[:, None]
    own = log_probs[rows, labels]  # .mean() without its wrapper
    loss = float(-own.dtype.type(np.add.reduce(own) / np.intp(b)))

    d_logits = np.exp(log_probs)
    d_logits[rows, labels] -= 1.0
    d_logits /= b

    d_cos = d_logits * bank.scale
    sin_safe = np.maximum(sin_y, SIN_FLOOR)
    d_target = np.where(wrap, 1.0, cos_m + sin_m * cos_y / sin_safe)
    d_cos[rows, labels] = d_logits[rows, labels] * bank.scale * d_target

    grad_emb = d_cos @ normalized.T
    d_normalized = emb.T @ d_cos
    radial = np.add.reduce(d_normalized * normalized, axis=0, keepdims=True)
    grad_bank = np.divide(d_normalized - radial * normalized, norms,
                          out=grad_bank)

    return MarginLossResult(loss=loss, grad_emb=grad_emb,
                            grad_bank=grad_bank, cr=cr_stats)
