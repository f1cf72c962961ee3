"""Per-class EMA approximation of intra-class embedding variance.

Each class keeps a running estimate v of mean(1 - CCS), updated once
per training iteration with momentum alpha that ramps linearly from
alpha_start to alpha_end over the run.  Classes whose v sits one
standard deviation or more below the mean receive loss weight 0; the
weight ramps linearly up to 1 at the mean, via a z-score clamped to
[-1, 0] plus one.  On a unit-Gaussian v distribution this zeroes about
16% of classes.
"""

from dataclasses import dataclass

import numpy as np

from .configio import write_csv
from .errors import DomainError, StructuralError

SIGMA_FLOOR = 1e-12


@dataclass
class VarianceTracker:
    v: np.ndarray
    step: int = 0
    total_steps: int = 1
    alpha_start: float = 0.9
    alpha_end: float = 1.0

    @property
    def num_classes(self):
        return self.v.shape[0]


@dataclass
class WeightVector:
    w: np.ndarray
    mu: float
    sigma: float


def init_tracker(num_classes, total_steps, alpha_start=0.9, alpha_end=1.0,
                 dtype=np.float64):
    """All classes start at v = 1.0 so every sample contributes equally
    at the beginning of training."""
    if total_steps <= 0:
        raise DomainError("total_steps must be positive")
    return VarianceTracker(v=np.ones(num_classes, dtype=dtype),
                           total_steps=total_steps,
                           alpha_start=alpha_start, alpha_end=alpha_end)


def alpha_at(tracker):
    """Momentum at the current iteration: linear interpolation from
    alpha_start at step 0 to alpha_end at step total_steps."""
    if tracker.total_steps <= 0:
        raise DomainError("total_steps must be positive")
    frac = min(tracker.step / tracker.total_steps, 1.0)
    return tracker.alpha_start + (tracker.alpha_end - tracker.alpha_start) * frac


# numpy sums fewer than this many values one by one, and more in a
# pairwise order (np.add.reduce, as np.mean does).
_PAIRWISE_FROM = 8


def group_ccs_by_class(labels, ccs):
    """Batch (labels, ccs) -> (classes, obs) for update(): the distinct
    classes in ascending order and, per class, the mean of 1 - CCS over
    its samples.

    Each class's sum is bit-identical to np.mean over its values in
    batch order: np.bincount adds them one by one, as np.mean does for
    fewer than _PAIRWISE_FROM values, and the rarer larger classes are
    summed again with np.mean's own pairwise reduction.
    """
    labels = np.asarray(labels, dtype=np.int64)
    dist = 1.0 - np.asarray(ccs, dtype=np.float64)
    if labels.ndim != 1 or labels.shape != dist.shape:
        raise StructuralError("labels and ccs must be equal-length 1-D arrays")
    if labels.size and labels.min() < 0:
        raise StructuralError(f"negative class index {labels.min()}")
    counts = np.bincount(labels)
    sums = np.bincount(labels, weights=dist)
    for c in (counts >= _PAIRWISE_FROM).nonzero()[0].tolist():
        sums[c] = dist[labels == c].sum()
    classes = counts.nonzero()[0]
    return classes, sums[classes] / counts[classes]


def update(tracker, grouped):
    """One EMA step from a batch grouped by group_ccs_by_class.

    Multiple same-class samples are averaged into a single observation
    before the EMA step, so the fold is independent of within-batch
    ordering.  Classes absent from the batch are untouched.  The
    weighted observation is rounded to the tracker dtype before the
    add, as a scalar update of a float32 entry rounds it.  Mutates and
    returns the tracker; the step counter advances once per call.
    """
    classes, obs = grouped
    classes = np.asarray(classes, dtype=np.int64)
    alpha = alpha_at(tracker)
    outside = (classes < 0) | (classes >= tracker.num_classes)
    if np.logical_or.reduce(outside):
        raise StructuralError(
            f"class index {int(classes[outside][0])} outside "
            f"[0, {tracker.num_classes})")
    v = tracker.v
    v[classes] = alpha * v[classes] + ((1.0 - alpha) * np.asarray(
        obs, dtype=np.float64)).astype(v.dtype)
    tracker.step += 1
    return tracker


def weights(tracker):
    """Per-class loss weights 1 + clamp((v - mu)/sigma, -1, 0).

    mu and sigma (population) are recomputed from the full v array on
    every call.  If sigma is degenerate (all v equal, e.g. right after
    initialization) every class gets weight 1.
    """
    v = tracker.v
    # v.mean() and v.std() without their wrappers, rounding as they do
    n = np.intp(v.size)
    mean = v.dtype.type(np.add.reduce(v) / n)
    dev = v - mean
    mu = float(mean)
    sigma = float(np.sqrt(v.dtype.type(np.add.reduce(dev * dev) / n)))
    if sigma < SIGMA_FLOOR:
        return WeightVector(w=np.ones_like(v), mu=mu, sigma=sigma)
    z = (v - mu) / sigma
    # np.clip(z, -1.0, 0.0) without its wrapper (1.0 + z is 1.0 for ±0)
    np.maximum(z, -1.0, out=z)
    w = 1.0 + np.minimum(z, 0.0, out=z)
    return WeightVector(w=w, mu=mu, sigma=sigma)


def export_weights_csv(tracker, path):
    """Write `class_id,v,weight` rows for offline weight-distribution
    analysis."""
    rows = np.stack([np.arange(tracker.num_classes), tracker.v,
                     weights(tracker).w], axis=1)
    write_csv(path, "class_id,v,weight", "%d,%.9g,%.9g", rows.ravel())
