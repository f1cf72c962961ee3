"""Verification protocol, ERC curves, correlation statistics, and the
brute-force oracles used to cross-check the training-side estimates.

Conventions (decided defaults, documented rather than tuned):
  - similarity between two samples is the cosine of their backbone
    embeddings;
  - the quality of a pair is the minimum of its two sample scores;
  - the acceptance threshold is calibrated once on the unfiltered
    non-mated set and held fixed across rejection rates;
  - the rejection grid is {0, step, ..., 0.95} and the reported AUC is
    the unnormalized trapezoidal integral over that grid.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import synthdata, variance
from .configio import write_csv
from .errors import (
    DomainError,
    StructuralError,
    UndefinedCorrelationError,
    UndefinedFnmrError,
)
from .rngstreams import T_PAIRS, rng_for

# Pairs whose two gathered embedding rows pair_similarities holds at once.
_PAIR_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class PairSet:
    """Verification pairs as arrays: int64 sample indices, bool mated."""
    index_a: np.ndarray
    index_b: np.ndarray
    genuine: np.ndarray

    def __len__(self):
        return self.index_a.shape[0]


@dataclass
class ErcCurve:
    fmr_target: float
    threshold: float
    points: np.ndarray  # (k, 2) columns reject_rate, fnmr
    auc: float


# ---------------------------------------------------------------------------
# pair protocol

def gen_pairs(dataset, max_per_class=None, nonmated_count=0, seed=0):
    """Enumerate mated pairs (up to ``max_per_class`` per class) plus
    ``nonmated_count`` random cross-class pairs.  Deterministic for a
    fixed seed; classes with fewer than two samples simply contribute no
    mated pairs.  Asking for more non-mated pairs than there are distinct
    cross-class pairs raises DomainError.  Of ``dataset`` only ``labels``
    and ``num_classes`` are read, which a read ``DatasetStream`` has too.
    """
    if nonmated_count < 0 or (max_per_class or 0) < 0:
        raise DomainError(f"pair counts must be >= 0, got max_per_class="
                          f"{max_per_class}, nonmated_count={nonmated_count}")
    rng = rng_for(seed, T_PAIRS)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = labels.shape[0]
    sizes = np.bincount(labels).tolist()
    cross = n * (n - 1) // 2 - sum(k * (k - 1) // 2 for k in sizes)
    if nonmated_count > cross:
        raise DomainError(
            f"{nonmated_count} non-mated pairs requested, but only {cross} "
            f"distinct cross-class pairs exist")
    # a stable sort keeps each class's members in ascending index order
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order],
                             np.arange(dataset.num_classes + 1)).tolist()
    triangles, parts = {}, []
    for c in range(dataset.num_classes):
        members = order[bounds[c]:bounds[c + 1]]
        k = members.size
        if k not in triangles:  # itertools.combinations order
            triangles[k] = np.array(np.triu_indices(k, k=1))
        tri = triangles[k]
        if max_per_class is not None and tri.shape[1] > max_per_class:
            tri = tri[:, np.sort(rng.choice(tri.shape[1], size=max_per_class,
                                            replace=False))]
        parts.append(members[tri])

    # The rows of integers(0, n, (m, 2)) are the draws of m calls of
    # integers(0, n, 2), so the first new keys in row order are the pairs
    # a draw-at-a-time loop keeps.  A block holds the draws expected to
    # yield the pairs still needed, within a memory cap.
    picked = {}  # key lo * n + hi -> None, in draw order
    while len(picked) < nonmated_count:
        need = nonmated_count - len(picked)
        expected = -(-need * n * n // (2 * (cross - len(picked))))
        a, b = rng.integers(0, n, (max(need, min(expected, 1 << 16)), 2)).T
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        for key in keys[labels[a] != labels[b]].tolist():  # implies a != b
            picked[key] = None  # a repeated key keeps its first place
            if len(picked) == nonmated_count:
                break
    keys = np.fromiter(picked, np.int64, len(picked))
    index_a, index_b = np.concatenate(parts + [np.divmod(keys, max(n, 1))],
                                      axis=1)
    mated = sum(part.shape[1] for part in parts)
    return PairSet(index_a=index_a, index_b=index_b,
                   genuine=np.arange(index_a.size) < mated)


def embed_dataset(model, images):
    """Unit-norm embeddings for every image, computed
    ``synthdata.BLOCK_ROWS`` rows at a time, each block written into the
    one output array.  ``images`` is an (n, side, side) array or a
    ``synthdata.DatasetStream``, whose records are then read a block at
    a time, never held whole."""
    if isinstance(images, synthdata.DatasetStream):
        n, blocks = images.num_samples, images.blocks()
    else:
        n, rows = len(images), synthdata.BLOCK_ROWS
        blocks = ((s, images[s:s + rows]) for s in range(0, n, rows))
    out = np.empty((n, model.embed_dim), dtype=model.w2.dtype)
    for start, block in blocks:
        out[start:start + len(block)] = bb.forward(model, block)[0]
    return out


def pair_similarities(embeddings, pairs):
    """Cosine similarity per pair (embeddings assumed row-unit-norm),
    ``_PAIR_BLOCK`` pairs at a time: each row's sum is the one a single
    pass over every pair would give."""
    out = np.empty(len(pairs), dtype=embeddings.dtype)
    for start in range(0, len(pairs), _PAIR_BLOCK):
        part = slice(start, start + _PAIR_BLOCK)
        prod = embeddings[pairs.index_a[part]]
        prod *= embeddings[pairs.index_b[part]]
        np.sum(prod, axis=1, out=out[part])
    return out


# ---------------------------------------------------------------------------
# threshold calibration and error rates

def fmr_threshold(nonmated_sims, fmr_target):
    """Similarity threshold realizing at most ``fmr_target`` on the
    calibration set.

    With k = floor(fmr_target * n) the threshold is placed halfway
    between the k-th and (k+1)-th largest similarity, accepting exactly
    the k highest.  When those two coincide the threshold moves just
    above the tied value, so ties go to rejection and the realized FMR
    never exceeds the target.
    """
    sims = np.sort(np.asarray(nonmated_sims, dtype=np.float64))[::-1]
    n = sims.shape[0]
    if n == 0:
        raise DomainError("cannot calibrate a threshold on no similarities")
    if not 0.0 < fmr_target < 1.0:
        raise DomainError("fmr_target must lie in (0, 1)")
    k = int(np.floor(fmr_target * n))
    if k <= 0:
        gap = (sims[0] - sims[1]) / 2.0 if n > 1 else 1.0
        return float(sims[0] + max(gap, 1e-9))
    if k >= n:
        return float(sims[-1] - 1.0)
    upper, lower = sims[k - 1], sims[k]
    if upper > lower:  # the midpoint of adjacent doubles can round to lower
        return float(max((upper + lower) / 2.0, np.nextafter(lower, upper)))
    # Tie across the cut: reject every similarity equal to the tied value.
    above = sims[sims > upper]
    gap = (above[-1] - upper) / 2.0 if above.size else 1.0
    return float(upper + max(gap, 1e-9))


def fnmr(mated_sims, threshold):
    """Fraction of mated pairs falling below the threshold."""
    sims = np.asarray(mated_sims)
    if sims.size == 0:
        raise UndefinedFnmrError("no mated pairs")
    return float(np.mean(sims < threshold))


def auc(points):
    """Unnormalized trapezoidal integral of (x, y) samples with strictly
    increasing x."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise DomainError("need at least two points for a trapezoidal AUC")
    x, y = pts[:, 0], pts[:, 1]
    if np.any(np.diff(x) <= 0):
        raise DomainError("x coordinates must be strictly increasing")
    return float(np.trapezoid(y, x))


def erc(pairs, sims, quality_scores, fmr_target, grid_step=0.01,
        max_reject=0.95):
    """Error-versus-rejection curve at a fixed FMR.

    For each rejection rate r on the grid, the floor(r * P) pairs with
    the lowest pair quality (min of the two sample scores, ties broken
    by sample indices) are dropped from the full pair set and the FNMR
    of the surviving mated pairs is recomputed at the fixed threshold.
    The curve is truncated at the first r where no mated pair survives.
    """
    sims = np.asarray(sims, dtype=np.float64)
    scores = np.asarray(quality_scores, dtype=np.float64)
    if sims.shape[0] != len(pairs):
        raise StructuralError("one similarity per pair required")
    if not 0.0 < grid_step < 1.0:
        raise DomainError("grid_step must lie in (0, 1)")

    if not pairs.genuine.any():
        raise DomainError("pair set contains no mated pairs")
    if pairs.genuine.all():
        raise DomainError("pair set contains no non-mated pairs to "
                          "calibrate the threshold")
    threshold = fmr_threshold(sims[~pairs.genuine], fmr_target)

    pair_quality = np.minimum(scores[pairs.index_a], scores[pairs.index_b])
    order = np.lexsort((pairs.index_b, pairs.index_a, pair_quality))

    # Suffix counts of mated and of failed mated pairs along ``order``, read
    # at each drop count; count / count is np.mean's value, bit for bit.
    mated = pairs.genuine[order]
    failed = mated & (sims[order] < threshold)
    n_grid = int(np.floor(max_reject / grid_step + 1e-9))
    rates = np.arange(n_grid + 1) * grid_step
    n_drop = np.minimum(np.floor(rates * len(pairs) + 1e-9).astype(np.int64),
                        len(pairs))
    kept = np.append(np.cumsum(mated[::-1])[::-1], 0)[n_drop]
    below = np.append(np.cumsum(failed[::-1])[::-1], 0)[n_drop]
    # kept only falls along the grid: the points with kept > 0 are the
    # curve up to the first point without a mated survivor
    points = np.stack([rates, below / np.maximum(kept, 1)], axis=1)[kept > 0]
    if len(points) < 2:
        raise UndefinedFnmrError(
            "curve truncated before two grid points; no AUC")
    return ErcCurve(fmr_target=fmr_target, threshold=threshold,
                    points=points, auc=auc(points))


# ---------------------------------------------------------------------------
# correlation statistics

def pearson(a, b):
    """Sample Pearson correlation coefficient."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise DomainError("pearson needs two equal-length sequences (n >= 2)")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise UndefinedCorrelationError("constant input sequence")
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


def _ranks(values):
    """Average ranks (1-based) with ties sharing their mean rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(a, b):
    """Pearson correlation of (tie-averaged) ranks."""
    return pearson(_ranks(a), _ranks(b))


def ccs_dist(snapshot_prev, snapshot_cur):
    """Mean absolute per-sample change of CCS between two epoch
    snapshots of the same tracked sample set."""
    prev = np.asarray(snapshot_prev, dtype=np.float64)
    cur = np.asarray(snapshot_cur, dtype=np.float64)
    if prev.shape != cur.shape or prev.ndim != 1 or prev.shape[0] < 1:
        raise StructuralError("snapshots must be equal-length 1-D arrays")
    return float(np.mean(np.abs(cur - prev)))


# ---------------------------------------------------------------------------
# brute-force oracles

def oracle_variance(dataset, model):
    """Exact per-class intra-class embedding variance: the mean squared
    distance of a class's embeddings from their centroid.  No
    approximation; this is the reference the EMA tracker is checked
    against.
    """
    emb = embed_dataset(model, dataset.images)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    # a stable sort keeps each class's rows in dataset order
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order],
                             np.arange(dataset.num_classes + 1))
    out = np.zeros(dataset.num_classes, dtype=np.float64)
    for c in range(dataset.num_classes):
        rows = emb[order[bounds[c]:bounds[c + 1]]].astype(np.float64)
        mu = rows.mean(axis=0)
        out[c] = float(np.mean(np.sum((rows - mu) ** 2, axis=1)))
    return out


@dataclass
class CostProbeReport:
    ema_step_cost: float
    naive_step_cost: float
    ratio: float
    naive_var: np.ndarray


def tracker_cost_probe(dataset, model, tracker, batch_size=64, repeats=5):
    """Wall-clock comparison of one EMA tracker iteration against a
    full-dataset recomputation of the exact variance.

    The EMA path times what the tracker adds to a training iteration
    whose batch CCS values are already in hand: grouping by class plus
    one EMA update.  The naive path times oracle_variance over the whole
    dataset.  Returns the per-iteration costs, their ratio, and the
    exact variance for semantic comparison.
    """
    rng = rng_for(0, T_PAIRS, 99)
    idx = rng.integers(0, dataset.num_samples, batch_size)
    labels = np.asarray(dataset.labels, dtype=np.int64)[idx]
    # the EMA's cost does not depend on the CCS values, so random ones
    # stand in for the batch's prototype cosines
    ccs = rng.uniform(-1.0, 1.0, batch_size)

    ema_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        variance.update(tracker, variance.group_ccs_by_class(labels, ccs))
        ema_times.append(time.perf_counter() - t0)

    naive_times = []
    for _ in range(max(2, repeats // 2)):
        t0 = time.perf_counter()
        naive_var = oracle_variance(dataset, model)
        naive_times.append(time.perf_counter() - t0)

    ema_cost = float(min(ema_times))
    naive_cost = float(min(naive_times))
    ratio = naive_cost / max(ema_cost, 1e-12)
    return CostProbeReport(ema_step_cost=ema_cost, naive_step_cost=naive_cost,
                           ratio=ratio, naive_var=naive_var)


# ---------------------------------------------------------------------------
# csv export

def write_pairs_csv(pairs, path):
    rows = np.stack([pairs.index_a, pairs.index_b, pairs.genuine], axis=1)
    write_csv(path, "idx_a,idx_b,genuine", "%d,%d,%d", rows.ravel())
