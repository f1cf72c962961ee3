"""Split-batch training loop with variance-guided regression weighting.

Each iteration draws one mini-batch from the shuffled epoch permutation
and splits it in half: the clean half (horizontal flip only) trains the
backbone and prototypes through the margin loss and feeds the variance
tracker; the augmented half produces certainty-ratio pseudo-labels and
trains the regression head through the weighted Smooth-L1 loss.
Degraded images therefore never touch the margin loss.  The unsplit
mode (``split_batch=False``) feeds the full batch to both losses, which
reproduces the plain pseudo-label baseline and, with augmentation on,
the backbone-degradation control experiment.

All mutable training state is float32 so checkpoints round-trip
bit-identically, and every random draw is derived from
(seed, purpose, epoch, sample index), so a resumed run replays the
exact stream of an uninterrupted one.
"""

import dataclasses
import functools
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import margin, quality, variance
from .configio import write_csv
from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    UndefinedCorrelationError,
)
from .rngstreams import (
    T_AUG,
    T_FLIP,
    T_INIT_BACKBONE,
    T_INIT_BANK,
    T_PERM,
    T_TRACKED,
    first_random,
    rng_for,
    stream_words,
)
from .synthdata import augment, hflip
from . import evalkit

CKPT_MAGIC = b"IGFQCKPT"
CKPT_VERSION = 1

# Rows one _build_half call makes at most, unless one step needs more.
_BLOCK_ROWS = 1024

# SGD momentum, and the weight decay of every array but the head's (0)
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4

# The v1 header: magic, version, input, hidden and embedding widths, class
# count, head-bias flag (always 0), epoch, step in epoch, global step,
# tracker step and total steps, then as float64 scale, margin, Smooth-L1
# beta (always 1.0), alpha start and alpha end.
_CKPT_HEADER = struct.Struct("<8sIIIIIBIIQIIddddd")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    lam: float = 10.0
    lr: float = 0.1
    epochs: int = 30
    augment_p: float = 0.3
    seed: int = 0
    propagate_lig_to_backbone: bool = False
    scale: float = 64.0
    margin: float = 0.5
    embed_dim: int = 64
    hidden_dim: int = 128
    lig_reduction: str = "sum"
    split_batch: bool = True
    use_ig_weights: bool = True
    alpha_start: float = 0.9
    alpha_end: float = 1.0

    def __post_init__(self):
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ConfigError("batch_size must be an even number >= 2")
        # each comparison is false for NaN
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError("lam must be finite and >= 0")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError("lr must be finite and > 0")
        if not 0.0 < self.scale < math.inf:
            raise ConfigError("scale must be finite and > 0")
        if not 0.0 <= self.margin < math.pi / 2:
            raise ConfigError("margin must lie in [0, pi/2)")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ConfigError("hidden_dim and embed_dim must be >= 1")
        for name in ("augment_p", "alpha_start", "alpha_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.lig_reduction not in ("sum", "mean"):
            raise ConfigError("lig_reduction must be 'sum' or 'mean'")
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"seed must lie in [0, 2**32), got {self.seed}")

    def milestones(self):
        """The learning-rate milestone epochs: 60% and 80% of the run."""
        auto = {int(np.floor(0.6 * self.epochs)),
                int(np.floor(0.8 * self.epochs))}
        return tuple(sorted(m for m in auto if 1 <= m < self.epochs))

    def lr_at(self, epoch):
        drops = sum(1 for m in self.milestones() if epoch >= m)
        return self.lr * (0.1 ** drops)


# Experiment variant -> the config fields it sets.
#   ig       full method: split batch, weights on, augmentation on
#   cr       baseline: unsplit, weights forced to 1, no augmentation
#   ig-noaug split batch, weights on, no augmentation
#   cr-aug   unsplit, weights forced to 1, augmentation on both halves
VARIANTS = {
    "ig": dict(split_batch=True, use_ig_weights=True),
    "cr": dict(split_batch=False, use_ig_weights=False, augment_p=0.0),
    "ig-noaug": dict(split_batch=True, use_ig_weights=True, augment_p=0.0),
    "cr-aug": dict(split_batch=False, use_ig_weights=False),
}


def apply_variant(config, variant):
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}")
    return dataclasses.replace(config, **VARIANTS[variant])


@dataclass
class StepInfo:
    l_arc: float
    l_ig: float
    cr_targets: np.ndarray
    sample_weights: np.ndarray
    ccs_clean: np.ndarray


@dataclass
class EpochLog:
    epoch: int
    l_arc: float
    l_ig: float
    ccs_dist: float
    pearson_var_v: float
    frac_zero_weight: float
    tracker_v: np.ndarray = None


def _param_shapes(input_dim, hidden_dim, embed_dim, num_classes):
    """Name -> shape of every trained array, in checkpoint order."""
    return {"w1": (input_dim, hidden_dim), "b1": (hidden_dim,),
            "w2": (hidden_dim, embed_dim), "b2": (embed_dim,),
            "bank_w": (embed_dim, num_classes), "head_w": (embed_dim,)}


@dataclass
class TrainState:
    model: bb.MlpBackbone
    bank: margin.PrototypeBank
    head: quality.RegressionHead
    tracker: variance.VarianceTracker
    momentum: dict
    grads: dict
    # (params, momentum, grads): one flat float32 array each, in checkpoint
    # order, that every trained array, momentum buffer and gradient views;
    # head_w is the tail from head_start on
    arena: tuple
    head_start: int
    # arena-sized: where sgd_update puts its intermediate results
    scratch: np.ndarray
    epoch: int = 0
    step_in_epoch: int = 0
    global_step: int = 0
    epoch_logs: list = field(default_factory=list)
    last_step: StepInfo = None

    def params(self):
        """Every trained array by name, in checkpoint order."""
        params = self.model.params()
        params["bank_w"] = self.bank.weights
        params["head_w"] = self.head.weight
        return params


def _aligned_zeros(n):
    """``n`` zeroed float32s in the checkpoint's byte order, the first on
    a 64-byte boundary: on an AVX-512 CPU, numpy's float32 add over the
    arena took about half the time into an output so aligned."""
    raw = np.zeros(n + 16, dtype="<f4")
    skip = -raw.ctypes.data % 64 // 4
    return raw[skip:skip + n]


def _train_state(shapes, tracker, scale, marg):
    """A TrainState over a zeroed arena laid out as ``shapes``, each of
    its parts and the SGD scratch 64-byte aligned."""
    sizes = {name: math.prod(shape) for name, shape in shapes.items()}
    # float32 in the checkpoint's byte order: checkpoint_load reads the
    # file straight into it
    arena = tuple(_aligned_zeros(sum(sizes.values())) for _ in range(3))
    (params, momentum, grads), offset = ({}, {}, {}), 0
    for name, shape in shapes.items():
        for flat, table in zip(arena, (params, momentum, grads)):
            table[name] = flat[offset:offset + sizes[name]].reshape(shape)
        offset += sizes[name]
    return TrainState(
        model=bb.MlpBackbone(params["w1"], params["b1"], params["w2"],
                             params["b2"]),
        bank=margin.PrototypeBank(params["bank_w"], scale=scale, margin=marg),
        head=quality.RegressionHead(params["head_w"]),
        tracker=tracker, momentum=momentum, grads=grads, arena=arena,
        head_start=offset - sizes["head_w"], scratch=_aligned_zeros(offset))


def init_train_state(config, dataset):
    steps_per_epoch = dataset.num_samples // config.batch_size
    total_steps = max(1, config.epochs * steps_per_epoch)
    input_dim = dataset.side * dataset.side
    model = bb.init_backbone(input_dim, hidden_dim=config.hidden_dim,
                             embed_dim=config.embed_dim,
                             rng=rng_for(config.seed, T_INIT_BACKBONE),
                             dtype=np.float32)
    bank = margin.init_bank(config.embed_dim, dataset.num_classes,
                            scale=config.scale, margin=config.margin,
                            rng=rng_for(config.seed, T_INIT_BANK),
                            dtype=np.float32)
    tracker = variance.init_tracker(dataset.num_classes, total_steps,
                                    alpha_start=config.alpha_start,
                                    alpha_end=config.alpha_end,
                                    dtype=np.float32)
    state = _train_state(
        _param_shapes(input_dim, config.hidden_dim, config.embed_dim,
                      dataset.num_classes),
        tracker, config.scale, config.margin)
    # the head starts at zero
    state.arena[0][:state.head_start] = np.concatenate(
        [arr.reshape(-1) for arr in (*model.params().values(), bank.weights)])
    return state


def sgd_update(param, grad, buffer, lr, momentum, weight_decay,
               scratch=None):
    """Classical momentum with weight decay folded into the gradient:
    buffer <- momentum*buffer + grad + wd*param; param <- param - lr*buffer.
    The intermediate results go to ``scratch``, an array like ``param``
    (a new one when None).  Mutates and returns (param, buffer)."""
    if scratch is None:
        scratch = np.empty_like(param)
    np.multiply(buffer, momentum, out=buffer)
    np.multiply(weight_decay, param, out=scratch)
    np.add(grad, scratch, out=scratch)
    np.add(buffer, scratch, out=buffer)
    np.multiply(lr, buffer, out=scratch)
    np.subtract(param, scratch, out=param)
    return param, buffer


def _finite_or_abort(state, l_arc, l_ig):
    if math.isfinite(l_arc) and math.isfinite(l_ig):
        return
    norms = {name: float(np.linalg.norm(arr))
             for name, arr in state.params().items()}
    raise NumericError(
        f"non-finite loss at epoch {state.epoch} step {state.global_step}: "
        f"l_arc={l_arc}, l_ig={l_ig}, param_norms={norms}")


def effective_weights(state, config):
    if config.use_ig_weights:
        return variance.weights(state.tracker).w
    return np.ones_like(state.tracker.v)


def _columns(config, b):
    """Clean and augmented rows of a batch of ``b``: a split batch's two
    halves, or the whole of an unsplit batch twice."""
    h = b // 2 if config.split_batch else 0
    return slice(0, b - h), slice(h, b)


def train_step(state, config, imgs, labels, lr):
    """One optimization step on one batch, its rows laid out as
    ``_columns`` says: one forward pass, one cosine matrix and one
    certainty-ratio pass over all of them.  Gradients land in
    state.grads, and SGD runs over the arena's prefix and its head tail.
    """
    clean, aug = _columns(config, len(imgs))
    emb, cache = bb.forward(state.model, imgs)
    columns = margin.normalized_columns(state.bank)
    cos = margin.cosines(state.bank, emb, columns[0])
    cr = margin.cr_batch(cos, labels)
    grads = state.grads
    arc = margin.arcface_loss(state.bank, emb[clean], labels[clean],
                              cos=cos[clean], columns=columns,
                              grad_bank=grads["bank_w"])

    variance.update(state.tracker,
                    variance.group_ccs_by_class(labels[clean], cr.ccs[clean]))

    sample_w = effective_weights(state, config)[labels[aug]]
    reg = quality.weighted_regression_loss(state.head, emb[aug], cr.cr[aug],
                                           sample_w,
                                           reduction=config.lig_reduction)
    _finite_or_abort(state, arc.loss, reg.loss)

    bb.backward(state.model, cache.rows(clean), arc.grad_emb, out=grads)
    if config.propagate_lig_to_backbone and config.lam > 0.0:
        extra = bb.backward(state.model, cache.rows(aug),
                            config.lam * reg.grad_emb)
        for name, arr in extra.items():
            grads[name] += arr
    np.multiply(reg.grad_weight, config.lam, out=grads["head_w"])

    flat_p, flat_m, flat_g = state.arena
    for part, wd in ((slice(0, state.head_start), WEIGHT_DECAY),
                     (slice(state.head_start, None), 0.0)):
        sgd_update(flat_p[part], flat_g[part], flat_m[part], lr, MOMENTUM, wd,
                   state.scratch[part])

    state.global_step += 1
    state.last_step = StepInfo(l_arc=arc.loss, l_ig=reg.loss,
                               cr_targets=cr.cr[aug], sample_weights=sample_w,
                               ccs_clean=cr.ccs[clean])
    return state


# ---------------------------------------------------------------------------
# epoch loop

def epoch_flips(seed, epoch, n):
    """Flip coin of every sample in an epoch: sample ``i`` is mirrored
    when the first draw of ``rng_for(seed, T_FLIP, epoch, i)`` is below
    0.5; ``synthdata.hflip`` mirrors the samples it marks."""
    return first_random(seed, T_FLIP, epoch, np.arange(n)) < 0.5


def _build_half(dataset, idx, config, epoch, flips):
    """Whole batches of images and labels for the (steps, batch) index
    block ``idx``: every image mirrored where the epoch's ``flips`` mask
    says so, then the augmented columns of ``_columns`` augmented."""
    imgs = hflip(dataset.images[idx], flips[idx])
    if config.augment_p > 0.0:
        aug = _columns(config, idx.shape[1])[1]
        part = imgs[:, aug]
        imgs[:, aug] = augment(
            part.reshape(-1, *part.shape[2:]),
            functools.partial(stream_words, config.seed, T_AUG, epoch,
                              idx[:, aug].ravel()),
            config.augment_p).reshape(part.shape)
    return imgs, np.asarray(dataset.labels, dtype=np.int64)[idx]


def _tracked_ccs(state, dataset, tracked_idx):
    emb = evalkit.embed_dataset(state.model, dataset.images[tracked_idx])
    cos = margin.cosines(state.bank, emb)
    labels = np.asarray(dataset.labels, dtype=np.int64)[tracked_idx]
    return cos[np.arange(len(tracked_idx)), labels]


def _check_resume(state, config, dataset):
    """ConfigError unless ``state`` has the hyperparameters of
    ``config`` and the shape of ``dataset``."""
    pairs = {
        "scale": (state.bank.scale, config.scale),
        "margin": (state.bank.margin, config.margin),
        "alpha_start": (state.tracker.alpha_start, config.alpha_start),
        "alpha_end": (state.tracker.alpha_end, config.alpha_end),
        "hidden_dim": (state.model.hidden_dim, config.hidden_dim),
        "embed_dim": (state.model.embed_dim, config.embed_dim),
        "input_dim": (state.model.input_dim, dataset.side * dataset.side),
        "num_classes": (state.bank.num_classes, dataset.num_classes),
    }
    wrong = [f"{name} {have!r} (expected {want!r})"
             for name, (have, want) in pairs.items() if have != want]
    if wrong:
        raise ConfigError("resumed state disagrees with the config or "
                          "dataset: " + ", ".join(wrong))


def run_training(config, dataset, state=None, checkpoint_dir=None):
    """Run the full loop; returns (state, epoch logs).

    Steps per epoch = floor(dataset / batch_size); the clean and
    augmented halves are disjoint slices of the shuffled epoch
    permutation.  Per-epoch logs record both loss terms, the mean CCS
    drift of a fixed tracked sample set, the correlation between the
    tracker and the exact oracle variance, and the zero-weight fraction.
    Checkpoints are written at milestone epochs and at the end when
    ``checkpoint_dir`` is given.  A resumed ``state`` must match the
    config's hyperparameters and the dataset's shape (ConfigError).
    """
    if state is None:
        state = init_train_state(config, dataset)
    else:
        _check_resume(state, config, dataset)
    n = dataset.num_samples
    b = config.batch_size
    steps_per_epoch = n // b
    if config.epochs > 0 and steps_per_epoch == 0:
        raise ConfigError("batch_size exceeds the dataset size")

    tracked_idx = rng_for(config.seed, T_TRACKED).choice(
        n, size=min(200, n), replace=False)
    prev_snapshot = _tracked_ccs(state, dataset, tracked_idx)

    block = max(1, _BLOCK_ROWS // b)
    saves = ({} if checkpoint_dir is None
             else epoch_checkpoints(config, checkpoint_dir))
    for epoch in range(state.epoch, config.epochs):
        lr = config.lr_at(epoch)
        perm = rng_for(config.seed, T_PERM, epoch).permutation(n)
        flips = epoch_flips(config.seed, epoch, n)
        arc_sum = 0.0
        ig_sum = 0.0
        n_steps = 0
        for first in range(state.step_in_epoch, steps_per_epoch, block):
            last = min(first + block, steps_per_epoch)
            imgs, labels = _build_half(
                dataset, perm[first * b:last * b].reshape(last - first, b),
                config, epoch, flips)
            for t in range(first, last):
                train_step(state, config, imgs[t - first], labels[t - first],
                           lr)
                arc_sum += state.last_step.l_arc
                ig_sum += state.last_step.l_ig
                n_steps += 1
                state.step_in_epoch = t + 1
        state.epoch = epoch + 1
        state.step_in_epoch = 0

        snapshot = _tracked_ccs(state, dataset, tracked_idx)
        drift = evalkit.ccs_dist(prev_snapshot, snapshot)
        prev_snapshot = snapshot
        try:
            rho = evalkit.pearson(evalkit.oracle_variance(dataset, state.model),
                                  state.tracker.v)
        except UndefinedCorrelationError:
            # a constant tracker (or oracle) has no correlation
            rho = float("nan")
        w = effective_weights(state, config)
        state.epoch_logs.append(EpochLog(
            epoch=epoch,
            l_arc=arc_sum / max(n_steps, 1),
            l_ig=ig_sum / max(n_steps, 1),
            ccs_dist=drift,
            pearson_var_v=rho,
            frac_zero_weight=float(np.mean(w == 0.0)),
            tracker_v=state.tracker.v.copy(),
        ))
        if epoch in saves:
            checkpoint_save(state, saves[epoch])
    return state, list(state.epoch_logs)


def epoch_checkpoints(config, checkpoint_dir):
    """{epoch: path} of the checkpoints ``run_training`` writes into
    ``checkpoint_dir``: at the milestone epochs and the last, in order."""
    epochs = sorted({*config.milestones(), config.epochs - 1}
                    & set(range(config.epochs)))
    return {e: os.path.join(checkpoint_dir, f"ckpt_epoch{e:04d}.bin")
            for e in epochs}


def write_report_csv(epoch_logs, path):
    write_csv(path, "epoch,l_arc,l_ig,ccs_dist,pearson_var_v,frac_zero_weight",
              "%d" + ",%.9g" * 5,
              [x for log in epoch_logs for x in (
                  log.epoch, log.l_arc, log.l_ig, log.ccs_dist,
                  log.pearson_var_v, log.frac_zero_weight)])


# ---------------------------------------------------------------------------
# checkpointing

def checkpoint_save(state, path):
    """Serialize all parameters, momentum buffers, tracker state, and
    counters.  Round trip is bit-identical because the state is float32.

    Layout v1: ``_CKPT_HEADER``, then as float32 the arrays of
    ``state.params()`` in order (the parameter arena), ``tracker.v``, and
    the momentum arena.  It is frozen: the benchmark's output checks parse
    it themselves and accept only version 1.
    """
    with open(path, "wb") as fh:
        # hyperparameter scalars keep full precision; only learned
        # parameter arrays are stored as f32
        fh.write(_CKPT_HEADER.pack(
            CKPT_MAGIC, CKPT_VERSION, state.model.input_dim,
            state.model.hidden_dim, state.model.embed_dim,
            state.bank.num_classes, 0, state.epoch, state.step_in_epoch,
            state.global_step, state.tracker.step, state.tracker.total_steps,
            state.bank.scale, state.bank.margin, 1.0,
            state.tracker.alpha_start, state.tracker.alpha_end))
        for arr in (state.arena[0], state.tracker.v, state.arena[1]):
            fh.write(arr.astype("<f4", copy=False).tobytes())


def checkpoint_load(path):
    with open(path, "rb") as fh:
        header = fh.read(_CKPT_HEADER.size)
        magic = header[:len(CKPT_MAGIC)]
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}", offset=0)
        if len(header) != _CKPT_HEADER.size:
            raise FormatError("truncated checkpoint header", offset=fh.tell())
        (_, version, input_dim, hidden_dim, embed_dim, num_classes, has_bias,
         epoch, step_in_epoch, global_step, t_step, t_total, scale, marg,
         beta, a_start, a_end) = _CKPT_HEADER.unpack(header)
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        # the program writes no head bias and a Smooth-L1 beta of 1
        if has_bias != 0 or beta != 1.0:
            raise FormatError(f"checkpoint has head-bias flag {has_bias} and "
                              f"beta {beta}; only 0 and 1.0 are supported")
        # the ranges a run holds them to; each comparison is false for NaN
        if not (0.0 < scale < math.inf and 0.0 <= marg < math.pi / 2
                and 0.0 <= a_start <= 1.0 and 0.0 <= a_end <= 1.0
                and t_total >= 1 and num_classes >= 2
                and min(input_dim, hidden_dim, embed_dim) >= 1):
            raise FormatError(
                f"checkpoint header holds a non-finite or out-of-range "
                f"value: widths {input_dim}, {hidden_dim} and {embed_dim}, "
                f"{num_classes} classes, scale {scale}, margin {marg}, "
                f"alpha {a_start} to {a_end}, total steps {t_total}")
        shapes = _param_shapes(input_dim, hidden_dim, embed_dim, num_classes)
        # Python ints: a product of u32 dimensions cannot wrap
        declared = fh.tell() + 4 * (
            2 * sum(math.prod(shape) for shape in shapes.values())
            + num_classes)
        actual = os.fstat(fh.fileno()).st_size
        if actual != declared:
            raise FormatError(f"checkpoint is {actual} bytes but its header "
                              f"declares {declared}")
        tracker = variance.VarianceTracker(
            v=np.empty(num_classes, dtype="<f4"), step=t_step,
            total_steps=t_total, alpha_start=float(a_start),
            alpha_end=float(a_end))
        state = _train_state(shapes, tracker, float(scale), float(marg))
        arrays = (state.arena[0], tracker.v, state.arena[1])
        for arr in arrays:
            fh.readinto(arr)
    # no run saves a NaN or an inf: _finite_or_abort stops training first
    if not all(np.isfinite(a).all() for a in arrays):
        raise FormatError("checkpoint holds a non-finite value")
    state.epoch, state.step_in_epoch, state.global_step = (
        epoch, step_in_epoch, global_step)
    return state
