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
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import margin, quality, variance
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
    rngs_for,
)
from .synthdata import augment_stack
from . import evalkit

CKPT_MAGIC = b"IGFQCKPT"
CKPT_VERSION = 1

# Rows one _build_half call makes at most, unless one step needs more.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    lam: float = 10.0
    lr: float = 0.1
    lr_milestones: tuple = None
    momentum: float = 0.9
    weight_decay: float = 5e-4
    head_weight_decay: float = 0.0
    epochs: int = 30
    augment_p: float = 0.3
    seed: int = 0
    propagate_lig_to_backbone: bool = False
    beta: float = 1.0
    scale: float = 64.0
    margin: float = 0.5
    embed_dim: int = 64
    hidden_dim: int = 128
    head_bias: bool = False
    lig_reduction: str = "sum"
    split_batch: bool = True
    use_ig_weights: bool = True
    alpha_start: float = 0.9
    alpha_end: float = 1.0

    def __post_init__(self):
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ConfigError("batch_size must be an even number >= 2")
        if self.lam < 0.0:
            raise ConfigError("lam must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0.0 <= self.augment_p <= 1.0:
            raise ConfigError("augment_p must lie in [0, 1]")
        if self.lig_reduction not in ("sum", "mean"):
            raise ConfigError("lig_reduction must be 'sum' or 'mean'")
        ms = self.lr_milestones
        if ms is not None:
            if list(ms) != sorted(set(ms)):
                raise ConfigError("lr_milestones must be strictly increasing")
            if any(m < 1 or m >= self.epochs for m in ms):
                raise ConfigError("lr_milestones must lie in [1, epochs)")

    def milestones(self):
        """Resolved milestone epochs (60% and 80% of the run if unset)."""
        if self.lr_milestones is not None:
            return tuple(self.lr_milestones)
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


def _param_shapes(input_dim, hidden_dim, embed_dim, num_classes, head_bias):
    """Name -> shape of every trained array, in checkpoint order."""
    shapes = {"w1": (input_dim, hidden_dim), "b1": (hidden_dim,),
              "w2": (hidden_dim, embed_dim), "b2": (embed_dim,),
              "bank_w": (embed_dim, num_classes), "head_w": (embed_dim,)}
    if head_bias:
        shapes["head_b"] = (1,)
    return shapes


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
    # the head_* arrays are the tail from head_start on
    arena: tuple
    head_start: int
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
        if self.head.bias is not None:
            params["head_b"] = self.head.bias
        return params


def _train_state(shapes, tracker, scale, marg, beta):
    """A TrainState over a zeroed arena laid out as ``shapes``."""
    sizes = {name: math.prod(shape) for name, shape in shapes.items()}
    # float32 in the checkpoint's byte order: checkpoint_load reads the
    # file straight into it
    arena = tuple(np.zeros(sum(sizes.values()), dtype="<f4")
                  for _ in range(3))
    (params, momentum, grads), offset = ({}, {}, {}), 0
    for name, shape in shapes.items():
        for flat, table in zip(arena, (params, momentum, grads)):
            table[name] = flat[offset:offset + sizes[name]].reshape(shape)
        offset += sizes[name]
    return TrainState(
        model=bb.MlpBackbone(params["w1"], params["b1"], params["w2"],
                             params["b2"]),
        bank=margin.PrototypeBank(params["bank_w"], scale=scale, margin=marg),
        head=quality.RegressionHead(params["head_w"], params.get("head_b"),
                                    beta=beta),
        tracker=tracker, momentum=momentum, grads=grads, arena=arena,
        head_start=offset - sizes["head_w"] - sizes.get("head_b", 0))


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
                      dataset.num_classes, config.head_bias),
        tracker, config.scale, config.margin, config.beta)
    # the head starts at zero
    state.arena[0][:state.head_start] = np.concatenate(
        [arr.reshape(-1) for arr in (*model.params().values(), bank.weights)])
    return state


def sgd_update(param, grad, buffer, lr, momentum, weight_decay):
    """Classical momentum with weight decay folded into the gradient:
    buffer <- momentum*buffer + grad + wd*param; param <- param - lr*buffer.
    Mutates and returns (param, buffer)."""
    buffer *= momentum
    buffer += grad + weight_decay * param
    param -= lr * buffer
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


def train_step(state, config, clean_batch, aug_batch, lr):
    """One optimization step; see the module docstring for the batch
    semantics.  ``clean_batch``/``aug_batch`` are (images, labels).

    A split step embeds clean then augmented rows in one forward pass
    with one cosine matrix.  Unsplit (``split_batch=False``), both are
    the one full batch, embedded once; the margin loss's certainty
    ratios are the regression targets.  Gradients land in state.grads,
    and SGD runs over the arena's prefix and its head tail.
    """
    clean_imgs, clean_labels = clean_batch
    aug_imgs, aug_labels = aug_batch
    split, n = config.split_batch, len(clean_imgs)
    emb, cache = bb.forward(state.model, np.concatenate(
        (clean_imgs, aug_imgs)) if split else clean_imgs)
    clean, aug = slice(0, n), slice(n if split else 0, None)
    columns = margin.normalized_columns(state.bank)
    cos = margin.cosines(state.bank, emb, columns[0])
    grads = state.grads
    arc = margin.arcface_loss(state.bank, emb[clean], clean_labels,
                              cos=cos[clean], columns=columns,
                              grad_bank=grads["bank_w"])
    cr_aug = margin.cr_batch(cos[aug], aug_labels) if split else arc.cr

    variance.update(state.tracker,
                    variance.group_ccs_by_class(clean_labels, arc.cr.ccs))

    sample_w = effective_weights(state, config)[aug_labels]
    reg = quality.weighted_regression_loss(state.head, emb[aug], cr_aug.cr,
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
    if reg.grad_bias is not None:
        # the float64 product, rounded once to float32
        grads["head_b"][0] = config.lam * reg.grad_bias

    flat_p, flat_m, flat_g = state.arena
    for part, wd in ((slice(0, state.head_start), config.weight_decay),
                     (slice(state.head_start, None), config.head_weight_decay)):
        sgd_update(flat_p[part], flat_g[part], flat_m[part], lr,
                   config.momentum, wd)

    state.global_step += 1
    state.last_step = StepInfo(l_arc=arc.loss, l_ig=reg.loss,
                               cr_targets=cr_aug.cr, sample_weights=sample_w,
                               ccs_clean=arc.cr.ccs)
    return state


# ---------------------------------------------------------------------------
# epoch loop

def epoch_flips(seed, epoch, n):
    """Flip coin of every sample in an epoch: sample ``i`` is mirrored
    when the first draw of ``rng_for(seed, T_FLIP, epoch, i)`` is below
    0.5, as ``synthdata.hflip`` decides for one image."""
    return first_random(seed, T_FLIP, epoch, np.arange(n)) < 0.5


def _build_half(dataset, indices, config, epoch, degraded, flips):
    """Images and labels of ``indices``, mirrored where the epoch's
    ``flips`` mask says so, then augmented if ``degraded``."""
    imgs = dataset.images[indices]
    f = flips[indices]
    imgs[f] = imgs[f][:, :, ::-1]
    if degraded and config.augment_p > 0.0:
        augment_stack(imgs, rngs_for(config.seed, T_AUG, epoch, indices),
                      config.augment_p)
    return imgs, np.asarray(dataset.labels, dtype=np.int64)[indices]


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
        "beta": (state.head.beta, config.beta),
        "alpha_start": (state.tracker.alpha_start, config.alpha_start),
        "alpha_end": (state.tracker.alpha_end, config.alpha_end),
        "hidden_dim": (state.model.hidden_dim, config.hidden_dim),
        "embed_dim": (state.model.embed_dim, config.embed_dim),
        "head_bias": (state.head.bias is not None, config.head_bias),
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

    # the columns of a batch each _build_half call makes, and whether
    # it augments them; a block of steps is built at once
    half = b // 2
    parts = ([(slice(0, half), False), (slice(half, b), True)]
             if config.split_batch else [(slice(0, b), True)])
    rows = b // len(parts)
    block = max(1, _BLOCK_ROWS // rows)
    milestones = set(config.milestones())
    for epoch in range(state.epoch, config.epochs):
        lr = config.lr_at(epoch)
        perm = rng_for(config.seed, T_PERM, epoch).permutation(n)
        flips = epoch_flips(config.seed, epoch, n)
        arc_sum = 0.0
        ig_sum = 0.0
        n_steps = 0
        for first in range(state.step_in_epoch, steps_per_epoch, block):
            last = min(first + block, steps_per_epoch)
            idx = perm[first * b:last * b].reshape(last - first, b)
            built = [_build_half(dataset, idx[:, cols].ravel(), config, epoch,
                                 degraded, flips) for cols, degraded in parts]
            for t in range(first, last):
                r = slice((t - first) * rows, (t - first + 1) * rows)
                # unsplit, the one full batch is both halves
                clean, aug = [(imgs[r], labels[r])
                              for imgs, labels in (built[0], built[-1])]
                train_step(state, config, clean, aug, lr)
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
        if checkpoint_dir is not None and (epoch in milestones
                                           or epoch == config.epochs - 1):
            checkpoint_save(state,
                            f"{checkpoint_dir}/ckpt_epoch{epoch:04d}.bin")
    return state, list(state.epoch_logs)


def write_report_csv(epoch_logs, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,l_arc,l_ig,ccs_dist,pearson_var_v,frac_zero_weight\n")
        for log in epoch_logs:
            fh.write(f"{log.epoch},{log.l_arc:.9g},{log.l_ig:.9g},"
                     f"{log.ccs_dist:.9g},{log.pearson_var_v:.9g},"
                     f"{log.frac_zero_weight:.9g}\n")


# ---------------------------------------------------------------------------
# checkpointing

def checkpoint_save(state, path):
    """Serialize all parameters, momentum buffers, tracker state, and
    counters.  Round trip is bit-identical because the state is float32.

    Layout v1: the header (see ``checkpoint_load``), then as float32 the
    arrays of ``state.params()`` in order (the parameter arena),
    ``tracker.v``, and the momentum arena.  It is frozen: the benchmark's
    output checks parse it themselves and accept only version 1.
    """
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<IIII", state.model.input_dim,
                             state.model.hidden_dim, state.model.embed_dim,
                             state.bank.num_classes))
        fh.write(struct.pack("<B", 1 if state.head.bias is not None else 0))
        fh.write(struct.pack("<IIQ", state.epoch, state.step_in_epoch,
                             state.global_step))
        fh.write(struct.pack("<II", state.tracker.step,
                             state.tracker.total_steps))
        # hyperparameter scalars keep full precision; only learned
        # parameter arrays are stored as f32
        fh.write(struct.pack("<ddddd", state.bank.scale, state.bank.margin,
                             state.head.beta, state.tracker.alpha_start,
                             state.tracker.alpha_end))
        for arr in (state.arena[0], state.tracker.v, state.arena[1]):
            fh.write(arr.astype("<f4", copy=False).tobytes())


def checkpoint_load(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}", offset=0)
        header = fh.read(4 + 16 + 1 + 16 + 8 + 40)
        if len(header) != 85:
            raise FormatError("truncated checkpoint header", offset=fh.tell())
        (version, input_dim, hidden_dim, embed_dim, num_classes, has_bias,
         epoch, step_in_epoch, global_step, t_step, t_total, scale, marg,
         beta, a_start, a_end) = struct.unpack("<IIIIIBIIQIIddddd", header)
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        shapes = _param_shapes(input_dim, hidden_dim, embed_dim,
                               num_classes, has_bias)
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
        state = _train_state(shapes, tracker, float(scale), float(marg),
                             float(beta))
        for arr in (state.arena[0], tracker.v, state.arena[1]):
            fh.readinto(arr)
    state.epoch, state.step_in_epoch, state.global_step = (
        epoch, step_in_epoch, global_step)
    return state
