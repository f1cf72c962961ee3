"""Synthetic identity datasets with controllable intra-class variance.

Images are small grayscale patterns (default 24x24, pixels in [0, 1]).
Each class is built from a smooth random template; normal classes add a
per-sample geometric shift whose magnitude is ``pose_spread``, while
duplicate-flagged classes replicate the template with sub-tolerance
pixel noise, modelling web-crawled identities whose samples are
near-identical copies.  A configurable fraction of samples is degraded
on generation via the same three quality-degrading operators used for
on-the-fly augmentation (rescale blur, random erase, brightness and
contrast jitter), and the injected degradation level is stored as
ground truth so quality scores can be validated against it.

Dataset container format (little-endian):
    magic b"IGFQDS1"
    u32 num_classes, u32 samples_per_class, u32 side
    per sample (class-major order): u32 label, f32 degradation_level,
        side*side f32 pixels row-major
    per class: u8 flag (0 = normal, 1 = duplicate)
"""

import functools
import math
import os
import struct
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConfigError, DomainError, FormatError
from .rngstreams import (
    T_CLASS_FLAGS,
    T_DEGRADE,
    T_DEGRADE_SHARED,
    T_SAMPLE,
    T_TEMPLATE,
    StreamDraws,
    doubles,
    first_random,
    rng_for,
    rngs_for,
    stream_words,
)

MAGIC = b"IGFQDS1"

FLAG_NORMAL = 0
FLAG_DUPLICATE = 1

# Duplicate-class samples differ pairwise by at most this much before
# degradation; the injected noise amplitude is a quarter of it.
DUPLICATE_PIXEL_TOL = 1e-3

# Decided operator ranges (the erase range is also a tested contract).
ERASE_AREA_LO = 0.05
ERASE_AREA_HI = 0.30
JITTER_GAIN_LO = 0.6
JITTER_GAIN_HI = 1.4
JITTER_SHIFT = 0.2
BLUR_FACTOR_LO = 0.25
BLUR_FACTOR_HI = 0.95

# Strength scaling for level-proportional degradation at generation.
_DEG_BLUR_MAX = 0.75
_DEG_ERASE_MAX = 0.30
_DEG_GAIN_MAX = 0.4

# Raw words the draws take from a stream, unless an integer draw rejects
# one: augmentation takes three coins, a factor, an area and an aspect,
# one word for both erase offsets, a gain and a shift; a degraded normal
# sample its coin and level, then area, aspect, offsets and shift.
_AUGMENT_WORDS = 9
_DEGRADE_WORDS = 6

# Degraded rows one operator pass takes at most, so that the float64
# block gathered for it does not grow with the dataset.
_DEGRADE_BLOCK_ROWS = 512

# Fine enough that blur genuinely destroys class detail, the way it
# destroys identity detail in real face images.
_TEMPLATE_GRID = 12

# Per-class diversity multiplier range: normal classes draw their own
# pose scale from pose_spread * U(lo, hi), so intra-class variance is an
# intrinsic, class-dependent data property (as it is for real
# identities) rather than one global constant.  The range is kept
# moderate; squaring (variance vs shift scale) widens it further.
_POSE_SCALE_LO = 0.8
_POSE_SCALE_HI = 1.2


@dataclass(frozen=True)
class SynthConfig:
    """Generation parameters for one synthetic identity dataset."""

    num_classes: int
    samples_per_class: int
    side: int = 24
    duplicate_class_fraction: float = 0.0
    pose_spread: float = 0.5
    degrade_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.samples_per_class < 2:
            raise ConfigError("samples_per_class must be >= 2")
        if self.side < 4:
            raise ConfigError("side must be >= 4")
        for name in ("duplicate_class_fraction", "degrade_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        # each comparison is false for NaN
        if not 0.0 <= self.pose_spread < math.inf:
            raise ConfigError("pose_spread must be finite and >= 0")
        # rng_for keeps a seed's low 32 bits, so others would alias
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"seed must lie in [0, 2**32), got {self.seed}")


@dataclass
class IdentityDataset:
    """Images grouped into classes, with ground-truth degradation levels.

    ``images`` is (n, side, side) float32 in [0, 1], samples stored
    class-major; ``labels`` holds the class index of every sample;
    ``degradation_level`` is 0 exactly for pristine samples;
    ``class_flags`` marks duplicate-flagged classes.
    """

    images: np.ndarray
    labels: np.ndarray
    degradation_level: np.ndarray
    class_flags: np.ndarray

    @property
    def num_samples(self):
        return self.images.shape[0]

    @property
    def num_classes(self):
        return self.class_flags.shape[0]

    @property
    def samples_per_class(self):
        return self.num_samples // self.num_classes

    @property
    def side(self):
        return self.images.shape[1]

    def validate(self):
        """Raise FormatError unless every array is in range, by the rules
        ``DatasetStream`` applies to a file."""
        n = self.num_samples
        if self.labels.shape != (n,) or self.degradation_level.shape != (n,):
            raise FormatError("per-sample arrays disagree on sample count")
        if self.images.size == 0:
            raise FormatError("dataset holds no pixels")
        _check_flags(self.class_flags)
        _check_records(self.labels, self.degradation_level, self.images,
                       self.num_classes)
        # the labels are in range, so there is at least one class
        if n != self.num_classes * self.samples_per_class:
            raise FormatError(
                f"{n} samples are not {self.num_classes} classes of one "
                f"size, as the container's header declares")
        _check_class_counts(self.labels, self.num_classes)


def _check_flags(flags):
    if not np.isin(flags, (FLAG_NORMAL, FLAG_DUPLICATE)).all():
        raise FormatError("class flags must be 0 (normal) or 1 (duplicate)")


def _check_records(labels, levels, pixels, num_classes):
    """Raise FormatError unless the samples' labels lie in [0,
    num_classes) and their pixels and levels in [0, 1].  NaN fails the
    range checks: it propagates through ``min`` and ``max``."""
    if not 0 <= labels.min() <= labels.max() < num_classes:
        raise FormatError(f"labels outside [0, {num_classes})")
    for name, arr in (("pixel", pixels), ("degradation level", levels)):
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise FormatError(f"{name} values outside [0, 1]")


def _check_class_counts(labels, num_classes):
    """Every class must appear at least twice.  The labels must already
    be in range: bincount allocates up to the largest."""
    if np.bincount(labels, minlength=num_classes).min() < 2:
        raise FormatError("every class must appear at least twice")


# ---------------------------------------------------------------------------
# resampling primitives

def _read_only_cache(build):
    """Memoize a matrix builder per (n_in, n_out); the shared result is
    made read-only so no caller can alter what the next one gets."""
    @functools.lru_cache(maxsize=None)
    def cached(n_in, n_out):
        m = build(n_in, n_out)
        m.flags.writeable = False
        return m
    return functools.wraps(build)(cached)


@_read_only_cache
def _area_downscale_matrix(n_in, n_out):
    """Row-stochastic matrix averaging n_in cells into n_out boxes."""
    ratio = n_in / n_out
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo, hi = i * ratio, (i + 1) * ratio
        j0, j1 = int(np.floor(lo)), int(np.ceil(hi))
        for j in range(j0, min(j1, n_in)):
            m[i, j] = max(0.0, min(hi, j + 1) - max(lo, j))
    return m / ratio


@_read_only_cache
def _bilinear_upscale_matrix(n_in, n_out):
    """Row-stochastic matrix resampling n_in cells to n_out, half-pixel
    centers, edge-clamped."""
    m = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        j0 = int(np.floor(src))
        j1 = min(j0 + 1, n_in - 1)
        t = src - j0
        m[i, j0] += 1.0 - t
        m[i, j1] += t
    return m


def rescale_blur(img, factor):
    """Shrink the image by ``factor`` (area averaging) and restore it to
    its original size (bilinear), blurring it.  factor=1 is the identity.
    A stack is blurred over its last two axes, image by image.
    """
    if not 0.0 < factor <= 1.0:
        raise DomainError(f"rescale factor must lie in (0, 1], got {factor}")
    side = img.shape[-1]
    small = max(1, int(round(side * factor)))
    down = _area_downscale_matrix(side, small)
    up = _bilinear_upscale_matrix(small, side)
    out = up @ (down @ img @ down.T) @ up.T
    return np.clip(out, 0.0, 1.0).astype(img.dtype, copy=False)


def jitter_affine(img, gain, shift):
    """Contrast/brightness map clamp(gain*(img - 0.5) + 0.5 + shift) of a
    float image or stack, into one new array; ``gain`` and ``shift`` are
    Python floats or arrays of its dtype that broadcast to its shape."""
    out = np.subtract(img, 0.5)
    np.multiply(gain, out, out=out)
    np.add(out, 0.5, out=out)
    np.add(out, shift, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def hflip(imgs, flips):
    """Mirror left-right, in place, the images of a stack where the mask
    ``flips`` (its leading axes) is True, and return the stack."""
    imgs[flips] = imgs[flips][..., ::-1]
    return imgs


def _erase_rects(draws, rows, side, lo_frac, hi_frac):
    """Erase rectangles (top, left, h, w), a (4, len(rows)) int64 array,
    drawn from the streams ``rows`` of ``draws``: area, aspect, then the
    offsets.  Each covers a fraction in [lo_frac, hi_frac] (scalars or
    one per row) of a side x side image after integer rounding; a range
    that rounds below one pixel draws nothing and gives an empty one.
    """
    total = side * side
    lo_frac, hi_frac = (np.broadcast_to(f, np.shape(rows))
                        for f in (lo_frac, hi_frac))
    hi_px = np.floor(hi_frac * total).astype(np.int64)
    live = hi_px >= 1
    rows, lo_frac, hi_frac, hi_px = (x[live] for x in (rows, lo_frac, hi_frac,
                                                       hi_px))
    lo_px = np.minimum(np.maximum(1, np.ceil(lo_frac * total)), hi_px)
    area = draws.uniform(lo_frac, hi_frac, rows) * total
    aspect = draws.uniform(0.5, 2.0, rows)
    h_lo = np.maximum(1, np.ceil(lo_px / side))
    h_hi = np.minimum(side, hi_px)
    h = np.clip(np.round(np.sqrt(area * aspect)), h_lo,
                np.maximum(h_lo, h_hi)).astype(np.int64)
    w_lo = np.maximum(1, np.ceil(lo_px / h))
    w_hi = np.minimum(side, hi_px // h)
    w = np.clip(np.round(area / h), w_lo, np.maximum(w_lo, w_hi)).astype(np.int64)
    out = np.zeros((4, live.size), dtype=np.int64)
    out[:, live] = (draws.integers(side - h + 1, rows),
                    draws.integers(side - w + 1, rows), h, w)
    return out


def _augment_draws(draws, n, side, p):
    """What ``augment`` draws for ``n`` images from the streams
    0..n-1 of ``draws``, each image's draws in stream order: a coin and
    factor for blur, a coin and rectangle for erase, a coin, gain and
    shift for jitter; returned as ``_operate`` takes them."""
    rows = np.arange(n)
    factor = np.ones(n)
    blur = rows[draws.random(rows) < p]
    factor[blur] = draws.uniform(BLUR_FACTOR_LO, BLUR_FACTOR_HI, blur)
    erase = rows[draws.random(rows) < p]
    rects = _erase_rects(draws, erase, side, ERASE_AREA_LO, ERASE_AREA_HI)
    jitter = rows[draws.random(rows) < p]
    gain = draws.uniform(JITTER_GAIN_LO, JITTER_GAIN_HI, jitter)
    shift = draws.uniform(-JITTER_SHIFT, JITTER_SHIFT, jitter)
    return factor, erase, rects, jitter, gain, shift


def _degrade_draws(draws, rows, level, side):
    """What degrading with strength ``level`` in (0, 1], one per row,
    draws from the streams ``rows`` of ``draws``: an erase rectangle in a
    level-proportional range, then a jitter shift; blur factor and gain
    follow from the level.  Returned per row: factor, rectangles, gain
    and shift."""
    rects = _erase_rects(draws, rows, side, 0.5 * _DEG_ERASE_MAX * level,
                         _DEG_ERASE_MAX * level)
    shift = draws.uniform(-JITTER_SHIFT, JITTER_SHIFT, rows) * level
    return 1.0 - _DEG_BLUR_MAX * level, rects, 1.0 - _DEG_GAIN_MAX * level, shift


def _operate(imgs, factor, erase, rects, jitter, gain, shift):
    """Run the operators over an (n, side, side) stack in place, in the
    order blur -> erase -> jitter, and return it: image ``k`` blurred by
    ``factor[k]`` (1 leaves it), the ``rects`` of the ``erase`` rows
    zeroed, the ``jitter`` rows mapped by their gain and shift."""
    side = imgs.shape[-1]
    # one blur per shrunk size, which every factor of its group gives (both
    # rounds halve to even); a size of ``side`` leaves the image as it is
    small = np.maximum(1, np.round(side * factor))
    for size in np.unique(small[small < side]):
        rows = np.flatnonzero(small == size)
        imgs[rows] = rescale_blur(imgs[rows], factor[rows[0]])
    for k, top, left, h, w in zip(erase.tolist(), *rects.tolist()):
        imgs[k, top:top + h, left:left + w] = 0.0
    if len(jitter):
        # cast as a Python float is when it meets the image's dtype
        gain, shift = (np.asarray(x, dtype=imgs.dtype)[:, None, None]
                       for x in (gain, shift))
        imgs[jitter] = jitter_affine(imgs[jitter], gain, shift)
    return imgs


def augment(imgs, words, p=0.3):
    """Augment an (n, side, side) stack in place and return it: apply each
    quality-degrading operator to each image independently with
    probability ``p``, in the fixed order blur -> erase -> jitter.

    Image ``k`` draws from stream ``k`` of ``words``, where ``words(m)``
    gives the first ``m`` raw words of every stream, (n, m), as
    ``functools.partial(rngstreams.stream_words, seed, tag, counter,
    indices)`` does; the draws are decoded from them in one pass, then
    each operator runs once over the images it applies to.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"augmentation probability must lie in [0, 1], got {p}")
    draws = StreamDraws(words, _AUGMENT_WORDS)
    return _operate(imgs, *_augment_draws(draws, len(imgs), imgs.shape[-1], p))


# ---------------------------------------------------------------------------
# generation

def _sample_template(grid, side, dy, dx):
    """Evaluate the coarse template grid at shifted pixel lattices, one
    per entry of the shift arrays ``dy`` and ``dx``: (n, side, side).

    The arithmetic is elementwise, so each image has the bits it would
    have if evaluated alone.
    """
    g = grid.shape[0]
    coords = np.linspace(0.0, g - 1.0, side)
    ys = np.clip(coords + np.asarray(dy, dtype=np.float64)[:, None], 0.0, g - 1.0)
    xs = np.clip(coords + np.asarray(dx, dtype=np.float64)[:, None], 0.0, g - 1.0)
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    ty = (ys - y0)[:, :, None]
    tx = xs - x0
    y0 = y0.astype(np.intp)
    x0 = x0.astype(np.intp)
    x1 = np.minimum(x0 + 1, g - 1)
    # every grid row interpolated along x once per image, (g * n, side)
    # with row r of image k at r * n + k; then rows y0 and y0 + 1 of it
    n = len(ys)
    along_x = (grid[:, x0] * (1 - tx) + grid[:, x1] * tx).reshape(g * n, side)
    k = np.arange(n)[:, None]
    top = along_x[y0 * n + k]
    bot = along_x[np.minimum(y0 + 1, g - 1) * n + k]
    # top * (1 - ty) + bot * ty, without the temporaries
    top *= 1 - ty
    bot *= ty
    top += bot
    return top


def _degradations(seed, flags, n, side, fraction):
    """Every degradation draw of a dataset: each row's level (0 where it
    stays pristine), the degraded rows in order, and their factor,
    rectangles, gain and shift (``_degrade_draws``).

    A normal sample draws coin, level and operators from its own
    ``T_DEGRADE`` stream; every coin is taken in one ``first_random``
    pass, and only the streams of samples it degrades are entered past
    it.  A duplicate class draws coin and level from ``rng_for(seed,
    T_DEGRADE, c)``, which is its sample 0's stream (SeedSequence pads
    trailing zeros), and one set of operator draws from its
    ``T_DEGRADE_SHARED`` stream, repeated for every sample: the same
    draws keep the degraded copies within the duplicate tolerance.  The
    duplicate levels are taken in one ``stream_words`` pass, and all
    operator draws are decoded in one pass.
    """
    c_total = len(flags)
    labels = np.repeat(np.arange(c_total), n)
    within = np.tile(np.arange(n), c_total)
    coin = first_random(seed, T_DEGRADE, labels, within) < fraction
    hit = (flags[labels] == FLAG_NORMAL) & coin
    dup = np.flatnonzero((flags == FLAG_DUPLICATE) & coin[::n])
    m = np.count_nonzero(hit)
    if not m and not len(dup):  # no stream is entered past its coin
        return np.zeros(c_total * n), np.empty(0, dtype=np.intp), []
    shared = np.isin(labels, dup)

    def words(k):
        return np.concatenate([
            stream_words(seed, T_DEGRADE, labels[hit], within[hit], k),
            stream_words(seed, T_DEGRADE_SHARED, dup, 0, k)])

    # a normal sample's stream is entered past its coin
    draws = StreamDraws(words, _DEGRADE_WORDS,
                        start=np.repeat([1, 0], [m, len(dup)]))
    level = np.zeros(c_total * n)
    level[hit] = 1.0 - draws.random(np.arange(m))
    # a duplicate class's level: the second double of its coin's stream
    level[shared] = np.repeat(
        1.0 - doubles(stream_words(seed, T_DEGRADE, dup, 0, 2)[:, 1]), n)
    ops = _degrade_draws(draws, np.arange(m + len(dup)),
                         np.concatenate([level[hit], level[dup * n]]), side)
    op_of = np.empty(c_total * n, dtype=np.intp)
    op_of[hit] = np.arange(m)
    op_of[shared] = m + np.repeat(np.arange(len(dup)), n)
    rows = np.flatnonzero(hit | shared)
    return level, rows, [x[..., op_of[rows]] for x in ops]


def gen_dataset(cfg):
    """Generate a dataset deterministically from ``cfg``.

    Duplicate-flagged classes draw one class-level degradation decision
    and degrade all their samples with one set of operator draws, so the
    class stays a near-identical cluster of (possibly degraded) images;
    this is the mislabel trap the variance guidance is meant to catch.
    Normal classes draw degradation per sample (``_degradations``).
    Per-sample pose and noise streams are served in class-major order by
    ``rngs_for``.  Degraded rows are gathered across classes into float64
    blocks of at most ``_DEGRADE_BLOCK_ROWS`` rows, each degraded by one
    operator pass.
    """
    c_total, n, side = cfg.num_classes, cfg.samples_per_class, cfg.side
    seed = cfg.seed

    n_dup = int(round(cfg.duplicate_class_fraction * c_total))
    flags = np.zeros(c_total, dtype=np.uint8)
    dup_classes = rng_for(seed, T_CLASS_FLAGS).permutation(c_total)[:n_dup]
    flags[dup_classes] = FLAG_DUPLICATE

    grid_side = min(_TEMPLATE_GRID, side)
    images = np.empty((c_total * n, side, side), dtype=np.float32)
    labels = np.repeat(np.arange(c_total, dtype=np.uint32), n)
    level, degraded, ops = _degradations(seed, flags, n, side,
                                         cfg.degrade_fraction)
    block = np.empty((min(_DEGRADE_BLOCK_ROWS, degraded.size), side, side))
    done = 0  # degraded rows written; block holds those gathered since

    sample_rngs = rngs_for(seed, T_SAMPLE, labels, np.tile(np.arange(n),
                                                           c_total))
    # class c's template grid comes from rng_for(seed, T_TEMPLATE, c), its
    # pose scale from the first double of rng_for(seed, T_TEMPLATE, c, 1),
    # drawn as Generator.uniform draws it
    classes = np.arange(c_total)
    template_rngs = rngs_for(seed, T_TEMPLATE, classes, 0)
    pose_scales = cfg.pose_spread * (
        _POSE_SCALE_LO + (_POSE_SCALE_HI - _POSE_SCALE_LO)
        * first_random(seed, T_TEMPLATE, classes, 1))
    for c in range(c_total):
        template = next(template_rngs).uniform(0.0, 1.0,
                                               (grid_side, grid_side))
        # Left-right symmetric templates, like the faces they stand in
        # for: a horizontal flip then acts as another pose draw instead
        # of injecting variance the pose model does not account for.
        template = 0.5 * (template + template[:, ::-1])
        if flags[c] == FLAG_DUPLICATE:
            noise = np.array([
                rng.uniform(-DUPLICATE_PIXEL_TOL / 4, DUPLICATE_PIXEL_TOL / 4,
                            (side, side)) for rng in islice(sample_rngs, n)])
            imgs = np.clip(_sample_template(template, side, [0.0], [0.0])
                           + noise, 0.0, 1.0)
        else:
            shifts = np.array([rng.normal(0.0, pose_scales[c], 2)
                               for rng in islice(sample_rngs, n)])
            imgs = _sample_template(template, side, shifts[:, 0], shifts[:, 1])
        images[c * n:(c + 1) * n] = imgs
        lo, hi = np.searchsorted(degraded, [c * n, (c + 1) * n])
        while lo < hi:
            stop = min(hi, done + len(block))
            block[lo - done:stop - done] = imgs[degraded[lo:stop] - c * n]
            lo = stop
            if stop - done == len(block) or stop == degraded.size:
                part, every = slice(done, stop), np.arange(stop - done)
                factor, rects, gain, shift = (x[..., part] for x in ops)
                images[degraded[part]] = _operate(
                    block[:stop - done], factor, every, rects, every, gain,
                    shift)
                done = stop

    return IdentityDataset(images=images, labels=labels,
                           degradation_level=level.astype(np.float32),
                           class_flags=flags)


# ---------------------------------------------------------------------------
# container i/o

# Records per block of every read and write of the container file, and
# rows per block of every embedding: at hidden width 256 the backbone's
# output bytes depend on how its rows are grouped.
BLOCK_ROWS = 256


def _record_dtype(side):
    """One per-sample record of the container."""
    return np.dtype([("label", "<u4"), ("level", "<f4"),
                     ("pixels", "<f4", (side, side))])


def _record_chunks(total, side):
    """Yield (start, records) over consecutive blocks of ``BLOCK_ROWS``
    of the ``total`` records, each block a view of one reused record
    buffer."""
    buffer = np.empty(min(BLOCK_ROWS, total), dtype=_record_dtype(side))
    for start in range(0, total, BLOCK_ROWS):
        yield start, buffer[:min(BLOCK_ROWS, total - start)]


def save_dataset(dataset, path):
    """Write the dataset container file."""
    dataset.validate()
    c_total = dataset.num_classes
    n = dataset.samples_per_class
    side = dataset.side
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", c_total, n, side))
        for start, records in _record_chunks(dataset.num_samples, side):
            stop = start + len(records)
            records["label"] = dataset.labels[start:stop]
            records["level"] = dataset.degradation_level[start:stop]
            records["pixels"] = dataset.images[start:stop]
            fh.write(records)
        fh.write(dataset.class_flags.astype(np.uint8).tobytes())


def _read_exact(fh, count, what):
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated dataset file while reading {what}",
                          offset=fh.tell())
    return data


class DatasetStream:
    """A dataset container file read front to back, a block of records
    at a time, without its images ever held whole; raises FormatError on
    corruption.  Use it as a context manager, which closes the file.

    Opening it checks the magic and the header, the file length against
    the size the header declares (before anything is allocated, so a
    corrupt header cannot demand more memory than the file could fill),
    and the class flags at the file's tail.  ``blocks`` then reads the
    records once, checking each block's labels, levels and pixels before
    handing it out, and checks after the last that every class appears
    at least twice.  The labels and levels read so far are kept in
    ``labels`` and ``degradation_level``.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def _read_header(self):
        fh = self._fh
        magic = _read_exact(fh, len(MAGIC), "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}",
                              offset=0)
        c_total, n, side = struct.unpack("<III", _read_exact(fh, 12, "header"))
        total = c_total * n
        start = fh.tell()
        # a record is a u32 label, an f32 level and side*side f32 pixels
        declared = start + total * (8 + 4 * side * side) + c_total
        size = os.fstat(fh.fileno()).st_size
        if size < declared:
            raise FormatError(
                f"truncated dataset file: the header declares {c_total} "
                f"classes x {n} samples of side {side}, {declared} bytes, "
                f"but the file has {size}", offset=size)
        if size > declared:
            raise FormatError("unexpected trailing bytes", offset=declared)
        if total * side == 0:
            raise FormatError("dataset holds no pixels")
        fh.seek(declared - c_total)
        flags = np.frombuffer(_read_exact(fh, c_total, "class flags"),
                              dtype=np.uint8).copy()
        _check_flags(flags)
        fh.seek(start)
        self.num_classes, self.num_samples, self.side = c_total, total, side
        self.class_flags = flags
        self.labels = np.empty(total, dtype=np.uint32)
        self.degradation_level = np.empty(total, dtype=np.float32)

    def blocks(self):
        """Yield (start, pixels) for each block of ``BLOCK_ROWS`` records
        in file order, ``pixels`` the (k, side, side) float32 field of
        one reused record buffer, which the next block overwrites."""
        for start, records in _record_chunks(self.num_samples, self.side):
            stop = start + len(records)
            if self._fh.readinto(records.view(np.uint8)) != records.nbytes:
                raise FormatError(
                    f"truncated dataset file while reading samples "
                    f"{start}..{stop - 1}", offset=self._fh.tell())
            _check_records(records["label"], records["level"],
                           records["pixels"], self.num_classes)
            self.labels[start:stop] = records["label"]
            self.degradation_level[start:stop] = records["level"]
            yield start, records["pixels"]
        _check_class_counts(self.labels, self.num_classes)


def load_dataset(path):
    """Read a dataset container file whole, through ``DatasetStream`` and
    its checks."""
    with DatasetStream(path) as stream:
        images = np.empty((stream.num_samples, stream.side, stream.side),
                          dtype=np.float32)
        for start, pixels in stream.blocks():
            images[start:start + len(pixels)] = pixels
    return IdentityDataset(images=images, labels=stream.labels,
                           degradation_level=stream.degradation_level,
                           class_flags=stream.class_flags)
