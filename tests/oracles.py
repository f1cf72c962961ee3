"""Scalar reference operators: one image, draws made by numpy's own
Generator methods.  The package decodes these draws from raw stream
words in array passes; tests compare it against these."""

import math

import numpy as np

from fiqlab import synthdata
from fiqlab.errors import DomainError, FormatError


def erase_draw(side, rng, lo_frac, hi_frac):
    """Draw a rectangle covering a fraction of a side x side image in
    [lo_frac, hi_frac] after integer rounding: (top, left, h, w), empty
    and drawing nothing when the range rounds below one pixel.
    """
    total = side * side
    lo_px = max(1, math.ceil(lo_frac * total))
    hi_px = math.floor(hi_frac * total)
    if hi_px < 1:
        return 0, 0, 0, 0
    lo_px = min(lo_px, hi_px)
    area = rng.uniform(lo_frac, hi_frac) * total
    aspect = rng.uniform(0.5, 2.0)
    h_lo = max(1, math.ceil(lo_px / side))
    h_hi = min(side, hi_px)
    h = min(max(round(math.sqrt(area * aspect)), h_lo), max(h_lo, h_hi))
    w_lo = max(1, math.ceil(lo_px / h))
    w_hi = min(side, hi_px // h)
    w = min(max(round(area / h), w_lo), max(w_lo, w_hi))
    top = int(rng.integers(0, side - h + 1))
    left = int(rng.integers(0, side - w + 1))
    return top, left, h, w


def erase_rect(img, rng, lo_frac, hi_frac):
    """A copy of the image, or of every image of a stack, with the
    rectangle of ``erase_draw`` zeroed."""
    top, left, h, w = erase_draw(img.shape[-1], rng, lo_frac, hi_frac)
    out = img.copy()
    out[..., top:top + h, left:left + w] = 0.0
    return out


def degrade(img, level, rng):
    """Apply all three degradation operators with strength proportional
    to ``level`` in (0, 1].  A stack is degraded with one set of draws,
    the same for every image.
    """
    if not 0.0 < level <= 1.0:
        raise DomainError(f"degradation level must lie in (0, 1], got {level}")
    out = synthdata.rescale_blur(img, 1.0 - synthdata._DEG_BLUR_MAX * level)
    out = erase_rect(out, rng, 0.5 * synthdata._DEG_ERASE_MAX * level,
                     synthdata._DEG_ERASE_MAX * level)
    gain = 1.0 - synthdata._DEG_GAIN_MAX * level
    shift = rng.uniform(-synthdata.JITTER_SHIFT, synthdata.JITTER_SHIFT) * level
    return synthdata.jitter_affine(out, gain, shift)


def generator_words(rng):
    """A ``StreamDraws`` source of one stream: the raw words that follow
    the state ``rng`` is in now, which it leaves as it is."""
    state = rng.bit_generator.state

    def words(k):
        bitgen = type(rng.bit_generator)()
        bitgen.state = state
        return bitgen.random_raw((1, k))
    return words


def hflip(img, rng):
    """Mirror one image left-right with probability 0.5, else copy it."""
    return (img[:, ::-1] if rng.random() < 0.5 else img).copy()


def augment(img, rng, p=0.3):
    """``synthdata.augment`` of one image, drawing from ``rng`` as it
    stands, with no half word buffered (a fresh generator has none), and
    leaving it so."""
    return synthdata.augment(img[None].copy(), generator_words(rng), p)[0]


def read_scores_csv(path, expected):
    """``cli._read_scores_csv`` one line at a time, with ``int`` and
    ``float``: the reader it replaced, whose missing-score message names
    no sample."""
    scores = np.full(expected, np.nan)
    seen = bytearray(expected)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    header, *rows = lines or [""]
    if header.strip() != "sample_id,score":
        raise FormatError(f"{path}: expected header 'sample_id,score'")
    for lineno, line in enumerate(rows, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            sid, value = line.split(",")
            sid, value = int(sid), float(value)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad row {line!r}") from exc
        if not 0 <= sid < expected:
            raise FormatError(f"{path}:{lineno}: sample id {sid} outside "
                              f"[0, {expected})")
        if not math.isfinite(value):
            raise FormatError(f"{path}:{lineno}: non-finite score "
                              f"{value} for sample {sid}")
        if seen[sid]:
            raise FormatError(f"{path}:{lineno}: repeated sample id {sid}")
        seen[sid] = 1
        scores[sid] = value
    if np.any(np.isnan(scores)):
        raise FormatError(f"{path}: missing scores for some samples")
    return scores
