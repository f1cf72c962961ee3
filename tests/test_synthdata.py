import functools
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiqlab import reference, synthdata
from fiqlab.errors import ConfigError, DomainError, FormatError
from fiqlab.rngstreams import (
    T_AUG,
    T_CLASS_FLAGS,
    T_DEGRADE,
    T_DEGRADE_SHARED,
    T_SAMPLE,
    T_TEMPLATE,
    StreamDraws,
    rng_for,
    stream_words,
)

import oracles


def small_cfg(**kw):
    base = dict(num_classes=6, samples_per_class=4, side=16,
                duplicate_class_fraction=0.5, pose_spread=0.5,
                degrade_fraction=0.0, seed=3)
    base.update(kw)
    return synthdata.SynthConfig(**base)


def checkerboard(side=24):
    img = np.indices((side, side)).sum(axis=0) % 2
    return img.astype(np.float64)


class TestConfig:
    def test_duplicate_fraction_gives_exact_count(self):
        cfg = synthdata.SynthConfig(num_classes=50, samples_per_class=2,
                                    duplicate_class_fraction=0.2)
        ds = synthdata.gen_dataset(cfg)
        assert int(ds.class_flags.sum()) == 10

    @pytest.mark.parametrize("kw", [
        {"num_classes": 1},
        {"samples_per_class": 1},
        {"duplicate_class_fraction": 1.5},
        {"degrade_fraction": -0.1},
        {"pose_spread": -1.0},
        {"pose_spread": float("nan")},
        {"pose_spread": float("inf")},
        {"seed": -1},
        {"seed": 2 ** 32},
        {"seed": 2 ** 64 - 1},
    ])
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            small_cfg(**kw)


class TestGenDataset:
    def test_zero_perturbation_case(self):
        ds = synthdata.gen_dataset(small_cfg(pose_spread=0.0,
                                             degrade_fraction=0.0))
        assert np.all(ds.degradation_level == 0.0)
        labels = ds.labels.astype(int)
        for c in range(ds.num_classes):
            rows = ds.images[labels == c]
            spread = np.abs(rows - rows[0]).max()
            if ds.class_flags[c] == synthdata.FLAG_NORMAL:
                assert spread == 0.0
            else:
                assert spread <= synthdata.DUPLICATE_PIXEL_TOL

    def test_same_seed_bit_identical(self):
        cfg = small_cfg(degrade_fraction=0.5)
        a = synthdata.gen_dataset(cfg)
        b = synthdata.gen_dataset(cfg)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.degradation_level, b.degradation_level)
        assert np.array_equal(a.class_flags, b.class_flags)

    def test_pixels_stay_in_unit_interval(self):
        ds = synthdata.gen_dataset(small_cfg(degrade_fraction=0.8,
                                             pose_spread=1.5))
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_degradation_level_zero_iff_pristine(self):
        ds = synthdata.gen_dataset(small_cfg(num_classes=10,
                                             samples_per_class=8,
                                             degrade_fraction=0.5, seed=9))
        assert np.any(ds.degradation_level > 0)
        assert np.any(ds.degradation_level == 0)

    def test_duplicate_classes_stay_tight_after_degradation(self):
        ds = synthdata.gen_dataset(small_cfg(num_classes=10,
                                             samples_per_class=6,
                                             duplicate_class_fraction=1.0,
                                             degrade_fraction=1.0, seed=5))
        labels = ds.labels.astype(int)
        for c in range(ds.num_classes):
            rows = ds.images[labels == c]
            # identical degradation draws keep copies within ~gain*tol
            assert np.abs(rows - rows[0]).max() <= 2 * synthdata.DUPLICATE_PIXEL_TOL

    def test_duplicate_variance_below_normal_under_any_backbone(self):
        from fiqlab import backbone as bb
        from fiqlab import evalkit
        ds = synthdata.gen_dataset(small_cfg(num_classes=12,
                                             samples_per_class=8,
                                             duplicate_class_fraction=0.5,
                                             pose_spread=0.6, seed=11))
        model = bb.init_backbone(ds.side * ds.side, rng=rng_for(4, 99))
        var = evalkit.oracle_variance(ds, model)
        dup = ds.class_flags == synthdata.FLAG_DUPLICATE
        assert var[dup].mean() < var[~dup].mean()
        assert var[dup].max() < var[~dup].min()


def per_sample_template(grid, side, dy, dx):
    """The template at one shifted lattice, one image per call."""
    g = grid.shape[0]
    coords = np.linspace(0.0, g - 1.0, side)
    ys = np.clip(coords + dy, 0.0, g - 1.0)
    xs = np.clip(coords + dx, 0.0, g - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, g - 1)
    x1 = np.minimum(x0 + 1, g - 1)
    ty = (ys - y0)[:, None]
    tx = (xs - x0)[None, :]
    top = grid[np.ix_(y0, x0)] * (1 - tx) + grid[np.ix_(y0, x1)] * tx
    bot = grid[np.ix_(y1, x0)] * (1 - tx) + grid[np.ix_(y1, x1)] * tx
    return top * (1 - ty) + bot * ty


def per_sample_gen_dataset(cfg):
    """gen_dataset one sample at a time, every coin drawn from the
    sample's own stream: the reference the class-at-a-time version
    must match byte for byte."""
    c_total, n, side, seed = (cfg.num_classes, cfg.samples_per_class,
                              cfg.side, cfg.seed)
    n_dup = int(round(cfg.duplicate_class_fraction * c_total))
    flags = np.zeros(c_total, dtype=np.uint8)
    flags[rng_for(seed, T_CLASS_FLAGS).permutation(c_total)[:n_dup]] = 1
    grid_side = min(synthdata._TEMPLATE_GRID, side)
    images = np.empty((c_total * n, side, side), dtype=np.float32)
    labels = np.empty(c_total * n, dtype=np.uint32)
    levels = np.empty(c_total * n, dtype=np.float32)
    for c in range(c_total):
        template = rng_for(seed, T_TEMPLATE, c).uniform(
            0.0, 1.0, (grid_side, grid_side))
        template = 0.5 * (template + template[:, ::-1])
        if flags[c] == synthdata.FLAG_DUPLICATE:
            class_rng = rng_for(seed, T_DEGRADE, c)
            degraded = class_rng.random() < cfg.degrade_fraction
            class_level = 1.0 - class_rng.random() if degraded else 0.0
        else:
            class_pose = cfg.pose_spread * rng_for(
                seed, T_TEMPLATE, c, 1).uniform(synthdata._POSE_SCALE_LO,
                                                synthdata._POSE_SCALE_HI)
        for i in range(n):
            row = c * n + i
            srng = rng_for(seed, T_SAMPLE, c, i)
            if flags[c] == synthdata.FLAG_DUPLICATE:
                img = per_sample_template(template, side, 0.0, 0.0)
                img = img + srng.uniform(-synthdata.DUPLICATE_PIXEL_TOL / 4,
                                         synthdata.DUPLICATE_PIXEL_TOL / 4,
                                         (side, side))
                img = np.clip(img, 0.0, 1.0)
                level = class_level
                if level > 0.0:
                    img = oracles.degrade(
                        img, level, rng_for(seed, T_DEGRADE_SHARED, c))
            else:
                dy, dx = srng.normal(0.0, class_pose, 2)
                img = per_sample_template(template, side, dy, dx)
                drng = rng_for(seed, T_DEGRADE, c, i)
                level = 0.0
                if drng.random() < cfg.degrade_fraction:
                    level = 1.0 - drng.random()
                    img = oracles.degrade(img, level, drng)
            images[row] = img
            labels[row] = c
            levels[row] = level
    return synthdata.IdentityDataset(images=images, labels=labels,
                                     degradation_level=levels,
                                     class_flags=flags)


class TestClassAtATime:
    @given(num_classes=st.integers(2, 6), samples=st.integers(2, 5),
           side=st.integers(4, 26),
           dup=st.sampled_from([0.0, 0.5, 1.0]),
           degrade=st.sampled_from([0.0, 0.4, 1.0]),
           pose=st.sampled_from([0.0, 0.3, 1.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_per_sample_loop(self, num_classes, samples, side,
                                           dup, degrade, pose, seed):
        cfg = synthdata.SynthConfig(
            num_classes=num_classes, samples_per_class=samples, side=side,
            duplicate_class_fraction=dup, degrade_fraction=degrade,
            pose_spread=pose, seed=seed)
        got = synthdata.gen_dataset(cfg)
        want = per_sample_gen_dataset(cfg)
        for name in ("images", "labels", "degradation_level", "class_flags"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("cfg, digest", [
        # the criterion 9 and benchmark replay-probe set
        (synthdata.SynthConfig(
            num_classes=8, samples_per_class=6, side=12,
            duplicate_class_fraction=0.25, pose_spread=0.8,
            degrade_fraction=0.3, seed=17),
         "422f63266f2ae4b816c99dcd7bc8a654de0e8bea6d83d6a27a26f99f56dcd2b0"),
        (reference.reference_synth_config(3001, 0.3, 0.8),
         "83680c0d07ceabaabe9eff5fe22287513da6ce30d5fee2b8e8bccb10fcf794df"),
    ])
    def test_pinned_container_digest(self, tmp_path, cfg, digest):
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(synthdata.gen_dataset(cfg), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_batched_template_matches_one_at_a_time(self):
        grid = rng_for(5, 1).uniform(0.0, 1.0, (12, 12))
        dy, dx = rng_for(5, 2).normal(0.0, 4.0, (2, 9))
        got = synthdata._sample_template(grid, 17, dy, dx)
        assert got.shape == (9, 17, 17)
        for k in range(9):
            want = per_sample_template(grid, 17, dy[k], dx[k])
            assert got[k].tobytes() == want.tobytes()


class TestDegrade:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("level", [0.05, 0.4, 1.0])
    @pytest.mark.parametrize("side", [4, 13, 24])
    def test_stack_equals_per_image_with_fresh_streams(self, dtype, level,
                                                        side):
        # a duplicate class's one shared draw, repeated for every image
        imgs = rng_for(7, side).uniform(0.0, 1.0, (5, side, side))
        imgs = imgs.astype(dtype)
        draws = StreamDraws(oracles.generator_words(rng_for(7, 99)), 4)
        factor, rects, gain, shift = (
            np.repeat(x, 5, axis=-1) for x in synthdata._degrade_draws(
                draws, np.arange(1), np.array([level]), side))
        every = np.arange(5)
        got = synthdata._operate(imgs.copy(), factor, every, rects, every,
                                 gain, shift)
        assert got.dtype == imgs.dtype and got.shape == imgs.shape
        for k in range(5):
            want = oracles.degrade(imgs[k], level, rng_for(7, 99))
            assert got[k].tobytes() == want.tobytes()


class TestDegradeStreams:
    @pytest.mark.parametrize("fraction", [0.0, 0.4, 1.0])
    def test_only_degraded_samples_enter_their_streams(self, monkeypatch,
                                                       fraction):
        entered = []
        real = synthdata.stream_words

        def counting(seed, tag, counter, indices, k):
            if tag == T_DEGRADE:
                pairs = zip(*(x.tolist() for x in
                              np.broadcast_arrays(counter, indices)))
                entered.extend(pairs)
            return real(seed, tag, counter, indices, k)

        monkeypatch.setattr(synthdata, "stream_words", counting)
        ds = synthdata.gen_dataset(small_cfg(num_classes=8, samples_per_class=6,
                                             degrade_fraction=fraction))
        n = ds.samples_per_class
        normal = ds.class_flags[ds.labels] == synthdata.FLAG_NORMAL
        degraded = np.flatnonzero(normal & (ds.degradation_level > 0))
        # a degraded duplicate class draws its level from its sample 0's
        # stream, past the coin
        shared = np.flatnonzero(
            (ds.class_flags == synthdata.FLAG_DUPLICATE)
            & (ds.degradation_level[::n] > 0))
        assert entered == ([(r // n, r % n) for r in degraded]
                           + [(c, 0) for c in shared.tolist()])
        if fraction == 0.0:
            assert entered == []
        else:
            assert entered


    def test_nothing_degraded_decodes_no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no row degrades, so nothing is decoded")

        monkeypatch.setattr(synthdata, "StreamDraws", refuse)
        ds = synthdata.gen_dataset(small_cfg(num_classes=8, samples_per_class=6,
                                             duplicate_class_fraction=0.25,
                                             degrade_fraction=0.0))
        assert not ds.degradation_level.any()


class TestDegradeBlocks:
    @pytest.mark.parametrize("cap", [7, synthdata._DEGRADE_BLOCK_ROWS])
    def test_no_pass_exceeds_the_cap(self, monkeypatch, cap):
        # more degraded rows than the cap, and duplicate classes of more
        # samples than it, so a class's rows span two blocks
        cfg = synthdata.SynthConfig(
            num_classes=30, samples_per_class=24, side=8,
            duplicate_class_fraction=0.3, degrade_fraction=0.9, seed=5)
        passes = []
        real = synthdata._operate

        def counted(imgs, *args):
            passes.append(len(imgs))
            return real(imgs, *args)

        monkeypatch.setattr(synthdata, "_operate", counted)
        monkeypatch.setattr(synthdata, "_DEGRADE_BLOCK_ROWS", cap)
        got = synthdata.gen_dataset(cfg)
        degraded = int(np.count_nonzero(got.degradation_level))
        assert degraded > synthdata._DEGRADE_BLOCK_ROWS
        assert sum(passes) == degraded
        assert max(passes) <= cap
        want = per_sample_gen_dataset(cfg)
        for name in ("images", "labels", "degradation_level", "class_flags"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestRescaleBlur:
    def test_identity_factor(self):
        img = rng_for(0, 1).uniform(0, 1, (24, 24))
        out = synthdata.rescale_blur(img, 1.0)
        assert np.array_equal(out, img)
        assert out is not img

    def test_constant_invariance(self):
        img = np.full((24, 24), 0.37)
        out = synthdata.rescale_blur(img, 0.4)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_checkerboard_variance_drops(self):
        img = checkerboard()
        out = synthdata.rescale_blur(img, 0.5)
        assert out.var() < img.var()

    def test_matches_reference_resampler(self):
        # Independent oracle: direct box-overlap average then lerp.
        def reference(img, factor):
            side = img.shape[0]
            small = max(1, int(round(side * factor)))
            ratio = side / small
            down = np.zeros((small, small))
            for i in range(small):
                for j in range(small):
                    acc = 0.0
                    for y in range(side):
                        wy = max(0.0, min((i + 1) * ratio, y + 1) - max(i * ratio, y))
                        if wy == 0.0:
                            continue
                        for x in range(side):
                            wx = max(0.0, min((j + 1) * ratio, x + 1) - max(j * ratio, x))
                            if wx:
                                acc += wy * wx * img[y, x]
                    down[i, j] = acc / (ratio * ratio)
            scale = small / side
            out = np.zeros((side, side))
            for y in range(side):
                sy = min(max((y + 0.5) * scale - 0.5, 0.0), small - 1.0)
                y0 = int(np.floor(sy)); y1 = min(y0 + 1, small - 1); ty = sy - y0
                for x in range(side):
                    sx = min(max((x + 0.5) * scale - 0.5, 0.0), small - 1.0)
                    x0 = int(np.floor(sx)); x1 = min(x0 + 1, small - 1); tx = sx - x0
                    out[y, x] = ((1 - ty) * ((1 - tx) * down[y0, x0] + tx * down[y0, x1])
                                 + ty * ((1 - tx) * down[y1, x0] + tx * down[y1, x1]))
            return out

        img = rng_for(0, 2).uniform(0, 1, (12, 12))
        for factor in (0.5, 0.66, 0.3):
            got = synthdata.rescale_blur(img, factor)
            np.testing.assert_allclose(got, reference(img, factor), atol=1e-12)

    def test_cached_matrices_equal_fresh_and_read_only(self):
        for build in (synthdata._area_downscale_matrix,
                      synthdata._bilinear_upscale_matrix):
            for n_in, n_out in ((24, 17), (24, 6), (9, 24), (12, 12)):
                cached = build(n_in, n_out)
                assert build(n_in, n_out) is cached
                assert np.array_equal(cached, build.__wrapped__(n_in, n_out))
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 1.0

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_bad_factor(self, factor):
        with pytest.raises(DomainError):
            synthdata.rescale_blur(np.zeros((8, 8)), factor)


ONE = np.zeros(1, dtype=np.intp)


def decoded_erase(img, rng, lo_frac, hi_frac):
    """One image's erase, its rectangle decoded from the words of
    ``rng``'s stream; also the draws, their cursor just past it."""
    draws = StreamDraws(oracles.generator_words(rng), 4)
    rects = synthdata._erase_rects(draws, ONE, img.shape[-1], lo_frac,
                                   hi_frac)
    out = synthdata._operate(img[None].copy(), np.ones(1), ONE, rects,
                             ONE[:0], [], [])
    return out[0], draws


def random_erase(img, rng):
    """The augmentation's erase of one image."""
    return decoded_erase(img, rng, synthdata.ERASE_AREA_LO,
                         synthdata.ERASE_AREA_HI)[0]


class TestRandomErase:
    def test_erased_pixels_exactly_zero_rest_untouched(self):
        img = rng_for(0, 3).uniform(0.2, 1.0, (24, 24))
        out = random_erase(img, rng_for(0, 4))
        zeroed = out == 0.0
        assert zeroed.any()
        assert np.array_equal(out[~zeroed], img[~zeroed])

    def test_zero_fraction_within_decided_range(self):
        img = np.full((24, 24), 0.5)
        for draw in range(1000):
            out = random_erase(img, rng_for(1, 5, draw))
            frac = np.mean(out == 0.0)
            assert 0.05 <= frac <= 0.30

    def test_rectangle_shape(self):
        img = np.ones((24, 24))
        out = random_erase(img, rng_for(0, 6))
        rows = np.flatnonzero((out == 0).any(axis=1))
        cols = np.flatnonzero((out == 0).any(axis=0))
        block = out[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
        assert np.all(block == 0.0)


def erase_rect_numpy_scalars(img, rng, lo_frac, hi_frac):
    """The erase with numpy's scalar ceil, floor, sqrt and clip: the
    oracle for the decoder's int and float arithmetic."""
    side = img.shape[0]
    total = side * side
    lo_px = max(1, int(np.ceil(lo_frac * total)))
    hi_px = int(np.floor(hi_frac * total))
    if hi_px < 1:
        return img.copy()
    lo_px = min(lo_px, hi_px)
    area = rng.uniform(lo_frac, hi_frac) * total
    aspect = rng.uniform(0.5, 2.0)
    h_lo = max(1, int(np.ceil(lo_px / side)))
    h_hi = min(side, hi_px)
    h = int(np.clip(int(round(np.sqrt(area * aspect))), h_lo, max(h_lo, h_hi)))
    w_lo = max(1, int(np.ceil(lo_px / h)))
    w_hi = min(side, hi_px // h)
    w = int(np.clip(int(round(area / h)), w_lo, max(w_lo, w_hi)))
    top = int(rng.integers(0, side - h + 1))
    left = int(rng.integers(0, side - w + 1))
    out = img.copy()
    out[top:top + h, left:left + w] = 0.0
    return out


class TestEraseRectArithmetic:
    @given(st.integers(4, 40), st.sampled_from(["erase", "degrade", "any"]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_same_rectangle_as_numpy_scalars(self, side, kind, u, v, seed):
        if kind == "erase":
            lo, hi = synthdata.ERASE_AREA_LO, synthdata.ERASE_AREA_HI
        elif kind == "degrade":
            # degrade's level-proportional range, level in (0, 1]
            level = max(u, 1e-6)
            lo = 0.5 * synthdata._DEG_ERASE_MAX * level
            hi = synthdata._DEG_ERASE_MAX * level
        else:
            lo, hi = min(u, v), max(u, v)
        img = np.ones((side, side), dtype=np.float32)
        want_rng = rng_for(seed, 90)
        got, draws = decoded_erase(img, rng_for(seed, 90), lo, hi)
        want = erase_rect_numpy_scalars(img, want_rng, lo, hi)
        assert got.tobytes() == want.tobytes()
        # both streams stand at the same word, with the same half buffered
        assert draws.integers(7, ONE)[0] == want_rng.integers(0, 7)
        assert draws.random(ONE)[0] == want_rng.random()


def augment_draws_oracle(rng, side, p):
    """What augmentation draws from one stream, by numpy's own methods:
    the blur factor (1 without blur), the erase rectangle (None without
    erase) and the jitter gain and shift (None without jitter)."""
    factor = 1.0
    if rng.random() < p:
        factor = rng.uniform(synthdata.BLUR_FACTOR_LO, synthdata.BLUR_FACTOR_HI)
    rect = jitter = None
    if rng.random() < p:
        rect = oracles.erase_draw(side, rng, synthdata.ERASE_AREA_LO,
                                  synthdata.ERASE_AREA_HI)
    if rng.random() < p:
        jitter = (rng.uniform(synthdata.JITTER_GAIN_LO, synthdata.JITTER_GAIN_HI),
                  rng.uniform(-synthdata.JITTER_SHIFT, synthdata.JITTER_SHIFT))
    return factor, rect, jitter


def check_decoded_augment(decoded, k, want):
    factor, erase, rects, jitter, gain, shift = decoded
    want_factor, want_rect, want_jitter = want
    assert factor[k] == want_factor
    erase, jitter = erase.tolist(), jitter.tolist()
    assert (k in erase) == (want_rect is not None)
    if want_rect is not None:
        assert tuple(rects[:, erase.index(k)].tolist()) == want_rect
    assert (k in jitter) == (want_jitter is not None)
    if want_jitter is not None:
        j = jitter.index(k)
        assert (gain[j], shift[j]) == want_jitter


# PCG64's multiplier, and its inverse modulo 2**128
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
PCG_MULT_INV = pow(PCG_MULT, -1, 1 << 128)


def generator_with_word(word, at, high=0x9E3779B97F4A7C16,
                        inc=0xDA3E39CB94B95BDB):
    """A PCG64 Generator whose raw output number ``at`` (from 0) is
    ``word``.  XSL-RR outputs rotr64(hi ^ lo, hi >> 58) of the stepped
    state, so choosing its high half fixes the low; the LCG step is then
    undone, the multiplier being odd."""
    rot = high >> 58
    mixed = ((word << rot) | (word >> (64 - rot))) & (2 ** 64 - 1)
    state = (high << 64) | (mixed ^ high)
    for _ in range(at + 1):
        state = (state - inc) * PCG_MULT_INV % (1 << 128)
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


class TestDecodedDraws:
    @given(side=st.integers(4, 40),
           level=st.floats(0.0, 1.0, exclude_min=True),
           p=st.sampled_from([0.0, 0.3, 1.0]), n=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    # every erase range rounds below one pixel and draws nothing
    @example(side=4, level=0.1, p=1.0, n=3, seed=0)
    # stream 0 of seed 26 on side 4 erases a full-width row, so its left
    # offset is integers(0, 1), which takes no word
    @example(side=4, level=1.0, p=1.0, n=3, seed=26)
    @settings(max_examples=200, deadline=None)
    def test_same_draws_as_numpy_per_stream(self, side, level, p, n, seed):
        # augmentation, then degradation at levels in (0, level], then an
        # integer and a double to show where each stream stands
        idx = np.arange(n)
        draws = StreamDraws(functools.partial(stream_words, seed, T_AUG, 3,
                                              idx), 9)
        augmented = synthdata._augment_draws(draws, n, side, p)
        levels = level * (idx + 1) / n
        factor, rects, gain, shift = synthdata._degrade_draws(draws, idx,
                                                              levels, side)
        tail = draws.integers(7, idx), draws.random(idx)
        for k in range(n):
            rng = rng_for(seed, T_AUG, 3, k)
            check_decoded_augment(augmented, k,
                                  augment_draws_oracle(rng, side, p))
            lv = levels[k]
            assert factor[k] == 1.0 - synthdata._DEG_BLUR_MAX * lv
            assert gain[k] == 1.0 - synthdata._DEG_GAIN_MAX * lv
            assert tuple(rects[:, k].tolist()) == oracles.erase_draw(
                side, rng, 0.5 * synthdata._DEG_ERASE_MAX * lv,
                synthdata._DEG_ERASE_MAX * lv)
            assert shift[k] == rng.uniform(-synthdata.JITTER_SHIFT,
                                           synthdata.JITTER_SHIFT) * lv
            assert tail[0][k] == rng.integers(0, 7)
            assert tail[1][k] == rng.random()

    def test_rejected_integer_draw(self):
        # every coin passes at p = 1; raw word 5 holds both erase offsets,
        # and its low half of 0 scales to 0, which Lemire's method rejects
        # for a range that is not a power of two, taking the buffered high
        # half of all ones instead, which scales to range - 1
        side = 24
        word = 0xFFFFFFFF00000000
        want_rng = generator_with_word(word, 5)
        assert want_rng.bit_generator.random_raw(6)[5] == word
        rng = generator_with_word(word, 5)
        want = augment_draws_oracle(generator_with_word(word, 5), side, 1.0)
        top, _, h, _ = want[1]
        span = side - h + 1
        assert span & (span - 1) != 0
        assert top == span - 1
        draws = StreamDraws(oracles.generator_words(rng), 9)
        got = synthdata._augment_draws(draws, 1, side, 1.0)
        check_decoded_augment(got, 0, want)
        # the image too, with the next stream word at the jitter coin
        img = rng_for(3, 4).uniform(0.0, 1.0, (side, side))
        want_img = synthdata.rescale_blur(img, want[0])
        want_img[top:top + h, want[1][1]:want[1][1] + want[1][3]] = 0.0
        want_img = synthdata.jitter_affine(want_img, *want[2])
        assert oracles.augment(img, rng, 1.0).tobytes() == want_img.tobytes()


class TestColorJitter:
    def test_identity_params(self):
        img = rng_for(0, 7).uniform(0, 1, (16, 16))
        np.testing.assert_array_equal(synthdata.jitter_affine(img, 1.0, 0.0), img)

    def test_output_clamped(self):
        img = rng_for(0, 8).uniform(0, 1, (16, 16))
        for draw in range(200):
            rng = rng_for(2, 9, draw)
            out = synthdata.jitter_affine(
                img, rng.uniform(synthdata.JITTER_GAIN_LO,
                                 synthdata.JITTER_GAIN_HI),
                rng.uniform(-synthdata.JITTER_SHIFT, synthdata.JITTER_SHIFT))
            assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_same_bytes_as_the_expression(self, dtype, per_row):
        img = rng_for(0, 9).uniform(-0.2, 1.2, (6, 9, 9)).astype(dtype)
        rng = rng_for(1, 9)
        gain = rng.uniform(synthdata.JITTER_GAIN_LO, synthdata.JITTER_GAIN_HI,
                           6 if per_row else None)
        shift = rng.uniform(-synthdata.JITTER_SHIFT, synthdata.JITTER_SHIFT,
                            6 if per_row else None)
        if per_row:  # as _operate passes them
            gain, shift = (np.asarray(x, dtype=dtype)[:, None, None]
                           for x in (gain, shift))
        before = img.copy()
        want = np.clip(gain * (img - 0.5) + 0.5 + shift, 0.0, 1.0).astype(
            dtype, copy=False)
        got = synthdata.jitter_affine(img, gain, shift)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert img.tobytes() == before.tobytes()

    def test_hand_evaluated_affine(self):
        img = np.full((8, 8), 0.5)
        out = synthdata.jitter_affine(img, 1.4, 0.2)
        np.testing.assert_allclose(out, 0.7, atol=1e-12)


def forced_flip(img):
    return synthdata.hflip(img[None].copy(), np.ones(1, dtype=bool))[0]


class TestHflip:
    def test_forced_flip_involution(self):
        img = rng_for(0, 10).uniform(0, 1, (12, 12))
        assert np.array_equal(forced_flip(forced_flip(img)), img)

    def test_symmetric_image_unchanged(self):
        img = rng_for(0, 11).uniform(0, 1, (12, 12))
        sym = 0.5 * (img + img[:, ::-1])
        assert np.allclose(forced_flip(sym), sym)

    def test_single_pixel_index_map(self):
        side = 10
        img = np.zeros((side, side))
        img[3, 2] = 1.0
        out = forced_flip(img)
        assert out[3, side - 1 - 2] == 1.0
        assert out.sum() == 1.0

    def test_stack_mirrors_the_marked_images_in_place(self):
        imgs = rng_for(0, 12).uniform(0, 1, (2, 3, 5, 5))
        flips = np.array([[True, False, False], [False, True, True]])
        before = imgs.copy()
        out = synthdata.hflip(imgs, flips)
        assert out is imgs
        assert np.array_equal(imgs[flips], before[flips][..., ::-1])
        assert np.array_equal(imgs[~flips], before[~flips])

    def test_probability_half(self):
        img = np.zeros((4, 4)); img[0, 0] = 1.0
        flips = sum(oracles.hflip(img, rng_for(3, 12, d))[0, -1] == 1.0
                    for d in range(2000))
        assert 0.45 < flips / 2000 < 0.55


class TestAugment:
    def test_zero_probability_is_identity(self):
        img = rng_for(0, 13).uniform(0, 1, (24, 24))
        out = oracles.augment(img, rng_for(0, 14), p=0.0)
        assert np.array_equal(out, img)
        assert out is not img

    def test_certainty_applies_all_three(self):
        img = rng_for(0, 15).uniform(0.3, 0.9, (24, 24))
        out = oracles.augment(img, rng_for(0, 16), p=1.0)
        assert (out == 0.0).any()          # erase fired
        assert not np.array_equal(out, img)

    def test_no_augmentation_probability_matches_p_cubed(self):
        img = rng_for(0, 17).uniform(0.3, 0.9, (24, 24))
        unchanged = sum(
            np.array_equal(oracles.augment(img, rng_for(4, 18, d), p=0.3), img)
            for d in range(4000))
        rate = unchanged / 4000
        assert abs(rate - 0.343) < 0.025

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_output_always_valid_image(self, draw, p):
        img = rng_for(5, 19).uniform(0, 1, (16, 16))
        out = oracles.augment(img, rng_for(5, 20, draw), p=p)
        assert out.shape == img.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestContainer:
    def test_round_trip(self, tmp_path):
        ds = synthdata.gen_dataset(small_cfg(degrade_fraction=0.4))
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        back = synthdata.load_dataset(path)
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.degradation_level, ds.degradation_level)
        assert np.array_equal(back.class_flags, ds.class_flags)

    def test_save_twice_identical_bytes(self, tmp_path):
        ds = synthdata.gen_dataset(small_cfg())
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        synthdata.save_dataset(ds, p1)
        synthdata.save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_present(self, tmp_path):
        ds = synthdata.gen_dataset(small_cfg())
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        assert path.read_bytes()[:7] == b"IGFQDS1"

    def test_truncated_file_raises_format_error(self, tmp_path):
        ds = synthdata.gen_dataset(small_cfg())
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        raw = path.read_bytes()
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(FormatError):
            synthdata.load_dataset(clipped)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError):
            synthdata.load_dataset(path)

    def test_bytes_match_per_row_layout(self, tmp_path, monkeypatch):
        # three records a block: several full blocks and a partial one
        monkeypatch.setattr(synthdata, "BLOCK_ROWS", 3)
        ds = synthdata.gen_dataset(small_cfg(degrade_fraction=0.4))
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        expected = synthdata.MAGIC + struct.pack("<III", 6, 4, 16)
        for row in range(ds.num_samples):
            expected += struct.pack("<If", int(ds.labels[row]),
                                    float(ds.degradation_level[row]))
            expected += ds.images[row].astype("<f4").tobytes()
        expected += ds.class_flags.astype(np.uint8).tobytes()
        assert path.read_bytes() == expected
        back = synthdata.load_dataset(path)
        assert back.images.tobytes() == ds.images.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert (back.degradation_level.tobytes()
                == ds.degradation_level.tobytes())

    def test_classes_of_unequal_size_refused_before_writing(self, tmp_path):
        # 7 samples over 3 classes (2, 2, 3): the header's classes x
        # samples cannot describe them
        ds = synthdata.IdentityDataset(
            images=np.full((7, 4, 4), 0.5, dtype=np.float32),
            labels=np.array([0, 0, 1, 1, 2, 2, 2], dtype=np.uint32),
            degradation_level=np.zeros(7, dtype=np.float32),
            class_flags=np.zeros(3, dtype=np.uint8))
        path = tmp_path / "ds.bin"
        with pytest.raises(FormatError, match="not 3 classes of one size"):
            synthdata.save_dataset(ds, path)
        assert not path.exists()

    def test_header_declaring_more_than_the_file_rejected(self, tmp_path):
        # 2**20 classes x 2**10 samples of side 2**10: about 4 PiB declared
        path = tmp_path / "huge.bin"
        path.write_bytes(synthdata.MAGIC + struct.pack("<III", 2 ** 20,
                                                      2 ** 10, 2 ** 10)
                         + b"\x00" * 64)
        with pytest.raises(FormatError, match="declares"):
            synthdata.load_dataset(path)

    @pytest.mark.parametrize("case, message", [
        ("nan pixel", "pixel values outside"),
        ("nan level", "degradation level values outside"),
        ("flag 7", "class flags must be 0"),
    ])
    def test_nan_and_unknown_flags_rejected(self, tmp_path, case, message):
        # sample 1's record starts after the 19-byte header and sample 0's
        # record: a u32 label, the f32 level, then the pixels
        ds = synthdata.gen_dataset(small_cfg())
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        record = 19 + (8 + 4 * 16 * 16)
        if case == "nan pixel":
            ds.images[1, 0, 5] = np.nan
            raw[record + 8 + 20:record + 8 + 24] = struct.pack("<f", np.nan)
        elif case == "nan level":
            ds.degradation_level[1] = np.nan
            raw[record + 4:record + 8] = struct.pack("<f", np.nan)
        else:
            ds.class_flags[2] = 7
            raw[-6 + 2] = 7
        with pytest.raises(FormatError, match=message):
            synthdata.save_dataset(ds, tmp_path / "out.bin")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=message):
            synthdata.load_dataset(path)

    def test_header_of_no_classes_rejected(self, tmp_path):
        # 0 classes of 5 samples: a header alone is the whole declared file
        path = tmp_path / "empty.bin"
        path.write_bytes(synthdata.MAGIC + struct.pack("<III", 0, 5, 4))
        with pytest.raises(FormatError, match="no pixels"):
            synthdata.load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = synthdata.gen_dataset(small_cfg())
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            synthdata.load_dataset(path)


class TestDatasetStream:
    def saved(self, tmp_path):
        ds = synthdata.gen_dataset(small_cfg(degrade_fraction=0.4))
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        return ds, path

    @pytest.mark.parametrize("rows", [1, 5, 24, 100])
    def test_blocks_are_the_records_in_order(self, tmp_path, monkeypatch,
                                             rows):
        ds, path = self.saved(tmp_path)
        monkeypatch.setattr(synthdata, "BLOCK_ROWS", rows)
        with synthdata.DatasetStream(path) as stream:
            assert (stream.num_samples, stream.num_classes, stream.side) == (
                24, 6, 16)
            starts, blocks = zip(*[(start, block.copy())
                                   for start, block in stream.blocks()])
        assert starts == tuple(range(0, 24, rows))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == ds.images.tobytes()
        assert stream.labels.tobytes() == ds.labels.tobytes()
        assert (stream.degradation_level.tobytes()
                == ds.degradation_level.tobytes())
        assert stream.class_flags.tobytes() == ds.class_flags.tobytes()

    def test_tail_flags_refused_when_opened(self, tmp_path):
        _, path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="class flags must be 0"):
            synthdata.DatasetStream(path)

    def test_class_count_checked_after_the_last_block(self, tmp_path,
                                                       monkeypatch):
        # samples 20..22 relabelled from class 5 to class 4: class 5 then
        # appears once, in the last block, which passes its own checks
        _, path = self.saved(tmp_path)
        monkeypatch.setattr(synthdata, "BLOCK_ROWS", 8)
        raw = bytearray(path.read_bytes())
        for i in (20, 21, 22):
            at = 19 + i * (8 + 4 * 16 * 16)
            raw[at:at + 4] = struct.pack("<I", 4)
        path.write_bytes(bytes(raw))
        with synthdata.DatasetStream(path) as stream:
            blocks = stream.blocks()
            for _ in range(3):
                next(blocks)
            with pytest.raises(FormatError, match="at least twice"):
                next(blocks)

    def test_load_checks_one_block_at_a_time(self, tmp_path, monkeypatch):
        # 600 records of side 4, 72 bytes each (43 KB in all): blocks
        # counted in records, not bytes, check them three times
        ds = synthdata.IdentityDataset(
            images=np.full((600, 4, 4), 0.5, dtype=np.float32),
            labels=np.repeat(np.arange(6, dtype=np.uint32), 100),
            degradation_level=np.zeros(600, dtype=np.float32),
            class_flags=np.zeros(6, dtype=np.uint8))
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        checked = []
        real = synthdata._check_records

        def counted(labels, *args):
            checked.append(len(labels))
            return real(labels, *args)

        monkeypatch.setattr(synthdata, "_check_records", counted)
        back = synthdata.load_dataset(path)
        assert len(checked) == -(-600 // synthdata.BLOCK_ROWS)
        assert sum(checked) == 600
        assert back.images.tobytes() == ds.images.tobytes()
