import dataclasses
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiqlab import backbone as bb
from fiqlab import margin, quality, synthdata, trainer, variance
from fiqlab.configio import build_config
from fiqlab.errors import ConfigError, FormatError, NumericError
from fiqlab.rngstreams import T_AUG, T_FLIP, T_PERM, rng_for, rngs_for


@pytest.fixture(scope="module")
def dataset():
    cfg = synthdata.SynthConfig(num_classes=8, samples_per_class=6, side=12,
                                duplicate_class_fraction=0.25, pose_spread=0.6,
                                degrade_fraction=0.3, seed=21)
    return synthdata.gen_dataset(cfg)


def tiny_config(**kw):
    base = dict(batch_size=8, epochs=2, seed=5, lr=0.05, embed_dim=16,
                hidden_dim=24, scale=8.0, margin=0.3, lig_reduction="mean")
    base.update(kw)
    return trainer.TrainConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"batch_size": 7},
        {"batch_size": 0},
        {"lam": -1.0},
        {"epochs": -2},
        {"augment_p": 1.5},
        {"lig_reduction": "median"},
        {"lr_milestones": (3, 2)},
        {"lr_milestones": (0, 1)},
        {"lr_milestones": (1, 99)},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            tiny_config(**kw)

    def test_auto_milestones_at_60_and_80_percent(self):
        cfg = tiny_config(epochs=30)
        assert cfg.milestones() == (18, 24)

    def test_lr_divided_by_ten_at_milestones(self):
        cfg = tiny_config(epochs=30, lr=0.1)
        assert cfg.lr_at(0) == pytest.approx(0.1)
        assert cfg.lr_at(18) == pytest.approx(0.01)
        assert cfg.lr_at(24) == pytest.approx(0.001)

    def test_parse_file_with_overrides(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("batch_size=16\nlam=2.5\nlr_milestones=3,4\n"
                        "lig_reduction=mean\nepochs=6\n# comment\n\n")
        cfg = build_config(trainer.TrainConfig, path, overrides={"seed": 42})
        assert cfg.batch_size == 16
        assert cfg.lam == 2.5
        assert cfg.lr_milestones == (3, 4)
        assert cfg.lig_reduction == "mean"
        assert cfg.seed == 42

    def test_parse_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("batch_size=16\nbogus_key=3\n")
        with pytest.raises(ConfigError, match="2"):
            build_config(trainer.TrainConfig, path)

    def test_variant_mapping(self):
        cfg = tiny_config(augment_p=0.3)
        ig = trainer.apply_variant(cfg, "ig")
        assert ig.split_batch and ig.use_ig_weights and ig.augment_p == 0.3
        cr = trainer.apply_variant(cfg, "cr")
        assert not cr.split_batch and not cr.use_ig_weights and cr.augment_p == 0.0
        noaug = trainer.apply_variant(cfg, "ig-noaug")
        assert noaug.split_batch and noaug.use_ig_weights and noaug.augment_p == 0.0
        craug = trainer.apply_variant(cfg, "cr-aug")
        assert not craug.split_batch and craug.augment_p == 0.3
        with pytest.raises(ConfigError):
            trainer.apply_variant(cfg, "bogus")


class TestSgdUpdate:
    def test_fixed_point(self):
        p = np.array([1.0, -2.0])
        b = np.zeros(2)
        trainer.sgd_update(p, np.zeros(2), b, lr=0.1, momentum=0.9,
                           weight_decay=0.0)
        assert np.array_equal(p, [1.0, -2.0])

    def test_plain_gradient_descent_reduction(self):
        p = np.array([1.0])
        b = np.zeros(1)
        trainer.sgd_update(p, np.array([0.5]), b, lr=0.1, momentum=0.0,
                           weight_decay=0.0)
        assert p[0] == pytest.approx(0.95, abs=1e-12)

    def test_hand_evaluated_momentum_step(self):
        p = np.array([1.0])
        b = np.zeros(1)
        trainer.sgd_update(p, np.array([0.5]), b, lr=0.1, momentum=0.9,
                           weight_decay=0.0)
        assert p[0] == pytest.approx(0.95, abs=1e-12)
        assert b[0] == pytest.approx(0.5, abs=1e-12)
        trainer.sgd_update(p, np.array([0.5]), b, lr=0.1, momentum=0.9,
                           weight_decay=0.0)
        # buffer = 0.9*0.5 + 0.5 = 0.95; param = 0.95 - 0.095
        assert b[0] == pytest.approx(0.95, abs=1e-12)
        assert p[0] == pytest.approx(0.855, abs=1e-12)

    def test_weight_decay_folded_into_gradient(self):
        p = np.array([2.0])
        b = np.zeros(1)
        trainer.sgd_update(p, np.zeros(1), b, lr=0.1, momentum=0.0,
                           weight_decay=0.5)
        assert p[0] == pytest.approx(2.0 - 0.1 * 1.0, abs=1e-12)


def flips(config, epoch, dataset):
    """The epoch flip mask run_training hands to _build_half."""
    return trainer.epoch_flips(config.seed, epoch, dataset.num_samples)


def run_steps(config, dataset, n_steps, state=None, aug_override=None):
    """Drive train_step directly with the trainer's own batch builder."""
    if state is None:
        state = trainer.init_train_state(config, dataset)
    b = config.batch_size
    perm = rng_for(config.seed, T_PERM, 0).permutation(dataset.num_samples)
    mask = flips(config, 0, dataset)
    for t in range(n_steps):
        idx = perm[t * b:(t + 1) * b]
        clean = trainer._build_half(dataset, idx[:b // 2], config, 0, False,
                                    mask)
        if aug_override is not None:
            aug = aug_override
        else:
            aug = trainer._build_half(dataset, idx[b // 2:], config, 0, True,
                                      mask)
        trainer.train_step(state, config, clean, aug, config.lr)
    return state


class TestTrainStep:
    def test_lambda_zero_matches_pure_margin_trajectory(self, dataset):
        cfg = tiny_config(lam=0.0)
        state = run_steps(cfg, dataset, 4)

        # independent margin-only loop over the same batch stream
        ref = trainer.init_train_state(cfg, dataset)
        perm = rng_for(cfg.seed, T_PERM, 0).permutation(dataset.num_samples)
        for t in range(4):
            idx = perm[t * 8:(t + 1) * 8]
            imgs, labels = trainer._build_half(dataset, idx[:4], cfg, 0, False,
                                               flips(cfg, 0, dataset))
            emb, cache = bb.forward(ref.model, imgs)
            arc = margin.arcface_loss(ref.bank, emb, labels)
            grads = bb.backward(ref.model, cache, arc.grad_emb)
            grads["bank_w"] = arc.grad_bank
            params = ref.params()
            for name in ("w1", "b1", "w2", "b2", "bank_w"):
                trainer.sgd_update(params[name],
                                   grads[name].astype(np.float32),
                                   ref.momentum[name], cfg.lr, cfg.momentum,
                                   cfg.weight_decay)
        for name in ("w1", "b1", "w2", "b2", "bank_w"):
            assert np.array_equal(state.params()[name],
                                  ref.params()[name]), name

    def test_zero_weights_leave_head_unchanged(self, dataset):
        cfg = tiny_config()
        state = trainer.init_train_state(cfg, dataset)
        state.tracker.v[:] = np.linspace(0.0, 1.0, 8)
        state.tracker.v[0] = -100.0  # class 0 far below the z floor
        head_before = state.head.weight.copy()
        b = cfg.batch_size
        idx = np.flatnonzero(dataset.labels.astype(int) == 0)[:b // 2]
        clean = trainer._build_half(dataset, idx, cfg, 0, False,
                                    flips(cfg, 0, dataset))
        aug = trainer._build_half(dataset, idx, cfg, 0, True,
                                  flips(cfg, 0, dataset))
        # freeze the tracker so weights stay zero for class 0
        state.tracker.alpha_start = state.tracker.alpha_end = 1.0
        trainer.train_step(state, cfg, clean, aug, cfg.lr)
        assert np.all(state.last_step.sample_weights == 0.0)
        assert np.array_equal(state.head.weight, head_before)

    def test_deterministic_repeat(self, dataset):
        cfg = tiny_config()
        a = run_steps(cfg, dataset, 3)
        b = run_steps(cfg, dataset, 3)
        for name, arr in a.params().items():
            assert np.array_equal(arr, b.params()[name]), name
        assert np.array_equal(a.tracker.v, b.tracker.v)

    def test_backbone_depends_only_on_clean_half(self, dataset):
        cfg = tiny_config(propagate_lig_to_backbone=False)
        state_a = run_steps(cfg, dataset, 2)
        other_cfg = dataclasses.replace(cfg, seed=99)
        other = trainer._build_half(
            dataset, np.arange(4), other_cfg, 1, True,
            flips(other_cfg, 1, dataset))
        state_b = run_steps(cfg, dataset, 2, aug_override=other)
        for name in ("w1", "b1", "w2", "b2", "bank_w"):
            assert np.array_equal(state_a.params()[name],
                                  state_b.params()[name]), name
        # the head does see the augmented half
        assert not np.array_equal(state_a.head.weight, state_b.head.weight)

    def test_propagation_flag_changes_backbone(self, dataset):
        base = run_steps(tiny_config(), dataset, 2)
        prop = run_steps(tiny_config(propagate_lig_to_backbone=True),
                         dataset, 2)
        assert not np.array_equal(base.model.w1, prop.model.w1)

    def test_pseudo_labels_ignore_head_parameters(self, dataset):
        cfg = tiny_config()
        s1 = trainer.init_train_state(cfg, dataset)
        s2 = trainer.init_train_state(cfg, dataset)
        s2.head.weight[:] = rng_for(0, 90).standard_normal(16).astype(np.float32)
        clean = trainer._build_half(dataset, np.arange(4), cfg, 0, False,
                                    flips(cfg, 0, dataset))
        aug = trainer._build_half(dataset, np.arange(4, 8), cfg, 0, True,
                                  flips(cfg, 0, dataset))
        trainer.train_step(s1, cfg, clean, aug, cfg.lr)
        trainer.train_step(s2, cfg, clean, aug, cfg.lr)
        assert np.array_equal(s1.last_step.cr_targets, s2.last_step.cr_targets)
        assert s1.last_step.l_ig != s2.last_step.l_ig

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_aborts_with_diagnostics(self, dataset):
        cfg = tiny_config()
        state = trainer.init_train_state(cfg, dataset)
        state.model.w1[:] = np.inf
        clean = trainer._build_half(dataset, np.arange(4), cfg, 0, False,
                                    flips(cfg, 0, dataset))
        with pytest.raises(NumericError):
            trainer.train_step(state, cfg, clean, clean, cfg.lr)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_abort_report_names_head_bias(self, dataset):
        cfg = tiny_config(head_bias=True)
        state = trainer.init_train_state(cfg, dataset)
        state.model.w2[:] = np.inf
        clean = trainer._build_half(dataset, np.arange(4), cfg, 0, False,
                                    flips(cfg, 0, dataset))
        with pytest.raises(NumericError, match="'head_b': 0.0"):
            trainer.train_step(state, cfg, clean, clean, cfg.lr)


def scalar_bias_train_step(state, config, clean_batch, aug_batch, lr):
    """The train step with a scalar head bias, as it was before the
    parameter table: the bias gradient is
    ``lam * grad_bias`` in float64 rounded once to float32, and the bias
    goes through a one-element array and back to a float32 scalar."""
    (clean_imgs, clean_labels), (aug_imgs, aug_labels) = clean_batch, aug_batch
    emb_clean, cache_clean = bb.forward(state.model, clean_imgs)
    arc = margin.arcface_loss(state.bank, emb_clean, clean_labels)
    if config.split_batch:
        emb_aug, cache_aug = bb.forward(state.model, aug_imgs)
        cr_aug = margin.cr_batch(margin.cosines(state.bank, emb_aug),
                                 aug_labels)
    else:
        emb_aug, cache_aug, cr_aug = emb_clean, cache_clean, arc.cr
    variance.update(state.tracker,
                    variance.group_ccs_by_class(clean_labels, arc.cr.ccs))
    if config.use_ig_weights:
        sample_w = variance.weights(state.tracker).w[aug_labels]
    else:
        sample_w = np.ones(len(aug_labels), dtype=np.float32)
    reg = quality.weighted_regression_loss(state.head, emb_aug, cr_aug.cr,
                                           sample_w,
                                           reduction=config.lig_reduction)
    grads = bb.backward(state.model, cache_clean, arc.grad_emb)
    if config.propagate_lig_to_backbone:
        extra = bb.backward(state.model, cache_aug, config.lam * reg.grad_emb)
        for name in grads:
            grads[name] += extra[name]
    grads["bank_w"] = arc.grad_bank
    grads["head_w"] = config.lam * reg.grad_weight
    params = dict(state.model.params(), bank_w=state.bank.weights,
                  head_w=state.head.weight)
    for name, param in params.items():
        wd = (config.head_weight_decay if name == "head_w"
              else config.weight_decay)
        trainer.sgd_update(param, grads[name].astype(np.float32),
                           state.momentum[name], lr, config.momentum, wd)
    gb = np.array([config.lam * reg.grad_bias], dtype=np.float32)
    bias = np.array([np.float32(state.head.bias[0])], dtype=np.float32)
    trainer.sgd_update(bias, gb, state.momentum["head_b"], lr,
                       config.momentum, config.head_weight_decay)
    state.head.bias[0] = np.float32(bias[0])
    state.global_step += 1
    state.last_step = trainer.StepInfo(
        l_arc=arc.loss, l_ig=reg.loss, cr_targets=cr_aug.cr,
        sample_weights=sample_w, ccs_clean=arc.cr.ccs)


class TestHeadBias:
    @pytest.mark.parametrize("variant", ["ig", "cr-aug"])
    @pytest.mark.parametrize("propagate", [False, True])
    def test_same_bytes_as_scalar_bias_step(self, dataset, tmp_path,
                                            monkeypatch, variant, propagate):
        cfg = trainer.apply_variant(
            tiny_config(epochs=3, head_bias=True, lam=0.3,
                        head_weight_decay=1e-3,
                        propagate_lig_to_backbone=propagate), variant)
        outputs = {}
        for step in ("table", "scalar"):
            if step == "scalar":
                monkeypatch.setattr(trainer, "train_step",
                                    scalar_bias_train_step)
            out = tmp_path / step
            out.mkdir()
            state, _ = trainer.run_training(cfg, dataset, checkpoint_dir=out)
            assert state.head.bias[0] != 0.0
            outputs[step] = {p.name: p.read_bytes()
                             for p in sorted(out.iterdir())}
        assert len(outputs["table"]) == 2
        assert outputs["table"] == outputs["scalar"]


def two_forward_train_step(state, config, clean_batch, aug_batch, lr):
    """The train step as it was before the parameter arena: a split step
    embeds each half in a forward pass of its own and normalizes the
    prototypes once for the margin loss and once for the augmented
    cosines; gradients are fresh arrays, and sgd_update runs once per
    parameter array."""
    clean_imgs, clean_labels = clean_batch
    aug_imgs, aug_labels = aug_batch

    emb_clean, cache_clean = bb.forward(state.model, clean_imgs)
    arc = margin.arcface_loss(state.bank, emb_clean, clean_labels)

    if config.split_batch:
        emb_aug, cache_aug = bb.forward(state.model, aug_imgs)
        cos_aug = margin.cosines(state.bank, emb_aug)
        cr_aug = margin.cr_batch(cos_aug, aug_labels)
    else:
        emb_aug, cache_aug, cr_aug = emb_clean, cache_clean, arc.cr

    variance.update(state.tracker,
                    variance.group_ccs_by_class(clean_labels, arc.cr.ccs))

    sample_w = trainer.effective_weights(state, config)[aug_labels]
    reg = quality.weighted_regression_loss(state.head, emb_aug, cr_aug.cr,
                                           sample_w,
                                           reduction=config.lig_reduction)

    grads = bb.backward(state.model, cache_clean, arc.grad_emb)
    if config.propagate_lig_to_backbone and config.lam > 0.0:
        extra = bb.backward(state.model, cache_aug,
                            config.lam * reg.grad_emb)
        for name, arr in extra.items():
            grads[name] += arr
    grads["bank_w"] = arc.grad_bank
    grads["head_w"] = config.lam * reg.grad_weight
    if reg.grad_bias is not None:
        grads["head_b"] = np.array([config.lam * reg.grad_bias])

    for name, param in state.params().items():
        wd = (config.head_weight_decay if name.startswith("head_")
              else config.weight_decay)
        trainer.sgd_update(param, grads[name].astype(param.dtype, copy=False),
                           state.momentum[name], lr, config.momentum, wd)

    state.global_step += 1
    state.last_step = trainer.StepInfo(
        l_arc=arc.loss, l_ig=reg.loss, cr_targets=cr_aug.cr,
        sample_weights=sample_w, ccs_clean=arc.cr.ccs)
    return state


class TestSplitStep:
    @pytest.mark.parametrize("variant", ["ig", "ig-noaug"])
    @pytest.mark.parametrize("propagate", [False, True])
    def test_same_bytes_as_two_forward_step(self, dataset, tmp_path,
                                            monkeypatch, variant, propagate):
        cfg = trainer.apply_variant(
            tiny_config(epochs=3, lam=0.3, head_weight_decay=1e-3,
                        propagate_lig_to_backbone=propagate), variant)
        calls = []
        forward = bb.forward

        def counting_forward(model, batch):
            calls.append(len(batch))
            return forward(model, batch)

        monkeypatch.setattr(bb, "forward", counting_forward)
        # 6 steps an epoch; the tracked set and the oracle embed all 48
        # samples in one call each, outside the step
        outputs = {}
        for step in ("arena", "two_forward"):
            if step == "two_forward":
                monkeypatch.setattr(trainer, "train_step",
                                    two_forward_train_step)
            calls.clear()
            out = tmp_path / step
            out.mkdir()
            _, logs = trainer.run_training(cfg, dataset, checkpoint_dir=out)
            trainer.write_report_csv(logs, out / "report.csv")
            outputs[step] = {p.name: p.read_bytes()
                             for p in sorted(out.iterdir())}
            steps = [n for n in calls if n < 48]
            assert steps == ([8] * 18 if step == "arena" else [4] * 36)
        assert sorted(outputs["arena"]) == ["ckpt_epoch0001.bin",
                                            "ckpt_epoch0002.bin", "report.csv"]
        assert outputs["arena"] == outputs["two_forward"]


class TestArena:
    @pytest.mark.parametrize("head_bias", [False, True])
    @pytest.mark.parametrize("source", ["init", "load"])
    def test_arrays_are_views_of_one_flat_array(self, dataset, tmp_path,
                                                head_bias, source):
        state = trainer.init_train_state(tiny_config(head_bias=head_bias),
                                         dataset)
        if source == "load":
            trainer.checkpoint_save(state, tmp_path / "c.bin")
            state = trainer.checkpoint_load(tmp_path / "c.bin")
        names = list(state.params())
        assert names == ["w1", "b1", "w2", "b2", "bank_w", "head_w"] + (
            ["head_b"] if head_bias else [])
        for flat, table in zip(state.arena, (state.params(), state.momentum,
                                             state.grads)):
            assert flat.dtype == np.float32 and flat.ndim == 1
            assert flat.flags.c_contiguous and flat.flags.owndata
            assert list(table) == names
            start = flat.__array_interface__["data"][0]
            offset = 0
            for name, arr in table.items():
                assert arr.base is flat, name
                assert arr.flags.c_contiguous, name
                assert arr.__array_interface__["data"][0] == start + 4 * offset
                if name == "head_w":
                    assert offset == state.head_start
                offset += arr.size
            assert offset == flat.size
        assert all(name.startswith("head_") == (i >= names.index("head_w"))
                   for i, name in enumerate(names))
        # writing through a view is seen in the flat array and back
        state.model.b1[0] = 3.5
        assert state.arena[0][state.model.w1.size] == 3.5

    def test_train_step_updates_through_the_views(self, dataset):
        cfg = tiny_config(head_bias=True, lam=0.3)
        state = run_steps(cfg, dataset, 2)
        assert state.head.bias[0] != 0.0
        for flat, table in zip(state.arena, (state.params(), state.momentum,
                                             state.grads)):
            assert np.array_equal(
                np.concatenate([a.reshape(-1) for a in table.values()]), flat)

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=6),
           st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 1.0), st.floats(0.0, 0.99),
           st.sampled_from([0.0, 5e-4, 1e-3]),
           st.sampled_from([0.0, 1e-3]))
    @settings(max_examples=60, deadline=None)
    def test_sgd_on_two_slices_equals_per_array_calls(self, sizes, seed, lr,
                                                      momentum, wd, head_wd):
        rng = rng_for(seed, 93)
        total = sum(sizes)
        param, grad, buf = (rng.standard_normal(total).astype(np.float32)
                            for _ in range(3))
        head = total - sizes[-1]
        flat = [param.copy(), grad.copy(), buf.copy()]
        for part, decay in ((slice(0, head), wd), (slice(head, None), head_wd)):
            trainer.sgd_update(flat[0][part], flat[1][part], flat[2][part],
                               lr, momentum, decay)
        offsets = np.cumsum([0] + sizes)
        for k, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            p, g, b = param[lo:hi].copy(), grad[lo:hi].copy(), buf[lo:hi].copy()
            trainer.sgd_update(p, g, b, lr, momentum,
                               head_wd if k == len(sizes) - 1 else wd)
            assert p.dtype == b.dtype == np.float32
            assert p.tobytes() == flat[0][lo:hi].tobytes()
            assert b.tobytes() == flat[2][lo:hi].tobytes()


class TestPinnedBytes:
    """Checkpoint and report digests of small runs, computed before the
    parameter arena and the one-forward split step: a speed-up that
    moves one bit fails here.  They hold for numpy's OpenBLAS at any
    thread count, since these matmuls are too small to be split."""

    @pytest.mark.parametrize("variant,extra,ckpt,report", [
        ("ig", {},
         "eca596e2a212ee47c8d2c71c9f74be3a13a9cc1b56220dd020ae8e182bb2654d",
         "2c3b6a752bf23eb8148629ab0f01d7154e8fe965c96e08b73ae6b42d2106d72f"),
        ("ig", {"head_bias": True, "propagate_lig_to_backbone": True},
         "91cd2ca79cfc75da6956c8f3418e6fbd57fdf684f53ae1a51c6e6fb85090eefa",
         "4a9033561a93330837eb127fbe081fd35ab32d23721179bd12ce053ffccb620f"),
        ("cr-aug", {"head_bias": True, "propagate_lig_to_backbone": True},
         "e70ca2d3db906d713ce9ca75bbc02289f0282ce6e1f363e20f43e29513bb1390",
         "961edf86d3732176c23cb3d85499c2b2a8cd18c24b3554332bfe299feb4d4365"),
    ])
    def test_two_epoch_digests(self, dataset, tmp_path, variant, extra, ckpt,
                               report):
        cfg = trainer.apply_variant(tiny_config(epochs=2, **extra), variant)
        state, logs = trainer.run_training(cfg, dataset)
        trainer.checkpoint_save(state, tmp_path / "c.bin")
        trainer.write_report_csv(logs, tmp_path / "report.csv")
        assert sha256((tmp_path / "c.bin").read_bytes()).hexdigest() == ckpt
        assert sha256((tmp_path / "report.csv").read_bytes()
                      ).hexdigest() == report


class TestUnsplitStep:
    @pytest.mark.parametrize("variant", ["cr", "cr-aug"])
    @pytest.mark.parametrize("extra", [
        {}, {"propagate_lig_to_backbone": True}])
    def test_one_forward_and_same_bytes_as_two(self, dataset, tmp_path,
                                               monkeypatch, variant, extra):
        cfg = trainer.apply_variant(tiny_config(**extra), variant)
        # Two-forward oracle: the old split step given the full batch as
        # both halves embeds it twice and recomputes the certainty ratios.
        oracle_cfg = dataclasses.replace(cfg, split_batch=True)
        fast = trainer.init_train_state(cfg, dataset)
        oracle = trainer.init_train_state(cfg, dataset)
        calls = []
        forward = bb.forward

        def counting_forward(model, batch):
            calls.append(len(batch))
            return forward(model, batch)

        monkeypatch.setattr(bb, "forward", counting_forward)
        perm = rng_for(cfg.seed, T_PERM, 0).permutation(dataset.num_samples)
        for t in range(3):
            idx = perm[t * 8:(t + 1) * 8]
            full = trainer._build_half(dataset, idx, cfg, 0, True,
                                       flips(cfg, 0, dataset))
            calls.clear()
            trainer.train_step(fast, cfg, full, full, cfg.lr)
            assert calls == [8]
            two_forward_train_step(oracle, oracle_cfg, full, full, cfg.lr)
            assert calls == [8, 8, 8]
            assert np.array_equal(fast.last_step.cr_targets,
                                  oracle.last_step.cr_targets)
        trainer.checkpoint_save(fast, tmp_path / "fast.bin")
        trainer.checkpoint_save(oracle, tmp_path / "oracle.bin")
        assert ((tmp_path / "fast.bin").read_bytes()
                == (tmp_path / "oracle.bin").read_bytes())


def augment_loop(img, rng, p):
    """The per-image augmentation: each operator applied to one image as
    soon as its parameters are drawn."""
    out = img
    if rng.random() < p:
        out = synthdata.rescale_blur(out, rng.uniform(
            synthdata.BLUR_FACTOR_LO, synthdata.BLUR_FACTOR_HI))
    if rng.random() < p:
        out = synthdata.random_erase(out, rng)
    if rng.random() < p:
        out = synthdata.color_jitter(out, rng)
    if out is img:
        out = img.copy()
    return out


def build_half_loop(dataset, indices, config, epoch, degraded, flips=None):
    """The per-image batch build: each sample draws its flip from its own
    T_FLIP stream through hflip, then its augmentation from its own T_AUG
    stream through augment_loop.  ``flips`` is ignored."""
    imgs = np.empty((len(indices), dataset.side, dataset.side),
                    dtype=dataset.images.dtype)
    for row, i in enumerate(indices):
        i = int(i)
        img = synthdata.hflip(dataset.images[i],
                              rng_for(config.seed, T_FLIP, epoch, i))
        if degraded and config.augment_p > 0.0:
            img = augment_loop(img, rng_for(config.seed, T_AUG, epoch, i),
                               config.augment_p)
        imgs[row] = img
    return imgs, np.asarray(dataset.labels, dtype=np.int64)[indices]


class TestBuildHalf:
    @pytest.mark.parametrize("split", [True, False])
    @pytest.mark.parametrize("augment_p", [0.0, 0.3])
    def test_equals_per_image_loop(self, dataset, split, augment_p):
        cfg = tiny_config(augment_p=augment_p, split_batch=split)
        before = dataset.images.copy()
        b = cfg.batch_size
        for epoch in range(2):
            mask = flips(cfg, epoch, dataset)
            perm = rng_for(cfg.seed, T_PERM, epoch).permutation(
                dataset.num_samples)
            for t in range(dataset.num_samples // b):
                idx = perm[t * b:(t + 1) * b]
                halves = ([(idx[:b // 2], False), (idx[b // 2:], True)]
                          if split else [(idx, True)])
                for part, degraded in halves:
                    imgs, labels = trainer._build_half(
                        dataset, part, cfg, epoch, degraded, mask)
                    want_imgs, want_labels = build_half_loop(
                        dataset, part, cfg, epoch, degraded)
                    assert imgs.dtype == want_imgs.dtype
                    assert np.array_equal(imgs, want_imgs)
                    assert np.array_equal(labels, want_labels)
        assert np.array_equal(dataset.images, before)

    def test_epoch_flips_mirror_about_half(self, dataset):
        mask = flips(tiny_config(), 0, dataset)
        assert mask.shape == (dataset.num_samples,)
        assert 0 < mask.sum() < dataset.num_samples


class TestAugmentStack:
    @given(st.integers(4, 40), st.sampled_from([0.0, 0.3, 1.0]),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
           st.sampled_from([np.float32, np.float64]))
    # image 0 of seed 26 on side 4 erases a full-width row, so its left
    # offset is integers(0, 1), which draws nothing
    @example(side=4, p=1.0, seed=26, n=3, dtype=np.float32)
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_augment_loop(self, side, p, seed, n, dtype):
        imgs = rng_for(seed, 91).uniform(0.0, 1.0, (n, side, side))
        imgs = imgs.astype(dtype)
        want = np.stack([augment_loop(imgs[k], rng_for(seed, T_AUG, 3, k), p)
                         for k in range(n)])
        got = synthdata.augment_stack(
            imgs.copy(), [rng_for(seed, T_AUG, 3, k) for k in range(n)], p)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        one = synthdata.augment(imgs[0], rng_for(seed, T_AUG, 3, 0), p)
        assert one.tobytes() == want[0].tobytes()

    def test_pinned_example_erases_full_width(self):
        rng = rng_for(26, T_AUG, 3, 0)
        rng.random(), rng.random(), rng.random()  # blur coin, factor, erase coin
        top, left, h, w = synthdata._erase_draw(
            4, rng, synthdata.ERASE_AREA_LO, synthdata.ERASE_AREA_HI)
        assert (left, w) == (0, 4)


class TestRunTraining:
    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_same_bytes_as_per_image_batch_build(self, dataset, tmp_path,
                                                 monkeypatch, variant):
        cfg = trainer.apply_variant(tiny_config(epochs=3), variant)
        outputs = {}
        for build in ("mask", "loop"):
            if build == "loop":
                monkeypatch.setattr(trainer, "_build_half", build_half_loop)
            out = tmp_path / build
            out.mkdir()
            _, logs = trainer.run_training(cfg, dataset, checkpoint_dir=out)
            trainer.write_report_csv(logs, out / "report.csv")
            outputs[build] = {p.name: p.read_bytes()
                              for p in sorted(out.iterdir())}
        assert sorted(outputs["mask"]) == ["ckpt_epoch0001.bin",
                                           "ckpt_epoch0002.bin", "report.csv"]
        assert outputs["mask"] == outputs["loop"]

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_block_size_leaves_bytes_unchanged(self, dataset, tmp_path,
                                               monkeypatch, variant):
        cfg = trainer.apply_variant(tiny_config(epochs=2), variant)
        real, calls = trainer._build_half, []

        def counted(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(trainer, "_build_half", counted)
        outputs = {}
        for block_rows in (trainer._BLOCK_ROWS, 12, 1):
            monkeypatch.setattr(trainer, "_BLOCK_ROWS", block_rows)
            calls.clear()
            out = tmp_path / str(block_rows)
            out.mkdir()
            _, logs = trainer.run_training(cfg, dataset, checkpoint_dir=out)
            trainer.write_report_csv(logs, out / "report.csv")
            outputs[block_rows] = {p.name: p.read_bytes()
                                   for p in sorted(out.iterdir())}
            # 6 steps an epoch; a split batch is built as two calls
            rows = 4 if cfg.split_batch else 8
            assert max(calls) == rows * min(6, max(1, block_rows // rows))
        assert outputs[12] == outputs[1] == outputs[trainer._BLOCK_ROWS]

    @pytest.mark.parametrize("variant", ["ig", "cr-aug"])
    def test_resume_mid_block_equals_uninterrupted(self, dataset, tmp_path,
                                                   monkeypatch, variant):
        # 16 rows: blocks of 4 split steps or 2 unsplit ones, so step 3
        # lies inside a block either way
        monkeypatch.setattr(trainer, "_BLOCK_ROWS", 16)
        cfg = trainer.apply_variant(tiny_config(epochs=2), variant)
        full, _ = trainer.run_training(cfg, dataset)

        class Interrupted(Exception):
            pass

        real = trainer.train_step

        def stop_at_step_3(state, *args):
            if state.global_step == 3:
                raise Interrupted
            return real(state, *args)

        state = trainer.init_train_state(cfg, dataset)
        monkeypatch.setattr(trainer, "train_step", stop_at_step_3)
        with pytest.raises(Interrupted):
            trainer.run_training(cfg, dataset, state=state)
        monkeypatch.setattr(trainer, "train_step", real)
        assert (state.epoch, state.step_in_epoch) == (0, 3)
        trainer.checkpoint_save(state, tmp_path / "mid.bin")
        resumed, _ = trainer.run_training(
            cfg, dataset, state=trainer.checkpoint_load(tmp_path / "mid.bin"))
        trainer.checkpoint_save(full, tmp_path / "full.bin")
        trainer.checkpoint_save(resumed, tmp_path / "resumed.bin")
        assert ((tmp_path / "full.bin").read_bytes()
                == (tmp_path / "resumed.bin").read_bytes())

    def test_oracle_errors_propagate(self, dataset, monkeypatch):
        def broken(dataset, model):
            raise ValueError("oracle failed")

        monkeypatch.setattr(trainer.evalkit, "oracle_variance", broken)
        with pytest.raises(ValueError, match="oracle failed"):
            trainer.run_training(tiny_config(epochs=1), dataset)

    def test_constant_tracker_logs_nan_correlation(self, dataset):
        # momentum 1 throughout keeps every class at its initial v = 1
        cfg = tiny_config(epochs=1, alpha_start=1.0, alpha_end=1.0)
        state, logs = trainer.run_training(cfg, dataset)
        assert np.all(state.tracker.v == 1.0)
        assert np.isnan(logs[0].pearson_var_v)

    def test_zero_epochs_returns_initial_state(self, dataset):
        cfg = tiny_config(epochs=0)
        state, logs = trainer.run_training(cfg, dataset)
        assert logs == []
        assert state.global_step == 0
        fresh = trainer.init_train_state(cfg, dataset)
        assert np.array_equal(state.model.w1, fresh.model.w1)

    def test_steps_per_epoch_is_floor(self, dataset):
        cfg = tiny_config(epochs=1)
        state, _ = trainer.run_training(cfg, dataset)
        assert state.global_step == dataset.num_samples // cfg.batch_size

    def test_full_run_bit_identical_repeat(self, dataset):
        cfg = tiny_config(epochs=2)
        s1, _ = trainer.run_training(cfg, dataset)
        s2, _ = trainer.run_training(cfg, dataset)
        for name, arr in s1.params().items():
            assert np.array_equal(arr, s2.params()[name])
        assert np.array_equal(s1.tracker.v, s2.tracker.v)

    def test_report_csv_columns(self, dataset, tmp_path):
        cfg = tiny_config(epochs=2)
        _, logs = trainer.run_training(cfg, dataset)
        path = tmp_path / "report.csv"
        trainer.write_report_csv(logs, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,l_arc,l_ig,ccs_dist,pearson_var_v,frac_zero_weight"
        assert len(lines) == 3

    def test_ccs_drift_shrinks_as_training_converges(self):
        cfg0 = synthdata.SynthConfig(num_classes=10, samples_per_class=10,
                                     side=16, pose_spread=0.5, seed=33)
        ds = synthdata.gen_dataset(cfg0)
        first, last = [], []
        for seed in range(3):
            cfg = tiny_config(epochs=6, seed=seed, batch_size=8,
                              embed_dim=32, hidden_dim=48)
            _, logs = trainer.run_training(cfg, ds)
            first.append(logs[0].ccs_dist)
            last.append(logs[-1].ccs_dist)
        assert np.mean(last) < np.mean(first)

    def test_unsplit_mode_trains_margin_on_full_batch(self, dataset):
        cfg = trainer.apply_variant(tiny_config(epochs=1), "cr")
        state, logs = trainer.run_training(cfg, dataset)
        assert state.last_step.ccs_clean.shape[0] == cfg.batch_size
        assert np.all(state.last_step.sample_weights == 1.0)
        assert logs[-1].frac_zero_weight == 0.0


class TestCheckpoint:
    def test_round_trip_bit_identical(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1, head_bias=True)
        state, _ = trainer.run_training(cfg, dataset)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        trainer.checkpoint_save(state, p1)
        loaded = trainer.checkpoint_load(p1)
        trainer.checkpoint_save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.model.w1, state.model.w1)
        assert np.array_equal(loaded.tracker.v, state.tracker.v)
        assert loaded.global_step == state.global_step
        assert loaded.tracker.step == state.tracker.step

    def test_truncated_checkpoint_raises(self, dataset, tmp_path):
        cfg = tiny_config(epochs=1)
        state, _ = trainer.run_training(cfg, dataset)
        path = tmp_path / "c.ckpt"
        trainer.checkpoint_save(state, path)
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:-7])
        with pytest.raises(FormatError):
            trainer.checkpoint_load(bad)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"WRONG!!!" + b"\x00" * 100)
        with pytest.raises(FormatError):
            trainer.checkpoint_load(path)

    @pytest.mark.parametrize("head_bias", [False, True])
    def test_resume_equals_uninterrupted(self, dataset, tmp_path, head_bias):
        # milestone checkpoints carry the full schedule, so resuming one
        # must replay the identical stream
        cfg = tiny_config(epochs=3, lr_milestones=(1,), head_bias=head_bias)
        full, _ = trainer.run_training(cfg, dataset, checkpoint_dir=tmp_path)
        resumed = trainer.checkpoint_load(tmp_path / "ckpt_epoch0001.bin")
        assert resumed.epoch == 2
        final, _ = trainer.run_training(cfg, dataset, state=resumed)
        for name, arr in full.params().items():
            assert np.array_equal(arr, final.params()[name]), name
        assert np.array_equal(full.tracker.v, final.tracker.v)
        assert full.global_step == final.global_step
        trainer.checkpoint_save(full, tmp_path / "full.bin")
        trainer.checkpoint_save(final, tmp_path / "final.bin")
        assert ((tmp_path / "full.bin").read_bytes()
                == (tmp_path / "final.bin").read_bytes())

    @pytest.mark.parametrize("field,value", [
        ("scale", 9.0), ("margin", 0.25), ("beta", 0.5),
        ("alpha_start", 0.8), ("alpha_end", 0.95), ("hidden_dim", 20),
        ("embed_dim", 12), ("head_bias", True)])
    def test_resume_refuses_other_config(self, dataset, tmp_path, field,
                                         value):
        cfg = tiny_config(epochs=3, lr_milestones=(1,))
        trainer.run_training(cfg, dataset, checkpoint_dir=tmp_path)
        resumed = trainer.checkpoint_load(tmp_path / "ckpt_epoch0001.bin")
        other = dataclasses.replace(cfg, **{field: value})
        with pytest.raises(ConfigError, match=field):
            trainer.run_training(other, dataset, state=resumed)
        assert resumed.global_step == 12

    @pytest.mark.parametrize("field,synth", [
        ("input_dim", {"side": 10}), ("num_classes", {"num_classes": 7})])
    def test_resume_refuses_other_dataset(self, dataset, tmp_path, field,
                                          synth):
        cfg = tiny_config(epochs=3, lr_milestones=(1,))
        trainer.run_training(cfg, dataset, checkpoint_dir=tmp_path)
        resumed = trainer.checkpoint_load(tmp_path / "ckpt_epoch0001.bin")
        other = synthdata.gen_dataset(synthdata.SynthConfig(**{
            "num_classes": 8, "samples_per_class": 6, "side": 12,
            "seed": 21, **synth}))
        with pytest.raises(ConfigError, match=field):
            trainer.run_training(cfg, other, state=resumed)

    def test_milestone_checkpoints_written(self, dataset, tmp_path):
        cfg = tiny_config(epochs=5, lr_milestones=(3,))
        trainer.run_training(cfg, dataset, checkpoint_dir=tmp_path)
        assert (tmp_path / "ckpt_epoch0003.bin").exists()
        assert (tmp_path / "ckpt_epoch0004.bin").exists()
