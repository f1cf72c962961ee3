import hashlib
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fiqlab import cli, margin, rngstreams, synthdata, trainer, variance
from fiqlab.configio import build_config
from fiqlab.errors import FormatError

README = Path(__file__).resolve().parents[1] / "README.md"


SYNTH_CFG = """\
num_classes=6
samples_per_class=6
side=12
duplicate_class_fraction=0.34
pose_spread=0.8
degrade_fraction=0.3
seed=13
"""

TRAIN_CFG = """\
batch_size=8
epochs=2
lr=0.03
scale=8.0
margin=0.3
embed_dim=16
hidden_dim=24
lig_reduction=mean
seed=4
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG)
    return tmp_path


def run(argv):
    return cli.main([str(a) for a in argv])


def test_readme_walkthrough_configs_build(tmp_path):
    """The config files the README's CLI walkthrough writes are accepted,
    so a key removed from a config class fails here."""
    heredocs = dict(re.findall(r"^cat > (\S+) <<EOF\n(.*?)^EOF$",
                               README.read_text(encoding="utf-8"),
                               re.MULTILINE | re.DOTALL))
    assert sorted(heredocs) == ["synth.cfg", "train.cfg"]
    for name, cls, required in [
            ("synth.cfg", synthdata.SynthConfig,
             ("num_classes", "samples_per_class")),
            ("train.cfg", trainer.TrainConfig, ())]:
        (tmp_path / name).write_text(heredocs[name])
        build_config(cls, tmp_path / name, required=required)


class TestSynth:
    def test_writes_container_with_magic(self, workspace):
        out = workspace / "data" / "ds.bin"
        assert run(["synth", "--config", workspace / "synth.cfg",
                    "--out", out]) == 0
        assert out.read_bytes()[:7] == b"IGFQDS1"
        assert (out.parent / "manifest.json").exists()

    def test_same_config_identical_files(self, workspace):
        a = workspace / "a" / "ds.bin"
        b = workspace / "b" / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", a])
        run(["synth", "--config", workspace / "synth.cfg", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_required_key_names_it(self, workspace, capsys):
        (workspace / "bad.cfg").write_text("num_classes=4\n")
        code = run(["synth", "--config", workspace / "bad.cfg",
                    "--out", workspace / "x.bin"])
        assert code == 1
        assert "samples_per_class" in capsys.readouterr().err

    def test_unknown_key_reports_line(self, workspace, capsys):
        (workspace / "bad.cfg").write_text("num_classes=4\nwhat=1\n")
        code = run(["synth", "--config", workspace / "bad.cfg",
                    "--out", workspace / "x.bin"])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, workspace, capsys):
        (workspace / "bad.cfg").write_bytes(b"num_classes=4\nside=\xff\n")
        code = run(["synth", "--config", workspace / "bad.cfg",
                    "--out", workspace / "x.bin"])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.cfg: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_non_finite_pose_spread_refused(self, workspace, capsys, spread):
        (workspace / "bad.cfg").write_text(
            f"num_classes=4\nsamples_per_class=3\npose_spread={spread}\n")
        code = run(["synth", "--config", workspace / "bad.cfg",
                    "--out", workspace / "out" / "x.bin"])
        assert code == 1
        err = capsys.readouterr().err
        assert "pose_spread must be finite" in err
        assert "Traceback" not in err
        assert not (workspace / "out").exists()


@pytest.fixture
def trained(workspace):
    ds_path = workspace / "ds.bin"
    run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
    out_dir = workspace / "run"
    code = run(["train", "--config", workspace / "train.cfg",
                "--dataset", ds_path, "--out", out_dir, "--variant", "ig"])
    assert code == 0
    return workspace, ds_path, out_dir


class TestTrain:
    def test_outputs_exist(self, trained):
        _, _, out_dir = trained
        assert (out_dir / "checkpoint.bin").exists()
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0] == "epoch,l_arc,l_ig,ccs_dist,pearson_var_v,frac_zero_weight"
        assert len(report) == 3
        assert (out_dir / "class_weights.csv").exists()

    def test_cr_variant_forces_unit_weights(self, workspace):
        ds_path = workspace / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
        out_dir = workspace / "cr_run"
        assert run(["train", "--config", workspace / "train.cfg",
                    "--dataset", ds_path, "--out", out_dir,
                    "--variant", "cr"]) == 0
        report = (out_dir / "report.csv").read_text().strip().splitlines()
        frac_zero = [float(line.split(",")[-1]) for line in report[1:]]
        assert all(v == 0.0 for v in frac_zero)

    def test_unknown_variant_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(workspace / "train.cfg"),
                      "--dataset", "x", "--out", "y", "--variant", "bogus"])
        assert exc.value.code == 2  # argparse usage exit

    @pytest.mark.parametrize("line", [
        "hidden_dim=-1", "hidden_dim=0", "embed_dim=0", "lr=nan", "lam=nan",
        "lam=-1", "scale=nan", "alpha_start=2", "seed=-1", "seed=4294967296",
        "seed=18446744073709551615", "margin=2.0", "margin=nan",
        "margin=-0.1"])
    def test_out_of_range_value_usage_error(self, workspace, capsys, line):
        ds_path = workspace / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
        (workspace / "bad.cfg").write_text(TRAIN_CFG + line + "\n")
        code = run(["train", "--config", workspace / "bad.cfg",
                    "--dataset", ds_path, "--out", workspace / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert line.partition("=")[0] in err
        assert "Traceback" not in err
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize("line,variant,message", [
        ("augment_p=0.5", "cr",
         "augment_p=0.5 disagrees with --variant cr, which sets "
         "augment_p=0.0"),
        ("split_batch=false", "ig",
         "split_batch=False disagrees with --variant ig, which sets "
         "split_batch=True")])
    def test_variant_refuses_other_file_value(self, workspace, capsys, line,
                                              variant, message):
        ds_path = workspace / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
        (workspace / "bad.cfg").write_text(TRAIN_CFG + line + "\n")
        code = run(["train", "--config", workspace / "bad.cfg",
                    "--dataset", ds_path, "--out", workspace / "o",
                    "--variant", variant])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (workspace / "o").exists()

    def test_variant_accepts_its_own_file_value(self, workspace):
        ds_path = workspace / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
        (workspace / "cr.cfg").write_text(TRAIN_CFG + "augment_p=0\n")
        assert run(["train", "--config", workspace / "cr.cfg",
                    "--dataset", ds_path, "--out", workspace / "o",
                    "--variant", "cr"]) == 0

    def test_missing_dataset_is_data_error(self, workspace):
        code = run(["train", "--config", workspace / "train.cfg",
                    "--dataset", workspace / "nope.bin",
                    "--out", workspace / "o"])
        assert code == 2


class TestScore:
    def test_score_deterministic(self, trained):
        workspace, ds_path, out_dir = trained
        s1 = workspace / "s1.csv"
        s2 = workspace / "s2.csv"
        for out in (s1, s2):
            assert run(["score", "--checkpoint", out_dir / "checkpoint.bin",
                        "--dataset", ds_path, "--out", out]) == 0
        assert s1.read_text() == s2.read_text()
        lines = s1.read_text().strip().splitlines()
        assert lines[0] == "sample_id,score"
        assert len(lines) == 1 + 36

    @pytest.mark.parametrize("offset,value", [
        (28, b"\x01"),                      # head-bias flag
        (69, struct.pack("<d", 0.5))],      # Smooth-L1 beta
        ids=["head-bias", "beta"])
    def test_head_bias_or_other_beta_is_data_error(self, trained, capsys,
                                                   offset, value):
        workspace, ds_path, out_dir = trained
        raw = bytearray((out_dir / "checkpoint.bin").read_bytes())
        raw[offset:offset + len(value)] = value
        bad = workspace / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        code = run(["score", "--checkpoint", bad, "--dataset", ds_path,
                    "--out", workspace / "s.csv"])
        assert code == 2
        assert "head-bias flag" in capsys.readouterr().err
        assert not (workspace / "s.csv").exists()

    def test_dimension_mismatch_rejected(self, trained, tmp_path):
        workspace, ds_path, out_dir = trained
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text("num_classes=4\nsamples_per_class=4\nside=8\n")
        other_ds = tmp_path / "other.bin"
        run(["synth", "--config", other_cfg, "--out", other_ds])
        code = run(["score", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", other_ds, "--out", tmp_path / "s.csv"])
        assert code == 2


class TestErc:
    def test_curve_and_auc_written(self, trained):
        workspace, ds_path, out_dir = trained
        scores = workspace / "scores.csv"
        run(["score", "--checkpoint", out_dir / "checkpoint.bin",
             "--dataset", ds_path, "--out", scores])
        erc_dir = workspace / "erc"
        assert run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", scores,
                    "--fmr", "0.05", "--nonmated", "120",
                    "--out", erc_dir]) == 0
        curve = (erc_dir / "erc_curve.csv").read_text().splitlines()
        assert curve[0] == "reject_rate,fnmr"
        auc = (erc_dir / "erc_auc.csv").read_text().splitlines()
        assert auc[0] == "method,fmr,auc"
        assert auc[1].startswith("scores,0.05,")
        pairs = (erc_dir / "pairs.csv").read_text().splitlines()
        assert pairs[0] == "idx_a,idx_b,genuine"

    def test_constant_scores_flat_curve(self, trained):
        workspace, ds_path, out_dir = trained
        ds = synthdata.load_dataset(ds_path)
        flat = workspace / "flat.csv"
        with open(flat, "w") as fh:
            fh.write("sample_id,score\n")
            for i in range(ds.num_samples):
                fh.write(f"{i},0.5\n")
        erc_dir = workspace / "erc_flat"
        assert run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", flat,
                    "--fmr", "0.05", "--nonmated", "120",
                    "--out", erc_dir]) == 0

    def test_oracle_quality_scores_accepted(self, trained):
        # ground-truth quality as the score source, reported under its
        # own method name for side-by-side AUC comparison
        workspace, ds_path, out_dir = trained
        ds = synthdata.load_dataset(ds_path)
        oracle = workspace / "oracle.csv"
        with open(oracle, "w") as fh:
            fh.write("sample_id,score\n")
            for i, lvl in enumerate(ds.degradation_level):
                fh.write(f"{i},{1.0 - lvl:.9g}\n")
        erc_dir = workspace / "erc_oracle"
        assert run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", oracle,
                    "--fmr", "0.05", "--nonmated", "120",
                    "--method", "oracle", "--out", erc_dir]) == 0
        auc_row = (erc_dir / "erc_auc.csv").read_text().splitlines()[1]
        assert auc_row.startswith("oracle,0.05,")

    def test_fmr_out_of_range_usage_error(self, trained):
        workspace, ds_path, out_dir = trained
        code = run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", "whatever",
                    "--fmr", "1.5", "--out", workspace / "e"])
        assert code == 1

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    def test_seed_out_of_range_usage_error(self, trained, capsys, seed):
        workspace, ds_path, out_dir = trained
        code = run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", "whatever",
                    "--fmr", "0.05", "--seed", seed, "--out", workspace / "e"])
        assert code == 1
        assert f"--seed must lie in [0, 2**32), got {seed}" in (
            capsys.readouterr().err)
        assert not (workspace / "e").exists()

    @pytest.mark.parametrize("method,scores", [
        ("a,b", "s.csv"), ("a\rb", "s.csv"), ("a\nb", "s.csv"),
        (None, "a,b.csv")], ids=["comma", "cr", "lf", "stem"])
    def test_method_that_breaks_auc_csv_usage_error(self, trained, capsys,
                                                    method, scores):
        workspace, ds_path, out_dir = trained
        erc_dir = workspace / "e"
        erc_dir.mkdir()
        argv = ["erc", "--checkpoint", out_dir / "checkpoint.bin",
                "--dataset", ds_path, "--scores", workspace / scores,
                "--fmr", "0.05", "--out", erc_dir]
        if method is not None:
            argv += ["--method", method]
        assert run(argv) == 1
        assert "must not contain ',', CR or LF" in capsys.readouterr().err
        assert not any(erc_dir.iterdir())

    def test_more_nonmated_than_exist_usage_error(self, trained, capsys):
        # 6 classes x 6 samples have 540 cross-class pairs; the default
        # --nonmated asks for 5000
        workspace, ds_path, out_dir = trained
        scores = workspace / "s" / "scores.csv"
        assert run(["score", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--out", scores]) == 0
        code = run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", scores,
                    "--fmr", "0.05", "--out", workspace / "e"])
        assert code == 1
        assert "540 distinct cross-class pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--max-per-class", "max_per_class=-1, nonmated_count=120"),
        ("--nonmated", "max_per_class=60, nonmated_count=-1"),
    ])
    def test_negative_pair_count_usage_error(self, trained, capsys, flag,
                                             message):
        workspace, ds_path, out_dir = trained
        scores = workspace / "s" / "scores.csv"
        assert run(["score", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--out", scores]) == 0
        code = run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", scores,
                    "--fmr", "0.05", "--nonmated", "120", flag, "-1",
                    "--out", workspace / "e"])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row, message", [
        ("-1,0.75", "sample id -1 outside [0, 36)"),
        ("36,0.75", "sample id 36 outside [0, 36)"),
        ("0,0.75", "repeated sample id 0"),
        ("35,nan", "non-finite score nan"),
        ("35,inf", "non-finite score inf"),
    ])
    def test_bad_scores_rows_are_format_errors(self, trained, capsys,
                                               bad_row, message):
        # rows 0..34 are valid; the bad row is line 37, where sample 35's
        # row would be
        workspace, ds_path, out_dir = trained
        scores = workspace / "bad.csv"
        rows = [f"{i},0.5" for i in range(35)] + [bad_row]
        scores.write_text("sample_id,score\n" + "\n".join(rows) + "\n")
        code = run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", scores,
                    "--fmr", "0.05", "--nonmated", "120",
                    "--out", workspace / "e"])
        assert code == 2
        assert f"bad.csv:37: {message}" in capsys.readouterr().err

    def test_non_utf8_scores_are_format_error(self, trained, capsys):
        workspace, ds_path, out_dir = trained
        scores = workspace / "bad.csv"
        scores.write_bytes(b"sample_id,score\n0,0.5\n1,\xff\n")
        code = run(["erc", "--checkpoint", out_dir / "checkpoint.bin",
                    "--dataset", ds_path, "--scores", scores,
                    "--fmr", "0.05", "--nonmated", "120",
                    "--out", workspace / "e"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv: not UTF-8 text" in err
        assert "Traceback" not in err


class TestReport:
    def test_weight_csv(self, trained):
        workspace, _, out_dir = trained
        out = workspace / "weights.csv"
        assert run(["report", "--checkpoint", out_dir / "checkpoint.bin",
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "class_id,v,weight"
        assert len(lines) == 1 + 6

    def test_header_dims_beyond_file_size_exit_2(self, trained, capsys):
        workspace, _, out_dir = trained
        raw = bytearray((out_dir / "checkpoint.bin").read_bytes())
        # input_dim and hidden_dim follow the 8-byte magic and u32 version;
        # their product wraps around int64
        raw[12:20] = b"\xff" * 8
        bad = workspace / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        code = run(["report", "--checkpoint", bad,
                    "--out", workspace / "w.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "header declares" in err
        assert "Traceback" not in err


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("command", ["score", "report"])
    @pytest.mark.parametrize("offset,value", [
        (trainer._CKPT_HEADER.size, struct.pack("<f", float("nan"))),  # w1
        (trainer._CKPT_HEADER.size - 40, struct.pack("<d", float("inf")))],
        ids=["nan-weight", "inf-scale"])
    def test_exit_2_and_nothing_written(self, trained, capsys, command,
                                        offset, value):
        workspace, ds_path, out_dir = trained
        raw = bytearray((out_dir / "checkpoint.bin").read_bytes())
        raw[offset:offset + len(value)] = value
        bad = workspace / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        out = workspace / "out" / "o.csv"
        argv = [command, "--checkpoint", bad, "--out", out]
        if command == "score":
            argv += ["--dataset", ds_path]
        assert run(argv) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (workspace / "out").exists()


class TestCheckpointHeaderRanges:
    # offsets from the header's end: u32 total steps, then f64 scale,
    # margin, beta, alpha start and alpha end
    @pytest.mark.parametrize("command", ["score", "report"])
    @pytest.mark.parametrize("back,value", [
        (40, struct.pack("<d", -1.0)),
        (32, struct.pack("<d", float("nan"))),
        (32, struct.pack("<d", 2.0)),
        (16, struct.pack("<d", 5.0)),
        (44, struct.pack("<I", 0))],
        ids=["scale -1", "margin nan", "margin 2", "alpha start 5",
             "total steps 0"])
    def test_exit_2_and_nothing_written(self, trained, capsys, command,
                                        back, value):
        workspace, ds_path, out_dir = trained
        raw = bytearray((out_dir / "checkpoint.bin").read_bytes())
        at = trainer._CKPT_HEADER.size - back
        raw[at:at + len(value)] = value
        bad = workspace / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="out-of-range"):
            trainer.checkpoint_load(bad)
        out = workspace / "out" / "o.csv"
        argv = [command, "--checkpoint", bad, "--out", out]
        if command == "score":
            argv += ["--dataset", ds_path]
        assert run(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (workspace / "out").exists()

    # input, hidden and embedding width and class count; the dataset's
    # side is 12, so an input width of 144
    @pytest.mark.parametrize("command", ["score", "report"])
    @pytest.mark.parametrize("dims", [
        (0, 24, 16, 6), (144, 0, 16, 6), (144, 24, 0, 6), (144, 24, 16, 0),
        (144, 24, 16, 1)],
        ids=["input 0", "hidden 0", "embed 0", "classes 0", "classes 1"])
    def test_widths_and_classes_no_run_writes(self, workspace, capsys,
                                              command, dims):
        # a file whose size matches its header, as checkpoint_save writes
        tracker = variance.VarianceTracker(
            v=np.ones(dims[3], dtype=np.float32))
        state = trainer._train_state(trainer._param_shapes(*dims), tracker,
                                     8.0, 0.3)
        bad = workspace / "bad.ckpt"
        trainer.checkpoint_save(state, bad)
        with pytest.raises(FormatError, match="out-of-range"):
            trainer.checkpoint_load(bad)
        ds_path = workspace / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
        out = workspace / "out" / "o.csv"
        argv = [command, "--checkpoint", bad, "--out", out]
        if command == "score":
            argv += ["--dataset", ds_path]
        assert run(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (workspace / "out").exists()


class TestSelfcheck:
    def test_passes_on_fresh_build(self, capsys):
        assert cli.main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck: PASS" in out
        assert "max error" in out

    def test_detects_injected_sign_error(self, monkeypatch, capsys):
        real = margin.arcface_loss

        def flipped(bank, emb, labels):
            res = real(bank, emb, labels)
            res.grad_emb = -res.grad_emb
            return res

        monkeypatch.setattr(margin, "arcface_loss", flipped)
        assert cli.main(["selfcheck"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_detects_diverged_flip_streams(self, monkeypatch, capsys):
        real = cli.first_random
        monkeypatch.setattr(cli, "first_random",
                            lambda *a: np.nextafter(real(*a), 1.0))
        assert cli.main(["selfcheck"]) == 3
        assert "FAIL  batched streams match rng_for" in capsys.readouterr().out

    def test_detects_diverged_degrade_coins(self, monkeypatch, capsys):
        # synthesis seeds its streams with the class as a per-element
        # counter; a fault that only such counters meet must show
        real = rngstreams.stream_states

        def off_for_array_counters(seed, tag, counter, indices):
            if np.ndim(counter) != 0:
                indices = np.asarray(indices) + 1
            return real(seed, tag, counter, indices)

        monkeypatch.setattr(rngstreams, "stream_states", off_for_array_counters)
        assert cli.main(["selfcheck"]) == 3
        assert "FAIL  batched streams match rng_for" in capsys.readouterr().out

    def test_detects_stream_states_off_by_one(self, monkeypatch, capsys):
        real = rngstreams.stream_states
        monkeypatch.setattr(
            rngstreams, "stream_states",
            lambda seed, tag, counter, indices:
                real(seed, tag, counter, np.asarray(indices) + 1))
        assert cli.main(["selfcheck"]) == 3
        assert "FAIL  batched streams match rng_for" in capsys.readouterr().out

    def test_detects_decoder_off_by_one_word(self, monkeypatch, capsys):
        # augmentation and degradation decode their draws from raw words;
        # a cursor one word ahead must show
        real = rngstreams.StreamDraws.__init__

        def one_word_ahead(self, source, k, start=0):
            real(self, source, k, np.asarray(start) + 1)

        monkeypatch.setattr(rngstreams.StreamDraws, "__init__", one_word_ahead)
        assert cli.main(["selfcheck"]) == 3
        assert "FAIL  decoded draws match numpy" in capsys.readouterr().out

    def test_grad_check_command(self, capsys):
        assert cli.main(["grad-check"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestManifest:
    def test_replay_reproduces_outputs_bitwise(self, workspace):
        out = workspace / "m1" / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", out])
        [record] = cli.load_manifest(out.parent / "manifest.json")["commands"]
        # replay the recorded argv into a new location
        argv = [a.replace(str(out), str(workspace / "m2" / "ds.bin"))
                for a in record["argv"]]
        assert cli.main(argv) == 0
        [replay] = cli.load_manifest(workspace / "m2" / "manifest.json")[
            "commands"]
        assert list(record["outputs"].values()) == list(replay["outputs"].values())

    def test_train_manifest_records_config_and_hashes(self, trained):
        _, _, out_dir = trained
        [record] = cli.load_manifest(out_dir / "manifest.json")["commands"]
        assert record["command"] == "train"
        assert record["config"]["variant"] == "ig"
        assert record["config"]["batch_size"] == 8
        assert record["seed"] == 4
        for path, digest in record["outputs"].items():
            assert len(digest) == 64

    def test_commands_sharing_a_directory_keep_their_records(self, trained):
        workspace, ds_path, out_dir = trained
        ckpt = out_dir / "checkpoint.bin"
        for out in ("scores.csv", "other.csv"):
            assert run(["score", "--checkpoint", ckpt, "--dataset", ds_path,
                        "--out", workspace / out]) == 0
        assert run(["report", "--checkpoint", ckpt,
                    "--out", workspace / "weights.csv"]) == 0
        records = cli.load_manifest(workspace / "manifest.json")["commands"]
        assert [(r["command"], list(r["outputs"])) for r in records] == [
            ("synth", [str(ds_path)]),
            ("score", [str(workspace / "scores.csv")]),
            ("score", [str(workspace / "other.csv")]),
            ("report", [str(workspace / "weights.csv")])]
        assert (records[0]["outputs"][str(ds_path)]
                == hashlib.sha256(ds_path.read_bytes()).hexdigest())

    def test_rerun_replaces_its_record(self, trained):
        workspace, ds_path, out_dir = trained
        first = cli.load_manifest(workspace / "manifest.json")["commands"]
        ckpt = out_dir / "checkpoint.bin"
        assert run(["score", "--checkpoint", ckpt, "--dataset", ds_path,
                    "--out", workspace / "scores.csv"]) == 0
        # the same file spelled another way
        again = workspace / ".." / workspace.name / "ds.bin"
        assert run(["synth", "--config", workspace / "synth.cfg",
                    "--out", again]) == 0
        records = cli.load_manifest(workspace / "manifest.json")["commands"]
        assert [r["command"] for r in records] == ["score", "synth"]
        assert list(records[1]["outputs"]) == [str(again)]
        assert (list(records[1]["outputs"].values())
                == list(first[0]["outputs"].values()))

    @pytest.mark.parametrize("text", [
        "not json", "[]", '{"command": "synth", "outputs": {}}',
        '{"commands": [{"command": "synth"}]}', '{"commands": [3]}'])
    def test_unreadable_manifest_is_format_error(self, workspace, capsys,
                                                 text):
        (workspace / "manifest.json").write_text(text)
        before = sorted(workspace.iterdir())
        code = run(["synth", "--config", workspace / "synth.cfg",
                    "--out", workspace / "ds.bin"])
        assert code == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "Traceback" not in err
        # refused before any work: no output written
        assert sorted(workspace.iterdir()) == before
        with pytest.raises(FormatError):
            cli.load_manifest(workspace / "manifest.json")

    def test_train_claims_only_its_own_checkpoints(self, workspace):
        # a 10-epoch run writes epochs 6, 8 and 9; a 2-epoch run in the
        # same directory then writes epoch 1 and replaces the record
        ds_path = workspace / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
        out_dir = workspace / "run"
        for epochs in (10, 2):
            cfg = workspace / f"train{epochs}.cfg"
            cfg.write_text(TRAIN_CFG.replace("epochs=2", f"epochs={epochs}"))
            assert run(["train", "--config", cfg, "--dataset", ds_path,
                        "--out", out_dir]) == 0
        [record] = cli.load_manifest(out_dir / "manifest.json")["commands"]
        assert sorted(Path(p).name for p in record["outputs"]) == [
            "checkpoint.bin", "ckpt_epoch0001.bin", "class_weights.csv",
            "report.csv"]
        assert (out_dir / "ckpt_epoch0009.bin").exists()

    def test_inputs_not_mutated(self, workspace):
        ds_path = workspace / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
        before = ds_path.read_bytes()
        run(["train", "--config", workspace / "train.cfg",
             "--dataset", ds_path, "--out", workspace / "r2"])
        assert ds_path.read_bytes() == before


# A side-12 set of 50 classes x 12 samples: its 600 records make two full
# 256-record blocks and a last one of 88 (records 512..599), class 49's
# twelve records 588..599 among them.
STREAM_SYNTH_CFG = ("num_classes=50\nsamples_per_class=12\nside=12\n"
                    "duplicate_class_fraction=0.2\npose_spread=0.8\n"
                    "degrade_fraction=0.3\nseed=21\n")
RECORD = 8 + 4 * 12 * 12


def record_at(i):
    """Byte offset of record ``i``: after the 19-byte header, a u32
    label, the f32 level, then the pixels."""
    return 19 + i * RECORD


def last_block_fault(raw, fault):
    """``raw``, a 600-record container, with ``fault`` in its last
    256-record block (or, for the flags, in the tail after it)."""
    raw = bytearray(raw)
    if fault == "nan pixel":
        at = record_at(599) + 8 + 4 * 5
        raw[at:at + 4] = struct.pack("<f", np.nan)
    elif fault == "nan level":
        raw[record_at(599) + 4:record_at(599) + 8] = struct.pack("<f", np.nan)
    elif fault == "label":
        raw[record_at(599):record_at(599) + 4] = struct.pack("<I", 50)
    elif fault == "class seen once":
        for i in range(588, 599):
            raw[record_at(i):record_at(i) + 4] = struct.pack("<I", 48)
    elif fault == "truncated":
        raw = raw[:record_at(590) + 100]
    elif fault == "flag 7":
        raw[-1] = 7
    return bytes(raw)


@pytest.fixture
def stream_set(trained):
    """The trained checkpoint, a valid 600-record set of its side, and a
    valid scores file for that set."""
    workspace, _, out_dir = trained
    (workspace / "stream.cfg").write_text(STREAM_SYNTH_CFG)
    ds_path = workspace / "stream" / "ds.bin"
    assert run(["synth", "--config", workspace / "stream.cfg",
                "--out", ds_path]) == 0
    scores = workspace / "stream-scores.csv"
    scores.write_text("sample_id,score\n"
                      + "".join(f"{i},0.5\n" for i in range(600)))
    return workspace, out_dir / "checkpoint.bin", ds_path, scores


def eval_argv(command, ckpt, dataset, scores, out):
    if command == "score":
        return ["score", "--checkpoint", ckpt, "--dataset", dataset,
                "--out", out / "s.csv"]
    return ["erc", "--checkpoint", ckpt, "--dataset", dataset,
            "--scores", scores, "--fmr", "0.05", "--nonmated", "200",
            "--out", out]


class TestStreamedEvaluation:
    """score and erc read the dataset as a stream of 256-record blocks:
    every fault a whole load refuses, they refuse too, with its message,
    before writing anything."""

    def test_valid_set_passes(self, stream_set):
        workspace, ckpt, ds_path, scores = stream_set
        for command in ("score", "erc"):
            assert run(eval_argv(command, ckpt, ds_path, scores,
                                 workspace / command)) == 0

    @pytest.mark.parametrize("command", ["score", "erc"])
    def test_side_mismatch_refused_before_any_record(self, stream_set,
                                                     capsys, command):
        # a side-8 set whose first record is also bad: the side, read from
        # the header, is refused before any record is read
        workspace, ckpt, _, scores = stream_set
        (workspace / "side8.cfg").write_text(
            "num_classes=4\nsamples_per_class=4\nside=8\n")
        other = workspace / "side8" / "ds.bin"
        assert run(["synth", "--config", workspace / "side8.cfg",
                    "--out", other]) == 0
        raw = bytearray(other.read_bytes())
        raw[19 + 8:19 + 12] = struct.pack("<f", np.nan)
        other.write_bytes(bytes(raw))
        out = workspace / "o"
        assert run(eval_argv(command, ckpt, other, scores, out)) == 2
        err = capsys.readouterr().err
        assert "dataset side 8 does not match checkpoint input dim 144" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "erc"])
    @pytest.mark.parametrize("fault", [
        "nan pixel", "nan level", "label", "class seen once", "truncated",
        "flag 7"])
    def test_fault_in_last_block_exit_2_and_nothing_written(
            self, stream_set, capsys, command, fault):
        workspace, ckpt, ds_path, scores = stream_set
        bad = workspace / "bad.bin"
        bad.write_bytes(last_block_fault(ds_path.read_bytes(), fault))
        with pytest.raises(FormatError) as refused:
            synthdata.load_dataset(bad)
        out = workspace / "o"
        assert run(eval_argv(command, ckpt, bad, scores, out)) == 2
        err = capsys.readouterr().err
        assert str(refused.value) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "erc"])
    def test_several_faults_name_one(self, stream_set, capsys, command):
        workspace, ckpt, ds_path, scores = stream_set
        raw = ds_path.read_bytes()
        for fault in ("nan pixel", "label", "class seen once"):
            raw = last_block_fault(raw, fault)
        bad = workspace / "bad.bin"
        bad.write_bytes(raw)
        out = workspace / "o"
        assert run(eval_argv(command, ckpt, bad, scores, out)) == 2
        err = capsys.readouterr().err
        assert any(message in err for message in (
            "pixel values outside", "labels outside [0, 50)",
            "every class must appear at least twice"))
        assert not out.exists()

    def test_score_memory_is_output_plus_blocks(self, tmp_path):
        # 100 classes x 37 records of side 24: 8.55 MB of records, more
        # than the fixed budget below and the embeddings together
        rng = rngstreams.rng_for(7, 70)
        ds = synthdata.IdentityDataset(
            images=rng.uniform(0.0, 1.0, (3700, 24, 24)).astype(np.float32),
            labels=np.repeat(np.arange(100, dtype=np.uint32), 37),
            degradation_level=np.zeros(3700, dtype=np.float32),
            class_flags=np.zeros(100, dtype=np.uint8))
        path = tmp_path / "ds.bin"
        synthdata.save_dataset(ds, path)
        assert path.stat().st_size >= 8 << 20
        config = trainer.TrainConfig(hidden_dim=32, embed_dim=16)
        trainer.checkpoint_save(trainer.init_train_state(config, ds),
                                tmp_path / "ckpt.bin")
        del ds
        tracemalloc.start()
        try:
            assert run(["score", "--checkpoint", tmp_path / "ckpt.bin",
                        "--dataset", path, "--out", tmp_path / "s.csv"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 embeddings, then 4 MiB: one 256-record block (0.6
        # MB, its pixels a view of the records), one block's forward pass,
        # the labels, levels and scores, and the CSV blocks
        assert peak <= 3700 * 16 * 4 + (4 << 20)
