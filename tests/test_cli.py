import hashlib

import numpy as np
import pytest

from fiqlab import cli, margin, rngstreams, synthdata
from fiqlab.errors import FormatError


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

    def test_inputs_not_mutated(self, workspace):
        ds_path = workspace / "ds.bin"
        run(["synth", "--config", workspace / "synth.cfg", "--out", ds_path])
        before = ds_path.read_bytes()
        run(["train", "--config", workspace / "train.cfg",
             "--dataset", ds_path, "--out", workspace / "r2"])
        assert ds_path.read_bytes() == before
