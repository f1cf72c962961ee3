"""Byte mutations of every file the package reads.

Each mutated file, overwritten, truncated or extended, must either load
or raise a FiqError subclass: never another exception, and never a
wrong-sized allocation.  A dataset read as a stream of blocks must give
the arrays a whole load gives.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiqlab import cli, synthdata, trainer
from fiqlab.configio import build_config
from fiqlab.errors import FiqError

SYNTH_CFG = ("num_classes=2\nsamples_per_class=2\nside=4\n"
             "duplicate_class_fraction=0.5\ndegrade_fraction=0.5\nseed=1\n")
TRAIN_CFG = ("batch_size=2\nepochs=1\nembed_dim=4\nhidden_dim=4\n"
             "lig_reduction=mean\nseed=2\n")


def streamed_dataset(path):
    """A ``DatasetStream`` read to its end, three records a block; where
    it succeeds, a whole load succeeds too and gives the same arrays."""
    with patch.object(synthdata, "BLOCK_ROWS", 3), \
            synthdata.DatasetStream(path) as stream:
        images = np.concatenate([block.copy()
                                 for _, block in stream.blocks()])
    try:
        loaded = synthdata.load_dataset(path)
    except FiqError as exc:
        raise AssertionError(
            f"the stream read what a load refuses: {exc}") from exc
    for got, want in [(images, loaded.images), (stream.labels, loaded.labels),
                      (stream.degradation_level, loaded.degradation_level),
                      (stream.class_flags, loaded.class_flags)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


LOADERS = {
    "dataset": synthdata.load_dataset,
    "dataset stream": streamed_dataset,
    "checkpoint": trainer.checkpoint_load,
    "synth config": lambda path: build_config(
        synthdata.SynthConfig, path,
        required=("num_classes", "samples_per_class")),
    "train config": lambda path: build_config(trainer.TrainConfig, path),
    "scores": lambda path: cli._read_scores_csv(path, 4),
    "manifest": cli.load_manifest,
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The unmutated bytes of one small file of every kind, each of
    which loads."""
    root = tmp_path_factory.mktemp("originals")
    (root / "synth.cfg").write_text(SYNTH_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    dataset = synthdata.gen_dataset(
        build_config(synthdata.SynthConfig, root / "synth.cfg"))
    synthdata.save_dataset(dataset, root / "ds.bin")
    config = build_config(trainer.TrainConfig, root / "train.cfg")
    trainer.checkpoint_save(trainer.init_train_state(config, dataset),
                            root / "checkpoint.bin")
    (root / "scores.csv").write_text(
        "sample_id,score\n0,0.5\n1,0.25\n2,1e-3\n3,-7\n")
    cli.write_manifest(root, "synth", ["synth"], {}, {}, [root / "ds.bin"],
                       started=0.0)
    files = {"dataset": "ds.bin", "dataset stream": "ds.bin",
             "checkpoint": "checkpoint.bin",
             "synth config": "synth.cfg", "train config": "train.cfg",
             "scores": "scores.csv", "manifest": "manifest.json"}
    raw = {kind: (root / name).read_bytes() for kind, name in files.items()}
    for kind, data in raw.items():
        path = root / f"check-{files[kind]}"
        path.write_bytes(data)
        LOADERS[kind](path)
    return raw


@st.composite
def mutated(draw, raw):
    how = draw(st.sampled_from(["overwrite", "truncate", "append"]))
    if how == "append":
        return raw + draw(st.binary(min_size=1, max_size=16))
    at = draw(st.integers(0, len(raw) - 1))
    if how == "truncate":
        return raw[:at]
    data = draw(st.binary(min_size=1, max_size=8))
    return raw[:at] + data + raw[at + len(data):]


def test_mutated_files_load_or_raise_fiq_errors(originals, tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated")

    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def check(data):
        kind = data.draw(st.sampled_from(sorted(LOADERS)))
        path = root / "file"
        path.write_bytes(data.draw(mutated(originals[kind])))
        try:
            LOADERS[kind](path)
        except FiqError:
            pass

    check()
