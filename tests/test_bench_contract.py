"""What the benchmark in ``chainbench/`` reads of the program.

The benchmark wraps fiqlab functions by name and parses checkpoints
with its own reader.  Both modules are loaded here by path, read-only,
so a renamed traced function or a changed checkpoint layout fails these
tests instead of a benchmark run.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fiqlab import cli, synthdata, trainer

CHAINBENCH = Path(__file__).resolve().parents[1] / "chainbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"chainbench_{name}", CHAINBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,function",
                         [span[:2] for span in load("spans").SPANS])
def test_traced_function_exists(module, function):
    fn = getattr(importlib.import_module(f"fiqlab.{module}"), function, None)
    assert callable(fn), f"fiqlab.{module}.{function}"


def test_checkpoint_parses_as_the_benchmark_reads_it(tmp_path):
    ds = synthdata.gen_dataset(synthdata.SynthConfig(
        num_classes=8, samples_per_class=6, side=12, seed=21))
    cfg = trainer.TrainConfig(batch_size=8, epochs=1, embed_dim=16,
                              hidden_dim=24, scale=8.0, margin=0.3)
    state, _ = trainer.run_training(cfg, ds)
    trainer.checkpoint_save(state, tmp_path / "ckpt.bin")
    ckpt = load("checks").read_checkpoint(tmp_path / "ckpt.bin")
    assert not ckpt["has_bias"]
    assert ckpt["global_step"] == state.global_step
    assert np.array_equal(ckpt["v"], state.tracker.v)
    keys = {"bank_w": "bank"}  # the benchmark's name for the prototypes
    read = {"v"}
    for name, arr in state.params().items():
        key = keys.get(name, name)
        assert np.array_equal(ckpt[key], arr), name
        assert np.array_equal(ckpt[f"m_{key}"], state.momentum[name]), name
        read |= {key, f"m_{key}"}
    assert read == {k for k, v in ckpt.items() if isinstance(v, np.ndarray)}


# The probe checkpoint every benchmark run prints; a change that moves
# one of its bits shows here, not only in the benchmark's output.
PROBE_SHA256 = "370ae71c4c0b55b11f394ed2408445962f80b09f8cd9550332bf292a95ad2d2b"


def test_probe_checkpoint_digest(tmp_path):
    workloads = load("workloads")
    for name, fields in (("synth", workloads.PROBE_SYNTH),
                         ("train", workloads.PROBE_TRAIN)):
        (tmp_path / f"{name}.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in fields.items()),
            encoding="utf-8")
    ds = tmp_path / "data" / "ds.bin"
    assert cli.main(["synth", "--config", str(tmp_path / "synth.cfg"),
                     "--out", str(ds)]) == 0
    assert cli.main(["train", "--config", str(tmp_path / "train.cfg"),
                     "--dataset", str(ds), "--out", str(tmp_path / "run"),
                     "--variant", "ig"]) == 0
    ckpt = (tmp_path / "run" / "checkpoint.bin").read_bytes()
    assert hashlib.sha256(ckpt).hexdigest() == PROBE_SHA256
