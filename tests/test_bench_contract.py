"""What the benchmark in ``chainbench/`` reads of the program.

The benchmark wraps fiqlab functions by name and parses checkpoints
with its own reader.  Both modules are loaded here by path, read-only,
so a renamed traced function or a changed checkpoint layout fails these
tests instead of a benchmark run.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fiqlab import cli, synthdata, trainer

ROOT = Path(__file__).resolve().parents[1]
CHAINBENCH = ROOT / "chainbench"


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


# Trains one epoch of each variant under the benchmark's tracer and prints,
# per variant, the traced metrics plus the number of batch-build blocks.
TRACED_TRAINING = """
import importlib.util, json, sys
from fiqlab import cli, synthdata, trainer  # every traced module loaded
spec = importlib.util.spec_from_file_location("chainbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
# 1,200 samples: two batch-build blocks an epoch
ds = synthdata.gen_dataset(synthdata.SynthConfig(
    num_classes=40, samples_per_class=30, side=12, seed=21))
variants = ("ig", "cr")
tracer.active = True
for tracer.round, variant in enumerate(variants):
    trainer.run_training(trainer.apply_variant(trainer.TrainConfig(
        batch_size=8, epochs=1, embed_dim=16, hidden_dim=24, scale=8.0,
        margin=0.3), variant), ds)
tracer.active = False
a = tracer.arrays()
build = [stem for _, _, stem, _, _ in spans.SPANS].index("trainer.batch_build")
print(json.dumps({variant: dict(
    values, blocks=int((a["name"][a["round"] == r] == build).sum()))
    for (r, values), variant in zip(sorted(tracer.per_round().items()),
                                    variants)}))
"""


def test_traced_names_do_the_training_work():
    # in a subprocess: the tracer rebinds module attributes process-wide
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_TRAINING, str(CHAINBENCH / "spans.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["ig"]["blocks"] == 2
    assert got["ig"]["synthdata.augment_calls"] == got["ig"]["blocks"]
    assert got["cr"]["synthdata.augment_calls"] == 0
    for variant in ("ig", "cr"):
        assert got[variant]["synthdata.hflip_s"] > 0.0, variant
    assert got["ig"]["synthdata.augment_s"] > 0.0


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

# Every CSV the probe chain writes, by the command that writes it.
PROBE_CSV_SHA256 = {
    "run/report.csv":
        "293fd9597cdfee09eafd3941cb0ef4c66712c9fee347278e52613288f3508d76",
    "run/class_weights.csv":
        "dd56cfd4458f9772c5375a71fc7e5ad2c2c9de1c2d541ee316a6a8fde3cafa0e",
    "score/scores.csv":
        "655a60a09d1c62b48bb56ca54422a1ebbfa1a966332961a2efc29c3414385d3c",
    "erc/erc_curve.csv":
        "7ac533d77c29c66233fdc7a40cffd7636db8ebcb00556eac26c0d884b0e195b8",
    "erc/erc_auc.csv":
        "5dec2cdaa02a60da04febda497bbe78de8bfb2ad27e69634e7d62f7fb76734b5",
    "erc/pairs.csv":
        "b3c887b1800680f8735e0530a9db1a0e8864a4ff9bfa95444de7955dcee5ff7c",
}


@pytest.fixture(scope="module")
def probe_chain(tmp_path_factory):
    """The benchmark's probe chain, synth -> train -> score -> erc, run
    once through the CLI; returns its root directory."""
    root = tmp_path_factory.mktemp("probe")
    workloads = load("workloads")
    for name, fields in (("synth", workloads.PROBE_SYNTH),
                         ("train", workloads.PROBE_TRAIN)):
        (root / f"{name}.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in fields.items()),
            encoding="utf-8")
    ds, ckpt = root / "data" / "ds.bin", root / "run" / "checkpoint.bin"
    for argv in (
            ["synth", "--config", root / "synth.cfg", "--out", ds],
            ["train", "--config", root / "train.cfg", "--dataset", ds,
             "--out", root / "run", "--variant", "ig"],
            ["score", "--checkpoint", ckpt, "--dataset", ds,
             "--out", root / "score" / "scores.csv"],
            ["erc", "--checkpoint", ckpt, "--dataset", ds,
             "--scores", root / "score" / "scores.csv",
             *workloads.PROBE_ERC, "--out", root / "erc"]):
        assert cli.main([str(a) for a in argv]) == 0, argv[0]
    return root


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_probe_checkpoint_digest(probe_chain):
    assert sha256(probe_chain / "run" / "checkpoint.bin") == PROBE_SHA256


def test_probe_csv_digests(probe_chain):
    assert {name: sha256(probe_chain / name)
            for name in PROBE_CSV_SHA256} == PROBE_CSV_SHA256
