"""The experiment scripts' CSV files, byte for byte, with the
experiments replaced by fixed runs."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fiqlab import reference

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *map(str, argv)])
    module.main()


def test_tracker_correlation_csv(tmp_path, monkeypatch):
    runs = {
        0: reference.CorrelationRun(
            seed=0, rho_epoch2=0.1234565,
            rho_final_scheduled=np.float64(0.9),
            rho_final_fixed={0.9: -0.5, 0.99: 1 / 3},
            dup_zero_fraction=0.25,
            normal_high_fraction=np.float64(2 / 3)),
        1: reference.CorrelationRun(
            seed=1, rho_epoch2=5e-05, rho_final_scheduled=1.0,
            rho_final_fixed={0.9: np.float64(0.71828125), 0.99: 0.12345},
            dup_zero_fraction=0.03125, normal_high_fraction=5e-05),
    }
    monkeypatch.setattr(reference, "run_correlation_experiment",
                        lambda seed, epochs: runs[seed])
    run_script("run_tracker_correlation", monkeypatch, "--seeds", 2,
               "--out", tmp_path)
    assert (tmp_path / "correlation.csv").read_bytes() == (
        b"seed,rho_epoch2,rho_final_scheduled,rho_final_alpha0.9,"
        b"rho_final_alpha0.99,dup_zero_fraction,normal_high_fraction\n"
        b"0,0.123456,0.900000,-0.500000,0.333333,0.2500,0.6667\n"
        b"1,0.000050,1.000000,0.718281,0.123450,0.0312,0.0001\n")


def test_variant_comparison_csv(tmp_path, monkeypatch):
    def comparison(seed, eval_model, fmr, epochs):
        assert eval_model == "eval model"
        return reference.VariantComparison(
            seed=seed, auc={"ig": 0.1234565 + seed, "cr": np.float64(0.9)},
            clean_fnmr={"ig": -0.5, "cr": 1 / 3, "cr-aug": 5e-05},
            score_quality_rank={"ig": 0.03125, "cr": np.float64(2 / 3)})

    monkeypatch.setattr(reference, "train_eval_reference_model",
                        lambda: "eval model")
    monkeypatch.setattr(reference, "run_variant_comparison", comparison)
    run_script("run_variant_comparison", monkeypatch, "--seeds", 2,
               "--out", tmp_path)
    assert (tmp_path / "comparison.csv").read_bytes() == (
        b"seed,auc_ig,auc_cr,fnmr_ig,fnmr_cr,fnmr_cr_aug,rank_ig,rank_cr\n"
        b"0,0.123456,0.900000,-0.500000,0.333333,0.000050,0.0312,0.6667\n"
        b"1,1.123457,0.900000,-0.500000,0.333333,0.000050,0.0312,0.6667\n")
